"""bellcert: simulate the two-round Bell scenario and certify the
entangling interaction between the rounds from its statistics."""

from .bell import (
    BellExpression,
    build_bell_operator,
    classical_bound,
    quantum_value,
    sos_residual,
)
from .certify import (
    CertificationReport,
    LocalFrame,
    certify_interaction,
    certify_source_state,
    run_full_certification,
)
from .linalg import (
    EigenDecomposition,
    herm_eig,
    kron,
)
from .quantum import (
    Interaction,
    QuantumState,
    pure_state,
    random_unitary,
    white_noise_mix,
)
from .reference import entangling_unitary, ghz_like_vector, reference_strategy
from .scenario import (
    CorrelationRecord,
    Strategy,
    run_scenario,
    scramble_strategy,
)
from .seesaw import seesaw_restarts

__version__ = "0.1.0"
