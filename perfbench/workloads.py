"""Workload definitions: the inputs of each workload and what each op must
return.

An op is one call of ``bellcert.cli.main(argv)``.  A workload is a cycle of
ops that every run repeats in whole rounds, so the share of failed ops is the
same in every run.  Certify inputs are generated with the package's public
functions (``reference_strategy``, ``scramble_strategy``, ``save_strategy``)
and described in a manifest that the measured process reads; seesaw ops need
no files.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

import oracle
from checks import EXIT_CODES

CERT_TOL = 1e-8  # certification acceptance tolerance of the package README
NOISE_VISIBILITY = 0.9

# The near-miss input does not depend on --seed: its verdict is a known
# program fault (the interaction residual is computed but never gated), so
# it must fail the same way in every run.  An interaction V exp(i eps H)
# with this epsilon stays inside every gate of the chain while its planted
# distance from U ox V0 is about four times CERT_TOL.
NEAR_MISS_SCRAMBLE_SEED = 1000
NEAR_MISS_H_SEED = 0
NEAR_MISS_EPSILON = 1.2e-7
NEAR_MISS_MIN_DISTANCE = 3 * CERT_TOL


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    parties: int
    aux_dims: tuple[int, ...] = ()  # certify workloads
    clean_inputs: int = 0
    planted: bool = False
    seesaw_dims: tuple[int, ...] = ()  # seesaw workload
    restarts: int = 0
    round_ops: int = 0

    @property
    def kind(self) -> str:
        return "seesaw" if self.seesaw_dims else "certify"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-qubits", parties=4, aux_dims=(1, 1, 1, 1), clean_inputs=5, planted=True),
        Workload("certify-aux", parties=2, aux_dims=(6, 6), clean_inputs=4),
        Workload("seesaw", parties=4, seesaw_dims=(3, 3, 3, 3), restarts=10, round_ops=8),
    )
}


def input_seeds(seed: int, count: int) -> list[int]:
    """Scramble seeds of the clean and seeded planted inputs of one run."""
    return [int(s) for s in np.random.default_rng([seed, 7]).integers(0, 2**31, size=count)]


def seesaw_argv(workload: Workload, seed: int, op: int, out: str | None = None) -> list[str]:
    """Op ``op`` of a seesaw round: its restart seeds follow those of op - 1."""
    argv = [
        "--format", "machine", "seesaw",
        "--parties", str(workload.parties),
        "--dims", ",".join(map(str, workload.seesaw_dims)),
        "--restarts", str(workload.restarts),
        "--seed", str(seed * 100_000 + op * workload.restarts),
    ]
    return argv + (["--out", out] if out else [])


def _with_interaction(strategy, matrix):
    from bellcert.quantum import Interaction

    inter = strategy.interaction
    return dataclasses.replace(strategy, interaction=Interaction(matrix, inter.dims_in, inter.dims_out))


def _frames(scrambled):
    c1 = oracle.canonical_transform(scrambled.frames_t1, scrambled.aux_dims)
    c2 = oracle.canonical_transform(scrambled.frames_t2, scrambled.aux_dims)
    return c1, c2


def planted_distance(scrambled, interaction: np.ndarray) -> float:
    """Max-norm distance of the interaction, rotated by the planted frames,
    from the reference entangling unitary times the planted V0."""
    c1, c2 = _frames(scrambled)
    target = oracle.kron(oracle.entangling_unitary(len(scrambled.aux_dims)), scrambled.aux_unitary)
    return oracle.max_abs(c2 @ interaction @ oracle.dag(c1) - target)


def near_miss(parties: int, aux_dims):
    """Scrambled reference whose interaction is ``V exp(i eps H)``, H a fixed
    random Hermitian of unit norm in the planted first-round frame."""
    from bellcert.reference import reference_strategy
    from bellcert.scenario import scramble_strategy

    scrambled = scramble_strategy(reference_strategy(parties), aux_dims, seed=NEAR_MISS_SCRAMBLE_SEED)
    c1, _ = _frames(scrambled)
    rng = np.random.default_rng(NEAR_MISS_H_SEED)
    d = c1.shape[0]
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + oracle.dag(g)) / 2.0
    h /= np.max(np.abs(np.linalg.eigvalsh(h)))
    v = scrambled.strategy.interaction.matrix @ oracle.dag(c1) @ oracle.herm_exp(h, NEAR_MISS_EPSILON) @ c1
    return scrambled, _with_interaction(scrambled.strategy, v)


def make_certify_inputs(workload: Workload, seed: int, outdir: Path) -> tuple[list[dict], list[str]]:
    """Write the input cycle of a certify workload; return the ops and the
    errors found in the planted constructions themselves."""
    # Imported at call time, so that a traced set-up sees the tracer's wrappers.
    from bellcert.quantum import white_noise_mix
    from bellcert.reference import reference_strategy
    from bellcert.scenario import scramble_strategy
    from bellcert.serialize import save_strategy

    n = workload.parties
    planted = 2 if workload.planted else 0
    seeds = input_seeds(seed, workload.clean_inputs + planted)
    reference = reference_strategy(n)
    ops, errors = [], []

    def add(name, strategy, kind, verdict, scrambled=None, **expect):
        path = outdir / f"{workload.name}-{name}.json"
        save_strategy(strategy, path)
        v0 = None if scrambled is None else oracle.payload(scrambled.aux_unitary)
        ops.append(
            {
                "name": name,
                "argv": ["--format", "machine", "certify", str(path)],
                "expect": {"kind": kind, "verdict": verdict, "exit": EXIT_CODES[verdict], "parties": n,
                           "aux_unitary": v0, **expect},
                "path": str(path),
            }
        )

    for i in range(workload.clean_inputs):
        s = scramble_strategy(reference, workload.aux_dims, seed=seeds[i])
        add(f"clean-{i}", s.strategy, "clean", "certified", s)
    if not workload.planted:
        return ops, errors

    # Diagonal phase in the pre-interaction product basis, applied in the
    # planted first-round frame: every Bell value stays maximal, the side
    # statistics break, so the verdict is refuted.
    s = scramble_strategy(reference, workload.aux_dims, seed=seeds[-2])
    c1, _ = _frames(s)
    phases = np.random.default_rng([seed, 11]).uniform(0.5, 2.5, size=2**n) * np.resize([1, -1], 2**n)
    phases[0] = 0.0
    aux = int(np.prod(workload.aux_dims))
    d = oracle.kron(oracle.diagonal_phase(n, phases), np.eye(aux))
    v = s.strategy.interaction.matrix @ oracle.dag(c1) @ d @ c1
    add("diag-phase", _with_interaction(s.strategy, v), "diag-phase", "refuted")

    # White noise on the source: the Bell premises fall short of maximal.
    s = scramble_strategy(reference, workload.aux_dims, seed=seeds[-1])
    noisy = dataclasses.replace(s.strategy, source_state=white_noise_mix(s.strategy.source_state, NOISE_VISIBILITY))
    add("noise", noisy, "noise", "inconclusive", visibility=NOISE_VISIBILITY)

    scrambled, strategy = near_miss(n, workload.aux_dims)
    distance = planted_distance(scrambled, strategy.interaction.matrix)
    if distance < NEAR_MISS_MIN_DISTANCE:
        errors.append(f"near-miss planted distance {distance:.3e} is below {NEAR_MISS_MIN_DISTANCE:g}")
    add("near-miss", strategy, "near-miss", "refuted", planted_distance=distance)
    return ops, errors


def make_inputs(workload: Workload, seed: int, outdir: Path) -> tuple[list[dict], list[str]]:
    """The ops of a round that need input files, and construction errors."""
    return make_certify_inputs(workload, seed, outdir) if workload.kind == "certify" else ([], [])


def write_manifest(path: Path, workload: Workload, seed: int, ops: list[dict]) -> None:
    path.write_text(json.dumps({"workload": workload.name, "seed": seed, "ops": ops}))
