"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import itertools
import json
import math
import time

import numpy as np

from bellcert.bell import (
    BellExpression,
    bell_coefficients,
    bell_operators,
    bell_terms,
    classical_bound,
    quantum_value,
    setting_stacks,
)
from bellcert.certify import run_full_certification
from bellcert.cli import main
from bellcert.quantum import (
    Interaction,
    post_measurement_states,
    pure_state,
    white_noise_mix,
)
from bellcert.reference import (
    ghz_like_vector,
    pre_interaction_basis,
    reference_strategy,
    target_observables,
)
from bellcert.scenario import Strategy, run_scenario, scramble_strategy
from bellcert.seesaw import seesaw_restarts
from bellcert.serialize import matrix_from_payload, save_strategy

from conftest import (
    diag_phase_deviation,
    phase_distance,
    projective_observable,
    sos_residual,
    swap_deviation,
)

SQRT2 = math.sqrt(2.0)


def _report(line):
    print(f"\n[PASS] {line}")


def test_criterion_1_two_party_bounds():
    start = time.perf_counter()
    beta_c = classical_bound(BellExpression(2, (0, 0)))
    assert abs(beta_c - SQRT2) < 1e-12
    obs = target_observables(2)
    for bits in itertools.product((0, 1), repeat=2):
        expr = BellExpression(2, bits)
        state = pure_state(ghz_like_vector(bits), (2, 2))
        value = quantum_value(state, obs, expr)
        assert abs(value - 2.0) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(
        f"criterion 1: N=2 classical bound {beta_c:.12f} (= sqrt2 within 1e-12), "
        f"all four reference values = 2 within 1e-10, {elapsed:.2f}s < 1s"
    )


def test_criterion_2_multiparty_bounds():
    start = time.perf_counter()
    for n in (3, 4, 5):
        beta_c = classical_bound(BellExpression(n, (0,) * n))
        assert abs(beta_c - SQRT2 * (n - 1)) < 1e-12
        obs = target_observables(n)
        for bits in itertools.product((0, 1), repeat=n):
            expr = BellExpression(n, bits)
            state = pure_state(ghz_like_vector(bits), (2,) * n)
            assert abs(quantum_value(state, obs, expr) - 2.0 * (n - 1)) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        f"criterion 2: N=3,4,5 classical bounds = sqrt2*(N-1) within 1e-12 and all "
        f"2^N reference values = 2(N-1) within 1e-10, {elapsed:.2f}s < 10s"
    )


def seesaw_sos_residual(expr, observables):
    """The SOS residual of the Bell operator the seesaw builds, with the
    ``bell_terms`` weights, against the padded Kronecker witnesses."""
    operator = bell_operators(bell_coefficients(expr), setting_stacks(observables))
    return np.max(np.abs(sos_residual(expr, observables, operator, bell_terms(expr)[2])))


def test_criterion_3_sos_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in (2, 3, 4):
        for _ in range(100):
            bits = tuple(int(b) for b in rng.integers(0, 2, size=n))
            obs = [
                (projective_observable(2, rng), projective_observable(2, rng))
                for _ in range(n)
            ]
            residual = seesaw_sos_residual(BellExpression(n, bits), obs)
            worst = max(worst, residual)
            assert residual < 1e-9
    shrunk = [(0.9 * target_observables(2)[0][0], target_observables(2)[0][1])] + [
        target_observables(2)[1]
    ]
    broken = seesaw_sos_residual(BellExpression(2, (0, 0)), shrunk)
    assert broken > 1e-3
    _report(
        f"criterion 3: SOS residual < 1e-9 over 100 random projective strategies per "
        f"N in (2,3,4) (worst {worst:.2e}); contracted observable residual "
        f"{broken:.3f} > 1e-3"
    )


def test_criterion_4_reference_interaction_action():
    worst = 1.0
    for n in (2, 3):
        interaction, identities = reference_strategy(n).interaction, [np.eye(2)[None]] * n
        for bits, vec in pre_interaction_basis(n):
            (out,) = post_measurement_states(pure_state(vec, (2,) * n), identities, interaction)
            phi = ghz_like_vector(bits)
            fidelity = float(np.real(np.conj(phi) @ out.density @ phi))
            worst = min(worst, fidelity)
            assert abs(fidelity - 1.0) < 1e-12
    _report(
        f"criterion 4: interaction maps every first-round branch onto its "
        f"entangled target, fidelity 1 within 1e-12 (worst {worst:.15f})"
    )


def test_criterion_5_two_party_roundtrip(tmp_path):
    start = time.perf_counter()
    ref = reference_strategy(2)
    aux_choices = list(itertools.product((1, 2, 3), repeat=2))
    worst = 0.0
    for i in range(25):
        aux = aux_choices[i % len(aux_choices)]
        scrambled = scramble_strategy(ref, aux, seed=10_000 + i)
        strategy_path = tmp_path / f"s{i}.json"
        report_path = tmp_path / f"r{i}.json"
        save_strategy(scrambled.strategy, strategy_path, meta={"seed": 10_000 + i})
        exit_code = main(
            ["certify", str(strategy_path), "--report", str(report_path)]
        )
        assert exit_code == 0, f"seed {10_000 + i}, aux {aux}: exit {exit_code}"
        data = json.loads(report_path.read_text())
        recovered = matrix_from_payload(data["interaction"]["aux_unitary"], "aux_unitary")
        dist = phase_distance(recovered, scrambled.aux_unitary)
        worst = max(worst, dist)
        assert dist < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        f"criterion 5: 25 scrambled two-party strategies certified (exit 0), planted "
        f"auxiliary unitary recovered up to phase (worst {worst:.2e} < 1e-8), "
        f"{elapsed:.1f}s < 60s"
    )


def test_criterion_6_three_party_roundtrip():
    start = time.perf_counter()
    ref = reference_strategy(3)
    aux_choices = list(itertools.product((1, 2), repeat=3))
    worst = 0.0
    for i in range(10):
        aux = aux_choices[i % len(aux_choices)]
        scrambled = scramble_strategy(ref, aux, seed=20_000 + i)
        report = run_full_certification(scrambled.strategy)
        assert report.verdict == "certified", (aux, report.failures)
        dist = phase_distance(report.interaction.aux_unitary, scrambled.aux_unitary)
        worst = max(worst, dist)
        assert dist < 1e-8
        assert report.interaction.residual < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        f"criterion 6: 10 scrambled three-party strategies certified, auxiliary "
        f"unitary recovered (worst {worst:.2e} < 1e-8), {elapsed:.1f}s < 120s"
    )


def test_criterion_7_refutation_power(tmp_path):
    ref = reference_strategy(2)

    swap_path = tmp_path / "swap.json"
    save_strategy(swap_deviation(ref), swap_path)
    swap_exit = main(["certify", str(swap_path)])
    assert swap_exit == 1

    phase_path = tmp_path / "phase.json"
    save_strategy(diag_phase_deviation(ref), phase_path)
    phase_exit = main(["certify", str(phase_path)])
    assert phase_exit == 1

    identity = Strategy(
        source_state=ref.source_state,
        observables_t1=ref.observables_t1,
        observables_t2=ref.observables_t2,
        interaction=Interaction(np.eye(4), (2, 2), (2, 2)),
    )
    record = run_scenario(identity)
    max_t2 = max(record.t2_bell_values.values())
    assert max_t2 <= SQRT2 + 1e-9
    report = run_full_certification(identity)
    assert report.verdict != "certified"
    _report(
        f"criterion 7: swap deviation exit {swap_exit}, diagonal-phase deviation exit "
        f"{phase_exit} (both refuted); identity interaction max conditional value "
        f"{max_t2:.6f} <= sqrt2 + 1e-9 and verdict '{report.verdict}'"
    )


def test_criterion_8_seesaw_corroboration():
    start = time.perf_counter()
    bests = {}
    for n in (2, 3):
        expr = BellExpression(n, (0,) * n)
        results = seesaw_restarts(expr, (2,) * n, range(20))
        best = max(r.value for r in results)
        assert best >= expr.quantum_bound - 1e-6
        assert all(r.value <= expr.quantum_bound + 1e-9 for r in results)
        bests[n] = best
    expr = BellExpression(2, (0, 0))
    dim3 = seesaw_restarts(expr, (3, 3), range(20))
    assert all(r.value <= expr.quantum_bound + 1e-9 for r in dim3)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        f"criterion 8: best-of-20 seesaw reaches {bests[2]:.9f} (N=2) and "
        f"{bests[3]:.9f} (N=3) >= bound - 1e-6 at qubit dimension; 20 runs at local "
        f"dimension 3 never exceed 2 + 1e-9, {elapsed:.1f}s < 60s"
    )


def test_criterion_9_noise_behavior():
    ref = reference_strategy(2)
    verdicts = []
    for v10 in range(11):
        v = v10 / 10.0
        mixed = Strategy(
            source_state=white_noise_mix(ref.source_state, v),
            observables_t1=ref.observables_t1,
            observables_t2=ref.observables_t2,
            interaction=ref.interaction,
        )
        record = run_scenario(mixed)
        assert abs(record.t1_bell_value - 2.0 * v) < 1e-10
        report = run_full_certification(mixed)
        verdicts.append((v, report.verdict))
    assert all(verdict == "certified" for v, verdict in verdicts if v == 1.0)
    assert all(verdict != "certified" for v, verdict in verdicts if v < 1.0)
    _report(
        "criterion 9: Bell value equals 2v within 1e-10 across the sweep; "
        "certified only at v = 1.0"
    )
