"""Checks on the program's outputs.

Each check compares an output with a computation made apart from the
program (``oracle``) or with a property the method must have; none compares
with a stored copy of an earlier output.  A check returns a list of error
strings, empty when the output is correct.
"""

from __future__ import annotations

import json

import numpy as np

import oracle

BELL_TOL = 1e-9  # maximal Bell values must sit this close to 2(N-1)
NOISE_TOL = 1e-10  # the t1 value of a noisy source is v * 2(N-1)
AUX_TOL = 1e-8  # recovered auxiliary unitary against the planted V0
PROB_TOL = 1e-12  # simulated probabilities against both references
SEESAW_UPPER_TOL = 1e-9  # no restart may pass the quantum bound
SEESAW_LOWER_TOL = 1e-6  # the best restart reaches the quantum bound
SQUARE_TOL = 1e-9  # seesaw observables square to the identity

EXIT_CODES = {"certified": 0, "refuted": 1, "inconclusive": 3}  # the CLI contract


def quantum_bound(parties: int) -> float:
    return 2.0 * (parties - 1)


def _json(stdout: str):
    """The machine output: the first line must hold the whole JSON document."""
    line = stdout.split("\n", 1)[0]
    return json.loads(line)


def certify_op(expect: dict, exit_code: int, stdout: str) -> tuple[bool, str, list[str]]:
    """Check one ``certify --format machine`` op.

    Returns ``(failed, verdict, errors)``.  An op fails when its verdict or
    exit code differs from the planted one; only the near-miss input may fail
    without making the run incorrect, because its verdict is a known fault.
    """
    try:
        report = _json(stdout)
        verdict = report["verdict"]
    except (ValueError, KeyError, TypeError) as exc:
        return True, "unreadable", [f"{expect['kind']}: machine output is not a report ({exc})"]
    errors = []
    if EXIT_CODES.get(verdict) != exit_code:
        errors.append(f"{expect['kind']}: exit code {exit_code} contradicts verdict {verdict}")
    failed = verdict != expect["verdict"] or exit_code != expect["exit"]
    if failed:
        if expect["kind"] != "near-miss":
            errors.append(f"{expect['kind']}: verdict {verdict} (exit {exit_code}), expected {expect['verdict']}")
        return True, verdict, errors

    beta = quantum_bound(expect["parties"])
    bell = report["checks"]["bell"]
    if len(bell) != 1 + 2 ** expect["parties"]:
        errors.append(f"{expect['kind']}: {len(bell)} Bell checks, expected {1 + 2 ** expect['parties']}")
    if expect["kind"] == "noise":
        target = expect["visibility"] * beta
        if not abs(bell[0]["value"] - target) <= NOISE_TOL:
            errors.append(f"noise: t1 Bell value {bell[0]['value']!r}, expected {target!r}")
    else:
        worst = max((abs(c["value"] - beta) for c in bell), default=np.inf)
        if not worst <= BELL_TOL:
            errors.append(f"{expect['kind']}: a Bell value is {worst:.3e} from {beta}")
    if verdict == "certified":
        try:
            got = oracle.matrix(report["interaction"]["aux_unitary"])
            dist = oracle.phase_distance(got, oracle.matrix(expect["aux_unitary"]))
        except (KeyError, TypeError, ValueError) as exc:
            dist, errors = np.inf, errors + [f"{expect['kind']}: no readable aux_unitary ({exc})"]
        if not dist <= AUX_TOL:
            errors.append(f"{expect['kind']}: aux_unitary is {dist:.3e} from the planted V0")
    return False, verdict, errors


def seesaw_op(parties: int, restarts: int, exit_code: int, stdout: str) -> list[str]:
    """Check one ``seesaw --format machine`` op against the quantum bound."""
    if exit_code != 0:
        return [f"seesaw: exit code {exit_code}"]
    try:
        out = _json(stdout)
        values, best = [float(v) for v in out["restart_values"]], float(out["best_value"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"seesaw: machine output is unreadable ({exc})"]
    beta = quantum_bound(parties)
    errors = []
    if len(values) != restarts:
        errors.append(f"seesaw: {len(values)} restart values, expected {restarts}")
    if not all(v <= beta + SEESAW_UPPER_TOL for v in values):
        errors.append(f"seesaw: a restart value {max(values)!r} passes the quantum bound {beta}")
    if not best >= beta - SEESAW_LOWER_TOL:
        errors.append(f"seesaw: best value {best!r} falls short of {beta}")
    if values and best != max(values):
        errors.append(f"seesaw: best value {best!r} is not the largest restart value")
    return errors


def seesaw_strategy(parties: int, out_file: dict, best_value: float) -> list[str]:
    """Recompute the value of a ``seesaw --out`` strategy with the oracle's
    Bell operator and check that every observable squares to the identity."""
    rho = oracle.matrix(out_file["state"])
    pairs = [[oracle.matrix(m) for m in pair] for pair in out_file["observables"]]
    errors = []
    for k, pair in enumerate(pairs):
        for j, o in enumerate(pair):
            defect = oracle.max_abs(o @ o - np.eye(o.shape[0]))
            if not defect <= SQUARE_TOL:
                errors.append(f"seesaw --out: observable ({k}, {j}) squares to I only within {defect:.3e}")
    value = float(np.real(np.trace(oracle.bell_operator(pairs, (0,) * parties) @ rho)))
    for label, claimed in (("value", out_file["value"]), ("best_value", best_value)):
        if not abs(value - claimed) <= SEESAW_UPPER_TOL:
            errors.append(f"seesaw --out: {label} {claimed!r}, recomputed {value!r}")
    if not value >= quantum_bound(parties) - SEESAW_LOWER_TOL:
        errors.append(f"seesaw --out: recomputed value {value!r} falls short of the bound")
    return errors


def _tables(record: dict) -> dict:
    """Every probability table of a record, keyed by its place in it."""
    tables = {("p1", x): probs for x, probs in record.get("p1", {}).items()}
    for event, settings in record.get("p2", {}).items():
        tables.update({("p2", event, x): probs for x, probs in settings.items()})
    return tables


def simulate_record(record: dict, references: dict[str, dict]) -> list[str]:
    """Compare ``simulate --format machine`` output with reference records
    laid out by ``oracle.record``."""
    got = _tables(record)
    errors = []
    for label, reference in references.items():
        want = _tables(reference)
        if set(got) != set(want):
            errors.append(f"simulate vs {label}: tables {sorted(set(got) ^ set(want))[:3]} differ")
            continue
        worst = max(oracle.max_abs(np.asarray(got[k], dtype=float) - want[k]) for k in want)
        if not worst <= PROB_TOL:
            errors.append(f"simulate vs {label}: probabilities differ by up to {worst:.3e}")
    return errors
