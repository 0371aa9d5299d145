"""Command-line front end.

Exit codes are a stable contract:

* 0 - success (for ``certify``: verdict certified)
* 1 - ``certify`` refuted the product-form claim
* 2 - usage, parse or validation error, or any other failure, reported as
  one ``error:`` line on stderr
* 3 - ``certify`` was inconclusive

stderr holds nothing else: numpy's floating-point warnings are silenced
while a command runs.

Relative output paths are resolved against ``$BELLCERT_OUTPUT_DIR`` when that
variable is set.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bell import BellExpression, classical_bound, quantum_value
from .certify import MAX_VIOLATION_TOL, run_full_certification
from .quantum import white_noise_mix
from .reference import reference_strategy
from .scenario import Strategy, run_scenario, scramble_strategy, second_round_tables
from .seesaw import seesaw_restarts
from .serialize import (
    SCHEMA_VERSION,
    SerializationError,
    _bits,
    declared_dims,
    dumps,
    matrix_payload,
    parse_json,
    read_input,
    record_to_dict,
    report_to_dict,
    save_strategy,
    strategy_from_dict,
    write_json,
)

_log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# Largest total dimension D = prod(dims) that ``seesaw`` accepts: every
# iteration forms each running restart's D x D Bell operator and factors it
# for the Cholesky check (O(D^3) time per restart; one restart takes
# 0.7-1.0 s on one core at D = 1024, over 4 iterations), the restarts of a
# chunk holding up to ``quantum.CHUNK_BYTES`` of them at once, and the
# coefficient tensor holds 3^N floats.
MAX_SEESAW_DIM = 1024


# Largest branch stack that ``simulate``, ``certify`` and ``noise-sweep`` will
# build, counted as (2^N + 1) D^2 complex entries: each holds the factors of
# the 2^N + 1 conditional states, (2^N + 1) D r entries, as many at a source
# of full rank r = D.  ``simulate`` writing a record also holds the (2^N + 1,
# 4^N) outcome tables for qubits, as many doubles again; ``certify`` and
# ``noise-sweep`` build none.  N = 5 with auxiliary dimension 2 (D = 1024)
# counts 0.55 GB; N = 6 with auxiliary dimension 2 would count 17 GB, and
# N = 9 qubits 2.15 GB.
MAX_BRANCH_STACK_BYTES = 1 << 30


def _check_branch_stack(command: str, parties: int, local_dims=None) -> None:
    """Refuse a strategy whose branch stack would exceed the bound.

    Without ``local_dims`` (``make-strategy`` before ``--aux-dims`` is read)
    every local dimension is at least 2, so the stack holds at least
    2^N * 4^N entries: over 8 parties the count alone is over the bound.
    A loaded strategy may have dimension-1 parties, so its size is exact.
    """
    if local_dims is None:
        if parties <= 8:
            return
        need = f"{parties} parties need at least 2^{3 * parties + 4} bytes"
    else:
        size = (2**parties + 1) * math.prod(local_dims) ** 2 * 16
        if size <= MAX_BRANCH_STACK_BYTES:
            return
        need = f"local dims {tuple(local_dims)} need {size / 2**30:.2f} GiB"
    raise SystemExit(
        _usage_error(
            f"{command}: the branch stack of (2^N + 1) D^2 complex entries is over the "
            f"limit of {MAX_BRANCH_STACK_BYTES / 2**30:g} GiB: {need}"
        )
    )


def _out_path(name: str | os.PathLike) -> Path:
    p = Path(name)
    base = os.environ.get("BELLCERT_OUTPUT_DIR")
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise SystemExit(_usage_error(f"{what}: expected comma-separated integers, got {text!r}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _check_tolerance(value: float, command: str) -> None:
    # NaN fails every Bell check and inf passes every one, so neither is a tolerance.
    if not (math.isfinite(value) and value > 0.0):
        raise SystemExit(
            _usage_error(f"{command}: --tolerance must be finite and positive, got {value:g}")
        )


def _print_json(data) -> None:
    print(dumps(data).decode())


def _load(path: str, command: str) -> tuple[Strategy, bytes]:
    """The strategy in ``path`` and the bytes it was parsed from, read once,
    so a digest describes exactly what was loaded.  The branch-stack guard
    reads the file's declared dims before any matrix is converted or
    validated (the source's ``eigh`` is cubic in D)."""
    try:
        raw = read_input(path)
        data = parse_json(raw, path)
        try:
            dims = declared_dims(data)[0]
        except SerializationError:
            dims = None  # malformed: ``strategy_from_dict`` names the field
        if dims:
            _check_branch_stack(command, len(dims), dims)
        strategy = strategy_from_dict(data)
    except SerializationError as exc:
        raise SystemExit(_usage_error(str(exc)))
    return strategy, raw


def cmd_bounds(args) -> int:
    n = args.parties
    if not 2 <= n <= 10:
        return _usage_error("bounds: party count must be between 2 and 10")
    expr = BellExpression(n, (0,) * n)
    beta_c = classical_bound(expr)
    ref = reference_strategy(n)
    achieved = quantum_value(ref.source_state, ref.observables_t1, expr)
    if args.format == "machine":
        _print_json(
            {
                "parties": n,
                "classical_bound": beta_c,
                "classical_bound_analytic": expr.classical_bound_analytic,
                "quantum_bound": expr.quantum_bound,
                "reference_value": achieved,
            }
        )
    else:
        print(f"parties                 : {n}")
        print(f"classical bound (enum)  : {beta_c:.12f}")
        print(f"classical bound (exact) : sqrt(2)*(N-1) = {expr.classical_bound_analytic:.12f}")
        print(f"quantum bound           : 2*(N-1) = {expr.quantum_bound:.12f}")
        print(f"reference strategy value: {achieved:.12f}")
    return EXIT_OK


def cmd_make_strategy(args) -> int:
    if args.parties < 2:
        return _usage_error("make-strategy: need at least 2 parties")
    if args.seed < 0:
        return _usage_error(f"make-strategy: --seed must be >= 0, got {args.seed}")
    _check_branch_stack("make-strategy", args.parties)
    aux = [1] * args.parties
    if args.scramble and args.aux_dims is not None:
        aux = _parse_int_list(args.aux_dims, "--aux-dims")
        if len(aux) != args.parties or any(k < 1 for k in aux):
            return _usage_error("make-strategy: --aux-dims needs one entry >= 1 per party")
    _check_branch_stack("make-strategy", args.parties, [2 * k for k in aux])
    strategy = reference_strategy(args.parties)
    meta = {"parties": args.parties, "kind": "reference"}
    if args.scramble:
        scrambled = scramble_strategy(strategy, aux, seed=args.seed)
        strategy = scrambled.strategy
        meta = {"parties": args.parties, "kind": "scrambled", "seed": args.seed, "aux_dims": aux}
    elif args.aux_dims is not None:
        return _usage_error("make-strategy: --aux-dims requires --scramble")
    if args.visibility != 1.0:
        if not 0.0 <= args.visibility <= 1.0:
            return _usage_error("make-strategy: --visibility must lie in [0, 1]")
        strategy = dataclasses.replace(
            strategy, source_state=white_noise_mix(strategy.source_state, args.visibility)
        )
        meta["visibility"] = args.visibility
    out = _out_path(args.out)
    save_strategy(strategy, out, meta=meta)
    if args.format != "machine":  # machine output is JSON or nothing
        print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    strategy, _ = _load(args.strategy, "simulate")
    try:
        record = run_scenario(strategy)
        data = None
        if args.out or args.format == "machine":  # the only place p2 is built
            data = record_to_dict(record, second_round_tables(record, strategy.observables_t2))
    except ValueError as exc:
        return _usage_error(f"simulate: {exc}")
    if args.out:
        write_json(data, _out_path(args.out))
    if args.format == "machine":
        _print_json(data)
        return EXIT_OK
    beta_q = BellExpression(record.parties, (0,) * record.parties).quantum_bound
    print(f"parties: {record.parties}   quantum bound: {beta_q:g}")
    print(f"Bell value at t1 (all-zero target): {record.t1_bell_value:.9f}")
    print("conditional Bell values at t2:")
    for outcomes, value in sorted(record.t2_bell_values.items()):
        print(f"  outcomes {_bits(outcomes)}: {value:.9f}")
    if record.extra_stats is None:
        print("side statistics: conditioning event has vanishing probability")
    else:
        print("side statistics:")
        for label, value, target in record.extra_stats:
            print(f"  {label}: {value:+.9f} (target {target:+g})")
    return EXIT_OK


def cmd_certify(args) -> int:
    _check_tolerance(args.tolerance, "certify")
    strategy, raw = _load(args.strategy, "certify")
    report = run_full_certification(strategy, max_violation_tol=args.tolerance)
    provenance = {
        "input": str(args.strategy),
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "max_violation_tol": args.tolerance,
    }
    data = report_to_dict(report, provenance) if args.report or args.format == "machine" else None
    if args.report:
        write_json(data, _out_path(args.report))
    if args.format == "machine":
        _print_json(data)
    else:
        print(f"verdict: {report.verdict}")
        for c in report.bell_checks:
            print(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.value:.9f} (tol {c.tolerance:g})")
        for c in report.extra_stat_checks:
            print(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.value:+.9f} (tol {c.tolerance:g})")
        if report.state_residual is not None:
            c = report.state_residual
            print(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.value:.3e} (tol {c.tolerance:g})")
        if report.state is not None:
            print(f"  auxiliary state min eigenvalue: {report.state.min_eigenvalue:.3e}")
        if report.interaction is not None:
            ic = report.interaction
            print(
                f"  interaction: residual={ic.residual:.3e} "
                f"proportionality={ic.proportionality_error:.3e}"
            )
        for failure in report.failures:
            print(f"  ! {failure}")
    if report.verdict == "certified":
        return EXIT_OK
    if report.verdict == "refuted":
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def cmd_noise_sweep(args) -> int:
    _check_tolerance(args.tolerance, "noise-sweep")
    strategy, _ = _load(args.strategy, "noise-sweep")
    try:
        visibilities = [float(v) for v in args.visibilities.split(",")]
    except ValueError:
        return _usage_error(f"--visibilities: expected comma-separated floats, got {args.visibilities!r}")
    if any(not 0.0 <= v <= 1.0 for v in visibilities):
        return _usage_error("--visibilities: every value must lie in [0, 1]")
    rows = []
    for v in visibilities:
        mixed = dataclasses.replace(strategy, source_state=white_noise_mix(strategy.source_state, v))
        report = run_full_certification(mixed, max_violation_tol=args.tolerance)
        if not report.bell_checks:  # the scenario could not be simulated
            return _usage_error(f"noise-sweep: {report.failures[0]}")
        t1, *t2 = (c.value for c in report.bell_checks)
        t2 = [value for value in t2 if not math.isnan(value)]  # NaN: vanishing event
        rows.append(
            {
                "visibility": v,
                "t1_bell_value": t1,
                "min_t2_bell_value": min(t2) if t2 else float("nan"),
                "verdict": report.verdict,
            }
        )
    if args.out:
        sweep = {"schema_version": SCHEMA_VERSION, "kind": "noise_sweep", "rows": rows}
        write_json(sweep, _out_path(args.out))
    if args.format == "machine":
        _print_json(rows)
    else:
        # the shortest repr, so that rows with nearby visibilities stay apart
        width = max(6, *(len(repr(r["visibility"])) for r in rows))
        print(f"{'v':>{width}}  {'t1 value':>12}  {'min t2 value':>12}  verdict")
        for r in rows:
            print(
                f"{r['visibility']!r:>{width}}  {r['t1_bell_value']:12.9f}  "
                f"{r['min_t2_bell_value']:12.9f}  {r['verdict']}"
            )
    return EXIT_OK


def cmd_seesaw(args) -> int:
    if args.parties < 2:
        return _usage_error("seesaw: need at least 2 parties")
    if args.restarts < 1:
        return _usage_error("seesaw: --restarts must be at least 1")
    if args.seed < 0:
        return _usage_error(f"seesaw: --seed must be >= 0, got {args.seed}")
    # Every local dimension is at least 2, so D >= 2^N: refuse a party count
    # over the bound before a per-party list is built.
    if args.parties > math.log2(MAX_SEESAW_DIM):
        return _usage_error(
            f"seesaw: {args.parties} parties give total dimension at least "
            f"2^{args.parties}, over the limit of {MAX_SEESAW_DIM}"
        )
    dims = (
        [2] * args.parties if args.dims is None else _parse_int_list(args.dims, "--dims")
    )
    if len(dims) != args.parties or any(d < 2 for d in dims):
        return _usage_error("seesaw: --dims needs one entry >= 2 per party")
    if math.prod(dims) > MAX_SEESAW_DIM:
        return _usage_error(
            f"seesaw: total dimension {math.prod(dims)} = prod(--dims) is over the limit "
            f"of {MAX_SEESAW_DIM}"
        )
    expr = BellExpression(args.parties, (0,) * args.parties)
    seeds = range(args.seed, args.seed + args.restarts)
    results = seesaw_restarts(expr, tuple(dims), seeds)
    best = max(results, key=lambda r: r.value)
    if args.format == "machine":
        _print_json(
            {
                "parties": args.parties,
                "dims": dims,
                "quantum_bound": expr.quantum_bound,
                "best_value": best.value,
                "restart_values": [r.value for r in results],
            }
        )
    else:
        print(f"quantum bound: {expr.quantum_bound:g}")
        for seed, r in zip(seeds, results):
            print(f"  seed {seed}: value {r.value:.12f} ({r.iterations} iterations)")
        print(f"best value: {best.value:.12f}")
    if args.out:
        out = _out_path(args.out)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "bell_strategy",
            "parties": args.parties,
            "dims": dims,
            "value": best.value,
            "state": matrix_payload(best.state.density),
            "observables": [[matrix_payload(m) for m in pair] for pair in best.observables],
        }
        write_json(payload, out)
        if args.format != "machine":  # machine output is the one JSON document
            print(f"wrote {out}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no handler:
    ``main`` looks up ``cmd_<command>`` when it dispatches."""
    parser = argparse.ArgumentParser(
        prog="bellcert",
        description="Simulate the two-round Bell scenario and certify the entangling interaction",
    )
    parser.add_argument(
        "--format", choices=("human", "machine"), default="human", help="output style"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="classical and quantum bounds of the Bell family")
    p.add_argument("parties", type=int)

    p = sub.add_parser("make-strategy", help="write a built-in reference (or scrambled) strategy")
    p.add_argument("out")
    p.add_argument("--parties", type=int, default=2)
    p.add_argument("--scramble", action="store_true")
    p.add_argument("--aux-dims", default=None, help="comma-separated auxiliary dims per party")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--visibility", type=float, default=1.0)

    p = sub.add_parser("simulate", help="run the scenario and emit the correlation record")
    p.add_argument("strategy")
    p.add_argument("--out", default=None)

    p = sub.add_parser("certify", help="run the full certification chain")
    p.add_argument("strategy")
    p.add_argument("--report", default=None)
    p.add_argument(
        "--tolerance", type=float, default=MAX_VIOLATION_TOL, help="maximal-violation tolerance"
    )

    p = sub.add_parser("noise-sweep", help="Bell values and verdicts under source white noise")
    p.add_argument("strategy")
    p.add_argument("--visibilities", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tolerance", type=float, default=MAX_VIOLATION_TOL)

    p = sub.add_parser("seesaw", help="alternating maximization of the Bell value")
    p.add_argument("--parties", type=int, required=True)
    p.add_argument("--dims", default=None, help="comma-separated local dims (default qubits)")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # stderr holds at most the one ``error:`` line, so numpy's
        # floating-point warnings (an overflow on a huge input entry) stay off it.
        with np.errstate(all="ignore"):
            return handler(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    except Exception as exc:  # exit 1 means "refuted", so a crash must not fall through to it
        _log.debug("%s failed", args.command, exc_info=True)
        return _usage_error(" ".join([f"{args.command}: {type(exc).__name__}:", *str(exc).split()]))


if __name__ == "__main__":
    sys.exit(main())
