"""Command-line front end.

Exit codes are a stable contract:

* 0 - success (for ``certify``: verdict certified)
* 1 - ``certify`` refuted the product-form claim
* 2 - usage, parse or validation error
* 3 - ``certify`` was inconclusive

Relative output paths are resolved against ``$BELLCERT_OUTPUT_DIR`` when that
variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bell import BellExpression, classical_bound, quantum_value
from .certify import run_full_certification
from .quantum import white_noise_mix
from .reference import reference_strategy
from .scenario import Strategy, run_scenario, scramble_strategy
from .seesaw import seesaw_restarts
from .serialize import (
    SerializationError,
    file_digest,
    load_strategy,
    matrix_payload,
    record_to_dict,
    report_to_dict,
    save_record,
    save_report,
    save_strategy,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _out_path(name: str | os.PathLike) -> Path:
    p = Path(name)
    base = os.environ.get("BELLCERT_OUTPUT_DIR")
    if base and not p.is_absolute():
        return Path(base) / p
    return p


def _bits(t) -> str:
    return "".join(str(int(b)) for b in t)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise SystemExit(_usage_error(f"{what}: expected comma-separated integers, got {text!r}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load(path: str) -> Strategy:
    try:
        return load_strategy(path)
    except SerializationError as exc:
        raise SystemExit(_usage_error(str(exc)))


def cmd_bounds(args) -> int:
    n = args.parties
    if not 2 <= n <= 10:
        return _usage_error("bounds: party count must be between 2 and 10")
    expr = BellExpression(n, (0,) * n)
    beta_c = classical_bound(expr)
    ref = reference_strategy(n)
    achieved = quantum_value(ref.source_state, ref.observables_t1, expr)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "parties": n,
                    "classical_bound": beta_c,
                    "classical_bound_analytic": expr.classical_bound_analytic,
                    "quantum_bound": expr.quantum_bound,
                    "reference_value": achieved,
                }
            )
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
    strategy = reference_strategy(args.parties)
    meta = {"parties": args.parties, "kind": "reference"}
    if args.scramble:
        aux = (
            [1] * args.parties
            if args.aux_dims is None
            else _parse_int_list(args.aux_dims, "--aux-dims")
        )
        if len(aux) != args.parties:
            return _usage_error("make-strategy: --aux-dims needs one entry per party")
        scrambled = scramble_strategy(strategy, aux, seed=args.seed)
        strategy = scrambled.strategy
        meta = {"parties": args.parties, "kind": "scrambled", "seed": args.seed, "aux_dims": aux}
    elif args.aux_dims is not None:
        return _usage_error("make-strategy: --aux-dims requires --scramble")
    if args.visibility != 1.0:
        if not 0.0 <= args.visibility <= 1.0:
            return _usage_error("make-strategy: --visibility must lie in [0, 1]")
        strategy = Strategy(
            source_state=white_noise_mix(strategy.source_state, args.visibility),
            observables_t1=strategy.observables_t1,
            observables_t2=strategy.observables_t2,
            interaction=strategy.interaction,
        )
        meta["visibility"] = args.visibility
    out = _out_path(args.out)
    save_strategy(strategy, out, meta=meta)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    strategy = _load(args.strategy)
    try:
        record = run_scenario(strategy)
    except ValueError as exc:
        return _usage_error(f"simulate: {exc}")
    if args.out:
        out = _out_path(args.out)
        save_record(record, out)
    if args.format == "machine":
        print(json.dumps(record_to_dict(record)))
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
        print(f"side statistics ({'pass' if record.extra_stats.passes else 'FAIL'}):")
        for label, value, target in record.extra_stats.entries:
            print(f"  {label}: {value:+.9f} (target {target:+g})")
    return EXIT_OK


def cmd_certify(args) -> int:
    strategy = _load(args.strategy)
    report = run_full_certification(strategy, max_violation_tol=args.tolerance)
    provenance = {
        "input": str(args.strategy),
        "input_sha256": file_digest(args.strategy),
        "max_violation_tol": args.tolerance,
    }
    if args.report:
        out = _out_path(args.report)
        save_report(report, out, provenance=provenance)
    if args.format == "machine":
        print(json.dumps(report_to_dict(report, provenance)))
    else:
        print(f"verdict: {report.verdict}")
        for c in report.bell_checks:
            print(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.value:.9f} (tol {c.tolerance:g})")
        for c in report.extra_stat_checks:
            print(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.value:+.9f} (tol {c.tolerance:g})")
        if report.state_residual is not None:
            c = report.state_residual
            print(f"  [{'ok' if c.passed else 'FAIL'}] {c.name}: {c.value:.3e} (tol {c.tolerance:g})")
        if report.xi_min_eigenvalue is not None:
            print(f"  auxiliary state min eigenvalue: {report.xi_min_eigenvalue:.3e}")
        if report.interaction is not None:
            ic = report.interaction
            print(
                f"  interaction: product={ic.is_product} residual={ic.residual:.3e} "
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
    strategy = _load(args.strategy)
    try:
        visibilities = [float(v) for v in args.visibilities.split(",") if v.strip() != ""]
    except ValueError:
        return _usage_error(f"--visibilities: expected comma-separated floats, got {args.visibilities!r}")
    if not visibilities or any(not 0.0 <= v <= 1.0 for v in visibilities):
        return _usage_error("--visibilities: every value must lie in [0, 1]")
    rows = []
    for v in visibilities:
        mixed = Strategy(
            source_state=white_noise_mix(strategy.source_state, v),
            observables_t1=strategy.observables_t1,
            observables_t2=strategy.observables_t2,
            interaction=strategy.interaction,
        )
        record = run_scenario(mixed)
        report = run_full_certification(mixed, max_violation_tol=args.tolerance)
        min_t2 = min(record.t2_bell_values.values()) if record.t2_bell_values else float("nan")
        rows.append(
            {
                "visibility": v,
                "t1_bell_value": record.t1_bell_value,
                "min_t2_bell_value": min_t2,
                "verdict": report.verdict,
            }
        )
    if args.out:
        out = _out_path(args.out)
        Path(out).write_text(json.dumps({"kind": "noise_sweep", "rows": rows}, indent=1))
    if args.format == "machine":
        print(json.dumps(rows))
    else:
        print(f"{'v':>6}  {'t1 value':>12}  {'min t2 value':>12}  verdict")
        for r in rows:
            print(
                f"{r['visibility']:6.3f}  {r['t1_bell_value']:12.9f}  "
                f"{r['min_t2_bell_value']:12.9f}  {r['verdict']}"
            )
    return EXIT_OK


def cmd_seesaw(args) -> int:
    if args.parties < 2:
        return _usage_error("seesaw: need at least 2 parties")
    dims = (
        [2] * args.parties if args.dims is None else _parse_int_list(args.dims, "--dims")
    )
    if len(dims) != args.parties or any(d < 2 for d in dims):
        return _usage_error("seesaw: --dims needs one entry >= 2 per party")
    expr = BellExpression(args.parties, (0,) * args.parties)
    seeds = range(args.seed, args.seed + args.restarts)
    results = seesaw_restarts(expr, tuple(dims), seeds)
    best = max(results, key=lambda r: r.value)
    if args.format == "machine":
        print(
            json.dumps(
                {
                    "parties": args.parties,
                    "dims": dims,
                    "quantum_bound": expr.quantum_bound,
                    "best_value": best.value,
                    "restart_values": [r.value for r in results],
                }
            )
        )
    else:
        print(f"quantum bound: {expr.quantum_bound:g}")
        for seed, r in zip(seeds, results):
            print(f"  seed {seed}: value {r.value:.12f} ({r.iterations} iterations)")
        print(f"best value: {best.value:.12f}")
    if args.out:
        out = _out_path(args.out)
        payload = {
            "schema_version": "1",
            "kind": "bell_strategy",
            "parties": args.parties,
            "dims": dims,
            "value": best.value,
            "state": matrix_payload(best.state.density),
            "observables": [
                [matrix_payload(pair[0]), matrix_payload(pair[1])] for pair in best.observables
            ],
        }
        Path(out).write_text(json.dumps(payload, indent=1))
        print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("make-strategy", help="write a built-in reference (or scrambled) strategy")
    p.add_argument("out")
    p.add_argument("--parties", type=int, default=2)
    p.add_argument("--scramble", action="store_true")
    p.add_argument("--aux-dims", default=None, help="comma-separated auxiliary dims per party")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--visibility", type=float, default=1.0)
    p.set_defaults(func=cmd_make_strategy)

    p = sub.add_parser("simulate", help="run the scenario and emit the correlation record")
    p.add_argument("strategy")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("certify", help="run the full certification chain")
    p.add_argument("strategy")
    p.add_argument("--report", default=None)
    p.add_argument("--tolerance", type=float, default=1e-9, help="maximal-violation tolerance")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("noise-sweep", help="Bell values and verdicts under source white noise")
    p.add_argument("strategy")
    p.add_argument("--visibilities", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("seesaw", help="alternating maximization of the Bell value")
    p.add_argument("--parties", type=int, required=True)
    p.add_argument("--dims", default=None, help="comma-separated local dims (default qubits)")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_seesaw)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, which matches our contract
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
