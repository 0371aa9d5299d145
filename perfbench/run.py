"""Benchmark of bellcert: certification of strategy files and the seesaw oracle.

    python3 perfbench/run.py --workload certify-qubits --seed 1 --seconds 30 --trace 0

Workloads: ``certify-qubits``, ``certify-aux``, ``seesaw`` (see README.md).
The run generates the workload's inputs from ``--seed``, starts one measured
process (``measure.py``) that times whole rounds of ops for ``--seconds``,
checks every output and, once per run, the simulated statistics or the
seesaw strategy against independent computations.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced round with ``--trace 1``).  The exit code is 0 only for a correct
run; a run that cannot find the package exits 2 without a result.
"""

import os
import sys
import time

STARTED = time.perf_counter()
# One BLAS thread, fixed before numpy is imported here or in the measured process.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
TIME_LIMIT = 170.0  # seconds one run may take, end to end
CHECK_RESERVE = 20.0  # seconds kept for the checks after the measured process
SETUP_REPEATS = 3  # input generation is repeated and its median counted

END_TO_END = (("op_s.min", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics of the traced round.  ``<layer>.self_s`` and names ending
# in ``.s`` or ``.calls`` are per op, except the set-up names (per input
# generation pass) and the seesaw.seesaw_maximize figures (per restart).
PER_LAYER = (
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("serialize.self_s", "s"), ("serialize.load_strategy.s", "s"), ("serialize.report_to_dict.s", "s"),
    ("serialize.save_strategy.s", "s"),
    ("reference.self_s", "s"),
    ("scenario.self_s", "s"), ("scenario.run_scenario.s", "s"),
    ("scenario.conditional_post_interaction_state.calls", "count"), ("scenario.canonical_reordering.s", "s"),
    ("scenario.scramble_strategy.s", "s"),
    ("quantum.self_s", "s"), ("quantum.born_probability.calls", "count"), ("quantum.born_probability.s", "s"),
    ("quantum.post_measurement_state.s", "s"), ("quantum.evolve.s", "s"), ("quantum.QuantumState.calls", "count"),
    ("bell.self_s", "s"), ("bell.quantum_value.s", "s"), ("bell.build_bell_operator.calls", "count"),
    ("bell.build_bell_operator.s", "s"),
    ("certify.self_s", "s"), ("certify.run_full_certification.s", "s"), ("certify.support_isometry.calls", "count"),
    ("certify.extract_local_frame.s", "s"), ("certify.check_projectivity.s", "s"),
    ("certify.certify_source_state.s", "s"), ("certify.certify_interaction.s", "s"),
    ("linalg.self_s", "s"), ("linalg.factorize_tensor_product.s", "s"), ("linalg.herm_eig.calls", "count"),
    ("linalg.herm_eig.s", "s"), ("linalg.kron.calls", "count"), ("linalg.kron.s", "s"),
    ("linalg.partial_trace.calls", "count"),
    ("seesaw.self_s", "s"), ("seesaw.seesaw_maximize.s", "s"), ("seesaw.iterations", "count"),
    ("seesaw.optimal_state_update.s", "s"), ("seesaw.optimal_observable_update.s", "s"),
    ("trace.op_s", "s"), ("trace.overhead_s", "s"),
)
SETUP_NAMES = ("scenario.scramble_strategy", "serialize.save_strategy")
SELF_SUM_TOL = 0.05  # layer self times must add up to the traced op time


def load_program():
    """Import the package from the checkout's ``src``; None when it is absent."""
    if not (SRC / "bellcert" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bellcert.cli

    if not Path(bellcert.cli.__file__).resolve().is_relative_to(SRC):
        return None
    return bellcert.cli


def run_checks_once(cli, workload, seed: int, ops: list[dict], workdir: Path) -> list[str]:
    """Outside timing: ``simulate`` on one input against the oracle and the
    unscrambled reference, or the ``seesaw --out`` strategy recomputed."""
    import contextlib
    import io

    import checks
    import oracle
    import workloads

    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    if workload.kind == "certify":
        path = ops[0]["path"]
        code, out = call(["--format", "machine", "simulate", path])
        if code != 0:
            return [f"simulate exited {code}"]
        references = {
            "einsum": oracle.record(oracle.Model.from_file(path)),
            "reference": oracle.record(oracle.Model.reference(workload.parties)),
        }
        return checks.simulate_record(json.loads(out.split("\n", 1)[0]), references)
    out_file = workdir / "seesaw-best.json"
    code, out = call(workloads.seesaw_argv(workload, seed, 0, out=str(out_file)))
    errors = checks.seesaw_op(workload.parties, workload.restarts, code, out)
    if errors:
        return errors
    best = json.loads(out.split("\n", 1)[0])["best_value"]
    return checks.seesaw_strategy(workload.parties, json.loads(out_file.read_text()), best)


def layer_metrics(trace: dict, setup_spans: list, output_bytes: float) -> dict:
    import tracer

    ops = trace["ops"]
    calls, inclusive, self_s = trace["calls"], trace["inclusive"], trace["self_s"]
    _, setup_inclusive, _ = tracer.summarize(setup_spans)
    restarts = calls.get("seesaw.seesaw_maximize", 0)
    traced = sum(trace["durations"]) / ops
    special = {
        "cli.output_bytes": output_bytes,
        "seesaw.seesaw_maximize.s": inclusive.get("seesaw.seesaw_maximize", 0.0) / restarts if restarts else 0.0,
        "seesaw.iterations": trace["counters"].get("seesaw.iterations", 0) / restarts if restarts else 0.0,
        "trace.op_s": traced,
        "trace.overhead_s": traced - sum(trace["untraced"]) / ops,
        **{f"{name}.s": setup_inclusive.get(name, 0.0) for name in SETUP_NAMES},
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.endswith(".self_s"):
            value = self_s.get(name.split(".", 1)[0], 0.0) / ops
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0) / ops
        else:
            value = inclusive.get(name[: -len(".s")], 0.0) / ops
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_program()
    if cli is None:
        print(f"error: no bellcert package under {SRC}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - STARTED

    workdir = OUT / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    setup = tracer.Tracer()
    if args.trace:
        setup.install()
        try:
            ops, errors = workloads.make_inputs(workload, args.seed, workdir)
        finally:
            setup.uninstall()
    else:
        passes = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops, errors = workloads.make_inputs(workload, args.seed, workdir)
            passes.append(time.perf_counter() - start)
        generate_s = statistics.median(passes)
    manifest = workdir / "manifest.json"
    workloads.write_manifest(manifest, workload, args.seed, ops)
    os.sync()  # write the inputs back now, not during the timed ops

    result_file = workdir / f"result-s{args.seed}-t{args.trace}.json"
    result_file.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--manifest", str(manifest), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", str(result_file), "--trace-file", str(workdir / f"trace-s{args.seed}.json"),
    ]
    budget = TIME_LIMIT - CHECK_RESERVE - (time.perf_counter() - STARTED)
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=os.environ, timeout=budget)
    except subprocess.TimeoutExpired:
        print(f"error: the measured process ran longer than {budget:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not result_file.is_file():
        print(f"error: the measured process exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(result_file.read_text())
    errors += res["errors"]
    errors += run_checks_once(cli, workload, args.seed, ops, workdir)

    if args.trace:
        trace = res["trace"]
        self_sum, traced = sum(trace["self_s"].values()), sum(trace["durations"])
        if abs(self_sum - traced) > SELF_SUM_TOL * traced:
            errors.append(f"layer self times add up to {self_sum:.4f} s of {traced:.4f} s traced")
        metrics = layer_metrics(trace, setup.spans, res["output_bytes"])
        print(f"traced {trace['ops']} ops, {trace['spans']} spans; not in this tree: {trace['missing'] or 'none'}")
    else:
        durations, size = res["durations"], res["round"]
        # Every round repeats the same ops, so op i of the round has one
        # sample per round; its fastest one is the least disturbed by the
        # host's slow phases.
        fastest = [min(durations[i::size]) for i in range(size)]
        print(f"op time: median {statistics.median(durations):.4f} s, mean {statistics.fmean(durations):.4f} s")
        values = {
            "op_s.min": statistics.fmean(fastest),
            "setup_s": import_s + generate_s + res["start_s"] + res["warmup_s"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for label, count in sorted(res["failures"].items()):
        print(f"failed op {label} (x{count})")
    for e in errors:
        print(f"check failed: {e}")
    print(f"{workload.name} seed {args.seed}: {res['attempted']} ops in {res['rounds']} rounds, {res['failed']} failed")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
