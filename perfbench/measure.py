"""The measured process of one benchmark run.

Started by ``run.py`` once per run, after the inputs exist and with the BLAS
thread count already fixed in its environment.  It imports the package,
warms up with three ops, then times whole rounds of ops for the requested
number of seconds: one caller, each op ``bellcert.cli.main(argv)`` with
stdout captured, each output checked after its op's clock has stopped.  With
``--trace 1`` it then runs one more round, each op once untraced and once
under the span tracer.  It writes its figures to the ``--result`` file and
prints nothing.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bellcert.cli

import checks
import tracer
import workloads

WARMUP_OPS = 3  # the first ops of the cycle, run before timing; their median counts as set-up
# The CPUs the process may run on.  On a shared host each vCPU has slow
# phases of its own, so the timed ops take the CPUs in turn: op i of round k
# runs on CPU (i + k) mod n, and each op of the round is timed on every CPU.
CPUS = sorted(os.sched_getaffinity(0))


def run_op(argv):
    """One op: the public entry point with stdout captured, timed."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = bellcert.cli.main(argv)
    return time.perf_counter() - start, code, buf.getvalue()


class Run:
    def __init__(self, manifest):
        self.workload = workloads.WORKLOADS[manifest["workload"]]
        self.seed = manifest["seed"]
        self.ops = manifest["ops"]
        self.round = len(self.ops) or self.workload.round_ops
        self.errors: list[str] = []

    def argv(self, j: int) -> list[str]:
        if self.ops:
            return self.ops[j % len(self.ops)]["argv"]
        return workloads.seesaw_argv(self.workload, self.seed, j % self.round)

    def check(self, j: int, code: int, out: str) -> str | None:
        """Check op ``j``'s output; for a failed op return ``"name: verdict"``."""
        if self.ops:
            op = self.ops[j % len(self.ops)]
            failed, verdict, errors = checks.certify_op(op["expect"], code, out)
            label = f"{op['name']}: {verdict}" if failed else None
        else:
            errors = checks.seesaw_op(self.workload.parties, self.workload.restarts, code, out)
            label = None
        self.errors.extend(e for e in errors if e not in self.errors)
        return label


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    run = Run(json.loads(Path(args.manifest).read_text()))
    started = time.perf_counter()
    warmup = []
    for j in range(WARMUP_OPS):
        seconds, code, out = run_op(run.argv(j))
        warmup.append(seconds)
        run.check(j, code, out)

    ready = time.perf_counter()
    durations, out_bytes, failures = [], 0, Counter()
    j = 0
    while True:
        for _ in range(run.round):
            os.sched_setaffinity(0, {CPUS[(j % run.round + j // run.round) % len(CPUS)]})
            seconds, code, out = run_op(run.argv(j))
            durations.append(seconds)
            out_bytes += len(out.encode())
            label = run.check(j, code, out)
            if label:
                failures[label] += 1
            j += 1
        if time.perf_counter() - ready >= args.seconds:
            break
    result = {
        "start_s": started - args.spawned_at,
        "warmup_s": statistics.median(warmup),
        "durations": durations,
        "attempted": len(durations),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "rounds": len(durations) // run.round,
        "round": run.round,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": out_bytes / len(durations),
    }

    os.sched_setaffinity(0, CPUS)
    if args.trace:
        # Each traced op follows the same op untraced, so the pair sees the
        # same machine speed and their difference is the tracing overhead.
        t = tracer.Tracer()
        traced, untraced = [], []
        for j in range(run.round):
            untraced.append(run_op(run.argv(j))[0])
            t.op = j
            t.install()
            try:
                seconds, code, out = run_op(run.argv(j))
            finally:
                t.uninstall()
            traced.append(seconds)
            run.check(j, code, out)
        calls, inclusive, self_s = tracer.summarize(t.spans)
        result["trace"] = {
            "ops": run.round,
            "durations": traced,
            "untraced": untraced,
            "calls": calls,
            "inclusive": inclusive,
            "self_s": self_s,
            "counters": dict(t.counters),
            "missing": t.missing,
            "spans": len(t.spans),
        }
        if args.trace_file:
            Path(args.trace_file).write_text(
                json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": t.spans})
            )

    result["errors"] = run.errors
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
