"""Regenerate the ROADMAP baseline grid: wall time of ``run_scenario`` and of
``run_full_certification`` per party count and auxiliary dimension, in
process, with one BLAS thread.  Each strategy is
``scramble_strategy(reference_strategy(N), (aux,) * N, seed=7)``.

    python3 perfbench/grid.py                    # the six ROADMAP rows
    python3 perfbench/grid.py --rows 3:1,3:2     # N:aux pairs

The figures are for reference only; the grid is not a benchmark workload.
The rows 5:2 and 6:2 are accepted but take hours with the current kernel.
"""

import os
import sys
import time

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from bellcert.certify import run_full_certification  # noqa: E402
from bellcert.reference import reference_strategy  # noqa: E402
from bellcert.scenario import run_scenario, scramble_strategy  # noqa: E402

ROADMAP_ROWS = "3:1,3:2,4:1,4:2,5:1,6:1"


def row(parties: int, aux: int) -> dict:
    strategy = scramble_strategy(reference_strategy(parties), (aux,) * parties, seed=7).strategy
    start = time.perf_counter()
    record = run_scenario(strategy)
    scenario_s = time.perf_counter() - start
    # Without a record parameter the chain simulates the scenario itself.
    reuse = "record" in inspect.signature(run_full_certification).parameters
    start = time.perf_counter()
    report = run_full_certification(strategy, record=record) if reuse else run_full_certification(strategy)
    return {
        "parties": parties,
        "aux": aux,
        "D": strategy.source_state.dim,
        "run_scenario_s": scenario_s,
        "run_full_certification_s": time.perf_counter() - start,
        "certification_includes_scenario": not reuse,
        "verdict": report.verdict,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--rows", default=ROADMAP_ROWS, help="comma-separated N:aux pairs")
    parser.add_argument("--out", default=str(HERE / "out" / "grid.json"))
    args = parser.parse_args()
    pairs = [tuple(int(x) for x in item.split(":")) for item in args.rows.split(",")]
    print(f"{'N':>2} {'aux':>3} {'D':>5} {'run_scenario':>13} {'certification':>14}  verdict")
    rows = []
    for parties, aux in pairs:
        r = row(parties, aux)
        rows.append(r)
        print(f"{parties:>2} {aux:>3} {r['D']:>5} {r['run_scenario_s']:>12.3f}s {r['run_full_certification_s']:>13.3f}s  {r['verdict']}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {
        "machine": f"{platform.machine()} {platform.processor() or platform.platform()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "rows": rows,
    }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=1))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
