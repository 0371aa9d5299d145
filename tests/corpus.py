"""Seeded regression corpus: what the CLI says about a fixed set of strategies.

Each strategy case is built in process (a reference, or a seeded scramble of
one, optionally under white noise, or a reference whose interaction is
perturbed or whose source is replaced), written to a file, and run through
``bellcert --format machine certify`` (with its options) and ``bellcert
--format machine simulate``.  Each seesaw case is a ``bellcert --format machine seesaw`` run.
Per run the corpus keeps the exit code, stderr and failure lines with their
decimal numbers masked, and every scalar field of the printed JSON.  Matrix
payloads and probability tables are left out (the unit tests pin those), and
so is the report's provenance, which names the temporary input file.

``tests/corpus_expected.json`` holds the corpus of the committed code.
``test_corpus.py`` compares a fresh corpus with it: strings, booleans and
exit codes exactly, numbers within ``REL_TOL`` relative, or ``ABS_FLOOR``
for values at roundoff size (a residual of 1e-16).  With numpy 2.4.6 and
OpenBLAS forced to other kernels (``OPENBLAS_CORETYPE`` Prescott,
Sandybridge, Haswell), about 400 numbers moved, by at most 1.5e-13
relative, or 3.5e-15 for values below 1e-6; every string stayed.

    PYTHONPATH=src python tests/corpus.py           # compare, list differences
    PYTHONPATH=src python tests/corpus.py --write   # rewrite the expected file

A change that moves a verdict or a number shows it in the expected file's diff.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from bellcert.cli import main
from bellcert.linalg import dagger, herm_part
from bellcert.quantum import Interaction, pure_state, white_noise_mix
from bellcert.reference import pre_interaction_matrix, reference_strategy
from bellcert.scenario import scramble_strategy
from bellcert.serialize import save_strategy

EXPECTED = Path(__file__).with_name("corpus_expected.json")
REL_TOL = 1e-12
ABS_FLOOR = 1e-13
SCRAMBLE_SEED = 7

# name: (parties, aux dims or None for the reference, xi rank, visibility)
STRATEGIES = {
    "reference-2": (2, None, None, 1.0),
    "reference-3": (3, None, None, 1.0),
    "reference-4": (4, None, None, 1.0),
    "scramble-1,1,1,1": (4, (1, 1, 1, 1), None, 1.0),
    "scramble-2,2": (2, (2, 2), None, 1.0),
    "scramble-3,2": (2, (3, 2), None, 1.0),
    "scramble-6,5": (2, (6, 5), None, 1.0),
    "scramble-1,2,1": (3, (1, 2, 1), None, 1.0),
    "scramble-6,6": (2, (6, 6), None, 1.0),
    "scramble-2,2-xi-rank-1": (2, (2, 2), 1, 1.0),
    "scramble-3,2-xi-rank-1": (2, (3, 2), 1, 1.0),
    "reference-2-v0.9": (2, None, None, 0.9),
    "scramble-2,2-v0.9": (2, (2, 2), None, 0.9),
}
# name: (parties, factor F of the interaction W = U F, certify options), U
# the reference interaction.  "diag-phase" is F = B diag(e^{i phi}) B^dag,
# B = pre_interaction_matrix and phi = linspace(0.5, 2.5, 2^N) with phi_0 = 0:
# every Bell value stays maximal and the side statistics refute.  A number
# eps is F = exp(i eps H), H the Hermitian part of a seed-1 complex Gaussian
# at spectral norm 1: certified at 1e-8, refuted at 1e-6 (residual 6.0e-7),
# inconclusive at 1e-4 (Bell gaps up to 1.4e-8), and refuted there at
# tolerance 1e-2.
PERTURBED = {
    "diag-phase-2": (2, "diag-phase", ()),
    "diag-phase-3": (3, "diag-phase", ()),
    "exp-1e-8": (2, 1e-8, ()),
    "exp-1e-6": (2, 1e-6, ()),
    "exp-1e-4": (2, 1e-4, ()),
    "exp-1e-4-tolerance-1e-2": (2, 1e-4, ("--tolerance", "1e-2")),
}
# name: (parties, source vector), the reference with that pure source.
# (cos 0.3 |0> + sin 0.3 |1>) ox |->: the side-statistics event has
# vanishing probability, so certify is inconclusive and simulate keeps no
# side statistics.
SOURCES = {
    "side-event-vanishes": (2, np.kron([math.cos(0.3), math.sin(0.3)], [1.0, -1.0]) / math.sqrt(2.0)),
}
# name: (local dims, restarts)
SEESAWS = {
    "seesaw-3,3,3,3": ((3, 3, 3, 3), 10),
    "seesaw-2,2,2": ((2, 2, 2), 5),
}

_DECIMAL = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)|\b(?:nan|inf)\b")


def mask(line: str) -> str:
    """``line`` with every decimal or exponent number replaced by ``#``;
    plain integers (party indices, outcome bits) are kept."""
    return _DECIMAL.sub("#", line)


def _is_payload(value) -> bool:
    return isinstance(value, dict) and {"rows", "cols", "entries"} <= value.keys()


def scalars(data, prefix: str = "") -> dict:
    """The scalar leaves of a JSON document by path (``a.b[2].c``), matrix
    payloads left out; failure lists are masked."""
    out = {}
    if isinstance(data, dict):
        for key, value in data.items():
            if not _is_payload(value):
                out.update(scalars(value, f"{prefix}.{key}" if prefix else key))
    elif isinstance(data, list):
        for i, value in enumerate(data):
            out.update(scalars(value, f"{prefix}[{i}]"))
    else:
        out[prefix] = mask(data) if isinstance(data, str) and ".failures[" in f".{prefix}" else data
    return out


def run_cli(argv) -> dict:
    """Exit code, masked stderr and the printed JSON of ``bellcert argv``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["--format", "machine", *argv])
    text = stdout.getvalue()
    return {"exit": code, "stderr": mask(stderr.getvalue()), "json": json.loads(text) if text else None}


def build_strategy(parties, aux, xi_rank, visibility):
    strategy = reference_strategy(parties)
    if aux is not None:
        strategy = scramble_strategy(strategy, aux, seed=SCRAMBLE_SEED, xi_rank=xi_rank).strategy
    if visibility != 1.0:
        strategy = dataclasses.replace(
            strategy, source_state=white_noise_mix(strategy.source_state, visibility)
        )
    return strategy


def perturbed_strategy(parties, factor):
    """The reference with interaction ``U F`` (see ``PERTURBED``)."""
    strategy = reference_strategy(parties)
    d = 2**parties
    if factor == "diag-phase":
        b = pre_interaction_matrix(parties)
        phi = np.linspace(0.5, 2.5, d)
        phi[0] = 0.0
        f = (b * np.exp(1j * phi)) @ dagger(b)
    else:
        rng = np.random.default_rng(1)
        h = herm_part(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        values, vectors = np.linalg.eigh(h / np.linalg.norm(h, 2))
        f = (vectors * np.exp(1j * factor * values)) @ dagger(vectors)
    w = strategy.interaction.matrix @ f
    return dataclasses.replace(strategy, interaction=Interaction(w, (2,) * parties, (2,) * parties))


def build_corpus(workdir) -> dict:
    corpus = {}
    cases = {name: (build_strategy(*case), ()) for name, case in STRATEGIES.items()}
    for name, (parties, factor, options) in PERTURBED.items():
        cases[name] = (perturbed_strategy(parties, factor), options)
    for name, (parties, vector) in SOURCES.items():
        source = pure_state(vector, (2,) * parties)
        cases[name] = (dataclasses.replace(reference_strategy(parties), source_state=source), ())
    for name, (strategy, options) in cases.items():
        path = str(Path(workdir) / f"{name}.json")
        save_strategy(strategy, path)
        certify = run_cli(["certify", path, *options])
        report = certify.pop("json")
        report.pop("provenance")
        simulate = run_cli(["simulate", path])
        record = simulate.pop("json")
        for table in ("p1", "p2"):
            record.pop(table)
        corpus[name] = {
            "certify": {**certify, "fields": scalars(report)},
            "simulate": {**simulate, "fields": scalars(record)},
        }
    for name, (dims, restarts) in SEESAWS.items():
        argv = ["seesaw", "--parties", str(len(dims)), "--dims", ",".join(map(str, dims))]
        seesaw = run_cli([*argv, "--restarts", str(restarts)])
        values = seesaw.pop("json")
        corpus[name] = {"seesaw": {**seesaw, "fields": scalars(values)}}
    return corpus


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)
    return type(a) is type(b) and a == b


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per case, run or field where ``actual`` departs from ``expected``."""
    out = []
    for name in sorted(expected.keys() | actual.keys()):
        exp_runs, act_runs = expected.get(name, {}), actual.get(name, {})
        for run in sorted(exp_runs.keys() | act_runs.keys()):
            exp, act = exp_runs.get(run, {}), act_runs.get(run, {})
            for key in sorted((exp.keys() | act.keys()) - {"fields"}):
                if exp.get(key) != act.get(key):
                    out.append(f"{name} {run} {key}: {exp.get(key)!r} != {act.get(key)!r}")
            exp_f, act_f = exp.get("fields", {}), act.get("fields", {})
            for path in sorted(exp_f.keys() | act_f.keys()):
                if path not in exp_f or path not in act_f or not _same(exp_f[path], act_f[path]):
                    out.append(f"{name} {run} {path}: {exp_f.get(path)!r} != {act_f.get(path)!r}")
    return out


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        fresh = json.loads(json.dumps(build_corpus(tmp)))  # as it reads back from the file
    if sys.argv[1:] == ["--write"]:
        EXPECTED.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}")
    elif sys.argv[1:]:
        sys.exit("usage: corpus.py [--write]")
    else:
        diff = differences(load_expected(), fresh)
        print("\n".join(diff) or "corpus unchanged")
        sys.exit(1 if diff else 0)
