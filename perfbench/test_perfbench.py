"""Tests of the benchmark itself: every check rejects a corrupted output,
the tracer accounts for the whole op, and BENCHMARK.json names exactly the
metrics the benchmark prints.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bellcert.cli  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Workload("small", parties=2, aux_dims=(1, 2), clean_inputs=1, planted=True)


def call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bellcert.cli.main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    ops, errors = workloads.make_certify_inputs(SMALL, 3, tmp_path_factory.mktemp("inputs"))
    assert errors == []
    return {op["name"]: op for op in ops}


@pytest.fixture(scope="module")
def outputs(inputs):
    return {name: call(op["argv"]) for name, op in inputs.items()}


def corrupt(stdout, edit):
    report = json.loads(stdout)
    edit(report)
    return json.dumps(report)


def test_planted_inputs_get_their_verdicts(inputs, outputs):
    for name in ("clean-0", "diag-phase", "noise"):
        failed, verdict, errors = checks.certify_op(inputs[name]["expect"], *outputs[name])
        assert (failed, verdict, errors) == (False, inputs[name]["expect"]["verdict"], [])
    assert inputs["near-miss"]["expect"]["planted_distance"] >= workloads.NEAR_MISS_MIN_DISTANCE


def test_near_miss_counts_as_failed_not_incorrect():
    expect = {"kind": "near-miss", "verdict": "refuted", "exit": 1, "parties": 2, "aux_unitary": None}
    assert checks.certify_op(expect, 0, json.dumps({"verdict": "certified"})) == (True, "certified", [])


@pytest.mark.parametrize(
    "name, code, edit",
    [
        ("clean-0", 1, lambda r: r.update(verdict="refuted")),
        ("clean-0", 1, lambda r: None),
        ("clean-0", 0, lambda r: r["checks"]["bell"][2].update(value=r["checks"]["bell"][2]["value"] - 1e-8)),
        ("clean-0", 0, lambda r: r["checks"]["bell"].pop()),
        ("clean-0", 0, lambda r: r["interaction"]["aux_unitary"]["entries"][0].__setitem__(0, 0.5)),
        ("diag-phase", 1, lambda r: r["checks"]["bell"][0].update(value=2.1)),
        ("noise", 3, lambda r: r["checks"]["bell"][0].update(value=r["checks"]["bell"][0]["value"] + 1e-9)),
        ("noise", 0, lambda r: r.update(verdict="certified")),
    ],
)
def test_certify_check_rejects_corrupted_report(inputs, outputs, name, code, edit):
    _, errors = checks.certify_op(inputs[name]["expect"], code, corrupt(outputs[name][1], edit))[1:]
    assert errors


def test_certify_check_rejects_non_json(inputs):
    failed, _, errors = checks.certify_op(inputs["clean-0"]["expect"], 0, "verdict: certified\n")
    assert failed and errors


@pytest.fixture(scope="module")
def seesaw(tmp_path_factory):
    w = workloads.Workload("seesaw", parties=2, seesaw_dims=(2, 2), restarts=3, round_ops=1)
    out_file = tmp_path_factory.mktemp("seesaw") / "best.json"
    code, stdout = call(workloads.seesaw_argv(w, 5, 0, out=str(out_file)))
    return w, code, stdout.split("\n", 1)[0], json.loads(out_file.read_text())


def test_seesaw_checks_accept_the_program(seesaw):
    w, code, line, out_file = seesaw
    assert checks.seesaw_op(w.parties, w.restarts, code, line) == []
    assert checks.seesaw_strategy(w.parties, out_file, json.loads(line)["best_value"]) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda r: r["restart_values"].__setitem__(0, 2.0 + 1e-8),
        lambda r: r.update(best_value=2.0 - 1e-5, restart_values=[2.0 - 1e-5] * len(r["restart_values"])),
        lambda r: r.update(best_value=min(r["restart_values"]) - 1e-3),
        lambda r: r["restart_values"].pop(),
    ],
)
def test_seesaw_op_check_rejects_corrupted_output(seesaw, edit):
    w, code, line, _ = seesaw
    assert checks.seesaw_op(w.parties, w.restarts, code, corrupt(line, edit))


def test_seesaw_strategy_check_rejects_corrupted_file(seesaw):
    w, _, line, out_file = seesaw
    best = json.loads(line)["best_value"]
    bent = copy.deepcopy(out_file)
    o = oracle.matrix(bent["observables"][1][0])
    bent["observables"][1][0] = oracle.payload(o * (1 + 1e-8))
    assert checks.seesaw_strategy(w.parties, bent, best)
    assert checks.seesaw_strategy(w.parties, out_file, best - 1e-8)


def test_simulate_check_against_both_references(inputs):
    path = inputs["clean-0"]["path"]
    code, out = call(["--format", "machine", "simulate", path])
    record = json.loads(out)
    refs = {"einsum": oracle.record(oracle.Model.from_file(path)), "reference": oracle.record(oracle.Model.reference(2))}
    assert code == 0 and checks.simulate_record(record, refs) == []
    bent = copy.deepcopy(record)
    bent["p1"]["01"][2] += 1e-11
    assert len(checks.simulate_record(bent, refs)) == 2
    bent = copy.deepcopy(record)
    bent["p2"].popitem()
    assert checks.simulate_record(bent, refs)


def test_oracle_reference_matches_program_definitions():
    from bellcert.reference import entangling_unitary, pre_interaction_basis

    for n in (2, 3):
        assert oracle.max_abs(oracle.entangling_unitary(n) - entangling_unitary(n)) < 1e-14
        for bits, vec in pre_interaction_basis(n):
            assert oracle.max_abs(oracle.pre_interaction_vector(bits) - vec) < 1e-14


def test_tracer_spans_cover_the_op(inputs, monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "quantum", tracer.TRACED["quantum"] + ("no_such_function",))
    original = bellcert.cli.main
    t = tracer.Tracer()
    t.install()
    try:
        t.op = 0
        code, _ = call(inputs["clean-0"]["argv"])
    finally:
        t.uninstall()
    assert code == 0 and bellcert.cli.main is original
    assert t.missing == ["quantum.no_such_function"]
    calls, inclusive, self_s = tracer.summarize(t.spans)
    root = [s for s in t.spans if s[3] == -1]
    assert [s[0] for s in root] == ["cli.main"]
    assert sum(self_s.values()) == pytest.approx(root[0][2] - root[0][1], rel=1e-9)
    assert calls["quantum.born_probability"] == 96
    assert calls["quantum.QuantumState"] > 0 and inclusive["certify.run_full_certification"] > 0


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
