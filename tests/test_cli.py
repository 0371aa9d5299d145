import dataclasses
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bellcert import certify, cli, serialize
from bellcert.cli import main
from bellcert.certify import run_full_certification
from bellcert.quantum import Interaction, QuantumState
from bellcert.scenario import Strategy, run_scenario, scramble_strategy
from bellcert.reference import reference_strategy
from bellcert.serialize import SCHEMA_VERSION, matrix_from_payload, save_strategy, strategy_to_dict

from conftest import diag_phase_deviation, effect, swap_deviation


class TestBounds:
    def test_two_parties(self, capsys):
        assert main(["bounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "1.414213562373" in out
        assert "2.000000000000" in out

    def test_four_parties_machine(self, capsys):
        assert main(["--format", "machine", "bounds", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["classical_bound"] - 3 * math.sqrt(2.0)) < 1e-12
        assert data["quantum_bound"] == 6.0
        assert abs(data["reference_value"] - 6.0) < 1e-10

    def test_out_of_range(self, capsys):
        assert main(["bounds", "11"]) == 2


class TestMakeSimulate:
    def test_reference_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        assert main(["make-strategy", str(path), "--parties", "2"]) == 0
        assert main(["simulate", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("2.000000000") >= 5  # t1 plus four conditional values

    def test_scrambled_matches_reference_summary(self, tmp_path, capsys):
        ref_path = tmp_path / "ref.json"
        scr_path = tmp_path / "scrambled.json"
        assert main(["make-strategy", str(ref_path), "--parties", "2"]) == 0
        assert (
            main(
                [
                    "make-strategy",
                    str(scr_path),
                    "--parties",
                    "2",
                    "--scramble",
                    "--aux-dims",
                    "2,2",
                    "--seed",
                    "9",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["--format", "machine", "simulate", str(ref_path)]) == 0
        ref_data = json.loads(capsys.readouterr().out)
        assert main(["--format", "machine", "simulate", str(scr_path)]) == 0
        scr_data = json.loads(capsys.readouterr().out)
        for key in ref_data["t2_bell_values"]:
            assert abs(ref_data["t2_bell_values"][key] - scr_data["t2_bell_values"][key]) < 1e-9
        for x in ref_data["p1"]:
            for p_ref, p_scr in zip(ref_data["p1"][x], scr_data["p1"][x]):
                assert abs(p_ref - p_scr) < 1e-9

    def test_truncated_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": "1"')
        assert main(["simulate", str(path)]) == 2

    def test_aux_dims_below_one_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        argv = ["make-strategy", str(path), "--parties", "2", "--scramble", "--aux-dims", "0,1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: make-strategy: --aux-dims needs one entry >= 1 per party"]
        assert not path.exists()

    def test_machine_make_strategy_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert main(["--format", "machine", "make-strategy", str(path), "--parties", "2"]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["kind"] == "strategy"
        assert main(["make-strategy", str(path), "--parties", "2"]) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"

    def test_file_is_its_machine_output(self, tmp_path, capsys):
        path, record, report = (tmp_path / name for name in ("s.json", "r.json", "c.json"))
        argv = ["make-strategy", str(path), "--parties", "3", "--scramble", "--aux-dims", "1,2,1"]
        assert main(argv) == 0
        assert path.read_bytes().count(b"\n") == 1 and path.read_bytes().endswith(b"\n")
        capsys.readouterr()
        assert main(["--format", "machine", "simulate", str(path), "--out", str(record)]) == 0
        assert record.read_bytes() == capsys.readouterr().out.encode()
        assert main(["--format", "machine", "certify", str(path), "--report", str(report)]) == 0
        assert report.read_bytes() == capsys.readouterr().out.encode()
        assert record.read_bytes().count(b"\n") == report.read_bytes().count(b"\n") == 1

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BELLCERT_OUTPUT_DIR", str(tmp_path))
        assert main(["make-strategy", "ref.json", "--parties", "2"]) == 0
        assert (tmp_path / "ref.json").exists()


class TestNonFiniteEntries:
    @pytest.mark.parametrize("literal", ["NaN", "1e400"])
    def test_certify_and_simulate_exit_2(self, tmp_path, capsys, ref2, literal):
        data = strategy_to_dict(ref2)
        entry = next(
            m for m in data["matrices"] if m["role"] == "observable" and m["time_slice"] == 2
        )
        entry["entries"][1] = [1234.5678, 0.0]
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(data).replace("1234.5678", literal))
        capsys.readouterr()
        assert main(["certify", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: matrices[5].entries[1]: non-finite entry")
        assert main(["--format", "machine", "simulate", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "non-finite entry" in out.err

    # A finite entry of 1e308 overflows any sum or product it enters: in the
    # source (on the real or the imaginary axis), in a first-round or a
    # second-round observable and in the interaction.
    @pytest.mark.parametrize(
        "role, time_slice, value",
        [
            ("source_state", None, [1e308, 0.0]),
            ("source_state", None, [0.0, 1e308]),
            ("observable", 1, [1e308, 0.0]),
            ("observable", 2, [1e308, 0.0]),
            ("interaction", None, [1e308, 0.0]),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["certify"], ["simulate"], ["noise-sweep", "--visibilities", "1,0.5"]]
    )
    def test_largest_finite_entry_keeps_the_contract(
        self, tmp_path, capsys, ref2, role, time_slice, value, argv
    ):
        data = strategy_to_dict(ref2)
        matching = [m for m in data["matrices"] if m["role"] == role]
        matching = [m for m in matching if m.get("time_slice") == time_slice]
        matching[-1]["entries"][0] = value
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv, str(path)])
        err = capsys.readouterr().err.splitlines()
        assert caught == []
        assert code in ((1, 2, 3) if argv == ["certify"] else (0, 2))
        assert "IndexError" not in "\n".join(err)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("error: ")
        else:
            assert err == []

    # An observable with an eigenvalue outside [-1, 1] has effects that are
    # not positive: every command that loads it exits 2 with one line.
    @pytest.mark.parametrize(
        "time_slice, change, shown",
        [
            (2, {0: [1e308, 0.0]}, "1e+308"),
            (1, {0: [1e308, 0.0]}, "1e+308"),
            (2, {0: [1.5, 0.0], 1: [0.0, 0.0], 2: [0.0, 0.0], 3: [-1.5, 0.0]}, "-1.5"),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["certify"], ["simulate"], ["noise-sweep", "--visibilities", "1,0.5"]]
    )
    def test_observable_outside_the_unit_interval_exits_2(
        self, tmp_path, capsys, ref2, time_slice, change, shown, argv
    ):
        data = strategy_to_dict(ref2)
        matching = [m for m in data["matrices"] if m.get("time_slice") == time_slice]
        assert (matching[-1]["party"], matching[-1]["setting"]) == (1, 1)
        for i, entry in change.items():
            matching[-1]["entries"][i] = entry
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert main([*argv, str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            f"error: strategy validation: t{time_slice} observable (party 1, setting 1) has "
            f"eigenvalue {shown}, outside [-1, 1]; its effects (I +/- A) / 2 are not positive"
        ]

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, ref2):
        text = json.dumps(strategy_to_dict(ref2))
        path = tmp_path / "big.json"
        path.write_text(text.replace("[0.0, 0.0]", "[1" + "0" * 400 + ", 0.0]", 1))
        assert main(["certify", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: matrices[0].entries: int too large to convert to float"
        ]


class TestHostileInput:
    """Every failure exits 2 with one ``error:`` line; exit 1 means refuted."""

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
            (b'{"schema_version": "1", "kind": "strategy", "parties": 2, '
             b'"dims": {"t1": [2, 2], "t2": [2, 2]}, "matrices": [1]}',
             "matrices[0]: expected an object, got int"),
        ],
        ids=["non-utf8", "matrix-not-an-object"],
    )
    @pytest.mark.parametrize("command", ["certify", "simulate"])
    def test_unreadable_strategy_exits_2(self, tmp_path, capsys, raw, message, command):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main([command, str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    @pytest.mark.parametrize("value", [-1, 2.7, True, "2"], ids=["negative", "fraction", "bool", "string"])
    def test_rows_and_cols_must_be_counts(self, tmp_path, capsys, ref2, value):
        # rows = cols = -1 with one entry used to pass the entry count and
        # make numpy's reshape raise; 2.7 was read as 2 and true as 1.
        data = strategy_to_dict(ref2)
        data["matrices"][3].update(rows=value, cols=value, entries=[[1.0, 0.0]])
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(data))
        assert main(["certify", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: matrices[3]: missing or invalid rows/cols/entries"]

    def test_infinite_dim_is_named(self, tmp_path, capsys, ref2):
        # The branch-stack guard cannot size it, so the loader names it.
        data = strategy_to_dict(ref2)
        data["dims"]["t1"] = [float("inf"), 2]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(data))  # the stdlib writes an Infinity literal
        assert main(["certify", str(path)]) == 2
        out = capsys.readouterr()
        assert out.err.splitlines() == ["error: dims.t1[0]: expected an integer >= 0, got inf"]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("t1", 2.7, "dims.t1[0]: expected an integer >= 0, got 2.7"),
            ("t1", "2", "dims.t1[0]: expected an integer >= 0, got '2'"),
            ("t2", True, "dims.t2[0]: expected an integer >= 0, got True"),
            ("parties", 2.9, "parties: expected an integer >= 0, got 2.9"),
            ("party", True, "matrices[1].party: expected an integer >= 0, got True"),
            ("setting", 0.0, "matrices[1].setting: expected an integer >= 0, got 0.0"),
            ("time_slice", "1", "matrices[1].time_slice: expected an integer >= 0, got '1'"),
        ],
        ids=["t1-fraction", "t1-string", "t2-bool", "parties-fraction", "party-bool",
             "setting-float", "time_slice-string"],
    )
    def test_counts_must_be_json_integers(self, tmp_path, capsys, ref2, field, value, message):
        # int() used to read 2.7 and 2.9 as 2, "2" as 2 and true as 1, so
        # such a file certified with exit 0.
        data = strategy_to_dict(ref2)
        if field == "parties":
            data["parties"] = value
        elif field in ("t1", "t2"):
            data["dims"][field][0] = value
        else:
            data["matrices"][1][field] = value
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(data))
        assert main(["certify", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "index, change, message",
        [
            (1, {}, "matrices[10]: duplicate observable party=0 setting=0 time_slice=1, first at matrices[1]"),
            (0, {}, "matrices[10]: duplicate source_state, first at matrices[0]"),
            (9, {}, "matrices[10]: duplicate interaction, first at matrices[9]"),
            (1, {"party": 5}, "matrices[10].party: 5 is not below parties = 2"),
            (1, {"setting": 7}, "matrices[10].setting: 7 is not below 2"),
            (1, {"time_slice": 3}, "matrices[10].time_slice: 3 is not 1 or 2"),
        ],
        ids=["observable-twice", "source-twice", "interaction-twice", "party-5", "setting-7",
             "time_slice-3"],
    )
    def test_extra_matrix_entries_exit_2(self, tmp_path, capsys, ref2, index, change, message):
        # The loader used to keep the last of two entries for one key and
        # skip an observable out of range, so each of these files certified.
        data = strategy_to_dict(ref2)
        data["matrices"].append({**data["matrices"][index], **change})
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(data))
        assert main(["certify", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize(
        "argv", [["certify"], ["simulate"], ["noise-sweep", "--visibilities", "1"]], ids=lambda a: a[0]
    )
    def test_one_party_file_exits_2(self, tmp_path, capsys, argv):
        # A consistent one-party file: certify used to call it inconclusive
        # (exit 3), while simulate and noise-sweep exited 2.
        z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        matrices = [{"role": "source_state", **serialize.matrix_payload(np.diag([1.0, 0.0]))}]
        for time_slice in (1, 2):
            for setting, o in enumerate((z, x)):
                matrices.append({"role": "observable", "party": 0, "setting": setting,
                                 "time_slice": time_slice, **serialize.matrix_payload(o)})
        matrices.append({"role": "interaction", **serialize.matrix_payload(np.eye(2))})
        data = {"schema_version": SCHEMA_VERSION, "kind": "strategy", "parties": 1,
                "dims": {"t1": [2], "t2": [2]}, "matrices": matrices}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(data))
        assert main([argv[0], str(path), *argv[1:]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: strategy validation: the Bell family needs at least 2 parties, got 1"
        ]

    def test_unexpected_exception_exits_2(self, capsys, monkeypatch, caplog):
        def crash(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_bounds", crash)
        caplog.set_level(logging.DEBUG, logger="bellcert")
        assert main(["bounds", "2"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == ["error: bounds: RuntimeError: boom second line"]
        # The traceback goes to the (silent by default) ``bellcert`` logger.
        assert [r.exc_info[0] for r in caplog.records] == [RuntimeError]


class TestSharedParser:
    """The parser is built once per process and carries no state between
    calls; handlers are looked up when ``main`` dispatches."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_option_leaks_into_the_next_call(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        assert main(["make-strategy", str(path), "--parties", "2"]) == 0
        capsys.readouterr()
        tolerances = []
        for extra in (["--tolerance", "1e-3"], []):
            assert main(["--format", "machine", "certify", str(path), *extra]) == 0
            tolerances.append(json.loads(capsys.readouterr().out)["provenance"]["max_violation_tol"])
        assert tolerances == [1e-3, 1e-9]


class TestBranchStackGuard:
    """A strategy whose (2^N + 1) x D x D complex branch stack is over 1 GiB
    is refused with exit 2 and one error line, before anything is built."""

    @staticmethod
    def refusal(capsys, command, limit="1 GiB"):
        out = capsys.readouterr()
        lines = out.err.splitlines()
        assert out.out == "" and len(lines) == 1
        assert lines[0].startswith(f"error: {command}: the branch stack ")
        assert f"over the limit of {limit}" in lines[0]
        return lines[0]

    @pytest.mark.parametrize(
        "argv, need",
        [
            (["--parties", "9"], "9 parties"),
            (["--parties", "1000000000"], "1000000000 parties"),
            (["--parties", "6", "--scramble", "--aux-dims", "2,2,2,2,2,2"], "16.25 GiB"),
            (["--parties", "2", "--scramble", "--aux-dims", "1,1832"], "4.00 GiB"),
            (["--parties", "2", "--scramble", "--aux-dims", "1,916"], "1.00 GiB"),
        ],
    )
    def test_make_strategy_refused(self, tmp_path, capsys, monkeypatch, argv, need):
        built = []
        monkeypatch.setattr(cli, "reference_strategy", built.append)
        out = tmp_path / "s.json"
        assert main(["make-strategy", str(out), *argv]) == 2
        assert built == [] and not out.exists()
        assert need in self.refusal(capsys, "make-strategy")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--parties", "8"],
            ["--parties", "5", "--scramble", "--aux-dims", "2,2,2,2,2"],
            ["--parties", "2", "--scramble", "--aux-dims", "1,915"],
        ],
    )
    def test_make_strategy_within_the_bound(self, tmp_path, capsys, monkeypatch, argv):
        def past_the_guard(parties):
            raise SystemExit(0)  # stop before the strategy is built

        monkeypatch.setattr(cli, "reference_strategy", past_the_guard)
        assert main(["make-strategy", str(tmp_path / "s.json"), *argv]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["simulate", "certify", "noise-sweep"])
    def test_loaded_strategy_refused(self, tmp_path, capsys, monkeypatch, command):
        # The N = 2 reference needs 5 * 4^2 * 16 = 1280 bytes.
        path = tmp_path / "ref.json"
        assert main(["make-strategy", str(path), "--parties", "2"]) == 0
        argv = [command, str(path)] + (["--visibilities", "1"] if command == "noise-sweep" else [])
        capsys.readouterr()
        monkeypatch.setattr(cli, "MAX_BRANCH_STACK_BYTES", 1280)
        assert main(argv) == 0
        capsys.readouterr()
        started = []
        monkeypatch.setattr(cli, "run_scenario", started.append)
        monkeypatch.setattr(cli, "run_full_certification", lambda *a, **k: started.append(a))
        monkeypatch.setattr(cli, "MAX_BRANCH_STACK_BYTES", 1279)
        assert main(argv) == 2
        assert started == []
        assert "local dims (2, 2)" in self.refusal(capsys, command, f"{1279 / 2**30:g} GiB")

    @pytest.mark.parametrize("command", ["simulate", "certify", "noise-sweep"])
    def test_declared_dims_checked_before_any_matrix(self, tmp_path, capsys, monkeypatch, command):
        # The N = 2 reference with dims declared as (2, 20000): the guard reads
        # them before the loader converts a matrix or runs the source's eigh.
        path = tmp_path / "ref.json"
        assert main(["make-strategy", str(path), "--parties", "2"]) == 0
        data = json.loads(path.read_text())
        data["dims"] = {"t1": [2, 20000], "t2": [2, 20000]}
        path.write_text(json.dumps(data))
        capsys.readouterr()
        converted = []
        monkeypatch.setattr(serialize, "matrix_from_payload", lambda *a: converted.append(a))
        argv = [command, str(path)] + (["--visibilities", "1"] if command == "noise-sweep" else [])
        assert main(argv) == 2
        assert converted == []
        assert "local dims (2, 20000)" in self.refusal(capsys, command)

    def test_loaded_dimension_one_parties_sized_exactly(self, tmp_path, capsys, monkeypatch):
        # Nine parties with dims (2, 1, ..., 1): a 513 x 2 x 2 stack of 32 KiB,
        # not the 2^31 bytes nine parties of dimension 2 or more would need.
        n = 9
        z, x = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        ones = (np.eye(1), np.eye(1))

        pairs = ((z, x),) + (ones,) * (n - 1)
        dims = (2,) + (1,) * (n - 1)
        strategy = Strategy(
            source_state=QuantumState(np.diag([0.5, 0.5]), dims),
            observables_t1=pairs,
            observables_t2=pairs,
            interaction=Interaction(np.eye(2), dims, dims),
        )
        path = tmp_path / "thin.json"
        save_strategy(strategy, path)

        def past_the_guard(*args):
            raise SystemExit(0)  # stop before the scenario runs

        monkeypatch.setattr(cli, "run_scenario", past_the_guard)
        assert main(["simulate", str(path)]) == 0
        assert capsys.readouterr().err == ""


class TestStrictJson:
    """A vanishing conditioning event gives NaN Bell values; every JSON the
    CLI writes is strict and carries ``null`` in their place."""

    @staticmethod
    def strict(text):
        def refuse(literal):
            raise ValueError(f"non-standard literal {literal}")

        return json.loads(text, parse_constant=refuse)

    @pytest.fixture
    def vanishing(self, tmp_path, ref2):
        # The product eigenstate of both setting-0 observables: three of the
        # four Bell-branch outcomes have probability zero.
        e = [effect(pair[0], 0) for pair in ref2.observables_t1]
        rho = np.kron(e[0], e[1])
        strategy = dataclasses.replace(ref2, source_state=QuantumState(rho / np.trace(rho), (2, 2)))
        path = tmp_path / "vanishing.json"
        save_strategy(strategy, path)
        return strategy, path

    def test_simulate_and_record(self, tmp_path, capsys, vanishing):
        _, path = vanishing
        record = tmp_path / "record.json"
        capsys.readouterr()
        assert main(["--format", "machine", "simulate", str(path), "--out", str(record)]) == 0
        printed = self.strict(capsys.readouterr().out)
        assert printed == self.strict(record.read_text())
        assert list(printed["t2_bell_values"]) == ["00"]

    def test_certify_and_report(self, tmp_path, capsys, vanishing):
        strategy, path = vanishing
        report = tmp_path / "report.json"
        capsys.readouterr()
        assert main(["--format", "machine", "certify", str(path), "--report", str(report)]) == 3
        printed = self.strict(capsys.readouterr().out)
        assert printed == self.strict(report.read_text())
        expected = [c.value for c in run_full_certification(strategy).bell_checks]
        values = [c["value"] for c in printed["checks"]["bell"]]
        assert [v is None for v in values] == [math.isnan(v) for v in expected]
        assert values.count(None) == 3
        assert [v for v in values if v is not None] == [v for v in expected if not math.isnan(v)]


def test_simulate_names_a_vanishing_side_event(tmp_path, capsys, ref2):
    # (cos 0.3 |0> + sin 0.3 |1>) ox |->: the side-statistics event
    # (settings (1, 1), outcomes (0, 0)) has probability zero.
    vector = np.kron([math.cos(0.3), math.sin(0.3)], [1.0, -1.0]) / math.sqrt(2.0)
    rho = np.outer(vector, vector)
    path = tmp_path / "s.json"
    save_strategy(dataclasses.replace(ref2, source_state=QuantumState(rho, (2, 2))), path)
    assert main(["simulate", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "side statistics: conditioning event has vanishing probability"


class TestEachDocumentBuiltOnce:
    """``--out`` / ``--report`` with machine output writes and prints one
    document, built once."""

    @pytest.mark.parametrize(
        "command, option, builder",
        [
            ("simulate", "--out", "record_to_dict"),
            ("simulate", "--out", "second_round_tables"),
            ("certify", "--report", "report_to_dict"),
        ],
    )
    def test_written_and_printed_from_one_build(
        self, tmp_path, capsys, monkeypatch, command, option, builder
    ):
        path, out = tmp_path / "ref.json", tmp_path / "out.json"
        main(["make-strategy", str(path), "--parties", "2"])
        built = []
        original = getattr(cli, builder)

        def counting(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(cli, builder, counting)
        capsys.readouterr()
        assert main(["--format", "machine", command, str(path), option, str(out)]) == 0
        assert len(built) == 1
        assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())


class TestCertifyExitCodes:
    def test_reference_certified(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        report = tmp_path / "report.json"
        main(["make-strategy", str(path), "--parties", "2"])
        assert main(["certify", str(path), "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["verdict"] == "certified"
        assert data["provenance"]["input_sha256"]

    def test_certify_reads_the_file_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "ref.json"
        main(["make-strategy", str(path), "--parties", "2"])
        capsys.readouterr()
        reads = []
        original = Path.read_bytes

        def counting(self):
            reads.append(self)
            return original(self)

        monkeypatch.setattr(Path, "read_bytes", counting)
        assert main(["--format", "machine", "certify", str(path)]) == 0
        assert reads == [path]
        data = json.loads(capsys.readouterr().out)
        assert data["provenance"]["input_sha256"] == hashlib.sha256(original(path)).hexdigest()

    @pytest.mark.parametrize(
        "argv", [["simulate"], ["noise-sweep", "--visibilities", "1,0.5"]], ids=["simulate", "sweep"]
    )
    def test_every_command_reads_the_file_once(self, tmp_path, capsys, monkeypatch, argv):
        path = tmp_path / "ref.json"
        main(["make-strategy", str(path), "--parties", "2"])
        reads = []
        original = Path.read_bytes

        def counting(self):
            reads.append(self)
            return original(self)

        monkeypatch.setattr(Path, "read_bytes", counting)
        assert main([argv[0], str(path), *argv[1:]]) == 0
        assert reads == [path]

    def test_swap_deviation_refuted(self, tmp_path, capsys, ref2):
        path = tmp_path / "swap.json"
        save_strategy(swap_deviation(ref2), path)
        assert main(["certify", str(path)]) == 1

    def test_diag_phase_deviation_refuted(self, tmp_path, capsys, ref2):
        path = tmp_path / "phase.json"
        save_strategy(diag_phase_deviation(ref2), path)
        assert main(["certify", str(path)]) == 1

    def test_low_visibility_inconclusive(self, tmp_path, capsys):
        path = tmp_path / "noisy.json"
        main(["make-strategy", str(path), "--parties", "2", "--visibility", "0.99"])
        assert main(["certify", str(path)]) == 3

    def test_rank_one_xi_on_unequal_aux_inconclusive(self, tmp_path, capsys):
        # W = U ox V0 holds on supp(xi); the rank premise decides
        path = tmp_path / "rank1.json"
        scrambled = scramble_strategy(reference_strategy(2), (3, 2), 3, xi_rank=1)
        save_strategy(scrambled.strategy, path)
        assert main(["certify", str(path)]) == 3
        assert "full-rank auxiliary state" in capsys.readouterr().out


class TestSourceNormalisation:
    """The loader accepts a source whose trace is within ``ALGEBRA_TOL`` of
    1, and the record built from it is gated at the same tolerance, so such a
    file runs through ``simulate`` and ``certify``; past the tolerance the
    loader refuses it (exit 2)."""

    @staticmethod
    def scaled(tmp_path, parties, factor):
        ref = reference_strategy(parties)
        source = QuantumState(ref.source_state.density * factor, ref.source_state.dims)
        path = tmp_path / "scaled.json"
        save_strategy(dataclasses.replace(ref, source_state=source), path)
        return path

    @pytest.mark.parametrize("parties", [2, 3])
    @pytest.mark.parametrize("delta", [2e-10, -2e-10])
    def test_just_inside_certifies(self, tmp_path, capsys, parties, delta):
        path = self.scaled(tmp_path, parties, 1.0 + delta)
        assert main(["simulate", str(path)]) == 0
        assert main(["certify", str(path)]) == 0

    def test_bell_gate_decides_past_its_tolerance(self, tmp_path, capsys):
        # At N = 4 the t1 Bell value 6 (1 + 2e-10) is 1.2e-9 off the bound.
        path = self.scaled(tmp_path, 4, 1.0 + 2e-10)
        assert main(["simulate", str(path)]) == 0
        capsys.readouterr()
        assert main(["certify", str(path)]) == 3
        assert "Bell value at t1: 6.000000001 not within 1e-09" in capsys.readouterr().out

    def test_just_outside_is_refused_at_load(self, tmp_path, capsys):
        path = self.scaled(tmp_path, 2, 1.0)
        data = json.loads(path.read_text())
        (source,) = [m for m in data["matrices"] if m["role"] == "source_state"]
        source["entries"] = [[re * (1.0 + 2e-9), im] for re, im in source["entries"]]
        path.write_text(json.dumps(data))
        for command in ("simulate", "certify"):
            assert main([command, str(path)]) == 2
            assert "density trace 1.000000002 != 1" in capsys.readouterr().err


class TestToleranceIsFinitePositive:
    @pytest.fixture
    def noisy(self, tmp_path):
        path = tmp_path / "noisy.json"
        assert main(["make-strategy", str(path), "--parties", "2", "--visibility", "0.5"]) == 0
        return path

    def test_default_tolerance_is_inconclusive(self, noisy, capsys):
        assert main(["certify", str(noisy)]) == 3

    @pytest.mark.parametrize(
        "argv", [["certify", "s.json"], ["noise-sweep", "s.json", "--visibilities", "1"]]
    )
    def test_default_is_the_documented_tolerance(self, argv):
        assert cli.build_parser().parse_args(argv).tolerance == certify.MAX_VIOLATION_TOL

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    @pytest.mark.parametrize("command", [["certify"], ["noise-sweep", "--visibilities", "0.5,1"]])
    def test_usage_error(self, noisy, capsys, command, tolerance):
        capsys.readouterr()
        assert main([command[0], str(noisy), *command[1:], "--tolerance", tolerance]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            f"error: {command[0]}: --tolerance must be finite and positive, got {float(tolerance):g}"
        ]


@pytest.mark.parametrize(
    "argv, seed",
    [(["make-strategy", "s.json", "--scramble"], "-1"), (["seesaw", "--parties", "2"], "-3")],
)
def test_negative_seed_is_named(tmp_path, capsys, monkeypatch, argv, seed):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--seed", seed]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: {argv[0]}: --seed must be >= 0, got {seed}"]
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize(
    "argv, option, text",
    [
        (["make-strategy", "s.json", "--parties", "2", "--scramble"], "--aux-dims", "1,,1"),
        (["seesaw", "--parties", "2"], "--dims", "2,,2"),
        (["noise-sweep", "ref.json"], "--visibilities", "1,,0.9,"),
    ],
    ids=["aux-dims", "dims", "visibilities"],
)
def test_empty_list_field_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, option, text):
    monkeypatch.chdir(tmp_path)
    assert main(["make-strategy", "ref.json", "--parties", "2"]) == 0
    capsys.readouterr()
    assert main([*argv, option, text]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    (line,) = out.err.splitlines()
    assert line.startswith(f"error: {option}: expected comma-separated") and line.endswith(f"got {text!r}")
    assert not (tmp_path / "s.json").exists()


class TestValidationAtTheBoundary:
    def test_certify_runs_two_eigensolves(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "s.json"
        argv = ["make-strategy", str(path), "--parties", "3", "--scramble", "--aux-dims", "1,2,1"]
        assert main(argv + ["--seed", "7"]) == 0
        calls = []

        def counting(name):
            original = getattr(np.linalg, name)

            def solve(a, *args, **kwargs):
                calls.append((name, np.array(a)))
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, solve)

        counting("eigh")
        counting("eigvalsh")
        report = tmp_path / "r.json"
        assert main(["certify", str(path), "--report", str(report)]) == 0
        xi = matrix_from_payload(json.loads(report.read_text())["state"]["aux_state"], "xi")
        shapes = [(name, a.shape) for name, a in calls]
        # The source's eigh when the file is loaded (the one D x D eigensolve:
        # it checks positivity and gives the factor the branch states are built
        # from), then one eigh of the recovered auxiliary state xi, which gives
        # both its minimum eigenvalue and its support.  The other eigh calls
        # are on local spaces (supports and frames); the eigvalsh calls are
        # the load's spectrum gate, one stack of pairs per round and local
        # dimension: dims (2, 4, 2) in both rounds.
        assert [c for c in shapes if c[1] == (16, 16)] == [("eigh", (16, 16))]
        gate = [("eigvalsh", (2, 2, 2, 2)), ("eigvalsh", (1, 2, 4, 4))]
        assert sorted(c for c in shapes if c[0] == "eigvalsh") == sorted(gate * 2)
        assert [name for name, a in calls if np.array_equal(a, xi)] == ["eigh"]
        assert xi.shape == (2, 2) and shapes[0] == ("eigh", (16, 16))


class TestObservableBoundary:
    """``Strategy`` checks each observable once, at load: finite entries and
    hermiticity within ``ALGEBRA_TOL`` (1e-9), and keeps its Hermitian part,
    so an observable it accepts cannot fail a hermiticity check later."""

    @staticmethod
    def with_observable(tmp_path, strategy, which, delta):
        """A strategy file whose observable ``which = (party, setting,
        time_slice)`` is ``A + delta``, written from the payload itself:
        ``save_strategy`` would write the Hermitian part."""
        data = strategy_to_dict(strategy)
        party, setting, time_slice = which
        keys = [(m.get("party"), m.get("setting"), m.get("time_slice")) for m in data["matrices"]]
        entry = data["matrices"][keys.index(which)]
        pairs = strategy.observables_t1 if time_slice == 1 else strategy.observables_t2
        entry.update(serialize.matrix_payload(pairs[party][setting] + delta))
        path = tmp_path / "perturbed.json"
        serialize.write_json(data, path)
        return path

    @staticmethod
    def anti_hermitian(d, defect, seed):
        """A random anti-Hermitian ``delta`` with ``max|delta - delta^dag| = defect``."""
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = m - np.conj(m).T
        return m * (defect / np.max(np.abs(m - np.conj(m).T)))

    def test_defect_grown_on_the_support_is_not_an_error(self, tmp_path, capsys):
        # Hermiticity defect 9.7e-10 on the observable, 1.5e-9 once it is
        # compressed to the party's rank-4 support, where the frame's
        # eigensolve used to raise NonHermitianError (exit 2).  The Hermitian
        # part decides, as for the unperturbed rank-one xi: inconclusive.
        strategy = scramble_strategy(reference_strategy(2), (3, 2), seed=0, xi_rank=1).strategy
        s = certify._compute_supports(strategy, run_scenario(strategy))[(0, 1)]
        x, y = s[:, 0], s[:, 1]
        m = 0.49e-9 * np.exp(1j * (np.angle(x)[:, None] - np.angle(y)[None, :]))
        delta = (m - np.conj(m).T) / 2.0
        a = strategy.observables_t1[0][0] + delta
        assert 9.5e-10 < np.max(np.abs(a - np.conj(a).T)) <= 1e-9
        compressed = np.conj(s).T @ a @ s
        assert np.max(np.abs(compressed - np.conj(compressed).T)) > 1.5e-9
        path = self.with_observable(tmp_path, strategy, (0, 0, 1), delta)
        assert main(["certify", str(path)]) == 3
        out = capsys.readouterr()
        assert out.err == "" and "full-rank auxiliary state" in out.out

    def test_defect_just_above_tolerance_exits_2(self, tmp_path, capsys, ref2):
        delta = self.anti_hermitian(2, 1.01e-9, 0)
        path = self.with_observable(tmp_path, ref2, (1, 0, 2), delta)
        assert main(["certify", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: strategy validation: t2 observable (party 1, setting 0) is not Hermitian"
        ]

    @pytest.mark.parametrize("which", [(0, 1, 1), (1, 0, 2)])
    def test_defect_just_below_tolerance_keeps_the_verdict(self, tmp_path, capsys, which):
        strategy = scramble_strategy(reference_strategy(2), (2, 2), seed=3).strategy
        plain = tmp_path / "plain.json"
        save_strategy(strategy, plain)
        delta = self.anti_hermitian(4, 0.99e-9, 1)
        path = self.with_observable(tmp_path, strategy, which, delta)
        assert main(["--format", "machine", "certify", str(plain)]) == 0
        verdict = json.loads(capsys.readouterr().out)["verdict"]
        assert main(["--format", "machine", "certify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == verdict == "certified"

    def test_non_square_observable_names_both_shapes(self, tmp_path, capsys, ref2):
        # Two rows, as the party's dimension asks, but three columns.
        data = strategy_to_dict(ref2)
        keys = [(m.get("party"), m.get("setting"), m.get("time_slice")) for m in data["matrices"]]
        entry = data["matrices"][keys.index((0, 0, 1))]
        entry.update(serialize.matrix_payload(np.zeros((2, 3))))
        path = tmp_path / "wide.json"
        serialize.write_json(data, path)
        assert main(["certify", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: strategy validation: t1 observable (party 0, setting 0) "
            "has shape (2, 3), expected (2, 2)"
        ]


class TestSameReportAcrossProcesses:
    def test_hash_seed_does_not_change_the_report(self, tmp_path):
        strategy = scramble_strategy(reference_strategy(3), (1, 2, 1), seed=7).strategy
        save_strategy(strategy, tmp_path / "s.json")
        src = Path(cli.__file__).resolve().parents[1]
        runs = []
        for hash_seed in ("0", "1"):
            report = tmp_path / f"r{hash_seed}.json"
            env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed}
            argv = ["--format", "machine", "certify", "s.json", "--report", report.name]
            done = subprocess.run(
                [sys.executable, "-m", "bellcert.cli", *argv],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                check=False,
            )
            runs.append((done.returncode, done.stdout, report.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1] == runs[0][2]


class TestNoiseSweep:
    def test_rows_and_monotonicity(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        main(["make-strategy", str(path), "--parties", "2"])
        capsys.readouterr()
        vis = ",".join(f"{v / 10:.1f}" for v in range(11))
        assert main(["--format", "machine", "noise-sweep", str(path), "--visibilities", vis]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 11
        for i, row in enumerate(rows):
            assert abs(row["t1_bell_value"] - 2.0 * row["visibility"]) < 1e-10
            if i:
                assert row["t1_bell_value"] >= rows[i - 1]["t1_bell_value"] - 1e-12
                assert row["min_t2_bell_value"] >= rows[i - 1]["min_t2_bell_value"] - 1e-12
        assert [r["verdict"] for r in rows].count("certified") == 1
        assert rows[-1]["verdict"] == "certified"

    def test_invalid_visibility(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        main(["make-strategy", str(path), "--parties", "2"])
        assert main(["noise-sweep", str(path), "--visibilities", "0.5,1.5"]) == 2

    def test_one_simulation_per_row(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "ref.json"
        main(["make-strategy", str(path), "--parties", "2"])
        runs = []
        original = certify.run_scenario

        def counting(strategy):
            runs.append(strategy)
            return original(strategy)

        monkeypatch.setattr(certify, "run_scenario", counting)
        monkeypatch.setattr(cli, "run_scenario", counting)
        assert main(["noise-sweep", str(path), "--visibilities", "0,0.5,1"]) == 0
        assert len(runs) == 3

    def test_rows_pinned(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        main(["make-strategy", str(path), "--parties", "2"])
        capsys.readouterr()
        assert main(["--format", "machine", "noise-sweep", str(path), "--visibilities", "0,0.5,0.99,1"]) == 0
        rows = json.loads(capsys.readouterr().out)
        expected = [
            (0.0, 0.0, "inconclusive"),
            (0.5, 1.0, "inconclusive"),
            (0.99, 1.98, "inconclusive"),
            (1.0, 2.0, "certified"),
        ]
        assert [r["visibility"] for r in rows] == [v for v, _, _ in expected]
        assert [r["verdict"] for r in rows] == [verdict for _, _, verdict in expected]
        for row, (_, t1, _) in zip(rows, expected):
            assert abs(row["t1_bell_value"] - t1) < 1e-12
            assert abs(row["min_t2_bell_value"] - 2.0) < 1e-12

    def test_human_rows_tell_visibilities_apart(self, tmp_path, capsys):
        path = tmp_path / "ref.json"
        main(["make-strategy", str(path), "--parties", "2"])
        capsys.readouterr()
        assert main(["noise-sweep", str(path), "--visibilities", "0.999999999,1,0.5"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[0] == "v"
        assert [row.split()[0] for row in rows] == ["0.999999999", "1.0", "0.5"]
        assert [row.split()[-1] for row in rows] == ["inconclusive", "certified", "inconclusive"]
        ends = {len(row) - len(row.lstrip()) + len(row.split()[0]) for row in rows}
        assert len(ends) == 1  # one right-aligned column

    @pytest.mark.parametrize("fmt", ["machine", "human"])
    def test_sweep_file_has_a_schema_version(self, tmp_path, capsys, fmt):
        path, out = tmp_path / "ref.json", tmp_path / "sweep.json"
        main(["make-strategy", str(path), "--parties", "2"])
        argv = ["noise-sweep", str(path), "--visibilities", "1,0.9", "--out", str(out)]
        capsys.readouterr()
        assert main(["--format", fmt, *argv]) == 0
        printed = capsys.readouterr().out
        sweep = json.loads(out.read_text())
        assert list(sweep) == ["schema_version", "kind", "rows"]
        assert sweep["schema_version"] == SCHEMA_VERSION and sweep["kind"] == "noise_sweep"
        assert [r["verdict"] for r in sweep["rows"]] == ["certified", "inconclusive"]
        if fmt == "machine":  # stdout stays the rows alone
            assert json.loads(printed) == sweep["rows"]

    def test_non_projective_first_round_is_a_usage_error(self, tmp_path, capsys, ref2):
        pair = ref2.observables_t1[0]
        scaled = 0.95 * pair[0]
        strategy = dataclasses.replace(
            ref2, observables_t1=((scaled, pair[1]),) + ref2.observables_t1[1:]
        )
        path = tmp_path / "scaled.json"
        save_strategy(strategy, path)
        capsys.readouterr()
        assert main(["noise-sweep", str(path), "--visibilities", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise-sweep:") and "not projective" in err


class TestSeesawCommand:
    def test_two_party_qubits(self, tmp_path, capsys):
        out = tmp_path / "best.json"
        assert (
            main(
                [
                    "--format",
                    "machine",
                    "seesaw",
                    "--parties",
                    "2",
                    "--restarts",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        # The whole of stdout is one JSON document, with --out as without.
        data = json.loads(capsys.readouterr().out)
        assert data["best_value"] >= 2.0 - 1e-6
        saved = json.loads(out.read_text())
        assert saved["kind"] == "bell_strategy"
        assert saved["schema_version"] == SCHEMA_VERSION

    def test_human_output_and_written_file(self, tmp_path, capsys):
        out = tmp_path / "best.json"
        assert main(["seesaw", "--parties", "2", "--restarts", "2", "--seed", "3", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quantum bound: 2"
        assert [line.split(":")[0] for line in lines[1:3]] == ["  seed 3", "  seed 4"]
        assert all(line.endswith(" iterations)") for line in lines[1:3])
        saved = json.loads(out.read_text())
        assert lines[3] == f"best value: {saved['value']:.12f}"
        assert lines[4:] == [f"wrote {out}"]

    def test_three_party_target(self, capsys):
        assert main(["--format", "machine", "seesaw", "--parties", "3", "--restarts", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["best_value"] >= 4.0 - 1e-6

    def test_local_dimension_three_respects_bound(self, capsys):
        assert (
            main(
                ["--format", "machine", "seesaw", "--parties", "2", "--dims", "3,3", "--restarts", "5"]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert all(v <= 2.0 + 1e-9 for v in data["restart_values"])

    def test_bad_dims(self, capsys):
        assert main(["seesaw", "--parties", "2", "--dims", "2"]) == 2

    @pytest.mark.parametrize(
        "size, dimension",
        [(["--parties", "11"], "2^11"), (["--parties", "5", "--dims", "5,5,5,5,5"], "3125")],
    )
    def test_dimension_over_the_limit_is_refused(self, capsys, monkeypatch, size, dimension):
        started = []
        monkeypatch.setattr(cli, "BellExpression", lambda *a: started.append(a))
        monkeypatch.setattr(cli, "seesaw_restarts", lambda *a, **k: started.append(a))
        assert main(["seesaw", *size, "--restarts", "1"]) == 2
        assert started == []
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: seesaw: ")
        assert dimension in lines[0] and "1024" in lines[0]

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_no_restarts_is_a_usage_error(self, capsys, restarts):
        assert main(["seesaw", "--parties", "2", "--restarts", restarts]) == 2
        assert capsys.readouterr().err.startswith("error: seesaw: --restarts must be at least 1")
