import ast
import dataclasses
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import orjson
import pytest

import bellcert
from bellcert.certify import run_full_certification
from bellcert.quantum import QuantumState, white_noise_mix
from bellcert.reference import reference_strategy
from bellcert.scenario import run_scenario, scramble_strategy, second_round_tables
from bellcert.serialize import (
    SerializationError,
    dumps,
    matrix_from_payload,
    matrix_payload,
    parse_json,
    read_input,
    record_to_dict,
    report_to_dict,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
    write_json,
)


class TestMatrixPayload:
    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(50)
        m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        through_json = json.loads(json.dumps(matrix_payload(m)))
        back = matrix_from_payload(through_json, "m")
        assert np.array_equal(back, m)

    def test_entry_count_checked(self):
        with pytest.raises(SerializationError, match="entries"):
            matrix_from_payload({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}, "m")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_named(self, value):
        entries = [[1.0, 0.0], [0.0, 0.0], [0.0, value], [1.0, 0.0]]
        with pytest.raises(SerializationError, match=r"m\.entries\[2\]: non-finite"):
            matrix_from_payload({"rows": 2, "cols": 2, "entries": entries}, "m")

    @pytest.mark.parametrize("rows", [float("nan"), float("inf"), "two", None])
    def test_invalid_shape_named(self, rows):
        with pytest.raises(SerializationError, match=r"^m: missing or invalid rows/cols"):
            matrix_from_payload({"rows": rows, "cols": 1, "entries": [[1.0, 0.0]]}, "m")


class TestStrategyFile:
    def test_roundtrip_bit_exact(self, tmp_path, ref2):
        scrambled = scramble_strategy(ref2, (2, 1), seed=51)
        path = tmp_path / "strategy.json"
        save_strategy(scrambled.strategy, path, meta={"seed": 51})
        loaded = _load(path)
        assert np.array_equal(
            loaded.source_state.density, scrambled.strategy.source_state.density
        )
        assert np.array_equal(
            loaded.interaction.matrix, scrambled.strategy.interaction.matrix
        )
        for t_loaded, t_orig in (
            (loaded.observables_t1, scrambled.strategy.observables_t1),
            (loaded.observables_t2, scrambled.strategy.observables_t2),
        ):
            for pair_l, pair_o in zip(t_loaded, t_orig):
                for o_l, o_o in zip(pair_l, pair_o):
                    assert np.array_equal(o_l, o_o)

    def test_loaded_strategy_behaves_identically(self, tmp_path, ref2):
        path = tmp_path / "ref.json"
        save_strategy(ref2, path)
        rec = run_scenario(_load(path))
        assert abs(rec.t1_bell_value - 2.0) < 1e-12

    def test_wrong_kind_rejected(self, ref2):
        data = strategy_to_dict(ref2)
        data["kind"] = "something_else"
        with pytest.raises(SerializationError, match="kind"):
            strategy_from_dict(data)

    def test_missing_observable_named(self, ref2):
        data = strategy_to_dict(ref2)
        data["matrices"] = [
            m
            for m in data["matrices"]
            if not (m.get("role") == "observable" and m.get("party") == 1 and m.get("time_slice") == 2)
        ]
        with pytest.raises(SerializationError, match="party=1"):
            strategy_from_dict(data)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": "1", "kind": "strategy"')
        with pytest.raises(SerializationError):
            _load(path)

    def test_unknown_schema_rejected(self, ref2):
        data = strategy_to_dict(ref2)
        data["schema_version"] = "999"
        with pytest.raises(SerializationError, match="schema_version"):
            strategy_from_dict(data)


class TestRecordAndReport:
    def test_record_serialization(self, ref2):
        rec = run_scenario(ref2)
        data = json.loads(dumps(record_to_dict(rec, second_round_tables(rec, ref2.observables_t2))))
        assert data["kind"] == "correlation_record"
        assert abs(data["t1_bell_value"] - 2.0) < 1e-12
        assert set(data["t2_bell_values"]) == {"00", "01", "10", "11"}
        key = "x=00|a=00"
        assert abs(sum(data["p2"][key]["11"]) - 1.0) < 1e-10

    @staticmethod
    def listed(data):
        """Oracle: the document with every array as its ``tolist()``."""
        if isinstance(data, dict):
            return {k: TestRecordAndReport.listed(v) for k, v in data.items()}
        return data.tolist() if isinstance(data, np.ndarray) else data

    @pytest.mark.parametrize("case", ["ref2", "ref3", "ref4", "ref5", "scrambled", "noisy"])
    def test_record_bytes_match_the_list_oracle(self, case):
        if case == "scrambled":
            strategy = scramble_strategy(reference_strategy(2), (2, 1), 4).strategy
        else:
            strategy = reference_strategy(3 if case == "noisy" else int(case[-1]))
        if case == "noisy":
            source = white_noise_mix(strategy.source_state, 0.9)
            strategy = dataclasses.replace(strategy, source_state=source)
        rec = run_scenario(strategy)
        data = record_to_dict(rec, second_round_tables(rec, strategy.observables_t2))
        oracle = self.listed(data)
        assert dumps(data) == dumps(oracle) == orjson.dumps(oracle)

    def test_stdlib_fallback_encodes_arrays(self):
        # orjson refuses an integer beyond 64 bits, so the stdlib encodes.
        data = {"seed": 2**70, "table": np.array([0.25, 0.75])}
        assert dumps(data) == b'{"seed": 1180591620717411303424, "table": [0.25, 0.75]}'

    def test_report_serialization_carries_tolerances(self, tmp_path, ref2):
        report = run_full_certification(ref2)
        path = tmp_path / "report.json"
        write_json(report_to_dict(report, provenance={"seed": 0}), path)
        data = json.loads(path.read_text())
        assert data["verdict"] == "certified"
        assert data["tolerances"]["max_violation"] == 1e-9
        for section in data["checks"].values():
            for check in section:
                assert "tolerance" in check and "value" in check
        assert data["provenance"]["seed"] == 0

    def test_report_deterministic(self, ref2):
        a = report_to_dict(run_full_certification(ref2))
        b = report_to_dict(run_full_certification(ref2))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _matrices(strategy):
    """Every matrix of a strategy, in file order."""
    obs = [o for t in (strategy.observables_t1, strategy.observables_t2) for p in t for o in p]
    return [strategy.source_state.density, *obs, strategy.interaction.matrix]


def _same_bits(a, b):
    """Bit-exact equality; ``-0.0`` differs from ``0.0``."""
    return all(
        x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))
        for x, y in zip(_matrices(a), _matrices(b), strict=True)
    )


def _load(path):
    """A strategy file read as the CLI reads it."""
    return strategy_from_dict(parse_json(read_input(path), path))


def _stdlib_load(path):
    """The stdlib-only loader the orjson path must agree with."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: {exc}") from exc
    return strategy_from_dict(data)


class TestCodec:
    @pytest.fixture
    def edgy(self, ref2):
        """The reference with -0.0, the smallest subnormal and 1e-300 in its source."""
        rho = np.array(ref2.source_state.density)
        rho[0, 1], rho[1, 0] = complex(1e-300, 5e-324), complex(1e-300, -5e-324)
        rho[1, 1], rho[2, 2] = complex(-0.0, 0.0), complex(0.0, -0.0)
        return dataclasses.replace(ref2, source_state=QuantumState(rho, (2, 2)))

    def test_save_then_load_is_bit_exact(self, tmp_path, edgy):
        path = tmp_path / "edgy.json"
        save_strategy(edgy, path)
        loaded = _load(path)
        assert _same_bits(loaded, edgy)
        assert np.signbit(loaded.source_state.density[1, 1].real)
        assert loaded.source_state.density[0, 1] == complex(1e-300, 5e-324)

    def test_indent_one_file_loads_bit_identically(self, tmp_path, edgy):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(strategy_to_dict(edgy), indent=1))
        assert _same_bits(_load(path), edgy)
        assert _same_bits(_load(path), _stdlib_load(path))
        # Files are one line now; the two-space files of earlier versions load too.
        path.write_bytes(orjson.dumps(strategy_to_dict(edgy), option=orjson.OPT_INDENT_2))
        assert _same_bits(_load(path), edgy)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_literal_message_matches_stdlib(self, tmp_path, ref2, literal):
        text = json.dumps(strategy_to_dict(ref2))
        path = tmp_path / "bad.json"
        path.write_text(text.replace("[0.0, 0.0]", f"[0.0, {literal}]", 1))
        with pytest.raises(SerializationError) as expected:
            _stdlib_load(path)
        with pytest.raises(SerializationError) as got:
            _load(path)
        assert str(got.value) == str(expected.value)
        assert "non-finite entry" in str(got.value)

    @pytest.mark.parametrize(
        "raw",
        [b'{"schema_version": "1", "kind": "strategy"', b'\xef\xbb\xbf{"schema_version": "1"}'],
        ids=["truncated", "utf8-bom"],
    )
    def test_parse_error_message_matches_stdlib(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(SerializationError) as expected:
            _stdlib_load(path)
        with pytest.raises(SerializationError) as got:
            _load(path)
        assert str(got.value) == str(expected.value)

    def test_integer_beyond_float_range_is_named(self, tmp_path, ref2):
        # the stdlib parser reads it as an int, which complex() cannot convert
        text = json.dumps(strategy_to_dict(ref2))
        path = tmp_path / "big.json"
        path.write_text(text.replace("[0.0, 0.0]", "[1" + "0" * 400 + ", 0.0]", 1))
        with pytest.raises(SerializationError, match=r"^matrices\[0\]\.entries: int too large"):
            _load(path)

    def test_non_utf8_file_is_a_serialization_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(SerializationError, match="utf-8"):
            _load(path)

    def test_meta_duplicate_keys_and_huge_integer_load_as_stdlib(self, tmp_path, ref2):
        text = json.dumps(strategy_to_dict(ref2, meta={"seed": 1}))
        path = tmp_path / "meta.json"
        path.write_text(text.replace('"seed": 1', '"seed": 1, "seed": 2, "big": 18446744073709551617'))
        assert json.loads(path.read_text())["meta"] == {"seed": 2, "big": 2**64 + 1}
        assert _same_bits(_load(path), _stdlib_load(path))

    def test_meta_beyond_orjson_is_written_by_the_stdlib_encoder(self, tmp_path, ref2):
        path = tmp_path / "s.json"
        save_strategy(ref2, path, meta={"seed": 2**70, 3: "int key"})
        assert json.loads(path.read_text())["meta"] == {"seed": 2**70, "3": "int key"}
        assert _same_bits(_load(path), ref2)

    def test_dumps_is_strict_json(self):
        data = {"nan": float("nan"), "inf": np.float64("inf"), "x": np.float64(0.1), "ok": np.bool_(True)}

        def refuse(literal):
            raise ValueError(f"non-standard literal {literal}")

        text = dumps(data).decode()
        assert json.loads(text, parse_constant=refuse) == {"nan": None, "inf": None, "x": 0.1, "ok": True}
        assert b"\n" not in dumps(data)


MODULES = ["bell", "certify", "cli", "linalg", "quantum", "reference", "scenario", "seesaw", "serialize"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_is_defined(module):
    mod = importlib.import_module(f"bellcert.{module}")
    exported = getattr(mod, "__all__", [])
    assert [name for name in exported if not hasattr(mod, name)] == []
    namespace = {}
    exec(f"from bellcert.{module} import *", namespace)
    assert set(exported) <= namespace.keys()


def test_export_check_covers_every_module():
    assert sorted(m.name for m in pkgutil.iter_modules(bellcert.__path__)) == MODULES


def test_every_package_import_is_defined():
    tree = ast.parse(Path(bellcert.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imported) > 20
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not (hasattr(importlib.import_module(f"bellcert.{module}"), name) and hasattr(bellcert, name))
    ]
    assert missing == []
