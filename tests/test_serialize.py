import json

import numpy as np
import pytest

from bellcert.certify import run_full_certification
from bellcert.scenario import run_scenario, scramble_strategy
from bellcert.serialize import (
    SerializationError,
    load_strategy,
    matrix_from_payload,
    matrix_payload,
    record_to_dict,
    report_to_dict,
    save_report,
    save_strategy,
    strategy_from_dict,
    strategy_to_dict,
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


class TestStrategyFile:
    def test_roundtrip_bit_exact(self, tmp_path, ref2):
        scrambled = scramble_strategy(ref2, (2, 1), seed=51)
        path = tmp_path / "strategy.json"
        save_strategy(scrambled.strategy, path, meta={"seed": 51})
        loaded = load_strategy(path)
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
                    assert np.array_equal(o_l.matrix, o_o.matrix)

    def test_loaded_strategy_behaves_identically(self, tmp_path, ref2):
        path = tmp_path / "ref.json"
        save_strategy(ref2, path)
        rec = run_scenario(load_strategy(path))
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
            load_strategy(path)

    def test_unknown_schema_rejected(self, ref2):
        data = strategy_to_dict(ref2)
        data["schema_version"] = "999"
        with pytest.raises(SerializationError, match="schema_version"):
            strategy_from_dict(data)


class TestRecordAndReport:
    def test_record_serialization(self, ref2):
        rec = run_scenario(ref2)
        data = json.loads(json.dumps(record_to_dict(rec)))
        assert data["kind"] == "correlation_record"
        assert abs(data["t1_bell_value"] - 2.0) < 1e-12
        assert set(data["t2_bell_values"]) == {"00", "01", "10", "11"}
        key = "x=00|a=00"
        assert abs(sum(data["p2"][key]["11"]) - 1.0) < 1e-10

    def test_report_serialization_carries_tolerances(self, tmp_path, ref2):
        report = run_full_certification(ref2)
        path = tmp_path / "report.json"
        save_report(report, path, provenance={"seed": 0})
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
