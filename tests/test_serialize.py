"""Tests for sizing-result JSON persistence."""

import pytest

from repro.errors import SizingError
from repro.sizing import minflotransit
from repro.sizing.serialize import (
    SCHEMA_VERSION,
    load_result,
    payload_schema_version,
    result_from_dict,
    result_to_dict,
    save_result,
)
from repro.timing import analyze


@pytest.fixture(scope="module")
def result(c17_gate_dag):
    d_min = analyze(c17_gate_dag, c17_gate_dag.min_sizes()).critical_path_delay
    return minflotransit(c17_gate_dag, 0.6 * d_min)


class TestSerialize:
    def test_roundtrip(self, result, tmp_path):
        path = save_result(result, tmp_path / "r.json")
        again = load_result(path)
        assert again.name == result.name
        assert again.x == pytest.approx(result.x)
        assert again.area == pytest.approx(result.area)
        assert again.n_iterations == result.n_iterations
        assert again.iterations[0].backend == result.iterations[0].backend

    def test_labels_included_with_dag(self, result, c17_gate_dag):
        payload = result_to_dict(result, c17_gate_dag)
        assert len(payload["labels"]) == c17_gate_dag.n

    def test_dag_mismatch_detected(self, result, adder8_dag):
        with pytest.raises(SizingError, match="vertices"):
            result_to_dict(result, adder8_dag)

    def test_schema_checked(self, result):
        payload = result_to_dict(result)
        payload["schema"] = "other/9"
        del payload["schema_version"]
        with pytest.raises(SizingError, match="schema"):
            result_from_dict(payload)

    def test_schema_version_mismatch_rejected(self, result):
        payload = result_to_dict(result)
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SizingError, match="version"):
            result_from_dict(payload)
        # A version-2 document (it carried a per-iteration "kernel" key
        # and loaded with telemetry fields missing) is refused too.
        payload["schema_version"] = 2
        payload["schema"] = "repro.sizing-result/2"
        for rec in payload["iterations"]:
            rec["kernel"] = "vectorized"
        with pytest.raises(SizingError, match="version 2"):
            result_from_dict(payload)

    def test_v1_documents_rejected(self, result):
        # Version 1 predates the explicit schema_version field; its
        # family-string suffix must still be recognized — and refused.
        payload = result_to_dict(result)
        del payload["schema_version"]
        payload["schema"] = "repro.sizing-result/1"
        assert payload_schema_version(payload) == 1
        with pytest.raises(SizingError, match="version 1"):
            result_from_dict(payload)

    def test_missing_field_raises_sizing_error(self, result):
        payload = result_to_dict(result)
        assert payload["schema_version"] == 4
        del payload["iterations"][0]["w_sweeps"]
        with pytest.raises(SizingError, match="w_sweeps"):
            result_from_dict(payload)
        payload = result_to_dict(result)
        del payload["phase_seconds"]
        with pytest.raises(SizingError, match="phase_seconds"):
            result_from_dict(payload)

    def test_payload_carries_current_version(self, result):
        payload = result_to_dict(result)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload_schema_version(payload) == SCHEMA_VERSION

    def test_derived_properties_survive(self, result, tmp_path):
        again = load_result(save_result(result, tmp_path / "r.json"))
        assert again.meets_target == result.meets_target
        assert again.area_saving_vs_initial == pytest.approx(
            result.area_saving_vs_initial
        )
