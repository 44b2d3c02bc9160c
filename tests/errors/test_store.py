"""Tests for error-model artifact persistence."""

import json

import numpy as np
import pytest

from repro.circuit.liberty import VR15, VR20
from repro.errors import store
from repro.errors.da import DaModel
from repro.fpu.formats import FpOp


class TestDaRoundtrip:
    def test_roundtrip(self, tmp_path):
        model = DaModel({"VR15": 1e-3, "VR20": 1e-2}, injection_window=512)
        path = store.save_da(model, tmp_path / "da.json")
        loaded = store.load_any(path)
        assert loaded.fixed_error_ratios == model.fixed_error_ratios
        assert loaded.injection_window == 512

    def test_json_is_inspectable(self, tmp_path):
        path = store.save_da(DaModel({"VR15": 1e-3}), tmp_path / "da.json")
        data = json.loads(path.read_text())
        assert data["model"] == "DA"
        assert data["format_version"] == 3
        assert data["checksum"].startswith("sha256:")
        assert data["provenance"] is None  # hand-built model


class TestIaRoundtrip:
    def test_roundtrip(self, tmp_path, ia_model):
        path = store.save_ia(ia_model, tmp_path / "ia.json")
        loaded = store.load_any(path)
        for point in ("VR15", "VR20"):
            for op, stats in ia_model.stats[point].items():
                back = loaded.stats[point][op]
                assert back.error_ratio == stats.error_ratio
                assert np.allclose(back.bit_probabilities,
                                   stats.bit_probabilities)

    def test_plans_equivalent(self, tmp_path, ia_model, tiny_profiles):
        from repro.utils.rng import RngStream

        path = store.save_ia(ia_model, tmp_path / "ia.json")
        loaded = store.load_any(path)
        profile = tiny_profiles["srad_v1"]
        p1 = ia_model.plan(profile, VR20, RngStream(5, "r"))
        p2 = loaded.plan(profile, VR20, RngStream(5, "r"))
        assert p1.victims == p2.victims


class TestWaRoundtrip:
    def test_roundtrip(self, tmp_path, wa_models):
        model = wa_models["srad_v1"]
        path = store.save_wa(model, tmp_path / "wa.json")
        loaded = store.load_any(path)
        assert loaded.workload == model.workload
        for point in ("VR15", "VR20"):
            for op, faults in model.faults[point].items():
                back = loaded.faults[point][op]
                assert np.array_equal(back.indices, faults.indices)
                assert np.array_equal(back.bitmasks, faults.bitmasks)
                assert back.analysed == faults.analysed


class TestLoadAny:
    def test_dispatch(self, tmp_path, wa_models):
        da_path = store.save_da(DaModel({"VR15": 1e-3}), tmp_path / "a.json")
        wa_path = store.save_wa(wa_models["cg"], tmp_path / "b.json")
        assert store.load_any(da_path).name == "DA"
        assert store.load_any(wa_path).name == "WA"

    def test_kind_mismatch_rejected(self, tmp_path):
        path = store.save_da(DaModel({"VR15": 1e-3}), tmp_path / "a.json")
        with pytest.raises(ValueError, match="expected 'WA'"):
            store.loads_model(path.read_bytes(), "WA")

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "model": "DA",
                                    "payload": {}}))
        with pytest.raises(ValueError, match="format version"):
            store.load_any(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"format_version": 1, "model": "XX",
                                    "payload": {}}))
        with pytest.raises(ValueError, match="unknown model kind"):
            store.load_any(path)


class TestProvenance:
    def test_v1_artifact_rejected(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "format_version": 1, "model": "DA",
            "payload": {"fixed_error_ratios": {"VR15": 1e-3},
                        "injection_window": 1000},
        }))
        with pytest.raises(ValueError, match="supported: 3"):
            store.load_any(path)

    def test_characterized_models_carry_provenance(self, tmp_path,
                                                   tiny_profiles):
        from repro.errors import characterize_da, characterize_wa

        profile = tiny_profiles["kmeans"]
        wa = characterize_wa(profile, [VR15, VR20])
        assert wa.provenance.benchmark == "kmeans"
        assert wa.provenance.points == ("VR15", "VR20")
        da = characterize_da([profile], [VR20], sample_per_point=500,
                             seed=7)
        assert da.provenance.benchmark == "kmeans"
        assert da.provenance.seed == 7
        assert da.provenance.samples == 500

    def test_load_any_roundtrip_preserves_provenance(self, tmp_path,
                                                     tiny_profiles):
        from repro.errors import characterize_wa

        model = characterize_wa(tiny_profiles["cg"], [VR15, VR20],
                                max_samples=2000)
        path = store.save_wa(model, tmp_path / "wa.json")
        loaded = store.load_any(path)
        assert loaded.name == "WA"
        assert loaded.provenance == model.provenance
        assert loaded.provenance.benchmark == "cg"
        assert loaded.provenance.samples == 2000
        assert loaded.provenance.points == ("VR15", "VR20")

    def test_ia_provenance_roundtrip(self, tmp_path, ia_model):
        from repro.errors.base import Provenance

        ia_model.provenance = Provenance(seed=2021, samples=4000,
                                         points=("VR15", "VR20"))
        path = store.save_ia(ia_model, tmp_path / "ia.json")
        loaded = store.load_any(path)
        assert loaded.provenance == ia_model.provenance

    def test_future_version_rejected_with_hint(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format_version": 99, "model": "DA",
                                    "payload": {}}))
        with pytest.raises(ValueError, match="supported: 3"):
            store.load_any(path)
