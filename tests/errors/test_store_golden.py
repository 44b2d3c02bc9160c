"""Golden-artifact tests of the model store and the pipeline cache keys.

The committed fixtures under ``fixtures/`` pin the on-disk schema: a
format change that silently alters or breaks old artifacts fails here
first.  The ``*_v3.json`` files must survive a load -> save round trip
byte-for-byte, and their checksums must catch tampering.  ``da_v1.json``
(before the provenance block) and the ``*_v2.json`` files (before the
content checksum) are superseded formats: loading them must fail with
the regenerate hint, never yield a model.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.liberty import VR15, VR20
from repro.errors import store
from repro.errors.da import DaModel
from repro.errors.ia import IaModel
from repro.errors.pipeline import cache_key
from repro.errors.wa import WaModel
from repro.fpu.formats import FpOp

FIXTURES = Path(__file__).parent / "fixtures"


class TestGoldenArtifacts:
    def test_da_v3_round_trips(self, tmp_path):
        model = store.load_any(FIXTURES / "da_v3.json")
        assert model.fixed_error_ratios == {"VR15": 0.001, "VR20": 0.0125}
        assert model.injection_window == 512
        assert model.provenance.benchmark == "is+mg"
        assert model.provenance.seed == 7
        assert model.provenance.points == ("VR15", "VR20")
        assert model.provenance.describe() == (
            "benchmark=is+mg, seed=7, samples=1000, points=VR15+VR20, "
            "trace=abababababab")
        saved = store.save_da(model, tmp_path / "again.json")
        assert saved.read_text() == (FIXTURES / "da_v3.json").read_text()

    def test_ia_v3_round_trips(self, tmp_path):
        model = store.load_any(FIXTURES / "ia_v3.json")
        st20 = model.stats["VR20"][FpOp.ADD_S]
        assert st20.error_ratio == 0.25
        assert st20.sample_size == 64
        assert st20.bit_probabilities[3] == 0.5
        assert st20.bit_probabilities[30] == 0.25
        assert model.stats["VR15"][FpOp.ADD_S].error_ratio == 0.0
        assert model.provenance.benchmark is None
        saved = store.save_ia(model, tmp_path / "again.json")
        assert saved.read_text() == (FIXTURES / "ia_v3.json").read_text()

    def test_wa_v3_round_trips(self, tmp_path):
        model = store.load_any(FIXTURES / "wa_v3.json")
        assert model.workload == "toy"
        assert model.burst_window == 8
        assert model.faults["VR15"] == {}
        tf = model.faults["VR20"][FpOp.MUL_S]
        assert list(tf.indices) == [3, 11]
        assert list(tf.bitmasks) == [0x5, 0x80000001]
        assert tf.bitmasks.dtype == np.uint64
        assert tf.analysed == 128
        assert model.provenance.trace_digest == "cd" * 32
        saved = store.save_wa(model, tmp_path / "again.json")
        assert saved.read_text() == (FIXTURES / "wa_v3.json").read_text()

    def test_v1_artifact_rejected(self):
        with pytest.raises(ValueError,
                           match=r"format version 1 \(supported: 3\); "
                                 r"re-run `repro characterize`"):
            store.load_any(FIXTURES / "da_v1.json")

    @pytest.mark.parametrize("name", ["da_v2.json", "ia_v2.json",
                                      "wa_v2.json"])
    def test_v2_artifact_rejected(self, name):
        """Version-2 artifacts predate the checksum, so nothing could
        verify them: they are rejected, not loaded unverified."""
        with pytest.raises(ValueError,
                           match=r"format version 2 \(supported: 3\); "
                                 r"re-run `repro characterize`"):
            store.load_any(FIXTURES / name)

    @pytest.mark.parametrize("name,kind", [
        ("da_v3.json", DaModel), ("ia_v3.json", IaModel),
        ("wa_v3.json", WaModel),
    ])
    def test_load_any_dispatches(self, name, kind):
        assert isinstance(store.load_any(FIXTURES / name), kind)

    @pytest.mark.parametrize("name", ["da_v3.json", "ia_v3.json",
                                      "wa_v3.json"])
    def test_tampered_payload_rejected_by_checksum(self, name, tmp_path):
        """Any payload edit that keeps the JSON valid must be caught."""
        data = json.loads((FIXTURES / name).read_text())
        blob = json.dumps(data["payload"])
        assert "0.25" in blob or "0.001" in blob or "128" in blob
        data["payload"] = json.loads(
            blob.replace("0.25", "0.26").replace("0.001", "0.002")
                .replace("128", "129"))
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        with pytest.raises(store.ArtifactCorruption,
                           match="checksum mismatch"):
            store.load_any(path)

    def test_future_format_version_rejected(self, tmp_path):
        data = json.loads((FIXTURES / "da_v3.json").read_text())
        data["format_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unsupported artifact format"):
            store.load_any(path)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="expected 'IA'"):
            store.loads_model((FIXTURES / "da_v3.json").read_bytes(), "IA")

    def test_load_any_unknown_kind(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"format_version": 2, "model": "XX",
                                    "payload": {}}))
        with pytest.raises(ValueError, match="unknown model kind"):
            store.load_any(path)


class TestCacheKeySensitivity:
    BASE = dict(points=[VR15, VR20], op_set=[FpOp.MUL_D], seed=3,
                samples=1000, trace="00" * 32, burst_window=8)

    def key(self, kind="IA", **overrides):
        return cache_key(kind, **{**self.BASE, **overrides})

    def test_deterministic(self):
        assert self.key() == self.key()
        assert len(self.key()) == 64
        int(self.key(), 16)  # hex digest

    def test_key_format_pinned(self):
        """Any change to the key silently invalidates every existing
        cache entry, so it has to be a deliberate edit of this digest."""
        key = cache_key("WA", points=[VR15, VR20], samples=1000,
                        trace="00" * 32, burst_window=8)
        assert key == ("566dc8f543391503d1fd948be9c4ab44"
                       "0fb177b2b3c6f92dbc6698fb7a856eb7")

    @pytest.mark.parametrize("override", [
        {"kind": "WA"},
        {"points": [VR15]},
        {"points": [VR20, VR15]},
        {"op_set": [FpOp.SUB_D]},
        {"op_set": [FpOp.MUL_D, FpOp.SUB_D]},
        {"seed": 4},
        {"samples": 1001},
        {"trace": "01" * 32},
        {"trace": None},
        {"burst_window": 16},
    ], ids=lambda o: next(iter(o)))
    def test_every_component_participates(self, override):
        kind = override.pop("kind", "IA")
        assert self.key(kind=kind, **override) != self.key()

    def test_format_version_bump_invalidates(self, monkeypatch):
        base = self.key()
        monkeypatch.setattr(store, "FORMAT_VERSION",
                            store.FORMAT_VERSION + 1)
        assert self.key() != base
