"""Differential tests of the parallel characterization pipeline.

The pipeline's core promise is *bit-identity*: any worker count and any
chunk size must produce exactly the same model (and WA characterisation
must match the serial reference in :mod:`repro.errors.characterize`
bit-for-bit).  These tests exercise every combination the promise covers,
plus the content-addressed cache's cold/warm/corrupt/stale paths and the
pool's worker-death recovery.

``min_fanout_vectors=0`` everywhere the pool matters: the production
default keeps jobs this small off the fork pool, and these tests exist
precisely to exercise it.
"""

import json
import os

import numpy as np
import pytest

from repro.circuit.liberty import VR15, VR20
from repro.errors import store
from repro.errors.characterize import characterize_wa
from repro.errors.pipeline import (
    RNG_BLOCK,
    CharacterizationPipeline,
    PipelineConfig,
    PipelineError,
    _map_units,
    cache_key,
    trace_digest,
)
from repro.fpu.formats import FpOp

POINTS = [VR15, VR20]

#: Two error-prone ops plus one provably clean one (exercises the
#: clean-op short-circuit's all-zero synthesis during reduction).
IA_OPS = [FpOp.MUL_D, FpOp.SUB_D, FpOp.I2F_D]

#: Crosses an RNG block boundary so chunk invariance is tested across
#: blocks, not just within one.
IA_SAMPLES = RNG_BLOCK + 61

#: (workers, chunk) combinations compared against the serial full-batch
#: reference.  577 is deliberately coprime to RNG_BLOCK.
DIFF_CONFIGS = [(0, 577), (0, RNG_BLOCK), (2, 577), (2, None), (4, 1039)]


def _pipeline(workers, chunk, fpu, **kwargs):
    config = PipelineConfig(workers=workers, chunk=chunk, use_cache=False,
                            min_fanout_vectors=0, **kwargs)
    return CharacterizationPipeline(config, fpu=fpu)


def assert_ia_equal(x, y):
    assert set(x.stats) == set(y.stats)
    for point_name, per_op in x.stats.items():
        assert set(per_op) == set(y.stats[point_name])
        for op, st in per_op.items():
            other = y.stats[point_name][op]
            assert st.error_ratio == other.error_ratio, (point_name, op)
            assert st.sample_size == other.sample_size
            assert np.array_equal(st.bit_probabilities,
                                  other.bit_probabilities), (point_name, op)


def assert_wa_equal(x, y):
    assert x.workload == y.workload
    assert x.burst_window == y.burst_window
    assert set(x.faults) == set(y.faults)
    for point_name, per_op in x.faults.items():
        assert set(per_op) == set(y.faults[point_name])
        for op, tf in per_op.items():
            other = y.faults[point_name][op]
            assert tf.analysed == other.analysed
            assert np.array_equal(tf.indices, other.indices), (point_name, op)
            assert np.array_equal(tf.bitmasks, other.bitmasks), (point_name,
                                                                 op)
            assert np.array_equal(tf.ber, other.ber), (point_name, op)


class TestIaDifferential:
    @pytest.fixture(scope="class")
    def reference(self, fpu):
        return _pipeline(0, None, fpu).characterize_ia(
            POINTS, samples_per_op=IA_SAMPLES, seed=13,
            ops_under_test=IA_OPS)

    @pytest.mark.parametrize("workers,chunk", DIFF_CONFIGS)
    def test_bit_identical_across_geometries(self, fpu, reference, workers,
                                             chunk):
        model = _pipeline(workers, chunk, fpu).characterize_ia(
            POINTS, samples_per_op=IA_SAMPLES, seed=13,
            ops_under_test=IA_OPS)
        assert_ia_equal(model, reference)

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_tiny_chunks_within_a_block(self, fpu, chunk):
        """Chunks far below RNG_BLOCK still slice the same substreams."""
        ref = _pipeline(0, None, fpu).characterize_ia(
            POINTS, samples_per_op=97, seed=5, ops_under_test=[FpOp.MUL_D])
        model = _pipeline(0, chunk, fpu).characterize_ia(
            POINTS, samples_per_op=97, seed=5, ops_under_test=[FpOp.MUL_D])
        assert_ia_equal(model, ref)

    def test_clean_op_synthesised(self, fpu, reference):
        """The short-circuited op is present with exact zero statistics."""
        for point in POINTS:
            st = reference.stats[point.name][FpOp.I2F_D]
            assert st.error_ratio == 0.0
            assert not st.bit_probabilities.any()
            assert st.sample_size == IA_SAMPLES


class TestDaDifferential:
    @pytest.fixture(scope="class")
    def profiles(self, tiny_profiles):
        return list(tiny_profiles.values())

    @pytest.fixture(scope="class")
    def reference(self, fpu, profiles):
        return _pipeline(0, None, fpu).characterize_da(
            profiles, POINTS, sample_per_point=500, seed=7)

    @pytest.mark.parametrize("workers,chunk", DIFF_CONFIGS)
    def test_bit_identical_across_geometries(self, fpu, profiles, reference,
                                             workers, chunk):
        model = _pipeline(workers, chunk, fpu).characterize_da(
            profiles, POINTS, sample_per_point=500, seed=7)
        assert model.fixed_error_ratios == reference.fixed_error_ratios
        assert model.injection_window == reference.injection_window


class TestWaDifferential:
    @pytest.fixture(scope="class")
    def profile(self, tiny_profiles):
        return tiny_profiles["srad_v1"]

    @pytest.fixture(scope="class")
    def serial_reference(self, fpu, profile):
        return characterize_wa(profile, POINTS, fpu=fpu)

    @pytest.mark.parametrize("workers,chunk", [(0, None)] + DIFF_CONFIGS)
    def test_matches_serial_reference_exactly(self, fpu, profile,
                                              serial_reference, workers,
                                              chunk):
        """WA draws no randomness: the pipeline must reproduce the serial
        driver bit-for-bit at every pool/chunk geometry."""
        model = _pipeline(workers, chunk, fpu).characterize_wa(
            profile, POINTS)
        assert_wa_equal(model, serial_reference)


class TestModelCache:
    def _config(self, tmp_path, **kwargs):
        return PipelineConfig(workers=0, cache_dir=tmp_path / "cache",
                              min_fanout_vectors=0, **kwargs)

    def test_cold_then_warm_bitwise_equal(self, fpu, tiny_profiles,
                                          tmp_path):
        profile = tiny_profiles["srad_v1"]
        cold = CharacterizationPipeline(self._config(tmp_path), fpu=fpu)
        first = cold.characterize_wa(profile, POINTS)
        assert cold.cache.stats() == {"hit": 0, "miss": 1, "invalid": 0,
                              "quarantined": 0, "store_errors": 0}

        warm = CharacterizationPipeline(self._config(tmp_path), fpu=fpu)
        second = warm.characterize_wa(profile, POINTS)
        assert warm.cache.stats() == {"hit": 1, "miss": 0, "invalid": 0,
                              "quarantined": 0, "store_errors": 0}
        assert_wa_equal(second, first)
        assert second.provenance is not None
        assert second.provenance.benchmark == profile.name

    def test_key_changes_miss(self, fpu, tiny_profiles, tmp_path):
        profile = tiny_profiles["srad_v1"]
        pipeline = CharacterizationPipeline(self._config(tmp_path), fpu=fpu)
        pipeline.characterize_wa(profile, POINTS)
        pipeline.characterize_wa(profile, POINTS, burst_window=16)
        assert pipeline.cache.stats() == {
            "hit": 0, "miss": 2, "invalid": 0,
            "quarantined": 0, "store_errors": 0}

    def test_corrupted_entry_recomputed(self, fpu, tiny_profiles, tmp_path):
        profile = tiny_profiles["srad_v1"]
        pipeline = CharacterizationPipeline(self._config(tmp_path), fpu=fpu)
        first = pipeline.characterize_wa(profile, POINTS)
        key = cache_key("WA", points=POINTS, samples=1_000_000,
                        trace=trace_digest(profile), burst_window=8)
        path = pipeline.cache.path("WA", key)
        assert path.exists()
        path.write_text("{ not json")

        again = pipeline.characterize_wa(profile, POINTS)
        assert pipeline.cache.stats() == {
            "hit": 0, "miss": 1, "invalid": 1,
            "quarantined": 1, "store_errors": 0}
        assert_wa_equal(again, first)
        # The corrupt entry was rewritten atomically and now loads.
        assert store.load_wa(path).workload == profile.name

    def test_stale_format_version_recomputed(self, fpu, tiny_profiles,
                                             tmp_path):
        profile = tiny_profiles["srad_v1"]
        pipeline = CharacterizationPipeline(self._config(tmp_path), fpu=fpu)
        first = pipeline.characterize_wa(profile, POINTS)
        key = cache_key("WA", points=POINTS, samples=1_000_000,
                        trace=trace_digest(profile), burst_window=8)
        path = pipeline.cache.path("WA", key)
        stale = json.loads(path.read_text())
        stale["format_version"] = 99
        path.write_text(json.dumps(stale))

        again = pipeline.characterize_wa(profile, POINTS)
        assert pipeline.cache.stats() == {
            "hit": 0, "miss": 1, "invalid": 1,
            "quarantined": 1, "store_errors": 0}
        assert_wa_equal(again, first)

    def test_no_cache_bypasses_directory(self, fpu, tiny_profiles,
                                         tmp_path):
        profile = tiny_profiles["srad_v1"]
        pipeline = CharacterizationPipeline(
            self._config(tmp_path, use_cache=False), fpu=fpu)
        assert pipeline.cache is None
        pipeline.characterize_wa(profile, POINTS)
        assert not (tmp_path / "cache").exists()


class _PidJob:
    """Reports which process computed each unit."""

    def __init__(self, n=6):
        self.units = [(i, i, i + 1) for i in range(n)]

    def compute(self, unit):
        return os.getpid()


class _SuicidalJob:
    """Every forked worker dies instantly; the parent must recover."""

    def __init__(self, n=4):
        self.parent = os.getpid()
        self.units = [(i, i, i + 1) for i in range(n)]

    def compute(self, unit):
        if os.getpid() != self.parent:
            os._exit(13)
        return unit[0] * 10


class _BoomJob:
    """A unit that raises deterministically (a real bug, not a death)."""

    def __init__(self):
        self.units = [(0, 0, 1), (1, 1, 2)]

    def compute(self, unit):
        raise RuntimeError("boom in unit %d" % unit[0])


class TestWorkerPool:
    def test_pool_actually_forks(self):
        pids = _map_units(_PidJob(), workers=2, min_fanout_vectors=0)
        assert any(pid != os.getpid() for pid in pids)

    def test_min_fanout_keeps_small_jobs_serial(self):
        pids = _map_units(_PidJob(), workers=2, min_fanout_vectors=1000)
        assert all(pid == os.getpid() for pid in pids)

    def test_worker_death_recovers_in_parent(self):
        results = _map_units(_SuicidalJob(), workers=2,
                             min_fanout_vectors=0)
        assert results == [0, 10, 20, 30]

    def test_unit_exception_surfaces_as_pipeline_error(self):
        with pytest.raises(PipelineError, match="boom in unit"):
            _map_units(_BoomJob(), workers=2, min_fanout_vectors=0)


class TestConfigValidation:
    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            PipelineConfig(chunk=0)

    def test_rejects_negative_workers(self):
        with pytest.raises(ValueError):
            PipelineConfig(workers=-1)

    def test_rejects_negative_fanout(self):
        with pytest.raises(ValueError):
            PipelineConfig(min_fanout_vectors=-1)
