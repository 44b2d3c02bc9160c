"""Differential tests of the characterization pipeline.

The pipeline is the only IA/DA/WA engine.  Its core promise is
*bit-identity*: any worker count and any chunk size must produce exactly
the same model.  Against the frozen serial references in
``tests/errors/serial_reference.py`` it must also reproduce WA and the
Fig. 5 / Fig. 6 reductions bit-for-bit, and IA/DA statistically (inside
Wilson intervals).  These tests exercise every combination the promise
covers, plus the content-addressed cache's cold/warm/corrupt/stale paths,
the pool's worker-death recovery and the one telemetry span per phase.

``min_fanout_vectors=0`` everywhere the pool matters: the production
default keeps jobs this small off the fork pool, and these tests exist
precisely to exercise it.
"""

import json
import math
import os

import numpy as np
import pytest

from repro import telemetry
from repro.circuit.liberty import VR15, VR20
from repro.errors import characterize_da, characterize_ia, characterize_wa
from repro.errors import store
from repro.errors.characterize import random_operands
from repro.errors.pipeline import (
    DEFAULT_SAMPLE,
    RNG_BLOCK,
    CharacterizationPipeline,
    PipelineConfig,
    PipelineError,
    _map_units,
    cache_key,
    make_pipeline,
    trace_digest,
)
from repro.fpu.formats import ALL_OPS, OPS_DOUBLE, FpOp
from repro.utils.rng import RngStream
from repro.utils.stats import wilson_interval
from tests.errors.serial_reference import (
    da_expected_ratio,
    da_sample_size,
    serial_da,
    serial_flip_histograms,
    serial_ia,
    serial_per_bit_ber,
    serial_wa,
)

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
        return serial_wa(profile, POINTS, fpu)

    @pytest.mark.parametrize("workers,chunk", [(0, None)] + DIFF_CONFIGS)
    def test_matches_serial_reference_exactly(self, fpu, profile,
                                              serial_reference, workers,
                                              chunk):
        """WA draws no randomness: the pipeline must reproduce the frozen
        serial body bit-for-bit at every pool/chunk geometry."""
        model = _pipeline(workers, chunk, fpu).characterize_wa(
            profile, POINTS)
        assert_wa_equal(model, serial_reference)


#: Seed and sample budget of the serial-equivalence check: the production
#: defaults, fixed up front (never searched for a passing draw).
EQUIV_SEED = 2021
EQUIV_SAMPLES = DEFAULT_SAMPLE


def _assert_inside_wilson(ratio, interval_ratio, trials, label):
    """``ratio`` lies in the 95 % Wilson interval of ``interval_ratio``."""
    successes = int(round(interval_ratio * trials))
    lo, hi = wilson_interval(successes, trials)
    assert lo <= ratio <= hi, (
        f"{label}: {ratio:.6g} outside the 95% Wilson interval "
        f"[{lo:.6g}, {hi:.6g}] of {successes}/{trials}")


def newcombe_interval(x1, n1, x2, n2):
    """95 % hybrid-score interval for ``x1/n1 - x2/n2``.

    Newcombe (1998), method 10: each side's distance from the point
    difference combines the two single-sample Wilson intervals.
    """
    p1, p2 = x1 / n1, x2 / n2
    lo1, hi1 = wilson_interval(x1, n1)
    lo2, hi2 = wilson_interval(x2, n2)
    diff = p1 - p2
    return (diff - math.hypot(p1 - lo1, hi2 - p2),
            diff + math.hypot(hi1 - p1, p2 - lo2))


def _assert_same_proportion(ratio, other_ratio, trials, label):
    """The two estimates' difference interval covers 0."""
    x1 = int(round(ratio * trials))
    x2 = int(round(other_ratio * trials))
    lo, hi = newcombe_interval(x1, trials, x2, trials)
    assert lo <= 0.0 <= hi, (
        f"{label}: {x1}/{trials} vs {x2}/{trials}, 95% difference "
        f"interval [{lo:.6g}, {hi:.6g}] excludes 0")


def test_newcombe_interval_matches_published_example():
    """Newcombe (1998) Table II, example (a): 56/70 - 48/80."""
    lo, hi = newcombe_interval(56, 70, 48, 80)
    assert (round(lo, 4), round(hi, 4)) == (0.0524, 0.3339)
    lo, hi = newcombe_interval(48, 80, 56, 70)
    assert (round(lo, 4), round(hi, 4)) == (-0.3339, -0.0524)


class TestSerialEquivalence:
    """IA/DA agree with the frozen serial references statistically.

    The pipeline draws IA operands and DA selections from ``RNG_BLOCK``
    substreams, the references from one sequential stream, so the two
    are different samples of the same distribution.  For every error
    ratio, the 95 % Newcombe hybrid-score interval of the difference
    between the pipeline's and the reference's proportion must cover 0,
    at one fixed seed and sample size.  This is the evidence behind
    "statistically equivalent" in DESIGN.md §9.

    The two-sample interval is calibrated: for equal proportions it
    excludes 0 about 5 % of the time per ratio.  Asking whether one
    estimate lies inside the other's single-sample interval, as this
    check once did, fails about 17 % of the time.  DA also has an exact
    population mean, so the pipeline is additionally held to covering
    it.
    """

    @pytest.fixture(scope="class")
    def da_models(self, fpu, tiny_profiles):
        profiles = list(tiny_profiles.values())
        model = CharacterizationPipeline(fpu=fpu).characterize_da(
            profiles, POINTS, sample_per_point=EQUIV_SAMPLES,
            seed=EQUIV_SEED)
        reference = serial_da(profiles, POINTS, fpu, EQUIV_SAMPLES,
                              EQUIV_SEED)
        return profiles, model, reference

    def test_ia_ratios_agree_with_serial(self, fpu):
        model = CharacterizationPipeline(fpu=fpu).characterize_ia(
            POINTS, samples_per_op=EQUIV_SAMPLES, seed=EQUIV_SEED)
        reference = serial_ia(POINTS, fpu, EQUIV_SAMPLES, EQUIV_SEED)
        for point in POINTS:
            for op in ALL_OPS:
                _assert_same_proportion(
                    model.stats[point.name][op].error_ratio,
                    reference.stats[point.name][op].error_ratio,
                    EQUIV_SAMPLES, f"IA {point.name} {op.value}")

    def test_da_ratios_agree_with_serial(self, da_models):
        profiles, model, reference = da_models
        trials = da_sample_size(profiles, EQUIV_SAMPLES)
        for point in POINTS:
            _assert_same_proportion(
                model.fixed_error_ratios[point.name],
                reference.fixed_error_ratios[point.name],
                trials, f"DA {point.name}")

    def test_da_intervals_cover_exact_mean(self, fpu, da_models):
        """The pipeline's DA estimate is consistent with the exact mean."""
        profiles, model, _ = da_models
        trials = da_sample_size(profiles, EQUIV_SAMPLES)
        for point in POINTS:
            exact = da_expected_ratio(profiles, point, fpu, EQUIV_SAMPLES)
            _assert_inside_wilson(
                exact, model.fixed_error_ratios[point.name], trials,
                f"DA {point.name} exact mean vs pipeline")


class TestFigureReductions:
    """Fig. 5 / Fig. 6 reductions equal their full-batch references.

    Figs. 5 and 6 feed the pipeline their own operand streams; chunking,
    the clean-op short-circuit and the pool must not move one count.
    Chunk 577 splits every stream into several units, so the pool is
    exercised at ``workers=2``.
    """

    @pytest.mark.parametrize("workers", [0, 2])
    def test_flip_histograms_match_full_batch(self, fpu, workers):
        pipeline = _pipeline(workers, 577, fpu)
        rng = RngStream(11, "fig5")
        for op in OPS_DOUBLE:
            a, b = random_operands(op, 3000, rng.child(op.value))
            got = pipeline.flip_histograms(op, a, b, POINTS)
            want = serial_flip_histograms(fpu, op, a, b, POINTS)
            assert set(got) == set(want)
            for name in want:
                assert got[name].dtype == want[name].dtype
                assert np.array_equal(got[name], want[name]), (op, name)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_per_bit_ber_matches_full_batch(self, fpu, tiny_profiles,
                                            workers):
        pipeline = _pipeline(workers, 577, fpu)
        a, b = tiny_profiles["is"].trace_by_op[FpOp.MUL_D]
        sel = RngStream(11, "fig6").choice(a.size, size=min(1000, a.size),
                                           replace=False)
        for aa, bb in ((a, b), (a[sel], b[sel])):
            for point in POINTS:
                got = pipeline.per_bit_ber(FpOp.MUL_D, aa, bb,
                                           [point])[point.name]
                want = serial_per_bit_ber(fpu, FpOp.MUL_D, aa, bb, point)
                assert np.array_equal(got, want), point.name


class TestEntryPoints:
    def test_no_knob_pipeline_is_the_default_config(self):
        pipeline = make_pipeline()
        assert pipeline.config == PipelineConfig()
        assert pipeline.cache is None

    def test_one_span_per_phase(self, fpu, tiny_profiles):
        """A traced characterisation emits exactly one span per phase."""
        names = []

        class Sink:
            def on_span(self, record):
                names.append(record.name)

        profile = tiny_profiles["srad_v1"]
        telemetry.enable().add_sink(Sink())
        try:
            characterize_ia(POINTS, fpu=fpu, samples_per_op=500, seed=3,
                            ops_under_test=[FpOp.MUL_D])
            characterize_da([profile], POINTS, fpu=fpu,
                            sample_per_point=500, seed=3)
            characterize_wa(profile, POINTS, fpu=fpu)
        finally:
            telemetry.disable()
        phases = [name for name in names
                  if name.startswith(("errors.", "characterize."))]
        assert phases == ["errors.ia", "errors.da", "errors.wa"]


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
        assert store.load_any(path).workload == profile.name

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
