"""Property-based invariants of the snapshot/fast-forward machinery.

Three families, each a load-bearing precondition of the differential
bit-identity proof in ``test_fastforward_differential.py``:

1. **Round-trip exactness** — ``decode_state(encode_state(state))``
   reproduces the architectural state bit for bit, for arbitrary
   register/memory/PC contents, even after the live state is clobbered.
2. **Prefix consistency** — a boundary image recorded during the golden
   build equals the state of a fresh context advanced the same number of
   steps, at any snapshot interval (snapshots are *observations* of the
   golden trajectory, never perturbations of it).
3. **Interval invariance** — the classified outcome of any injection run
   does not depend on the snapshot interval, so the masked-run set of a
   campaign is a pure function of (workload, model, point, seed).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.campaign.fastforward import SnapshotStore
from repro.campaign.runner import CampaignRunner
from repro.uarch.snapshot import (
    PageStore,
    decode_state,
    encode_state,
    state_digest,
)
from repro.workloads import make_workload

from tests.conftest import POINTS

SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

uint64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestCoreRoundTrip:
    @SETTINGS
    @given(data=st.data())
    def test_restore_of_snapshot_is_exact(self, data):
        int_regs = data.draw(st.lists(uint64, min_size=32, max_size=32))
        fp_regs = data.draw(st.lists(uint64, min_size=32, max_size=32))
        memory = data.draw(st.lists(uint64, min_size=64, max_size=64))
        scalars = {
            "pc": data.draw(st.integers(min_value=0, max_value=1000)),
            "halted": data.draw(st.booleans()),
            "fp_dyn_count": data.draw(
                st.integers(min_value=0, max_value=10**6)),
            "instructions_executed": data.draw(
                st.integers(min_value=0, max_value=10**6)),
        }
        state = {
            "int_regs": np.asarray(int_regs, dtype=np.uint64),
            "fp_regs": np.asarray(fp_regs, dtype=np.uint64),
            "memory": np.asarray(memory, dtype=np.uint64),
            **scalars,
        }

        store = PageStore()
        image = encode_state(store, state)
        before = state_digest(state)

        # Clobber everything in the live state, then restore.
        state["int_regs"] ^= np.uint64(0xFFFF)
        state["fp_regs"][:] = 0
        state["memory"][::2] = ~state["memory"][::2]
        state.update(pc=-1, halted=not scalars["halted"], fp_dyn_count=-1,
                     instructions_executed=-1)
        restored = decode_state(store, image)

        assert [int(v) for v in restored["int_regs"]] == int_regs
        assert [int(v) for v in restored["fp_regs"]] == fp_regs
        assert [int(v) for v in restored["memory"]] == memory
        for name, value in scalars.items():
            assert restored[name] == value
            assert type(restored[name]) is type(value)
        assert state_digest(restored) == before

    @SETTINGS
    @given(data=st.data())
    def test_state_encode_decode_round_trips_arrays(self, data):
        shape = data.draw(st.sampled_from([(3,), (5, 7), (2, 3, 4)]))
        dtype = data.draw(st.sampled_from(["float64", "int64", "int32"]))
        rng = np.random.default_rng(data.draw(
            st.integers(min_value=0, max_value=2**32 - 1)))
        array = (rng.random(shape) * 100).astype(dtype)
        state = {
            "a": array,
            "n": data.draw(st.integers(min_value=-10**9, max_value=10**9)),
            "x": data.draw(st.floats(allow_nan=False)),
            "flag": data.draw(st.booleans()),
        }
        store = PageStore()
        image = encode_state(store, state)
        decoded = decode_state(store, image)
        assert set(decoded) == set(state)
        np.testing.assert_array_equal(decoded["a"], state["a"])
        assert decoded["a"].dtype == state["a"].dtype
        assert decoded["n"] == state["n"]
        assert decoded["x"] == state["x"]
        assert decoded["flag"] is state["flag"]
        assert state_digest(decoded) == state_digest(state)


@pytest.fixture(scope="module")
def kmeans_workload():
    return make_workload("kmeans", scale="tiny", seed=11)


class TestPrefixConsistency:
    @SETTINGS
    @given(interval=st.one_of(st.none(),
                              st.integers(min_value=1, max_value=9)))
    def test_boundary_images_match_fresh_replay(self, kmeans_workload,
                                                interval):
        workload = kmeans_workload
        store = SnapshotStore(workload.name, interval=interval)
        store.build(workload, workload.make_context())

        for boundary in store.boundaries:
            if boundary.image is None:
                continue
            ctx = workload.make_context()
            state = workload.initial_state()
            for _ in range(boundary.index):
                workload.advance(ctx, state)
            assert state_digest(state) == boundary.digest
            decoded = decode_state(store.pages, boundary.image)
            assert state_digest(decoded) == boundary.digest
            counts, ops = ctx.checkpoint_position()
            assert counts == boundary.counts
            assert ops == boundary.ops_executed

    def test_interval_only_changes_which_boundaries_are_imaged(
            self, kmeans_workload):
        workload = kmeans_workload
        stores = {}
        for interval in (1, 3, None):
            store = SnapshotStore(workload.name, interval=interval)
            store.build(workload, workload.make_context())
            stores[interval] = store
        dense = stores[1]
        for store in stores.values():
            assert [(b.index, b.digest, b.counts, b.more)
                    for b in store.boundaries] == [
                (b.index, b.digest, b.counts, b.more)
                for b in dense.boundaries]
            assert store.golden_output is not None
            assert workload.outputs_equal(store.golden_output,
                                          dense.golden_output)


class TestIntervalInvariance:
    @SETTINGS
    @given(run_index=st.integers(min_value=0, max_value=48),
           interval=st.sampled_from([1, 3, 7, None]),
           point_index=st.integers(min_value=0, max_value=1))
    def test_masked_set_is_interval_invariant(self, ff_runners, ia_model,
                                              run_index, interval,
                                              point_index):
        """outcome(run) is independent of snapshot spacing, hence so is
        the set of masked runs of any campaign."""
        point = POINTS[point_index]
        baseline = ff_runners["off"].execute_run(ia_model, point, run_index)
        candidate = ff_runners[interval].execute_run(ia_model, point,
                                                     run_index)
        assert candidate.outcome == baseline.outcome
        assert candidate.injected == baseline.injected
        assert candidate.uarch_masked == baseline.uarch_masked


@pytest.fixture(scope="module")
def ff_runners():
    """kmeans runners: full replay plus one per snapshot interval."""
    from repro.campaign.fastforward import FastForwardConfig

    runners = {}
    for key in ("off", 1, 3, 7, None):
        if key == "off":
            ff = FastForwardConfig(enabled=False)
        else:
            ff = FastForwardConfig(interval=key)
        runner = CampaignRunner(make_workload("kmeans", scale="tiny",
                                              seed=11),
                                seed=11, fastforward=ff)
        runner.golden()
        runners[key] = runner
    return runners
