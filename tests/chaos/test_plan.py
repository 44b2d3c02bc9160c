"""Tests of the seeded fault plan: pure, deterministic, serializable."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.chaos import FS_KINDS, FS_TARGETS, FaultPlan


def _plan(**kwargs):
    defaults = dict(seed=3, worker_kill_rate=0.25, max_worker_kills=2,
                    coordinator_kills=(5, 9),
                    fs_rates={"journal": {"torn": 0.1, "bitrot": 0.05},
                              "page": {"bitrot": 0.02}})
    defaults.update(kwargs)
    return FaultPlan(**defaults)


class TestDeterminism:
    def test_same_plan_same_decisions(self):
        a, b = _plan(), _plan()
        keys = [f"wl/WA/VR20/{i}" for i in range(50)]
        assert [a.worker_kills(k) for k in keys] == \
               [b.worker_kills(k) for k in keys]
        assert [a.fs_fault("journal", f"k{i}", 0) for i in range(50)] == \
               [b.fs_fault("journal", f"k{i}", 0) for i in range(50)]

    def test_decisions_are_stateless(self):
        """Evaluating a decision must not change later decisions — the
        property that lets coordinator and forked workers agree."""
        plan = _plan()
        first = plan.worker_kills("wl/WA/VR20/7")
        for i in range(100):
            plan.worker_kills(f"wl/WA/VR20/{i}")
            plan.fs_fault("journal", f"k{i}", 0)
        assert plan.worker_kills("wl/WA/VR20/7") == first

    def test_incarnation_changes_fs_sampling(self):
        """A faulted IO is sampled afresh each incarnation — the
        convergence argument of the supervised restart loop."""
        plan = FaultPlan(seed=1, fs_rates={"journal": {"torn": 0.5}})
        draws = {plan.fs_fault("journal", "fixed-key", inc)
                 for inc in range(30)}
        assert draws == {None, "torn"}  # both outcomes occur across incs

    def test_seed_changes_decisions(self):
        keys = [f"wl/WA/VR20/{i}" for i in range(200)]
        a = [_plan(seed=1).worker_kills(k) for k in keys]
        b = [_plan(seed=2).worker_kills(k) for k in keys]
        assert a != b


class TestDecisions:
    def test_zero_rate_never_kills(self):
        plan = _plan(worker_kill_rate=0.0)
        assert all(plan.worker_kills(f"k/{i}") == 0 for i in range(100))

    def test_full_rate_always_kills_within_bound(self):
        plan = _plan(worker_kill_rate=1.0, max_worker_kills=2)
        kills = [plan.worker_kills(f"k/{i}") for i in range(100)]
        assert all(1 <= n <= 2 for n in kills)
        assert set(kills) == {1, 2}

    def test_coordinator_kill_schedule(self):
        plan = _plan(coordinator_kills=(5, 9))
        assert plan.coordinator_kill_after(0) == 5
        assert plan.coordinator_kill_after(1) == 9
        assert plan.coordinator_kill_after(2) is None
        assert plan.coordinator_kill_after(-1) is None

    def test_fs_fault_only_configured_kinds(self):
        plan = FaultPlan(seed=2, fs_rates={"journal": {"torn": 1.0}})
        assert plan.fs_fault("journal", "k", 0) == "torn"
        assert plan.fs_fault("cache", "k", 0) is None
        assert plan.fs_fault("page", "k", 0) is None

    def test_fs_fault_zero_rate_never_fires(self):
        plan = FaultPlan(seed=2, fs_rates={"store": {"eio": 0.0}})
        assert all(plan.fs_fault("store", f"k{i}", 0) is None
                   for i in range(100))

    def test_fault_incarnations_is_a_pure_bound(self):
        """The plan itself stays incarnation-agnostic for worker kills
        (bounded by attempt), so only fs sampling sees the incarnation."""
        plan = _plan(fault_incarnations=2)
        assert plan.worker_kills("k/0") == _plan().worker_kills("k/0")


class TestValidation:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(worker_kill_rate=1.5), "worker_kill_rate"),
        (dict(worker_kill_rate=-0.1), "worker_kill_rate"),
        (dict(max_worker_kills=-1), "max_worker_kills"),
        (dict(fs_rates={"disk": {"torn": 0.1}}), "unknown fs target"),
        (dict(fs_rates={"journal": {"melt": 0.1}}), "unknown fs fault"),
        (dict(fs_rates={"journal": {"torn": 1.5}}), "must be in"),
    ], ids=["rate-high", "rate-neg", "kills-neg", "target", "kind",
            "fs-rate"])
    def test_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            _plan(**kwargs)

    def test_targets_and_kinds_are_closed_sets(self):
        assert set(FS_TARGETS) == {"journal", "cache", "store", "page",
                                   "artifact"}
        assert set(FS_KINDS) == {"eio", "enospc", "torn", "bitrot"}


class TestSerialization:
    def test_json_round_trip(self):
        plan = _plan()
        assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict(), sort_keys=True))) == plan

    def test_defaults_survive_sparse_dict(self):
        plan = FaultPlan.from_dict({"seed": 9})
        assert plan == FaultPlan(seed=9)


rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(seed=st.integers(min_value=0, max_value=2**31),
       rate=rates, max_kills=st.integers(min_value=0, max_value=5),
       index=st.integers(min_value=0, max_value=10_000))
def test_worker_kills_always_within_bounds(seed, rate, max_kills, index):
    plan = FaultPlan(seed=seed, worker_kill_rate=rate,
                     max_worker_kills=max_kills)
    kills = plan.worker_kills(f"wl/WA/VR20/{index}")
    assert 0 <= kills <= max_kills
    if rate == 0.0 or max_kills == 0:
        assert kills == 0


@given(seed=st.integers(min_value=0, max_value=2**31),
       kill_rate=rates,
       coord=st.lists(st.integers(min_value=1, max_value=1000),
                      max_size=4),
       fs=st.dictionaries(st.sampled_from(FS_TARGETS),
                          st.dictionaries(st.sampled_from(FS_KINDS),
                                          rates, max_size=4),
                          max_size=4))
def test_any_valid_plan_round_trips(seed, kill_rate, coord, fs):
    plan = FaultPlan(seed=seed, worker_kill_rate=kill_rate,
                     coordinator_kills=tuple(coord), fs_rates=fs)
    assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict(), sort_keys=True))) == plan


@given(seed=st.integers(min_value=0, max_value=2**31),
       target=st.sampled_from(FS_TARGETS),
       key=st.text(min_size=1, max_size=20),
       incarnation=st.integers(min_value=0, max_value=50))
def test_fs_fault_returns_configured_kind_or_none(seed, target, key,
                                                  incarnation):
    plan = FaultPlan(seed=seed,
                     fs_rates={target: {"torn": 0.5, "bitrot": 0.5}})
    kind = plan.fs_fault(target, key, incarnation)
    assert kind in (None, "torn", "bitrot")
