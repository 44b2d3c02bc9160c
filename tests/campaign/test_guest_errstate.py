"""FP warnings are silenced per guest execution, never process-wide.

``FPContext`` enters no ``np.errstate`` of its own; the runner enters
``np.errstate(all="ignore")`` once around the golden build and once
around each guest run.  An exponent-bit flip that drives a guest to
inf/NaN must therefore raise no numpy ``RuntimeWarning`` through the
runner, and must leave ``np.geterr()`` as it found it.
"""

import warnings

import numpy as np
import pytest

from repro.campaign.fastforward import FastForwardConfig
from repro.campaign.outcomes import Outcome
from repro.campaign.runner import CampaignRunner
from repro.circuit.liberty import VR20
from repro.errors.base import ErrorModel, InjectionPlan, Victim
from repro.fpu.formats import FpOp
from repro.workloads import make_workload

#: Flipping the top exponent bit of a value in [1, 2) gives inf; of a
#: smaller magnitude, a value near 1e308 that overflows downstream.
EXPONENT_FLIP = 1 << 62

# (workload, victim op): kmeans runs on to a non-finite SDC, srad_v1
# traps the overflow (Crash).
CASES = [("kmeans", FpOp.DIV_D), ("srad_v1", FpOp.SUB_D)]


class _ExponentFlipModel(ErrorModel):
    """Flips the top exponent bit of one op a third of the way in."""

    name = "EXPFLIP"
    injection_technique = "fixed"

    def __init__(self, op: FpOp):
        self.op = op

    def error_ratio(self, profile, point):
        return 1.0

    def plan(self, profile, point, rng):
        index = profile.counts_by_op[self.op] // 3
        return InjectionPlan(model=self.name, point=point.name,
                             victims=[Victim(self.op, index, EXPONENT_FLIP)])


@pytest.mark.parametrize("fastforward", [True, False],
                         ids=["snapshots", "full-replay"])
@pytest.mark.parametrize("name,op", CASES)
def test_guest_warnings_stay_inside_the_run(name, op, fastforward):
    workload = make_workload(name, scale="tiny", seed=11)
    runner = CampaignRunner(
        workload, seed=11,
        fastforward=FastForwardConfig(enabled=fastforward))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        golden = runner.golden()
        index = golden.profile.counts_by_op[op] // 3
        execution = runner.run_guest({op: {index: EXPONENT_FLIP}})
        result = runner.campaign(_ExponentFlipModel(op), VR20, runs=3)
    assert np.geterr() == before
    assert execution.unexpected is None
    assert execution.outcome in (Outcome.SDC, Outcome.CRASH)
    assert result.counts.total == 3
    assert result.counts.counts[Outcome.MASKED] == 0

    # The same corruption outside the runner does reach inf/NaN: run
    # directly, FPContext's own arithmetic warns.
    ctx = workload.make_context(corruption={op: {index: EXPONENT_FLIP}},
                                op_budget=golden.op_budget)
    with pytest.warns(RuntimeWarning):
        try:
            workload.run(ctx)
        except Exception:
            pass
    assert np.geterr() == before
