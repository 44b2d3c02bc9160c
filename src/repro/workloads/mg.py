"""mg: NAS MultiGrid kernel (Table II, classification: verification checking).

V-cycle multigrid for the 3D Poisson equation on a periodic grid: smooth,
compute residual, restrict to the coarser grid, recurse, prolongate and
correct — the NAS MG structure at laptop scale.  The verification value is
the L2 norm of the final residual, compared against the golden run.  Runs
with FP trapping like the other HPC kernels.
"""

from __future__ import annotations

import numpy as np

from repro.workloads import inputs
from repro.workloads.base import FPContext, GuestCrash, Workload

_SCALES = {
    # (grid size, v-cycles)
    "tiny": (8, 1),
    "small": (16, 2),
    "paper": (32, 2),
}


def _shift(u: np.ndarray, step: int, axis: int) -> np.ndarray:
    """``np.roll(u, step, axis)`` at half the cost, for ``step`` +-1."""
    lead = (slice(None),) * axis
    split = -step % u.shape[axis]
    return np.concatenate((u[lead + (slice(split, None),)],
                           u[lead + (slice(None, split),)]), axis=axis)


def _neighbour_sum6(ctx: FPContext, u: np.ndarray) -> np.ndarray:
    """Sum of the six axis neighbours (periodic boundaries)."""
    total = ctx.add(_shift(u, 1, 0), _shift(u, -1, 0))
    total = ctx.add(total, ctx.add(_shift(u, 1, 1), _shift(u, -1, 1)))
    total = ctx.add(total, ctx.add(_shift(u, 1, 2), _shift(u, -1, 2)))
    return total


class MultiGrid(Workload):
    name = "mg"
    classification = "Verification checking"
    mix_name = "mg"
    trap_nonfinite = True

    def _build_input(self) -> None:
        self.n, self.cycles = _SCALES[self.scale]
        self.v = inputs.grid3d(self.n, self.seed)
        self.input_descriptor = f"{self.n}^3, {self.cycles} V-cycles"

    # -- multigrid operators --------------------------------------------------------
    def _residual(self, ctx: FPContext, u: np.ndarray,
                  rhs: np.ndarray) -> np.ndarray:
        neighbours = _neighbour_sum6(ctx, u)
        a_u = ctx.sub(ctx.mul(u, 6.0), neighbours)
        return ctx.sub(rhs, a_u)

    def _smooth(self, ctx: FPContext, u: np.ndarray,
                rhs: np.ndarray) -> np.ndarray:
        """Weighted-Jacobi relaxation step."""
        neighbours = _neighbour_sum6(ctx, u)
        jacobi = ctx.div(ctx.add(neighbours, rhs), 6.0)
        return ctx.add(ctx.mul(u, 0.4), ctx.mul(jacobi, 0.6))

    def _restrict(self, ctx: FPContext, fine: np.ndarray) -> np.ndarray:
        """Full-weighting restriction to the 2x-coarser grid."""
        a = fine[0::2, 0::2, 0::2]
        b = fine[1::2, 0::2, 0::2]
        c = fine[0::2, 1::2, 0::2]
        d = fine[0::2, 0::2, 1::2]
        coarse = ctx.add(ctx.add(a, b), ctx.add(c, d))
        return ctx.mul(coarse, 0.25)

    def _prolong(self, ctx: FPContext, coarse: np.ndarray) -> np.ndarray:
        """Nearest-neighbour prolongation to the 2x-finer grid."""
        fine = np.repeat(np.repeat(np.repeat(coarse, 2, axis=0),
                                   2, axis=1), 2, axis=2)
        return ctx.mul(fine, 1.0)

    def _vcycle(self, ctx: FPContext, u: np.ndarray,
                rhs: np.ndarray) -> np.ndarray:
        u = self._smooth(ctx, u, rhs)
        if u.shape[0] <= 4:
            for _ in range(3):
                u = self._smooth(ctx, u, rhs)
            return u
        residual = self._residual(ctx, u, rhs)
        coarse_rhs = self._restrict(ctx, residual)
        coarse_u = self._vcycle(ctx, np.zeros_like(coarse_rhs), coarse_rhs)
        u = ctx.add(u, self._prolong(ctx, coarse_u))
        return self._smooth(ctx, u, rhs)

    checkpointable = True

    def initial_state(self):
        return {"u": np.zeros_like(self.v), "cycle": 0}

    def advance(self, ctx: FPContext, state) -> bool:
        if state["cycle"] >= self.cycles:
            return False
        state["u"] = self._vcycle(ctx, state["u"], self.v)
        state["cycle"] += 1
        return state["cycle"] < self.cycles

    def finalize(self, ctx: FPContext, state) -> float:
        residual = self._residual(ctx, state["u"], self.v)
        norm_sq = ctx.sum(ctx.mul(residual, residual))
        if not np.isfinite(norm_sq) or norm_sq < 0.0:
            raise GuestCrash("MG verification norm degenerate")
        return float(norm_sq)

    def run(self, ctx: FPContext) -> float:
        return self.run_from(ctx, self.initial_state())

    def outputs_equal(self, golden, observed) -> bool:
        if not np.isfinite(observed):
            return False
        return abs(observed - golden) <= 1e-12 * max(1.0, abs(golden))
