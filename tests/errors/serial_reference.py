"""Frozen serial references for the characterisation engine.

``CharacterizationPipeline`` is the only IA/DA/WA engine in ``src/``.
These are frozen copies of the straightforward serial bodies it
replaced, kept as test oracles:

- :func:`serial_wa` must equal the pipeline's WA model bit-for-bit (WA
  draws no random numbers);
- :func:`serial_ia` and :func:`serial_da` draw their operands from one
  sequential RNG stream instead of the pipeline's ``RNG_BLOCK``
  substreams, so they agree only statistically (:func:`da_expected_ratio`
  is the exact mean both DA estimators sample);
- :func:`serial_flip_histograms` and :func:`serial_per_bit_ber` are the
  full-batch Fig. 5 / Fig. 6 reductions that
  ``CharacterizationPipeline.flip_histograms`` / ``per_bit_ber`` must
  reproduce exactly.

Do not edit these to follow the pipeline: a difference is a finding.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.liberty import OperatingPoint
from repro.errors.base import Provenance, WorkloadProfile
from repro.errors.characterize import _per_bit_counts, random_operands
from repro.errors.da import DaModel
from repro.errors.ia import IaModel, InstructionStats
from repro.errors.wa import TraceFaults, WaModel
from repro.fpu.formats import ALL_OPS, FpOp
from repro.fpu.unit import FPU
from repro.utils.bitops import count_ones
from repro.utils.rng import RngStream


def serial_ia(points: Sequence[OperatingPoint], fpu: FPU,
              samples_per_op: int, seed: int,
              ops_under_test: Optional[Iterable[FpOp]] = None) -> IaModel:
    """IA-model: one sequential random-operand stream per op."""
    rng = RngStream(seed, "ia-characterization")
    stats: Dict[str, Dict[FpOp, InstructionStats]] = {
        point.name: {} for point in points
    }
    for op in (ops_under_test or ALL_OPS):
        a, b = random_operands(op, samples_per_op, rng.child(op.value))
        batch = fpu.dta(op, a, b, points)
        for point in points:
            masks = batch.masks[point.name]
            faulty = masks[masks != 0]
            ratio = faulty.size / samples_per_op
            counts = _per_bit_counts(faulty, op.fmt.width)
            conditional = (counts / faulty.size) if faulty.size else (
                np.zeros(op.fmt.width)
            )
            stats[point.name][op] = InstructionStats(
                error_ratio=ratio,
                bit_probabilities=conditional,
                sample_size=samples_per_op,
            )
    model = IaModel(stats)
    model.provenance = Provenance(
        seed=seed, samples=samples_per_op,
        points=tuple(point.name for point in points),
    )
    return model


def serial_da(profiles: Sequence[WorkloadProfile],
              points: Sequence[OperatingPoint], fpu: FPU,
              sample_per_point: int, seed: int) -> DaModel:
    """DA-model: one sequential selection stream over the benchmark mix."""
    rng = RngStream(seed, "da-characterization")
    ratios: Dict[str, float] = {}
    pool: List[Tuple[FpOp, np.ndarray, Optional[np.ndarray]]] = []
    for profile in profiles:
        for op, (a, b) in profile.trace_by_op.items():
            if a.size:
                pool.append((op, a, b))
    if not pool:
        raise ValueError("DA characterisation needs at least one non-empty trace")
    total_weight = sum(a.size for _, a, _ in pool)
    for point in points:
        faulty = 0
        analysed = 0
        for op, a, b in pool:
            take = max(1, int(round(sample_per_point * a.size / total_weight)))
            take = min(take, a.size)
            sel = rng.integers(0, a.size, size=take)
            aa = a[sel]
            bb = b[sel] if b is not None else None
            batch = fpu.dta(op, aa, bb, [point])
            faulty += int(np.count_nonzero(batch.masks[point.name]))
            analysed += take
        ratios[point.name] = faulty / analysed if analysed else 0.0
    model = DaModel(ratios)
    model.provenance = Provenance(
        benchmark="+".join(profile.name for profile in profiles),
        seed=seed, samples=sample_per_point,
        points=tuple(point.name for point in points),
    )
    return model


def _da_takes(profiles: Sequence[WorkloadProfile],
              sample_per_point: int) -> List[Tuple[FpOp, np.ndarray,
                                                   Optional[np.ndarray], int]]:
    pool = [(op, a, b) for profile in profiles
            for op, (a, b) in profile.trace_by_op.items() if a.size]
    total_weight = sum(a.size for _, a, _ in pool)
    return [(op, a, b,
             min(max(1, int(round(sample_per_point * a.size / total_weight))),
                 a.size))
            for op, a, b in pool]


def da_sample_size(profiles: Sequence[WorkloadProfile],
                   sample_per_point: int) -> int:
    """Instructions :func:`serial_da` analyses per operating point."""
    return sum(take for *_, take in _da_takes(profiles, sample_per_point))


def da_expected_ratio(profiles: Sequence[WorkloadProfile],
                      point: OperatingPoint, fpu: FPU,
                      sample_per_point: int) -> float:
    """Exact expectation of the DA ratio over its sampling randomness.

    Each pool entry contributes ``take`` draws with replacement, so the
    expected faulty count is ``take`` times the entry's faulty fraction,
    measured here by full-batch DTA over the whole entry.
    """
    takes = _da_takes(profiles, sample_per_point)
    expected = 0.0
    for op, a, b, take in takes:
        masks = fpu.dta(op, a, b, [point]).masks[point.name]
        expected += take * np.count_nonzero(masks) / a.size
    return expected / sum(take for *_, take in takes)


def serial_wa(profile: WorkloadProfile, points: Sequence[OperatingPoint],
              fpu: FPU, max_samples: int = 1_000_000,
              burst_window: int = 8) -> WaModel:
    """WA-model: full-batch DTA over the workload's own trace."""
    faults: Dict[str, Dict[FpOp, TraceFaults]] = {
        point.name: {} for point in points
    }
    for op, (a, b) in profile.trace_by_op.items():
        if a.size == 0:
            continue
        take = min(a.size, max_samples)
        aa = a[:take]
        bb = b[:take] if b is not None else None
        batch = fpu.dta(op, aa, bb, points)
        for point in points:
            masks = batch.masks[point.name]
            idx = np.nonzero(masks)[0].astype(np.int64)
            counts = _per_bit_counts(masks[idx], op.fmt.width)
            faults[point.name][op] = TraceFaults(
                op=op,
                indices=idx,
                bitmasks=masks[idx].astype(np.uint64),
                analysed=take,
                ber=counts / take,
            )
    model = WaModel(workload=profile.name, faults=faults,
                    burst_window=burst_window)
    model.provenance = Provenance(
        benchmark=profile.name, samples=max_samples,
        points=tuple(point.name for point in points),
    )
    return model


def serial_flip_histograms(fpu: FPU, op: FpOp, a: np.ndarray,
                           b: Optional[np.ndarray],
                           points: Sequence[OperatingPoint]
                           ) -> Dict[str, np.ndarray]:
    """Fig. 5's full-batch flips-per-faulty-instruction histograms."""
    batch = fpu.dta(op, a, b, points)
    hists = {}
    for point in points:
        masks = batch.masks[point.name]
        faulty = masks[masks != 0]
        hists[point.name] = np.bincount(
            count_ones(faulty) if faulty.size
            else np.zeros(0, dtype=np.int64),
            minlength=op.fmt.width + 1).astype(np.int64)
    return hists


def serial_per_bit_ber(fpu: FPU, op: FpOp, a: np.ndarray,
                       b: Optional[np.ndarray],
                       point: OperatingPoint) -> np.ndarray:
    """Fig. 6's full-batch unconditional per-bit error ratios."""
    masks = fpu.dta(op, a, b, [point]).masks[point.name]
    width = op.fmt.width
    ber = np.zeros(width)
    for bit in range(width):
        ber[bit] = np.count_nonzero(
            (masks >> np.uint64(bit)) & np.uint64(1)
        ) / masks.size
    return ber
