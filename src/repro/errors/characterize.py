"""Model-development phase: build the three error models from DTA.

Mirrors Fig. 2's left half.  All characterisation goes through the same
:class:`repro.fpu.unit.FPU` DTA backend; the models differ only in what
operands they feed it (the point of the paper):

- DA: operands randomly extracted from the benchmark mix, collapsed to one
  fixed number per voltage,
- IA: uniformly distributed random operands per instruction type,
- WA: the workload's own dynamic operand trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit.backend import DEFAULT_TIMING_BACKEND, make_timing_backend
from repro.circuit.bitsim import AUTO_NUMPY_LANES
from repro.circuit.liberty import OperatingPoint
from repro.circuit.netlist import Netlist
from repro.errors.base import Provenance, WorkloadProfile
from repro.errors.da import DaModel
from repro.errors.ia import IaModel, InstructionStats
from repro.errors.wa import TraceFaults, WaModel
from repro.fpu import ops
from repro.fpu.formats import ALL_OPS, FpOp
from repro.fpu.unit import FPU
from repro.utils.rng import RngStream
from repro import telemetry

#: Default operand sample per instruction type (paper: 1e6; Fig. 6 shows
#: the convergence that justifies smaller development-time samples).
DEFAULT_SAMPLE = 100_000


def random_operands(op: FpOp, n: int, rng: RngStream,
                    magnitude: float = 1000.0
                    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Uniformly distributed random operands for one instruction type.

    Matches the paper's IA characterisation inputs: operand *values* drawn
    uniformly from a symmetric range (integers for i2f), encoded in the
    instruction's format.

    i2f operands are integer bit patterns in two's complement at the
    *operand* width.  For ``i2f.s`` the 32-bit source register rides in
    the low 32 bits of the uint64 operand word with the high bits zero —
    the converter reads only its operand width, so a negative value v
    is encoded as ``v mod 2**32``.  Drawn values span
    [-2**30, 2**30), hence encodings land in
    [0, 2**30) | [2**32 - 2**30, 2**32), never in between.
    """
    if op.kind == "i2f":
        width = 64 if op.is_double else 32
        low = -(1 << (width - 2))
        a = rng.integers(low, -low, size=n).astype(np.int64)
        if op.is_double:
            return a.view(np.uint64), None
        # Truncate to the 32-bit operand register: two's complement in
        # the low word, high word zero.
        encoded = (a & 0xFFFFFFFF).astype(np.uint64)
        assert not encoded.size or int(encoded.max()) < (1 << 32)
        return encoded, None
    values = rng.generator.uniform(-magnitude, magnitude, size=n)
    a = ops.values_to_bits(op, values)
    if not op.has_two_operands:
        return a, None
    values_b = rng.generator.uniform(-magnitude, magnitude, size=n)
    return a, ops.values_to_bits(op, values_b)


def random_vector_words(netlist: Netlist, count: int,
                        rng: RngStream) -> List[int]:
    """Uniform random input stream for ``netlist`` as batch lane words.

    Returns one word per input net (``netlist.inputs`` order); bit ``j``
    of word ``i`` is input ``i``'s value in stream position ``j``.  The
    stream is generated directly in lane form — no per-vector dicts —
    and depends only on (netlist input order, count, rng state), never
    on which timing backend consumes it.
    """
    words: List[int] = []
    for _ in netlist.inputs:
        bits = rng.integers(0, 2, size=count).astype(np.uint8)
        packed = np.packbits(bits, bitorder="little")
        words.append(int.from_bytes(packed.tobytes(), "little"))
    return words


@dataclass(frozen=True)
class GateCharacterization:
    """Gate-level DTA error statistics for one netlist + operating point.

    The gate-level analogue of an IA row: error ratio and per-output-bit
    flip counts over a uniform random back-to-back vector stream, as
    produced by either timing backend (verdicts are backend-invariant).
    """

    netlist: str
    backend: str
    clock_ps: float
    delay_factor: float
    analysed: int
    faulty: int
    bit_counts: np.ndarray
    worst_settle_ps: float

    @property
    def error_ratio(self) -> float:
        """Eq. 2 over the analysed stream: faulty / total transitions."""
        return self.faulty / self.analysed if self.analysed else 0.0


@telemetry.timed("characterize.gate")
def characterize_gate(netlist: Netlist, clock_ps: float,
                      delay_factor: float,
                      samples: int = 4096, seed: int = 2021,
                      backend: str = DEFAULT_TIMING_BACKEND,
                      lanes: int = AUTO_NUMPY_LANES
                      ) -> GateCharacterization:
    """Gate-level DTA characterisation over a random vector stream.

    Streams ``samples`` back-to-back transitions through the timing
    backend named ``backend`` (``event`` or ``bitparallel``, see
    :data:`~repro.circuit.backend.TIMING_BACKENDS`) in batches of at most
    ``lanes`` lanes.  The default is the widest batch the bit-parallel
    engine still runs on Python-int lane words (one interpreter dispatch
    per gate whatever the width), so a stream of up to that many
    transitions is one walk.  The whole path works on packed lane
    words — the operand stream is generated, sliced and analysed without
    ever constructing a per-vector ``Dict[str, int]`` — and the stream
    itself is backend-independent, so ``event`` and ``bitparallel`` runs
    see byte-identical inputs (the differential bench relies on this).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    engine = make_timing_backend(backend, netlist, clock_ps=clock_ps,
                                 delay_factor=delay_factor)
    rng = RngStream(seed, f"gate-characterization/{netlist.name}")
    stream = random_vector_words(netlist, samples + 1, rng)

    width = len(netlist.outputs)
    faulty = 0
    counts = np.zeros(width, dtype=np.int64)
    worst = 0.0
    for lo in range(0, samples, lanes):
        hi = min(lo + lanes, samples)
        window = (1 << (hi - lo)) - 1
        prev = [(w >> lo) & window for w in stream]
        cur = [(w >> (lo + 1)) & window for w in stream]
        outcome = engine.analyze_batch(prev, cur, count=hi - lo)
        faulty += outcome.error_count
        if width <= 64:
            masks = np.asarray(outcome.bitmask, dtype=np.uint64)
            counts += _per_bit_counts(masks[masks != 0], width)
        else:
            for mask in outcome.bitmask:
                while mask:
                    low = mask & -mask
                    counts[low.bit_length() - 1] += 1
                    mask ^= low
        if outcome.worst_settle_ps:
            worst = max(worst, max(outcome.worst_settle_ps))
    telemetry.count("characterize.gate.samples", samples)
    return GateCharacterization(
        netlist=netlist.name,
        backend=engine.name,
        clock_ps=clock_ps,
        delay_factor=delay_factor,
        analysed=samples,
        faulty=faulty,
        bit_counts=counts,
        worst_settle_ps=worst,
    )


def _per_bit_counts(masks: np.ndarray, width: int) -> np.ndarray:
    """Count, per bit position, how many masks flip it."""
    if masks.size == 0:
        return np.zeros(width, dtype=np.int64)
    octets = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(octets, bitorder="little").reshape(-1, 64)
    return bits.sum(axis=0, dtype=np.int64)[:width]


@telemetry.timed("characterize.ia")
def characterize_ia(points: Sequence[OperatingPoint],
                    fpu: Optional[FPU] = None,
                    samples_per_op: int = DEFAULT_SAMPLE,
                    seed: int = 2021,
                    ops_under_test: Optional[Iterable[FpOp]] = None,
                    pipeline: Optional["CharacterizationPipeline"] = None,
                    ) -> IaModel:
    """Build the IA-model: DTA on random operands per instruction type.

    This run also yields the Fig. 7 data (per-bit injection probabilities
    per instruction type and VR level) via
    :meth:`repro.errors.ia.InstructionStats.unconditional_ber`.

    With ``pipeline`` given, delegates to the parallel, cache-aware
    engine of :mod:`repro.errors.pipeline` (chunk-invariant RNG-block
    operand streams; statistically equivalent to, but a different
    sample stream than, this serial reference).
    """
    if pipeline is not None:
        return pipeline.characterize_ia(
            points, samples_per_op=samples_per_op, seed=seed,
            ops_under_test=ops_under_test)
    fpu = fpu or FPU()
    rng = RngStream(seed, "ia-characterization")
    stats: Dict[str, Dict[FpOp, InstructionStats]] = {
        point.name: {} for point in points
    }
    for op in (ops_under_test or ALL_OPS):
        with telemetry.span("characterize.ia.op", op=op.value):
            a, b = random_operands(op, samples_per_op, rng.child(op.value))
            batch = fpu.dta(op, a, b, points)
        telemetry.count("characterize.ia.samples", samples_per_op)
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


@telemetry.timed("characterize.da")
def characterize_da(profiles: Sequence[WorkloadProfile],
                    points: Sequence[OperatingPoint],
                    fpu: Optional[FPU] = None,
                    sample_per_point: int = DEFAULT_SAMPLE,
                    seed: int = 2021,
                    pipeline: Optional["CharacterizationPipeline"] = None,
                    ) -> DaModel:
    """Build the DA-model: one fixed ER per point from the benchmark mix.

    Follows Section IV.C.1: instructions are randomly extracted from the
    considered benchmarks (their recorded traces), DTA measures the mean
    error ratio, and that single number becomes the model.
    """
    if pipeline is not None:
        return pipeline.characterize_da(
            profiles, points, sample_per_point=sample_per_point, seed=seed)
    fpu = fpu or FPU()
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
        telemetry.count("characterize.da.samples", analysed)
        ratios[point.name] = faulty / analysed if analysed else 0.0
    model = DaModel(ratios)
    model.provenance = Provenance(
        benchmark="+".join(profile.name for profile in profiles),
        seed=seed, samples=sample_per_point,
        points=tuple(point.name for point in points),
    )
    return model


@telemetry.timed("characterize.wa")
def characterize_wa(profile: WorkloadProfile,
                    points: Sequence[OperatingPoint],
                    fpu: Optional[FPU] = None,
                    max_samples: int = 1_000_000,
                    burst_window: int = 8,
                    pipeline: Optional["CharacterizationPipeline"] = None,
                    ) -> WaModel:
    """Build the WA-model: DTA over the workload's own operand trace.

    Per Section IV.C.3 the paper applies DTA to 1 M instructions randomly
    extracted from the executed workload; we analyse the recorded trace up
    to ``max_samples`` per type.  The per-bit BER arrays captured here are
    the Fig. 8 series.

    With ``pipeline`` given, delegates to the parallel, cache-aware
    engine; WA characterisation draws no random numbers, so the pipeline
    result is bit-identical to this serial reference for any worker
    count and chunk size.
    """
    if pipeline is not None:
        return pipeline.characterize_wa(
            profile, points, max_samples=max_samples,
            burst_window=burst_window)
    fpu = fpu or FPU()
    faults: Dict[str, Dict[FpOp, TraceFaults]] = {
        point.name: {} for point in points
    }
    for op, (a, b) in profile.trace_by_op.items():
        if a.size == 0:
            continue
        take = min(a.size, max_samples)
        aa = a[:take]
        bb = b[:take] if b is not None else None
        telemetry.count("characterize.wa.samples", take)
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
