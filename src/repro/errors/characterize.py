"""Operand sources and gate-level DTA for the model-development phase.

Mirrors Fig. 2's left half.  The three error models differ only in what
operands they feed DTA (the point of the paper):

- DA: operands randomly extracted from the benchmark mix, collapsed to one
  fixed number per voltage,
- IA: uniformly distributed random operands per instruction type
  (:func:`random_operands`),
- WA: the workload's own dynamic operand trace.

:mod:`repro.errors.pipeline` builds all three; this module holds the
random operand source it draws from and the gate-level analogue,
:func:`characterize_gate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.circuit.bitsim import AUTO_NUMPY_LANES, BitParallelTimingAnalysis
from repro.circuit.netlist import Netlist
from repro.fpu import ops
from repro.fpu.formats import FpOp
from repro.utils.rng import RngStream
from repro import telemetry

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
    on which timing engine consumes it.
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
    flip counts over a uniform random back-to-back vector stream.
    """

    netlist: str
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
                      backend: str = "bitparallel",
                      lanes: int = AUTO_NUMPY_LANES
                      ) -> GateCharacterization:
    """Gate-level DTA characterisation over a random vector stream.

    Streams ``samples`` back-to-back transitions through
    :class:`~repro.circuit.bitsim.BitParallelTimingAnalysis` in batches
    of at most ``lanes`` lanes.  The default is the widest batch the
    engine still runs on Python-int lane words (one interpreter dispatch
    per gate whatever the width), so a stream of up to that many
    transitions is one walk.  The whole path works on packed lane
    words — the operand stream is generated, sliced and analysed without
    ever constructing a per-vector ``Dict[str, int]``.
    """
    # Bit-parallel is the only engine.  ``backend`` stays only because
    # perfbench's model_dev job passes backend="bitparallel"; drop it in
    # the first change that may edit perfbench/.
    if backend != "bitparallel":
        raise ValueError(
            f"unknown timing backend {backend!r}; expected 'bitparallel'")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    engine = BitParallelTimingAnalysis(netlist, clock_ps=clock_ps,
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
