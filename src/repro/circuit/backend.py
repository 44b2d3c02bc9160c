"""Batch-first timing-backend API.

This module defines the engine-neutral surface of dynamic timing
analysis: a :class:`TimingBackend` runs *batches* of back-to-back input
transitions and reports per-lane verdicts as a :class:`BatchOutcome`.
Two engines implement it:

- ``event`` — :class:`repro.circuit.dta.DynamicTimingAnalysis`, the
  event-driven reference (bit- and picosecond-exact, one lane at a time),
- ``bitparallel`` — :class:`repro.circuit.bitsim.BitParallelTimingAnalysis`,
  the levelized bit-parallel engine (64 lanes per machine word, numpy
  words for wider batches) with verdicts bit-identical to the reference.

Lane encoding: a *word* is a Python int carrying one bit per batch lane
(bit ``j`` = lane ``j``).  A batch input is one word per primary input
net, in ``netlist.inputs`` order, so lane ``j`` of the batch is the
vector ``{net_i: (words[i] >> j) & 1}``.  :func:`pack_input_words` /
:func:`unpack_input_words` convert between word form and the
per-vector dict form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Protocol, Sequence, Tuple, runtime_checkable

from repro.circuit.netlist import Netlist

#: Names accepted by :func:`make_timing_backend` (and by the ``backend``
#: argument of :func:`repro.errors.characterize.characterize_gate`).
TIMING_BACKENDS: Tuple[str, ...] = ("event", "bitparallel")

DEFAULT_TIMING_BACKEND = "event"


def pack_input_words(netlist: Netlist,
                     vectors: Sequence[Dict[str, int]]) -> List[int]:
    """Pack per-vector input dicts into one lane-word per input net.

    Word ``i`` holds, at bit ``j``, the value of input net
    ``netlist.inputs[i]`` in ``vectors[j]``.
    """
    words = [0] * len(netlist.inputs)
    for j, vector in enumerate(vectors):
        bit = 1 << j
        for i, net in enumerate(netlist.inputs):
            if net not in vector:
                raise ValueError(f"missing value for input net {net!r}")
            if vector[net] & 1:
                words[i] |= bit
    return words


def unpack_input_words(netlist: Netlist, words: Sequence[int],
                       count: int) -> List[Dict[str, int]]:
    """Inverse of :func:`pack_input_words`: words back to per-lane dicts."""
    if len(words) != len(netlist.inputs):
        raise ValueError(
            f"expected {len(netlist.inputs)} input words, got {len(words)}"
        )
    return [
        {net: (words[i] >> j) & 1 for i, net in enumerate(netlist.inputs)}
        for j in range(count)
    ]


def stream_words(netlist: Netlist,
                 vectors: Sequence[Dict[str, int]]) -> Tuple[List[int], List[int], int]:
    """Pack a back-to-back vector stream into (prev, cur) batch words.

    A stream of ``n + 1`` vectors yields ``n`` transition lanes: lane
    ``j`` is the transition ``vectors[j] -> vectors[j + 1]``.  Returns
    ``(prev_words, cur_words, n)``.
    """
    count = len(vectors) - 1
    if count < 1:
        return [0] * len(netlist.inputs), [0] * len(netlist.inputs), 0
    full = pack_input_words(netlist, vectors)
    mask = (1 << count) - 1
    prev = [w & mask for w in full]
    cur = [w >> 1 for w in full]
    return prev, cur, count


@dataclass(frozen=True)
class BatchOutcome:
    """Per-lane DTA verdicts for one batch of input transitions.

    ``golden``/``sampled``/``bitmask`` are per-lane packed output words
    (bit ``i`` = primary output ``outputs[i]``), exactly the fields of
    :class:`repro.circuit.dta.DtaOutcome` for that lane.
    ``worst_settle_ps`` is the per-lane latest settling time of the
    *final output waveform* (zero-width hazard pulses excluded — see
    DESIGN.md section 12 for how this relates to the event engine's
    hazard-inclusive settle bookkeeping).
    """

    outputs: Tuple[str, ...]
    golden: Tuple[int, ...]
    sampled: Tuple[int, ...]
    bitmask: Tuple[int, ...]
    worst_settle_ps: Tuple[float, ...]

    def __len__(self) -> int:
        return len(self.golden)

    @property
    def faulty(self) -> Tuple[bool, ...]:
        return tuple(mask != 0 for mask in self.bitmask)

    @property
    def error_count(self) -> int:
        return sum(1 for mask in self.bitmask if mask)

    def error_ratio(self) -> float:
        if not self.golden:
            raise ValueError("empty batch has no error ratio")
        return self.error_count / len(self.golden)

    def outcome(self, lane: int):
        """The lane's verdict as a legacy :class:`DtaOutcome`."""
        from repro.circuit.dta import DtaOutcome

        return DtaOutcome(
            golden=self.golden[lane],
            sampled=self.sampled[lane],
            bitmask=self.bitmask[lane],
            worst_settle_ps=self.worst_settle_ps[lane],
        )

    def outcomes(self) -> List:
        return [self.outcome(j) for j in range(len(self.golden))]


@runtime_checkable
class TimingBackend(Protocol):
    """Engine-neutral DTA interface; ``analyze_batch`` is the hot path."""

    name: str
    netlist: Netlist
    clock_ps: float
    delay_factor: float

    def analyze_batch(self, prev_words: Sequence[int],
                      cur_words: Sequence[int], *,
                      count: int) -> BatchOutcome:
        """DTA for ``count`` lanes of back-to-back input transitions."""
        ...  # pragma: no cover - protocol


def make_timing_backend(name: str, netlist: Netlist, clock_ps: float,
                        delay_factor: float) -> TimingBackend:
    """Instantiate a registered timing backend by name."""
    if name == "event":
        from repro.circuit.dta import DynamicTimingAnalysis

        return DynamicTimingAnalysis(netlist, clock_ps=clock_ps,
                                     delay_factor=delay_factor)
    if name == "bitparallel":
        from repro.circuit.bitsim import BitParallelTimingAnalysis

        return BitParallelTimingAnalysis(netlist, clock_ps=clock_ps,
                                         delay_factor=delay_factor)
    raise ValueError(
        f"unknown timing backend {name!r}; expected one of {TIMING_BACKENDS}"
    )
