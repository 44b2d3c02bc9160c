"""Static timing analysis.

Implements Eq. 1 of the paper: the clock period is the maximum path delay
over all paths in all pipeline stages.  Besides arrival times and the
critical path, this module enumerates the K longest paths of a netlist —
the analysis behind Fig. 4 (distribution of the 1000 longest paths across
the marocchino pipeline).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import Netlist


@dataclass(frozen=True)
class TimingPath:
    """One structural timing path: ordered nets from an input to an output."""

    delay_ps: float
    nets: Tuple[str, ...]
    endpoint: str
    stage: str = ""

    def slack(self, clock_ps: float) -> float:
        return clock_ps - self.delay_ps

    def __len__(self) -> int:
        return len(self.nets)


class StaticTimingAnalysis:
    """Arrival-time propagation and K-longest-path enumeration.

    ``delay_factor`` scales every gate delay uniformly, which is how a
    reduced-voltage library characterisation enters timing analysis.
    """

    def __init__(self, netlist: Netlist, delay_factor: float = 1.0):
        if delay_factor <= 0:
            raise ValueError("delay_factor must be positive")
        self.netlist = netlist
        self.delay_factor = delay_factor
        self._arrival: Optional[Dict[str, float]] = None

    # -- arrival times -------------------------------------------------------------
    def arrival_times(self) -> Dict[str, float]:
        """Latest arrival time at every net (inputs arrive at t = 0)."""
        if self._arrival is not None:
            return self._arrival
        arrival: Dict[str, float] = {net: 0.0 for net in self.netlist.inputs}
        for gate in self.netlist.topological_order():
            in_arrival = max((arrival[n] for n in gate.inputs), default=0.0)
            arrival[gate.output] = in_arrival + gate.delay_ps * self.delay_factor
        self._arrival = arrival
        return arrival

    def critical_delay(self) -> float:
        """Delay of the longest input-to-output path (the stage's Eq. 1 term)."""
        arrival = self.arrival_times()
        if not self.netlist.outputs:
            raise ValueError(f"netlist {self.netlist.name} has no outputs")
        return max(arrival[net] for net in self.netlist.outputs)

    # -- path enumeration -----------------------------------------------------------
    def longest_paths(self, k: int) -> List[TimingPath]:
        """The K longest structural paths, best-first.

        Works backwards from endpoints with a max-heap of partial paths
        ranked by (delay so far) + (remaining potential = arrival time of
        the frontier net), which is admissible, so paths pop in strictly
        non-increasing delay order and enumeration can stop at exactly K.
        """
        if k <= 0:
            return []
        arrival = self.arrival_times()
        heap: List[Tuple[float, int, float, Tuple[str, ...]]] = []
        counter = 0
        for endpoint in self.netlist.outputs:
            heapq.heappush(
                heap, (-arrival[endpoint], counter, 0.0, (endpoint,))
            )
            counter += 1
        results: List[TimingPath] = []
        while heap and len(results) < k:
            neg_bound, _, suffix_delay, nets = heapq.heappop(heap)
            frontier = nets[0]
            gate = self.netlist.driver_of(frontier)
            if gate is None or not gate.inputs:
                # Reached a primary input (or tie cell): complete path.
                total = suffix_delay
                tie = gate is not None and not gate.inputs
                results.append(
                    TimingPath(delay_ps=total + (gate.delay_ps * self.delay_factor if tie else 0.0),
                               nets=nets, endpoint=nets[-1],
                               stage=self.netlist.name)
                )
                continue
            edge = gate.delay_ps * self.delay_factor
            for source in gate.inputs:
                new_suffix = suffix_delay + edge
                bound = new_suffix + arrival[source]
                heapq.heappush(heap, (-bound, counter, new_suffix,
                                      (source,) + nets))
                counter += 1
        return results


def clock_period(stages: Sequence[Netlist], delay_factor: float = 1.0,
                 margin: float = 0.0) -> float:
    """Eq. 1: CLK = max over stages of the stage's critical delay.

    ``margin`` adds a guardband fraction (e.g. 0.1 for 10 %), the
    conventional pessimistic margin the paper's intro says designers add.
    """
    worst = max(StaticTimingAnalysis(stage, delay_factor).critical_delay()
                for stage in stages)
    return worst * (1.0 + margin)


def path_distribution(stages: Sequence[Netlist], k: int,
                      delay_factor: float = 1.0) -> List[TimingPath]:
    """The K longest paths across a set of stage netlists, merged (Fig. 4).

    Each path is tagged with its stage name; the merged list is sorted by
    delay descending and truncated to K.
    """
    merged: List[TimingPath] = []
    for stage in stages:
        sta = StaticTimingAnalysis(stage, delay_factor)
        merged.extend(sta.longest_paths(k))
    merged.sort(key=lambda p: p.delay_ps, reverse=True)
    return merged[:k]
