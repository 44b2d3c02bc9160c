"""Interconnect delay annotation (the place-and-route / SDF step).

After synthesis, the paper's flow runs Cadence Innovus and back-annotates
cell and wire delays through an SDF file.  The behaviour that matters for
timing-error modelling is that post-P&R delays acquire (a) a fanout-
dependent load component and (b) a placement-dependent spread that breaks
the perfect regularity of the synthesised structure.  We reproduce both
with a deterministic model: wire delay grows with fanout, plus a small
pseudo-random per-net jitter derived from a hash of the net name (so the
same netlist always annotates identically — our "placement" is
reproducible).
"""

from __future__ import annotations

import hashlib
from typing import Dict

from repro.circuit.netlist import Netlist

#: Delay added per unit of fanout (ps), representing wire + pin load.
FANOUT_DELAY_PS = 4.0

#: Half-width of the placement jitter window (ps).
PLACEMENT_JITTER_PS = 6.0

#: Fixed per-net route delay (ps).
BASE_WIRE_DELAY_PS = 3.0


def _net_jitter(netlist_name: str, net: str, seed: int) -> float:
    """Deterministic jitter in [-1, 1) for a net (stable 'placement')."""
    digest = hashlib.sha256(f"{seed}:{netlist_name}:{net}".encode()).digest()
    raw = int.from_bytes(digest[:8], "little")
    return (raw / 2**64) * 2.0 - 1.0


def annotate_interconnect(netlist: Netlist, seed: int = 45) -> Dict[str, float]:
    """Back-annotate wire delays onto every gate of ``netlist`` in place.

    Returns the net -> wire-delay map (the "SDF file").  The wire delay of
    a net is charged to its *driver* gate, matching how SDF IOPATH +
    INTERCONNECT entries combine in gate-level simulation.
    """
    fanout = netlist.fanout()
    sdf: Dict[str, float] = {}
    for gate in netlist.gates:
        net = gate.output
        loads = len(fanout.get(net, ()))
        jitter = _net_jitter(netlist.name, net, seed) * PLACEMENT_JITTER_PS
        wire = BASE_WIRE_DELAY_PS + FANOUT_DELAY_PS * loads + jitter
        gate.wire_delay_ps = max(0.0, wire)
        sdf[net] = gate.wire_delay_ps
    return sdf
