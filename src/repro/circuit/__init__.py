"""Gate-level circuit substrate: the Python stand-in for the paper's EDA flow.

The paper's model-development phase runs on Synopsys Design Compiler,
Cadence Innovus, SiliconSmart and ModelSim; this package provides the
behaviour-relevant equivalents:

- :mod:`repro.circuit.cells` — standard-cell library (NanGate-45-like),
- :mod:`repro.circuit.liberty` — voltage-dependent delay characterisation,
- :mod:`repro.circuit.netlist` — gate-level netlist container,
- :mod:`repro.circuit.builder` — datapath structure generators (synthesis),
- :mod:`repro.circuit.sdf` — interconnect delay annotation (place & route),
- :mod:`repro.circuit.sta` — static timing analysis (Eq. 1 of the paper),
- :mod:`repro.circuit.bitsim` — dynamic timing analysis (Section III.A.1):
  the levelized bit-parallel gate-level engine.
"""

from repro.circuit.cells import Cell, CellLibrary, default_library
from repro.circuit.liberty import OperatingPoint, VoltageScalingModel, VR15, VR20, NOMINAL
from repro.circuit.netlist import Gate, Netlist
from repro.circuit.builder import NetlistBuilder
from repro.circuit.sdf import annotate_interconnect
from repro.circuit.sta import StaticTimingAnalysis, TimingPath
from repro.circuit.bitsim import (
    BatchOutcome,
    BitParallelSimulator,
    BitParallelTimingAnalysis,
)

__all__ = [
    "Cell",
    "CellLibrary",
    "default_library",
    "OperatingPoint",
    "VoltageScalingModel",
    "VR15",
    "VR20",
    "NOMINAL",
    "Gate",
    "Netlist",
    "NetlistBuilder",
    "annotate_interconnect",
    "StaticTimingAnalysis",
    "TimingPath",
    "BatchOutcome",
    "BitParallelSimulator",
    "BitParallelTimingAnalysis",
]
