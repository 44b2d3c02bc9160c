"""Observability layer over campaigns: state, views, replayed runs.

- :mod:`repro.observe.state` — the one :class:`CampaignState` every live
  view reads, fed by the executor's event stream or a journal replay;
- :mod:`repro.observe.monitor` — the terminal view behind
  ``repro campaign --monitor``;
- :mod:`repro.observe.trajectory` — the CI-trajectory view;
- :mod:`repro.observe.httpd` — the ``/metrics`` / ``/status`` /
  ``/trajectory`` control plane (imported lazily by the CLI);
- :mod:`repro.observe.explain` — replays journaled runs in-process to
  explain each one's causal chain (model -> victim -> placement ->
  masking -> outcome) behind ``repro explain`` and the report's
  heatmap (imported lazily: it rebuilds campaigns);
- :mod:`repro.observe.html_report` — the self-contained HTML report
  behind ``repro report --html`` (imported lazily: it pulls in the
  whole campaign layer).
"""

from repro.observe.monitor import CampaignMonitor
from repro.observe.state import CampaignState, journal_events
from repro.observe.stats import AvmEstimate, avm_estimate, non_masked_count
from repro.observe.trajectory import (
    TrajectoryPoint,
    TrajectoryRecorder,
    load_trajectory,
    points_by_cell,
)

__all__ = [
    "AvmEstimate",
    "CampaignMonitor",
    "CampaignState",
    "TrajectoryPoint",
    "TrajectoryRecorder",
    "avm_estimate",
    "journal_events",
    "load_trajectory",
    "non_masked_count",
    "points_by_cell",
]
