"""Observability layer over campaigns: state, views, flight recorder.

- :mod:`repro.observe.state` — the one :class:`CampaignState` every live
  view reads, fed by the executor's event stream or a journal replay;
- :mod:`repro.observe.monitor` — the terminal view behind
  ``repro campaign --monitor``;
- :mod:`repro.observe.trajectory` — the CI-trajectory view;
- :mod:`repro.observe.httpd` — the ``/metrics`` / ``/status`` /
  ``/trajectory`` control plane (imported lazily by the CLI);
- :mod:`repro.observe.flight` — per-run flight records capturing the
  full causal chain (model -> victim -> placement -> masking -> outcome)
  as framed lines on the telemetry JSONL trace, plus the query API
  behind ``repro trace query``;
- :mod:`repro.observe.html_report` — the self-contained HTML report
  behind ``repro report --html`` (imported lazily: it pulls in the
  whole campaign layer).
"""

from repro.observe.records import (
    RECORD_TYPE,
    FlightRecord,
    FlightVictim,
    bitflip_histogram,
    masking_summary,
    outcome_summary,
)
from repro.observe.flight import (
    FlightRecorder,
    begin_capture,
    disable,
    emit_run,
    emit_truncated,
    enable,
    enabled,
    explain,
    filter_records,
    get_recorder,
    load_records,
    records_table,
    summary_tables,
)
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
    "FlightRecord",
    "FlightRecorder",
    "FlightVictim",
    "RECORD_TYPE",
    "begin_capture",
    "bitflip_histogram",
    "disable",
    "emit_run",
    "emit_truncated",
    "enable",
    "enabled",
    "explain",
    "filter_records",
    "get_recorder",
    "load_records",
    "masking_summary",
    "outcome_summary",
    "records_table",
    "summary_tables",
]
