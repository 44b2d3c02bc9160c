"""Injection-campaign harness: the application-evaluation phase (Fig. 2).

- :mod:`repro.campaign.outcomes` — the four-way outcome classification,
- :mod:`repro.campaign.runner` — golden runs, the hardened per-run
  classification boundary, and campaign cells,
- :mod:`repro.campaign.executor` — the fault-tolerant execution engine:
  isolated worker pools, wall-clock watchdogs, bounded retries and
  degraded-cell accounting,
- :mod:`repro.campaign.journal` — append-only resumable run journals
  keyed by each run's deterministic RNG stream,
- :mod:`repro.campaign.avm` — the Application Vulnerability Metric and
  the voltage/energy guidance analysis of Section V.C,
- :mod:`repro.campaign.report` — plain-text renderings of every table
  and figure series.
"""

from repro.campaign.outcomes import Outcome, OutcomeCounts
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    GoldenRun,
    RunExecution,
    WatchdogTimeout,
)
from repro.campaign.executor import (
    CampaignExecutor,
    CellStats,
    ExecutorConfig,
)
from repro.campaign.journal import RunJournal, RunRecord, run_key
from repro.campaign.avm import (
    EnergyAnalysis,
    avm_divergence,
)

__all__ = [
    "Outcome",
    "OutcomeCounts",
    "CampaignResult",
    "CampaignRunner",
    "GoldenRun",
    "RunExecution",
    "WatchdogTimeout",
    "CampaignExecutor",
    "CellStats",
    "ExecutorConfig",
    "RunJournal",
    "RunRecord",
    "run_key",
    "EnergyAnalysis",
    "avm_divergence",
]
