"""Explain journaled runs by replaying them: ``repro explain JOURNAL``.

Every injection run is a pure function of (campaign seed, run key,
model, operating point): its RNG stream *is* its journal key.  So the
answer to "why did this run end this way?" needs no recorder — rebuild
the campaign's golden run and model, re-execute the run in-process
through :meth:`CampaignRunner.execute_run`, and read the causal chain
off the result: model -> victim bitmasks -> placement cycle -> masking
verdict -> outcome.  A replay that disagrees with the journal (outcome,
``uarch_masked`` count or importance weight) is reported by run key.

What a replay needs that run lines lack — the workload's scale, the
wall-clock timeout and the model's content digest — comes from the
journal's ``model`` line (see :mod:`repro.campaign.journal`).  The
model is loaded from ``model_file`` when given, otherwise rebuilt as
``repro campaign`` builds it: a fresh WA model over the golden profile,
re-wrapped for importance sampling when its name ends in ``-IS``.

Re-placing a run (:meth:`Replayer.place`) draws the same plan and
placement without executing the guest; the HTML report builds its
per-bit heatmap that way and replays only the SDC runs it drills into.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.adaptive import ImportanceModel
from repro.campaign.journal import RunRecord, read_journal
from repro.campaign.outcomes import Outcome
from repro.campaign.runner import CampaignRunner
from repro.circuit.liberty import TECHNOLOGY, OperatingPoint
from repro.errors import characterize_wa, store
from repro.errors.base import ErrorModel
from repro.uarch.injector import (
    InjectionOutcomePlan,
    MicroArchInjector,
    PlacedInjection,
)
from repro.workloads import make_workload

__all__ = [
    "ReplayError",
    "Replayer",
    "RunReplay",
    "bitflip_histogram",
    "filter_records",
    "masking_summary",
    "narrative",
    "open_journal",
    "report_runs",
    "runs_table",
    "summary_tables",
]

_POINT_NAME = re.compile(r"VR(\d+)")


class ReplayError(ValueError):
    """A journal cannot be replayed as asked (names what is missing)."""


@dataclass
class RunReplay:
    """One journaled run, re-placed and possibly re-executed.

    ``record`` is the journal's account (outcome, wall time, retries);
    ``placed`` the victim chain the model and injector draw again (None
    when the model planned an error-free run).  ``sdc_magnitude`` and
    ``mismatches`` are filled only when the run was re-executed.
    """

    record: RunRecord
    seed: int
    placed: Optional[InjectionOutcomePlan] = None
    sdc_magnitude: Optional[float] = None
    mismatches: List[str] = field(default_factory=list)

    @property
    def victims(self) -> List[PlacedInjection]:
        return self.placed.placements if self.placed is not None else []

    @property
    def corruption_size(self) -> int:
        """(op, index) corruption entries that reached software."""
        if self.placed is None:
            return 0
        return sum(len(per_op)
                   for per_op in self.placed.corruption_map().values())


def _flipped_bits(mask: int) -> List[int]:
    """Bit positions set in ``mask``, LSB-first."""
    return [bit for bit in range(mask.bit_length()) if mask >> bit & 1]


def _point(name: str) -> OperatingPoint:
    match = _POINT_NAME.fullmatch(name)
    if match is None:
        raise ReplayError(f"cannot rebuild operating point {name!r} "
                          f"(expected VR<percent>)")
    return TECHNOLOGY.operating_point(int(match.group(1)) / 100.0)


class Replayer:
    """A rebuilt campaign: re-places and re-executes its journaled runs."""

    def __init__(self, runner: CampaignRunner, model: ErrorModel,
                 wall_clock_timeout: Optional[float] = None):
        self.runner = runner
        self.model = model
        self.wall_clock_timeout = wall_clock_timeout
        golden = runner.golden()
        self._injector = MicroArchInjector(golden.schedule, golden.masking)

    def place(self, record: RunRecord) -> RunReplay:
        """Re-draw a run's plan and placement; the guest does not run."""
        point = _point(record.point)
        rng = self.runner.run_stream(self.model, point, record.run_index)
        _, placed = self.runner.place(self.model, point, rng,
                                      self._injector)
        return RunReplay(record, self.runner.seed, placed)

    def replay(self, record: RunRecord) -> RunReplay:
        """Re-execute a run and check it against its journal record."""
        execution = self.runner.execute_run(
            self.model, _point(record.point), record.run_index,
            injector=self._injector,
            wall_clock_timeout=self.wall_clock_timeout)
        replay = RunReplay(record, self.runner.seed, execution.placed)
        if execution.outcome is Outcome.SDC:
            replay.sdc_magnitude = self.runner.workload.sdc_magnitude(
                self.runner.golden().output, execution.observed)
        for name, replayed, journaled in (
                ("outcome", execution.outcome.value, record.outcome),
                ("uarch_masked", execution.uarch_masked,
                 record.uarch_masked),
                ("weight", execution.weight, record.weight)):
            if replayed != journaled:
                replay.mismatches.append(
                    f"{name} {replayed!r} != journal {journaled!r}")
        return replay


def _rebuild_model(spec: dict, runner: CampaignRunner,
                   points: Sequence[OperatingPoint],
                   model_file: Optional[str]) -> ErrorModel:
    name, expected = spec["model"], spec["digest"]
    base_name = name[:-len("-IS")] if name.endswith("-IS") else name
    if model_file is not None:
        model = store.load_any(model_file)
    elif base_name == "WA":
        model = characterize_wa(runner.golden().profile, points)
    else:
        raise ReplayError(
            f"model {name!r} is not a fresh WA model: pass --model-file "
            f"with the campaign's artifact (sha256 {expected})")
    if name != base_name:
        model = ImportanceModel(model)
    digest = store.model_digest(model)
    if model.name != name or digest != expected:
        raise ReplayError(
            f"model {model.name!r} (sha256 {digest}) is not the "
            f"journal's model {name!r}: expected sha256 {expected}")
    return model


def open_journal(path, model_file: Optional[str] = None
                 ) -> Tuple[List[RunRecord], Replayer]:
    """A single-model campaign journal's runs and its rebuilt campaign.

    Plain and sharded merged journals replay alike.  Raises
    :class:`ReplayError` for journals that cannot be replayed: no
    ``model`` line, several models (``ExperimentContext.run_campaigns``),
    or a model whose digest differs from the journaled one.
    """
    contents = read_journal(path)
    if not contents.models:
        raise ReplayError(
            f"journal {path} records no model line, so its runs cannot "
            f"be replayed")
    if len(contents.models) > 1:
        names = ", ".join("/".join(key) for key in contents.models)
        raise ReplayError(
            f"journal {path} holds {len(contents.models)} models "
            f"({names}); replay takes the journal of one `repro "
            f"campaign`")
    (key, spec), = contents.models.items()
    records = [RunRecord.from_payload(payload)
               for payload in contents.runs.values()
               if (payload["workload"], payload["model"]) == key]
    point_names = list(dict.fromkeys(r.point for r in records))
    # Pool workers journal out of order; replay in (point, index) order.
    records.sort(key=lambda r: (point_names.index(r.point), r.run_index))
    points = [_point(name) for name in point_names]
    seed = contents.seed
    runner = CampaignRunner(
        make_workload(key[0], scale=spec["scale"], seed=seed), seed=seed)
    model = _rebuild_model(spec, runner, points, model_file)
    return records, Replayer(runner, model, spec["wall_clock_timeout"])


def filter_records(records: Iterable[RunRecord],
                   workload: Optional[str] = None,
                   model: Optional[str] = None,
                   point: Optional[str] = None,
                   outcome: Optional[str] = None,
                   run_index: Optional[int] = None) -> List[RunRecord]:
    """Subset of ``records`` matching every given filter (case-insensitive)."""
    def norm(value):
        return value.lower() if isinstance(value, str) else value

    wanted = {attr: norm(value) for attr, value in (
        ("workload", workload), ("model", model), ("point", point),
        ("outcome", outcome), ("run_index", run_index))
        if value is not None}
    return [record for record in records
            if all(norm(getattr(record, attr)) == value
                   for attr, value in wanted.items())]


def narrative(replay: RunReplay) -> str:
    """Per-run drill-down: the "why was this run an SDC?" narrative.

    The causal chain — model -> victim bitmask -> placement cycle ->
    masking verdict -> outcome — with the executor's wall time and
    retries as the journal recorded them.
    """
    record = replay.record
    lines = [
        f"run {record.key} (seed {replay.seed})",
        f"  model {record.model} on {record.workload} @ {record.point}",
    ]
    if not record.injected:
        lines.append("  plan: no victims (model planned an error-free "
                     "run) -> trivially Masked")
    for placement in replay.victims:
        victim = placement.victim
        bits = ",".join(str(b) for b in _flipped_bits(victim.bitmask)) or "-"
        lines.append(
            f"  victim {victim.op.value}[{victim.index}] "
            f"bitmask 0x{victim.bitmask:016x} (bits {bits}) "
            f"placed at cycle {placement.cycle}"
        )
        if placement.uarch_masked:
            lines.append(f"    uarch-masked ({placement.mask_cause}): "
                         f"never reached architectural state")
        else:
            lines.append("    survived the pipeline -> corrupted "
                         "architectural state")
    lines.append(f"  effective corruption map: "
                 f"{replay.corruption_size} register write(s)")
    outcome_line = f"  outcome: {record.outcome}"
    if replay.sdc_magnitude is not None:
        outcome_line += (f" (relative output error "
                         f"{replay.sdc_magnitude:.3e})")
    if record.watchdog:
        outcome_line += " [wall-clock watchdog]"
    if record.unexpected:
        outcome_line += f" [unexpected: {record.unexpected}]"
    lines.append(outcome_line)
    lines.append(f"  executor: {record.wall_ms:.1f} ms wall, "
                 f"{record.retries} harness retrie(s)")
    return "\n".join(lines)


def runs_table(replays: Iterable[RunReplay]) -> str:
    """Aligned one-line-per-run overview (``repro explain``'s default)."""
    from repro.campaign.report import format_table

    rows = []
    for replay in replays:
        record = replay.record
        masks = " ".join(f"{p.victim.op.value}[{p.victim.index}]"
                         f"^0x{p.victim.bitmask:x}"
                         for p in replay.victims) or "-"
        rows.append([
            record.workload, record.point, record.model, record.run_index,
            record.outcome,
            ("-" if replay.sdc_magnitude is None
             else f"{replay.sdc_magnitude:.2e}"),
            record.uarch_masked,
            masks if len(masks) <= 40 else masks[:37] + "...",
        ])
    if not rows:
        return "(no journaled runs match)"
    return format_table(
        ["benchmark", "VR", "model", "run", "outcome", "sdc-mag",
         "masked", "victims"],
        rows,
    )


def bitflip_histogram(replays: Iterable[RunReplay], width: int = 64,
                      ) -> Dict[str, List[int]]:
    """Per-instruction-type per-bit flip counts of the placed victims.

    Returns ``{op: [count per bit position, LSB-first]}`` — the
    campaign-side mirror of the Fig. 5/8 per-bit views.
    """
    out: Dict[str, List[int]] = {}
    for replay in replays:
        for placement in replay.victims:
            victim = placement.victim
            row = out.setdefault(victim.op.value, [0] * width)
            for bit in _flipped_bits(victim.bitmask):
                if bit < width:
                    row[bit] += 1
    return out


def masking_summary(replays: Iterable[RunReplay]) -> Dict[str, int]:
    """Victim counts by masking resolution.

    Keys: ``wrong-path`` and ``dead-write`` (the two microarchitectural
    masking stages), ``reached-software`` for unmasked victims.
    """
    out = {"wrong-path": 0, "dead-write": 0, "reached-software": 0}
    for replay in replays:
        for placement in replay.victims:
            if not placement.uarch_masked:
                out["reached-software"] += 1
            else:
                cause = placement.mask_cause or "wrong-path"
                out[cause] = out.get(cause, 0) + 1
    return out


def summary_tables(replays: Sequence[RunReplay]) -> str:
    """Derived aggregate tables: outcomes, masking stages, per-bit flips."""
    from repro.campaign.report import format_table

    parts = []
    outcomes: Dict[str, int] = {}
    for replay in replays:
        outcome = replay.record.outcome
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    if outcomes:
        parts.append("outcomes:")
        parts.append(format_table(
            ["outcome", "runs"],
            [[name, n] for name, n in sorted(outcomes.items())],
        ))
    masking = masking_summary(replays)
    total_victims = sum(masking.values())
    if total_victims:
        parts.append("masking by pipeline stage:")
        parts.append(format_table(
            ["stage", "victims", "fraction"],
            [[name, n, f"{n / total_victims:6.1%}"]
             for name, n in sorted(masking.items())],
        ))
    for op, row in sorted(bitflip_histogram(replays).items()):
        nonzero = [(bit, n) for bit, n in enumerate(row) if n]
        if not nonzero:
            continue
        peak = max(n for _, n in nonzero)
        parts.append(f"bit flips injected into {op} "
                     f"({sum(n for _, n in nonzero)} total):")
        for bit, n in reversed(nonzero):
            bar = "#" * max(1, round(30 * n / peak))
            parts.append(f"  bit {bit:2d}  {n:6d}  {bar}")
    return "\n".join(parts) if parts else "(no journaled runs)"


def report_runs(replayer: Replayer,
                records: Iterable[RunRecord]) -> List[RunReplay]:
    """Every run re-placed for the report's heatmap; only SDC runs are
    re-executed, for the relative output error their drill-downs rank by.
    """
    return [replayer.replay(record) if record.outcome == "SDC"
            else replayer.place(record) for record in records]
