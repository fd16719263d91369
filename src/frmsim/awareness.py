"""Periodic fatigue survey flow, self-report trend aggregation, and
safety-concern tickets.

Self-reports never feed a formal drowsiness rating; they gate break
suggestions and supervisor outreach only.

In the fleet run (``frmsim.sim``) the functions at the end of this
module take the runner as ``run``. A specialist files a survey at the
shift start, on the survey cadence while driving, and a minute after a
break ends. A high report asks for a break, and the first survey after
it is a follow-up (with a reminder when the specialist does not answer
at once); a follow-up still high brings supervisor outreach, which
reassigns the specialist to auxiliary work when scheduling is on. Once
an hour a dual specialist's peer may raise a concern ticket.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from . import scheduling as sched
from .fatigue import IN_VEHICLE, Activity, to_kss, to_ord_truth

__all__ = [
    "ALERTNESS_TIPS",
    "ConcernChannel",
    "ConcernStatus",
    "ConcernTicket",
    "PfsAction",
    "PfsOutcome",
    "PfsRecord",
    "TrendSummary",
    "open_concern",
    "pfs_trend",
    "submit_pfs",
    "trend_to_csv",
]

KSS_BREAK_THRESHOLD = 6
PEER_CHECK_S = 3600

ALERTNESS_TIPS = (
    "take a short walk",
    "light stretching",
    "step outside for fresh air",
    "have a conversation with support",
    "adjust cabin temperature or music",
    "hydrate",
)


class PfsAction(str, Enum):
    NONE = "none"
    SUGGEST_BREAK_AND_FOLLOWUP = "suggest_break_and_followup"
    SUPERVISOR_OUTREACH = "supervisor_outreach"


@dataclass(frozen=True)
class PfsRecord:
    record_id: str
    specialist_id: str
    timestamp: float
    kss: int
    window_minutes: int = 5
    is_followup: bool = False
    triggered_by: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.kss, int) or not 1 <= self.kss <= 9:
            raise ValueError("kss must be an integer in 1..9")
        if self.is_followup and self.triggered_by is None:
            raise ValueError("follow-up surveys must reference the triggering record")


@dataclass(frozen=True)
class PfsOutcome:
    action: PfsAction
    tips: Optional[tuple[str, ...]] = None


def submit_pfs(
    specialist_id: str,
    kss: int,
    now: float,
    is_followup: bool = False,
    *,
    triggered_by: Optional[str] = None,
    record_id: Optional[str] = None,
) -> tuple[PfsRecord, PfsOutcome]:
    """File one survey and decide its outcome.

    A first report at or above the threshold suggests a break plus a
    follow-up survey; a follow-up still at or above it triggers
    supervisor outreach with alertness tips.
    """
    if record_id is None:
        suffix = "f" if is_followup else "p"
        record_id = f"pfs-{specialist_id}-{int(now)}-{suffix}"
    record = PfsRecord(
        record_id=record_id,
        specialist_id=specialist_id,
        timestamp=now,
        kss=kss,
        is_followup=is_followup,
        triggered_by=triggered_by,
    )
    if kss < KSS_BREAK_THRESHOLD:
        return record, PfsOutcome(action=PfsAction.NONE)
    if is_followup:
        return record, PfsOutcome(action=PfsAction.SUPERVISOR_OUTREACH, tips=ALERTNESS_TIPS)
    return record, PfsOutcome(action=PfsAction.SUGGEST_BREAK_AND_FOLLOWUP)


@dataclass(frozen=True)
class TrendSummary:
    """Cohort-level self-report statistics over a time window.

    Series are keyed by shift for comparing routines and schedules; no
    per-specialist performance score is computed.
    """

    shift_series: tuple[tuple[str, tuple[int, ...]], ...]
    mean: Optional[float]
    max: Optional[int]
    crossings_of_6: int
    count: int


def _upward_crossings(series: Sequence[int], threshold: int = 6) -> int:
    crossings = 0
    for prev, cur in zip(series, series[1:]):
        if prev < threshold <= cur:
            crossings += 1
    return crossings


def pfs_trend(
    records: Sequence[PfsRecord], window: tuple[float, float]
) -> TrendSummary:
    """Aggregate surveys falling inside ``window`` (inclusive bounds).

    Records are sorted before aggregation, so the summary is invariant
    under input re-ordering. An empty window yields an empty summary.
    """
    t0, t1 = window
    selected = sorted(
        (r for r in records if t0 <= r.timestamp <= t1),
        key=lambda r: (r.timestamp, r.record_id),
    )
    if not selected:
        return TrendSummary(
            shift_series=(), mean=None, max=None, crossings_of_6=0, count=0
        )
    by_shift: dict[str, list[int]] = {}
    for record in selected:
        day = int(record.timestamp // 86400)
        by_shift.setdefault(f"{record.specialist_id}:day{day}", []).append(record.kss)
    series = tuple(
        (key, tuple(values)) for key, values in sorted(by_shift.items())
    )
    values = [r.kss for r in selected]
    crossings = sum(_upward_crossings(s) for _, s in series)
    return TrendSummary(
        shift_series=series,
        mean=sum(values) / len(values),
        max=max(values),
        crossings_of_6=crossings,
        count=len(values),
    )


def trend_to_csv(summary: TrendSummary) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["shift", "n", "series"])
    for key, series in summary.shift_series:
        writer.writerow([key, len(series), " ".join(str(v) for v in series)])
    writer.writerow([])
    writer.writerow(["mean", "max", "crossings_of_6", "count"])
    writer.writerow(
        [
            "" if summary.mean is None else f"{summary.mean:.4f}",
            "" if summary.max is None else summary.max,
            summary.crossings_of_6,
            summary.count,
        ]
    )
    return out.getvalue()


class ConcernChannel(str, Enum):
    SUPERVISOR_DIRECT = "supervisor_direct"
    ANONYMOUS_SURVEY = "anonymous_survey"
    FIELD_SAFETY_PROGRAM = "field_safety_program"


class ConcernStatus(str, Enum):
    OPEN = "open"
    ASSESSED = "assessed"
    RESOLVED = "resolved"


@dataclass(frozen=True)
class ConcernTicket:
    ticket_id: str
    channel: ConcernChannel
    anonymous: bool
    status: ConcernStatus
    summary: str
    specialist_id: Optional[str] = None
    status_history: tuple[ConcernStatus, ...] = (ConcernStatus.OPEN,)

    def to_record(self) -> dict:
        """Serialized form; anonymous tickets carry no identity field."""
        record = {
            "ticket_id": self.ticket_id,
            "channel": self.channel.value,
            "anonymous": self.anonymous,
            "status": self.status.value,
            "summary": self.summary,
            "status_history": [s.value for s in self.status_history],
        }
        if not self.anonymous:
            record["specialist_id"] = self.specialist_id
        return record


def open_concern(
    channel: ConcernChannel,
    summary: str,
    anonymous: bool,
    *,
    specialist_id: Optional[str] = None,
    ticket_id: str = "ticket-0",
) -> ConcernTicket:
    """Open a safety-concern ticket; anonymous tickets shed identity
    before persistence."""
    if channel is ConcernChannel.ANONYMOUS_SURVEY and not anonymous:
        raise ValueError("the anonymous survey channel only accepts anonymous tickets")
    return ConcernTicket(
        ticket_id=ticket_id,
        channel=channel,
        anonymous=anonymous,
        status=ConcernStatus.OPEN,
        summary=summary,
        specialist_id=None if anonymous else specialist_id,
    )


# -- the fleet run --------------------------------------------------------


def checks(cfg) -> list:
    """The minute check table's entries, as (cadence in seconds, check)."""
    return [(int(cfg.pfs.cadence_min * 60), _survey_check), (PEER_CHECK_S, _peer_check)]


def start_driving(run, agent, t: int) -> None:
    """At the shift start the opening survey; at a break end the
    follow-up survey (or its reminder) or the next regular one."""
    pfs = run.cfg.pfs
    if t == run.shift_start:
        _survey(run, agent, t, is_followup=False)
    elif agent.pending_followup_for is not None:
        if agent.rng_breaks.random() < pfs.followup_compliance:
            run.schedule(t + 60, run.PHASE_ITEM, _on_followup, agent)
        else:
            run.schedule(t + int(pfs.followup_due_min * 60), run.PHASE_ITEM, _on_reminder, agent)
    else:
        run.schedule(t + 60, run.PHASE_ITEM, _on_regular, agent)


def _survey(run, agent, t: int, is_followup: bool) -> None:
    cfg = run.cfg
    who = agent.spec.specialist_id
    kss = to_kss(agent.alertness(t), agent.rng_breaks, agent.params)
    record_id = f"pfs-{who}-{agent.pfs_seq}"
    agent.pfs_seq += 1
    record, outcome = submit_pfs(
        who,
        kss,
        t,
        is_followup=is_followup,
        triggered_by=agent.pending_followup_for if is_followup else None,
        record_id=record_id,
    )
    run.log.append(
        t,
        "pfs",
        who,
        record_id=record.record_id,
        kss=record.kss,
        is_followup=record.is_followup,
        triggered_by=record.triggered_by,
        window_minutes=record.window_minutes,
        action=outcome.action.value,
    )
    agent.last_kss = (t, kss)
    if outcome.action is PfsAction.SUGGEST_BREAK_AND_FOLLOWUP:
        if agent.rng_breaks.random() < cfg.pfs.break_compliance:
            agent.pending_followup_for = record.record_id
            run.request_break(agent, t, cfg.breaks.duration_min, "pfs", "high_kss")
    elif outcome.action is PfsAction.SUPERVISOR_OUTREACH:
        agent.pending_followup_for = None
        run.log.append(
            t,
            "supervisor_outreach",
            who,
            record_id=record.record_id,
            tips=list(outcome.tips or ()),
        )
        if kss >= cfg.pfs.outreach_reassign_kss and cfg.toggles.scheduling:
            sched.reassign(run, agent, t, "persistent_high_kss")
    else:
        if is_followup:
            agent.pending_followup_for = None


def _survey_check(run, agent, t: int, _level: int) -> None:
    if agent.activity is Activity.DRIVING:
        _survey(run, agent, t, is_followup=False)


def _peer_check(run, agent, t: int, _level: int) -> None:
    # A dual specialist's peer grants no detection benefit; once an
    # hour they may raise a concern ticket with small probability.
    if not agent.spec.dual:
        return
    b = run.cfg.behavior
    rng = agent.rng_breaks
    if to_ord_truth(agent.alertness(t)) >= 4 and rng.random() < b.peer_concern_p_per_h:
        channel = (
            ConcernChannel.SUPERVISOR_DIRECT
            if rng.random() < 0.7
            else ConcernChannel.ANONYMOUS_SURVEY
        )
        ticket = open_concern(
            channel,
            "peer observed possible drowsiness",
            anonymous=channel is ConcernChannel.ANONYMOUS_SURVEY,
            specialist_id=agent.spec.specialist_id,
            ticket_id=f"ticket-{run.ticket_seq}",
        )
        run.ticket_seq += 1
        run.log.append(t, "concern", ticket.specialist_id, **ticket.to_record())


def _on_followup(run, t: int, agent) -> None:
    if run.live(agent.pending_followup_for is not None):
        _survey(run, agent, t, is_followup=True)


def _on_regular(run, t: int, agent) -> None:
    if run.live(agent.activity in IN_VEHICLE):
        _survey(run, agent, t, is_followup=False)


def _on_reminder(run, t: int, agent) -> None:
    if run.live(agent.pending_followup_for is not None):
        run.log.append(
            t, "pfs_reminder", agent.spec.specialist_id, pending=agent.pending_followup_for
        )
        run.schedule(t + 60, run.PHASE_ITEM, _on_followup, agent)
