"""Run metrics, computed purely from a persisted event log so that a
recomputation from disk always reproduces the run's own numbers. The
one fold, ``MetricsFold``, takes the log a record at a time."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Optional

from .events import Event

__all__ = [
    "BucketStats",
    "Metrics",
    "MetricsFold",
    "compute_metrics",
    "metrics_to_csv",
]

SESSION_BUCKETS = ("lt15", "b15to30", "gt30")

# Window after the end of a high-drowsiness episode in which a confirmed
# escalation still counts as detecting that episode.
DETECTION_GRACE_S = 300


@dataclass(frozen=True)
class BucketStats:
    sessions: int = 0
    with_event: int = 0

    @property
    def rate(self) -> float:
        return self.with_event / self.sessions if self.sessions else 0.0


@dataclass(frozen=True)
class Metrics:
    time_at_ord_ge4_min: float
    fatigue_event_count: int
    mean_detection_latency_s: float | None
    interventions: int
    invited_breaks: int
    impromptu_breaks: int
    incautious_events: int
    on_task_min: float
    incautious_by_session: tuple[tuple[str, BucketStats], ...]

    @property
    def incautious_rate_per_h(self) -> float:
        hours = self.on_task_min / 60.0
        return self.incautious_events / hours if hours else 0.0


def _session_bucket(duration_min: float) -> str:
    if duration_min < 15:
        return "lt15"
    if duration_min <= 30:
        return "b15to30"
    return "gt30"


def _require(event_data: dict, key: str, event_type: str):
    if key not in event_data:
        raise ValueError(f"malformed {event_type} record: missing {key!r}")
    return event_data[key]


class MetricsFold:
    """The one metrics fold: ``feed`` it a log's records in log order,
    then ``finish``. Pure function of the records.

    On-task time, time at ORD >= 4 and the high-drowsiness episodes fold
    from ``ord_change`` records. Each one opens a span of its ``(ord,
    on_task)`` pair that runs to the specialist's next ``ord_change`` or
    to their ``shift_end``; the minute tick at the shift end counts one
    more whole minute. An episode (on task at ORD >= 4) closes where its
    span does. A shift without an ``ord_change`` record (a log
    from before these records existed) or a span without a ``shift_end``
    raises ``ValueError``. The optional ``state_sample`` trace is not
    folded.

    Only records whose type is in ``TYPES`` change the fold, so a caller
    may pass it those alone. What the fold holds grows with the fleet,
    the high-drowsiness episodes and the confirmed escalations, not with
    the log, so ``frmsim
    simulate`` and ``frmsim report`` fold a log as it is written or read
    without holding it (``tests/memory_budget.py`` holds each to a
    40 MiB peak on an 80-specialist, 28-day fleet).
    """

    TYPES = frozenset(
        (
            "ord_change",
            "shift_start",
            "shift_end",
            "fatigue_event",
            "ict_intervention",
            "break_start",
            "incautious",
            "session_end",
            "escalation_resolved",
        )
    )

    def __init__(self) -> None:
        self._time_ord_min = 0.0
        self._on_task_min = 0.0
        self._fatigue_events = 0
        self._interventions = 0
        self._invited = 0
        self._impromptu = 0
        self._incautious = 0
        self._buckets = {name: [0, 0] for name in SESSION_BUCKETS}
        # Per-specialist (since, ord, on_task) of the last ord_change, or
        # None from a shift_start until the shift's first ord_change.
        self._spans: dict[str, tuple[int, int, bool] | None] = {}
        # Per-specialist high-drowsiness episodes: on task at ORD >= 4.
        self._episode_open: dict[str, int] = {}
        self._episodes: dict[str, list[tuple[int, int]]] = {}
        self._confirmations: dict[str, list[int]] = {}

    def _close_span(self, who: str, end: int) -> None:
        span = self._spans.get(who)
        if span is None:
            return
        since, level, on_task = span
        if on_task:
            minutes = (end - since) / 60.0
            self._on_task_min += minutes
            if level >= 4:
                self._time_ord_min += minutes

    def _close_episode(self, who: str, end: int) -> None:
        start = self._episode_open.pop(who, None)
        if start is not None:
            self._episodes.setdefault(who, []).append((start, end))

    def feed(self, time: int, type_: str, who: Optional[str], data: dict) -> None:
        """Fold the next record of the log."""
        if type_ == "ord_change":
            level = _require(data, "ord", type_)
            on_task = _require(data, "on_task", type_)
            self._close_span(who, time)
            self._spans[who] = (time, level, on_task)
            if on_task and level >= 4:
                self._episode_open.setdefault(who, time)
            else:
                self._close_episode(who, time)
        elif type_ == "shift_start":
            self._spans[who] = None
        elif type_ == "shift_end":
            if self._spans.get(who) is None:
                raise ValueError(
                    f"shift of {who} ending at t={time} has no ord_change "
                    "record: the log predates ord_change records and its "
                    "state_sample records are not folded; re-run the scenario"
                )
            self._close_span(who, time + 60)
            self._close_episode(who, time + 60)
            self._spans[who] = None
        elif type_ == "fatigue_event":
            self._fatigue_events += 1
        elif type_ == "ict_intervention":
            self._interventions += 1
        elif type_ == "break_start":
            initiator = _require(data, "initiator", type_)
            if initiator == "invited":
                self._invited += 1
            elif initiator == "self":
                self._impromptu += 1
        elif type_ == "incautious":
            self._incautious += 1
        elif type_ == "session_end":
            duration = _require(data, "duration_min", type_)
            bucket = self._buckets[_session_bucket(duration)]
            bucket[0] += 1
            bucket[1] += 1 if data.get("had_incautious") else 0
        elif type_ == "escalation_resolved":
            if _require(data, "resolution", type_) == "confirmed":
                self._confirmations.setdefault(who, []).append(time)

    def finish(self) -> Metrics:
        """The metrics of the records fed so far, which must end every
        span they open."""
        for who, span in self._spans.items():
            if span is not None:
                raise ValueError(
                    f"ord_change span of {who} from t={span[0]} has no shift_end record"
                )
        latencies: list[float] = []
        for who, windows in self._episodes.items():
            confirmed = sorted(self._confirmations.get(who, []))
            for start, end in windows:
                hit = next(
                    (t for t in confirmed if start <= t <= end + DETECTION_GRACE_S), None
                )
                if hit is not None:
                    latencies.append(hit - start)
        mean_latency = sum(latencies) / len(latencies) if latencies else None

        return Metrics(
            time_at_ord_ge4_min=self._time_ord_min,
            fatigue_event_count=self._fatigue_events,
            mean_detection_latency_s=mean_latency,
            interventions=self._interventions,
            invited_breaks=self._invited,
            impromptu_breaks=self._impromptu,
            incautious_events=self._incautious,
            on_task_min=self._on_task_min,
            incautious_by_session=tuple(
                (name, BucketStats(sessions=sessions, with_event=with_event))
                for name, (sessions, with_event) in self._buckets.items()
            ),
        )


def compute_metrics(events: Iterable[Event]) -> Metrics:
    """Fold a log's events (an ``EventLog``, or any iterable of events in
    log order) through one ``MetricsFold``."""
    fold = MetricsFold()
    feed = fold.feed
    for event in events:
        feed(*event)
    return fold.finish()


def metrics_to_csv(metrics: Metrics, config_hash: str, seed: int) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = [
        "config_hash",
        "seed",
        "time_at_ord_ge4_min",
        "fatigue_event_count",
        "mean_detection_latency_s",
        "interventions",
        "invited_breaks",
        "impromptu_breaks",
        "incautious_events",
        "on_task_min",
        "incautious_rate_per_h",
    ]
    row = [
        config_hash,
        seed,
        f"{metrics.time_at_ord_ge4_min:.4f}",
        metrics.fatigue_event_count,
        ""
        if metrics.mean_detection_latency_s is None
        else f"{metrics.mean_detection_latency_s:.4f}",
        metrics.interventions,
        metrics.invited_breaks,
        metrics.impromptu_breaks,
        metrics.incautious_events,
        f"{metrics.on_task_min:.4f}",
        f"{metrics.incautious_rate_per_h:.6f}",
    ]
    for name, stats in metrics.incautious_by_session:
        header.extend([f"sessions_{name}", f"incautious_rate_{name}"])
        row.extend([stats.sessions, f"{stats.rate:.6f}"])
    writer.writerow(header)
    writer.writerow(row)
    return out.getvalue()
