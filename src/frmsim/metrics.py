"""Run metrics, computed purely from a persisted event log so that a
recomputation from disk always reproduces the run's own numbers."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

from .events import EventLog

__all__ = [
    "BucketStats",
    "Metrics",
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


def compute_metrics(log: EventLog) -> Metrics:
    """Fold an event log into run metrics. Pure function of the log.

    On-task time, time at ORD >= 4 and the high-drowsiness episodes fold
    from ``ord_change`` records. Each one opens a span of its ``(ord,
    on_task)`` pair that runs to the specialist's next ``ord_change`` or
    to their ``shift_end``; the minute tick at the shift end counts one
    more whole minute. An episode (on task at ORD >= 4) closes where its
    span does. A shift without an ``ord_change`` record (a log
    from before these records existed) or a span without a ``shift_end``
    raises ``ValueError``. The optional ``state_sample`` trace is not
    folded.
    """
    time_ord_min = 0.0
    on_task_min = 0.0
    fatigue_events = 0
    interventions = 0
    invited = 0
    impromptu = 0
    incautious = 0
    buckets = {name: [0, 0] for name in SESSION_BUCKETS}

    # Per-specialist (since, ord, on_task) of the last ord_change, or
    # None from a shift_start until the shift's first ord_change.
    spans: dict[str, tuple[int, int, bool] | None] = {}
    # Per-specialist high-drowsiness episodes: on task at ORD >= 4.
    episode_open: dict[str, int] = {}
    episodes: dict[str, list[tuple[int, int]]] = {}
    confirmations: dict[str, list[int]] = {}

    def close_span(who: str, end: int) -> None:
        nonlocal time_ord_min, on_task_min
        span = spans.get(who)
        if span is None:
            return
        since, level, on_task = span
        if on_task:
            minutes = (end - since) / 60.0
            on_task_min += minutes
            if level >= 4:
                time_ord_min += minutes

    def close_episode(who: str, end: int) -> None:
        start = episode_open.pop(who, None)
        if start is not None:
            episodes.setdefault(who, []).append((start, end))

    for event in log:
        who = event.specialist
        data = event.data
        if event.type == "ord_change":
            level = _require(data, "ord", event.type)
            on_task = _require(data, "on_task", event.type)
            close_span(who, event.time)
            spans[who] = (event.time, level, on_task)
            if on_task and level >= 4:
                episode_open.setdefault(who, event.time)
            else:
                close_episode(who, event.time)
        elif event.type == "shift_start":
            spans[who] = None
        elif event.type == "shift_end":
            if spans.get(who) is None:
                raise ValueError(
                    f"shift of {who} ending at t={event.time} has no ord_change "
                    "record: the log predates ord_change records and its "
                    "state_sample records are not folded; re-run the scenario"
                )
            close_span(who, event.time + 60)
            close_episode(who, event.time + 60)
            spans[who] = None
        elif event.type == "fatigue_event":
            fatigue_events += 1
        elif event.type == "ict_intervention":
            interventions += 1
        elif event.type == "break_start":
            initiator = _require(data, "initiator", event.type)
            if initiator == "invited":
                invited += 1
            elif initiator == "self":
                impromptu += 1
        elif event.type == "incautious":
            incautious += 1
        elif event.type == "session_end":
            duration = _require(data, "duration_min", event.type)
            bucket = buckets[_session_bucket(duration)]
            bucket[0] += 1
            bucket[1] += 1 if data.get("had_incautious") else 0
        elif event.type == "escalation_resolved":
            if _require(data, "resolution", event.type) == "confirmed":
                confirmations.setdefault(who, []).append(event.time)

    for who, span in spans.items():
        if span is not None:
            raise ValueError(
                f"ord_change span of {who} from t={span[0]} has no shift_end record"
            )
    latencies: list[float] = []
    for who, windows in episodes.items():
        confirmed = sorted(confirmations.get(who, []))
        for start, end in windows:
            hit = next(
                (t for t in confirmed if start <= t <= end + DETECTION_GRACE_S), None
            )
            if hit is not None:
                latencies.append(hit - start)
    mean_latency = sum(latencies) / len(latencies) if latencies else None

    return Metrics(
        time_at_ord_ge4_min=time_ord_min,
        fatigue_event_count=fatigue_events,
        mean_detection_latency_s=mean_latency,
        interventions=interventions,
        invited_breaks=invited,
        impromptu_breaks=impromptu,
        incautious_events=incautious,
        on_task_min=on_task_min,
        incautious_by_session=tuple(
            (name, BucketStats(sessions=buckets[name][0], with_event=buckets[name][1]))
            for name in SESSION_BUCKETS
        ),
    )


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
