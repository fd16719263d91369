"""Shared helpers for event-log structural checks and config surgery."""

from __future__ import annotations

import dataclasses
import io
import math
from collections import Counter
from typing import Iterable, Optional, Union

from frmsim.config import HazardConfig, ScenarioConfig, Toggles, default_config
from frmsim.events import Event, EventLog, WrittenLog, read_jsonl
from frmsim.metrics import DETECTION_GRACE_S
from frmsim.sim import run_scenario
from frmsim.vigilance import OrdRating, RaterAgreement

# Record types owned by each countermeasure block; a disabled block must
# contribute none of its types to the log.
BLOCK_RECORD_TYPES = {
    "education": {"lifecycle"},
    "awareness": {"pfs", "pfs_reminder", "supervisor_outreach", "concern"},
    "vigilance": {
        "dms_flag",
        "alert",
        "rating_task",
        "rating",
        "supervisor_action",
        "escalation_opened",
        "escalation_resolved",
        "reliability",
        "rater_qualification",
        "vehicle_retrieved",
    },
    "engagement": {
        "ict_prompt",
        "ict_outcome",
        "ict_intervention",
        "ict_adapt",
        "pull_over",
        "control_transition",
        "sa_decision",
        "sa_issued",
        "sa_resolved",
    },
    "scheduling": {
        "impromptu_break",
        "invited_break_offer",
        "invited_break_declined",
        "decline_outreach",
        "assignment_change",
    },
}


# Record types that belong to no block: the shift, the driving session,
# the break, the ORD level and its optional trace, and what the hazard
# and the fatigue accounting log.
CORE_RECORD_TYPES = {
    "shift_start",
    "shift_end",
    "session_end",
    "break_start",
    "break_end",
    "ord_change",
    "state_sample",
    "incautious",
    "fatigue_event",
}


class Discard:
    """A binary stream that keeps nothing: a run streamed into it only
    hashes its log."""

    def write(self, data: bytes) -> int:
        return len(data)


def log_digest(cfg: ScenarioConfig, stats: Optional[dict] = None) -> str:
    """The SHA-256 of the log a run of ``cfg`` streams, as ``frmsim
    simulate`` writes it."""
    log, _ = run_scenario(cfg, stats=stats, stream=Discard())
    return log.written.digest


def stream_run(cfg: ScenarioConfig):
    """Run ``cfg`` streaming its log into memory: the log (its
    ``written`` says what it wrote), the metrics and the log's bytes."""
    stream = io.BytesIO()
    log, metrics = run_scenario(cfg, stream=stream)
    return log, metrics, stream.getvalue()


def read_log(lines: Union[bytes, Iterable[Union[str, bytes]]]) -> tuple[dict, list[Event]]:
    """A log's header data and its records, read by ``read_jsonl`` from
    its bytes or its lines."""
    events = read_jsonl(lines.splitlines() if isinstance(lines, bytes) else lines)
    return next(events).data, list(events)


def restream(header: dict, records: Iterable[Event], stream) -> WrittenLog:
    """Stream ``records``, read back from a log with ``header``, into a
    new log in ``stream``: what it wrote."""
    log = EventLog(header["seed"], header["config_hash"], stream)
    for time, type_, specialist, data in records:
        log.append(time, type_, specialist, **data)
    log.close()
    return log.written


def batch_kappa(ratings: Iterable[OrdRating]) -> float:
    """The mean pairwise kappa over ``ratings``, grouped by task here
    rather than by the runner, and folded task by task."""
    by_task: dict[str, list[OrdRating]] = {}
    for rating in ratings:
        by_task.setdefault(rating.task_id, []).append(rating)
    agreement = RaterAgreement()
    for task_ratings in by_task.values():
        agreement.add_task(task_ratings)
    return agreement.kappa()


# Record types a specialist may have between their shift_end and their
# next shift_start: the remote validation of recorded footage and its
# consequences. Everything else is work in the vehicle, which the shift
# end closes.
OFF_SHIFT_RECORD_TYPES = {"rating", "escalation_resolved", "lifecycle", "fatigue_event"}


def off_shift_records(log: Iterable[Event]) -> list[Event]:
    """Every record of a specialist logged between their ``shift_end`` and
    their next ``shift_start``, of any type."""
    off_shift: set[str] = set()
    found = []
    for event in log:
        if event.type == "shift_end":
            off_shift.add(event.specialist)
        elif event.type == "shift_start":
            off_shift.discard(event.specialist)
        elif event.specialist in off_shift:
            found.append(event)
    return found


def carried_followups(log: Iterable[Event]) -> list[Event]:
    """Follow-up ``pfs`` records that answer a survey logged in an earlier
    shift of the same specialist."""
    shifts: dict[str, int] = {}
    shift_of: dict[str, int] = {}
    found = []
    for event in log:
        who = event.specialist
        if event.type == "shift_start":
            shifts[who] = shifts.get(who, 0) + 1
        elif event.type == "pfs":
            shift_of[event.data["record_id"]] = shifts[who]
            if event.data["is_followup"] and shift_of[event.data["triggered_by"]] != shifts[who]:
                found.append(event)
    return found


def assert_log_conserved(log: Iterable[Event]) -> None:
    """Every prompt, alert issuance, and escalation case terminates
    exactly once, each specialist's breaks start and end in turn and all
    end within the log, timestamps never decrease, a specialist logs
    only ``OFF_SHIFT_RECORD_TYPES`` between a shift end and their next
    shift start, and no follow-up survey answers one of an earlier
    shift. A second has at most one ``reliability`` record; its kappa is
    the batch fold of every ``rating`` record logged before it, and its
    ``ratings`` counts those on tasks that more than one rater rated."""
    previous = None
    prompts: dict[str, int] = {}
    sa_issued: dict[str, int] = {}
    cases: dict[str, int] = {}
    on_break: dict[str, bool] = {}
    ratings: list[OrdRating] = []
    reliability_times: set[int] = set()
    for event in log:
        if previous is not None:
            assert event.time >= previous, "timestamp regression in log"
        previous = event.time
        if event.type == "ict_prompt":
            prompts.setdefault(event.data["prompt_id"], 0)
        elif event.type == "ict_outcome":
            pid = event.data["prompt_id"]
            assert pid in prompts, f"outcome for unknown prompt {pid}"
            prompts[pid] += 1
        elif event.type == "sa_issued":
            sa_issued.setdefault(event.data["sa_id"], 0)
        elif event.type == "sa_resolved":
            sid = event.data["sa_id"]
            assert sid in sa_issued, f"resolution for unknown alert {sid}"
            sa_issued[sid] += 1
        elif event.type == "escalation_opened":
            cases.setdefault(event.data["case_id"], 0)
        elif event.type == "escalation_resolved":
            cid = event.data["case_id"]
            assert cid in cases, f"resolution for unknown case {cid}"
            cases[cid] += 1
        elif event.type in ("break_start", "break_end"):
            starts = event.type == "break_start"
            assert on_break.get(event.specialist, False) != starts, (
                f"{event.type} of {event.specialist} at {event.time} out of turn"
            )
            on_break[event.specialist] = starts
        elif event.type == "rating":
            data = event.data
            ratings.append(OrdRating(data["rater_id"], data["task_id"], data["level"]))
        elif event.type == "reliability":
            assert event.time not in reliability_times, (
                f"second reliability record at {event.time}"
            )
            reliability_times.add(event.time)
            kappa = round(batch_kappa(ratings), 6)
            assert event.data["kappa"] == kappa, (
                f"reliability at {event.time}: kappa {event.data['kappa']}, "
                f"the rating records fold to {kappa}"
            )
            per_task = Counter(r.task_id for r in ratings)
            shared = sum(n for n in per_task.values() if n > 1)
            assert event.data["ratings"] == shared, (
                f"reliability at {event.time} counts {event.data['ratings']} "
                f"ratings, {shared} are on shared tasks"
            )
    unclosed = sorted(who for who, open_ in on_break.items() if open_)
    assert not unclosed, f"breaks never ended for {unclosed}"
    for name, counts in (("prompt", prompts), ("sa", sa_issued), ("case", cases)):
        for key, count in counts.items():
            assert count == 1, f"{name} {key} has {count} terminal records"
    for event in off_shift_records(log):
        assert event.type in OFF_SHIFT_RECORD_TYPES, (
            f"{event.type} of {event.specialist} at {event.time} after their shift_end"
        )
    carried = carried_followups(log)
    assert not carried, (
        f"follow-up {carried[0].data['record_id']} at {carried[0].time} answers "
        f"{carried[0].data['triggered_by']} of an earlier shift"
    )


def reliability_checkpoints(cfg: ScenarioConfig, log: Iterable[Event]) -> list[int]:
    """Oracle: the seconds at which a run of ``cfg`` that logged ``log``
    logs a ``reliability`` record. With vigilance on, a shift has a
    checkpoint at each minute check, up to its end, that falls a whole
    number of ``reliability_interval_min`` into it; one logs once two
    raters' ratings of a task were logged in an earlier second
    (validations run after the minute checks)."""
    if not cfg.toggles.vigilance:
        return []
    interval_s = int(cfg.vigilance.reliability_interval_min * 60)
    shift_s = cfg.shift.duration_min * 60
    rated: set[str] = set()
    first_shared = None
    for event in log:
        if event.type == "rating":
            task = event.data["task_id"]
            if task in rated:
                first_shared = event.time
                break
            rated.add(task)
    if first_shared is None:
        return []
    starts = sorted({event.time for event in log if event.type == "shift_start"})
    return [
        start + offset
        for start in starts
        for offset in range(60, shift_s + 1, 60)
        if offset % interval_s == 0 and start + offset > first_shared
    ]


def fold_state_samples(log: Iterable[Event]) -> dict:
    """Oracle: the ORD metrics folded from the ``state_sample`` trace, as
    ``compute_metrics`` folded them before ``ord_change`` records. Each
    sample credits its ``period_s``; an episode opens at an on-task
    sample at ORD >= 4 and closes at the next sample that is not one or,
    at the specialist's ``shift_end``, where the last sample's credit
    ends."""
    time_ord_min = 0.0
    on_task_min = 0.0
    episode_open: dict[str, int] = {}
    episodes: list[tuple[str, int, int]] = []
    credited_until: dict[str, int] = {}
    confirmations: dict[str, list[int]] = {}
    for event in log:
        who = event.specialist
        if event.type == "shift_end" and who in episode_open:
            episodes.append((who, episode_open.pop(who), credited_until[who]))
        elif event.type == "state_sample":
            credited_until[who] = event.time + event.data["period_s"]
            if event.data["on_task"]:
                on_task_min += event.data["period_s"] / 60.0
                if event.data["ord"] >= 4:
                    time_ord_min += event.data["period_s"] / 60.0
                    episode_open.setdefault(who, event.time)
                    continue
            if who in episode_open:
                episodes.append((who, episode_open.pop(who), event.time))
        elif event.type == "escalation_resolved" and event.data["resolution"] == "confirmed":
            confirmations.setdefault(who, []).append(event.time)
    latencies = []
    for who, start, end in episodes:
        hits = [
            t for t in confirmations.get(who, []) if start <= t <= end + DETECTION_GRACE_S
        ]
        if hits:
            latencies.append(min(hits) - start)
    return {
        "time_at_ord_ge4_min": time_ord_min,
        "on_task_min": on_task_min,
        "mean_detection_latency_s": sum(latencies) / len(latencies) if latencies else None,
    }


def incautious_vs_hazard(hazard: HazardConfig, log: Iterable[Event]) -> tuple[int, float, float]:
    """Oracle: the ``incautious`` count of a log traced at 60 s, with its
    mean and variance under ``hazard``. The run draws the hazard once per
    on-task minute at the rate of that minute's ``state_sample``, and
    each rate is set before its draw, so the count has the summed rates
    r as its mean and the summed r(1 - r) as its variance, whatever
    blocks are on. Returns (observed, expected, variance)."""
    observed = 0
    expected = variance = 0.0
    for event in log:
        if event.type == "incautious":
            observed += 1
        elif event.type == "state_sample" and event.data["on_task"]:
            assert event.data["period_s"] == 60, "the hazard oracle needs a trace every minute"
            rate = hazard.rate(event.data["task_load"], event.data["alertness"])
            expected += rate
            variance += rate * (1.0 - rate)
    return observed, expected, variance


def z_score(observed: float, expected: float, variance: float) -> float:
    """How many standard deviations ``observed`` lies from ``expected``."""
    if variance > 0:
        return (observed - expected) / math.sqrt(variance)
    return 0.0 if observed == expected else math.copysign(math.inf, observed - expected)


def assert_trace_observes_only(cfg: ScenarioConfig) -> EventLog:
    """Run ``cfg`` without and with the state trace at 60 s. The trace
    adds only ``state_sample`` records and leaves the metrics unchanged,
    and the metrics equal the oracle's fold of the trace. Returns the
    traced log."""
    plain_log, plain = run_scenario(dataclasses.replace(cfg, sample_period_s=0))
    traced_log, traced = run_scenario(dataclasses.replace(cfg, sample_period_s=60))
    assert not any(event.type == "state_sample" for event in plain_log)
    assert [e for e in traced_log if e.type != "state_sample"] == list(plain_log), (
        "the traced run logs other records than the untraced one"
    )
    assert traced == plain, "the trace changes the metrics"
    assert dataclasses.replace(traced, **fold_state_samples(traced_log)) == traced
    return traced_log


def cfg_with(seed: int = 0, **dotted) -> ScenarioConfig:
    """Default config with dotted-path overrides, e.g.
    ``cfg_with(**{"dms.false_negative_rate": 1.0})``."""
    data = default_config(seed=seed).to_dict()
    for path, value in dotted.items():
        node = data
        parts = path.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value
    return ScenarioConfig.from_dict(data)


def only(block: str) -> Toggles:
    return Toggles(
        **{
            name: name == block
            for name in ("education", "awareness", "vigilance", "engagement", "scheduling")
        }
    )
