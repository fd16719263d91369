"""Output checks the benchmark applies to every operation.

A check returns a list of problems; an empty list means the output is
correct. The record types owned by each countermeasure block mirror the
block-isolation rule of the test suite: a disabled block must log none
of them.
"""

from __future__ import annotations

import json

BLOCK_RECORD_TYPES = {
    "education": {"lifecycle"},
    "awareness": {"pfs", "pfs_reminder", "supervisor_outreach", "concern"},
    "vigilance": {
        "dms_flag", "alert", "rating_task", "rating", "supervisor_action",
        "escalation_opened", "escalation_resolved", "reliability",
        "rater_qualification", "vehicle_retrieved",
    },
    "engagement": {
        "ict_prompt", "ict_outcome", "ict_intervention", "ict_adapt",
        "pull_over", "control_transition", "sa_decision", "sa_issued",
        "sa_resolved",
    },
    "scheduling": {
        "impromptu_break", "invited_break_offer", "invited_break_declined",
        "decline_outreach", "assignment_change",
    },
}

# Opening record type -> (closing record type, id field). Every opened
# item must be closed exactly once.
_CONSERVED = {
    "ict_prompt": ("ict_outcome", "prompt_id"),
    "sa_issued": ("sa_resolved", "sa_id"),
    "escalation_opened": ("escalation_resolved", "case_id"),
}
_CLOSERS = {close: (open_, key) for open_, (close, key) in _CONSERVED.items()}


class LogSummary:
    """What one pass over a log records: counts per record type,
    on-shift specialist-hours and the timestamps of reliability records."""

    def __init__(self) -> None:
        self.type_counts: dict[str, int] = {}
        self.on_shift_s = 0
        self.reliability_times: list[int] = []
        self.problems: list[str] = []

    @property
    def events(self) -> int:
        return sum(self.type_counts.values())

    @property
    def on_shift_hours(self) -> float:
        return self.on_shift_s / 3600.0


def summarize(records, disabled_blocks) -> LogSummary:
    """Check ``records`` (an iterable of ``(time, type, specialist,
    data)``) and summarize them in one pass."""
    summary = LogSummary()
    forbidden = set()
    for block in disabled_blocks:
        forbidden |= BLOCK_RECORD_TYPES[block]
    open_items = {name: {} for name in _CONSERVED}
    shift_start: dict[str, int] = {}
    previous = None
    for time, type_, who, data in records:
        summary.type_counts[type_] = summary.type_counts.get(type_, 0) + 1
        if previous is not None and time < previous:
            summary.problems.append(f"timestamp regression {time} < {previous}")
        previous = time
        if type_ in forbidden:
            summary.problems.append(f"disabled block logged a {type_} record")
        if type_ in _CONSERVED:
            items = open_items[type_]
            item_id = data[_CONSERVED[type_][1]]
            if item_id in items:
                summary.problems.append(f"{type_} {item_id} opened twice")
            items[item_id] = 0
        elif type_ in _CLOSERS:
            opener, key = _CLOSERS[type_]
            item_id = data[key]
            items = open_items[opener]
            if item_id not in items:
                summary.problems.append(f"{type_} for unknown {opener} {item_id}")
            else:
                items[item_id] += 1
        elif type_ == "shift_start":
            shift_start[who] = time
        elif type_ == "shift_end":
            summary.on_shift_s += time - shift_start.pop(who, time)
        elif type_ == "reliability":
            summary.reliability_times.append(time)
    for opener, items in open_items.items():
        for item_id, closes in items.items():
            if closes != 1:
                summary.problems.append(f"{opener} {item_id} closed {closes} times")
    return summary


def jsonl_records(path):
    """Stream ``(time, type, specialist, data)`` from a persisted log."""
    with open(path) as lines:
        for line in lines:
            record = json.loads(line)
            yield record["t"], record["type"], record["specialist"], record["data"]


def log_records(log):
    """``(time, type, specialist, data)`` from an in-memory EventLog."""
    for event in log:
        yield event.time, event.type, event.specialist, event.data


def disabled_blocks(toggles) -> list[str]:
    return [name for name in BLOCK_RECORD_TYPES if not getattr(toggles, name)]
