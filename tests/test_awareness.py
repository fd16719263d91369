import random

import pytest

from frmsim.awareness import (
    ConcernChannel,
    ConcernStatus,
    PfsAction,
    PfsRecord,
    open_concern,
    pfs_trend,
    submit_pfs,
    trend_to_csv,
)


def _expected_action(kss: int, is_followup: bool) -> PfsAction:
    # Rule oracle: threshold 6, outreach only on follow-ups.
    if kss < 6:
        return PfsAction.NONE
    return (
        PfsAction.SUPERVISOR_OUTREACH
        if is_followup
        else PfsAction.SUGGEST_BREAK_AND_FOLLOWUP
    )


def test_outcomes_exhaustive_over_kss_and_followup():
    for kss in range(1, 10):
        for is_followup in (False, True):
            record, outcome = submit_pfs(
                "as-0",
                kss,
                1000.0,
                is_followup=is_followup,
                triggered_by="pfs-prior" if is_followup else None,
            )
            assert record.kss == kss
            assert outcome.action is _expected_action(kss, is_followup)
            if outcome.action is PfsAction.SUPERVISOR_OUTREACH:
                assert outcome.tips


def test_kss_out_of_range_rejected():
    with pytest.raises(ValueError):
        submit_pfs("as-0", 0, 0.0)
    with pytest.raises(ValueError):
        submit_pfs("as-0", 10, 0.0)


def test_followup_must_reference_trigger():
    with pytest.raises(ValueError):
        PfsRecord(record_id="x", specialist_id="as-0", timestamp=0, kss=5, is_followup=True)


def test_record_window_is_five_minutes():
    record, _ = submit_pfs("as-0", 4, 0.0)
    assert record.window_minutes == 5


# -- trends -------------------------------------------------------------------


def _records(values, specialist="as-0", start=0.0, spacing=600.0):
    return [
        PfsRecord(
            record_id=f"p{i}",
            specialist_id=specialist,
            timestamp=start + i * spacing,
            kss=v,
        )
        for i, v in enumerate(values)
    ]


def test_constant_series_trend():
    summary = pfs_trend(_records([4, 4, 4, 4]), (0.0, 1e6))
    assert summary.mean == 4.0
    assert summary.max == 4
    assert summary.crossings_of_6 == 0


def test_crossings_counted_on_upward_transitions():
    summary = pfs_trend(_records([3, 4, 6, 5, 7]), (0.0, 1e6))
    series = [3, 4, 6, 5, 7]
    expected = sum(
        1 for a, b in zip(series, series[1:]) if a < 6 <= b
    )
    assert expected == 2
    assert summary.crossings_of_6 == expected


def test_empty_window_gives_empty_summary():
    summary = pfs_trend(_records([3, 4]), (1e9, 2e9))
    assert summary.count == 0
    assert summary.mean is None
    assert summary.max is None
    assert summary.shift_series == ()


def test_trend_invariant_under_reordering():
    records = _records([2, 7, 3, 6, 5, 8])
    rng = random.Random(13)
    reference = pfs_trend(records, (0.0, 1e6))
    for _ in range(20):
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert pfs_trend(shuffled, (0.0, 1e6)) == reference


def test_trend_has_no_per_specialist_score():
    summary = pfs_trend(_records([3, 7]), (0.0, 1e6))
    field_names = set(vars(summary))
    assert "per_specialist_scores" not in field_names
    csv_text = trend_to_csv(summary)
    assert "mean" in csv_text


# -- concern tickets ------------------------------------------------------------


def test_anonymous_ticket_round_trips_without_identity():
    ticket = open_concern(
        ConcernChannel.ANONYMOUS_SURVEY,
        "shift pattern concern",
        anonymous=True,
        specialist_id="as-0",
    )
    record = ticket.to_record()
    assert "specialist_id" not in record
    assert record["channel"] == ConcernChannel.ANONYMOUS_SURVEY.value


def test_identified_ticket_keeps_identity():
    ticket = open_concern(
        ConcernChannel.SUPERVISOR_DIRECT,
        "fatigue concern",
        anonymous=False,
        specialist_id="as-0",
    )
    assert ticket.status is ConcernStatus.OPEN
    assert ticket.to_record()["specialist_id"] == "as-0"


def test_anonymous_channel_requires_anonymity():
    with pytest.raises(ValueError):
        open_concern(ConcernChannel.ANONYMOUS_SURVEY, "x", anonymous=False)


def test_formal_rating_interface_takes_no_survey_input():
    # The drowsiness aggregation consumes observer ratings only; there is
    # no parameter through which a self-report could enter.
    import inspect

    from frmsim.vigilance import aggregate

    parameters = inspect.signature(aggregate).parameters
    assert list(parameters) == ["ratings"]
