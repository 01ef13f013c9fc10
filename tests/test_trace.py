"""Unit tests for the trace recorder."""

from dataclasses import FrozenInstanceError

import pytest

from repro.sim.trace import (KINDS, RECV_DATA, SEND_DATA, SEND_REQUEST,
                             Trace, TraceRecord)


def test_record_and_len():
    trace = Trace()
    trace.record(1.0, 3, "send", seq=5)
    trace.record(2.0, 4, "recv", seq=5)
    assert len(trace) == 2


def test_disabled_trace_records_nothing():
    trace = Trace(keep=())
    seen = []
    trace.subscribe(seen.append)   # a catch-all turns no row on
    trace.record(1.0, 3, "send")
    trace.record(1.0, 3, SEND_DATA)
    assert len(trace) == 0 and seen == []
    assert trace.wanted == frozenset()


def test_filter_by_kind_and_node():
    trace = Trace()
    trace.record(1.0, 1, "send")
    trace.record(2.0, 2, "send")
    trace.record(3.0, 1, "recv")
    assert len(trace.filter(kind="send")) == 2
    assert len(trace.filter(node=1)) == 2
    assert len(trace.filter(kind="send", node=1)) == 1


def test_filter_with_predicate():
    trace = Trace()
    trace.record(1.0, 1, "send", seq=1)
    trace.record(2.0, 1, "send", seq=2)
    rows = trace.filter(predicate=lambda r: r.detail.get("seq") == 2)
    assert len(rows) == 1
    assert rows[0].time == 2.0


def test_count_with_detail_filters():
    trace = Trace()
    trace.record(1.0, 1, "send", name="a")
    trace.record(2.0, 2, "send", name="b")
    trace.record(3.0, 3, "send", name="a")
    assert trace.count("send") == 3
    assert trace.count("send", name="a") == 2
    assert trace.count("recv") == 0


def test_first_returns_earliest_by_append_order():
    trace = Trace()
    trace.record(5.0, 1, "send", tag="late")
    trace.record(1.0, 2, "send", tag="early-but-second")
    assert trace.first("send").detail["tag"] == "late"
    assert trace.first("missing") is None


def test_subscribe_sees_live_records():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append)
    trace.record(1.0, 1, "send")
    assert len(seen) == 1
    assert isinstance(seen[0], TraceRecord)


def test_clear_empties_records():
    trace = Trace()
    trace.record(1.0, 1, "send")
    trace.clear()
    assert len(trace) == 0


def test_dump_renders_rows():
    trace = Trace()
    trace.record(1.0, 1, "send", seq=9)
    text = trace.dump()
    assert "send" in text
    assert "seq=9" in text


def test_dump_with_limit():
    trace = Trace()
    for i in range(10):
        trace.record(float(i), i, "tick")
    assert len(trace.dump(limit=3).splitlines()) == 3


def test_iteration_yields_records_in_order():
    trace = Trace()
    trace.record(1.0, 1, "a")
    trace.record(2.0, 2, "b")
    assert [row.kind for row in trace] == ["a", "b"]


def test_unsubscribe_stops_delivery():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append)
    trace.record(1.0, 1, "send")
    trace.unsubscribe(seen.append)
    trace.record(2.0, 1, "send")
    assert len(seen) == 1


def test_unsubscribe_all_stops_every_listener_and_unwants_its_kinds():
    trace = Trace(keep=())
    seen = []
    trace.subscribe(seen.append)
    trace.subscribe(seen.append, kinds=[SEND_DATA])
    trace.record(1.0, 1, SEND_DATA)
    assert len(seen) == 2 and SEND_DATA in trace.wanted
    trace.unsubscribe_all()
    trace.unsubscribe_all()   # idempotent
    trace.record(2.0, 1, SEND_DATA)
    assert len(seen) == 2 and trace.wanted == frozenset()
    assert trace.kind_totals[SEND_DATA] == 2


def test_unsubscribe_unknown_listener_is_noop():
    trace = Trace()
    trace.unsubscribe(lambda row: None)  # never subscribed; no error


def test_listener_may_unsubscribe_itself_mid_delivery():
    trace = Trace()
    seen = []

    def once(row):
        seen.append(row.kind)
        trace.unsubscribe(once)

    trace.subscribe(once)
    trace.subscribe(lambda row: seen.append("other"))
    trace.record(1.0, 1, "first")
    trace.record(2.0, 1, "second")
    # `once` saw exactly one record; the other listener saw both, and
    # the mid-iteration removal did not skip it on the first delivery.
    assert seen == ["first", "other", "other"]


def test_listener_may_subscribe_another_mid_delivery():
    trace = Trace()
    seen = []

    def recruiter(row):
        seen.append("recruiter")
        trace.subscribe(lambda r: seen.append("recruit"))

    trace.subscribe(recruiter)
    trace.record(1.0, 1, "first")
    # The recruit was added during delivery but only hears later records.
    assert seen == ["recruiter"]
    trace.unsubscribe(recruiter)
    trace.record(2.0, 1, "second")
    assert seen == ["recruiter", "recruit"]


# ----------------------------------------------------------------------
# The fast row path (slot writes instead of the frozen __init__) and the
# per-kind listener routes must be invisible.
# ----------------------------------------------------------------------


def test_recorded_rows_equal_constructor_built_rows():
    trace = Trace()
    trace.record(1.0, 3, "send", seq=5)
    row = trace.records[0]
    built = TraceRecord(1.0, 3, "send", {"seq": 5})
    assert row == built
    assert hash(row) == hash(built)
    assert row.detail == built.detail
    assert repr(row) == repr(built)
    assert str(row) == str(built)
    # ``detail`` stays outside ==, the other three fields inside it.
    assert row == TraceRecord(1.0, 3, "send", {"seq": 6})
    assert row != TraceRecord(1.0, 3, "recv", {"seq": 5})
    assert row != TraceRecord(1.0, 4, "send", {"seq": 5})
    assert row != TraceRecord(1.5, 3, "send", {"seq": 5})


def test_recorded_rows_stay_frozen():
    trace = Trace()
    trace.record(1.0, 3, "send", seq=5)
    row = trace.records[0]
    with pytest.raises(FrozenInstanceError):
        row.time = 2.0
    with pytest.raises(FrozenInstanceError):
        row.detail = {}
    with pytest.raises(FrozenInstanceError):
        del row.kind
    assert row == TraceRecord(1.0, 3, "send")


def test_record_takes_keyword_fields_or_one_built_dict():
    trace = Trace()
    detail = {"name": "a", "delay": 0.5}
    trace.record(1.0, 3, "send", detail)
    trace.record(1.0, 3, "send", name="a", delay=0.5)
    first, second = trace.records
    assert first == second
    assert first.detail == second.detail
    assert first.detail is detail  # handed over, not copied
    # The four leading parameters are positional-only, so a detail field
    # may carry any of their names.
    trace.record(2.0, 3, "send", time=1, node=2, kind=3, detail=4)
    assert trace.records[-1].detail == {
        "time": 1, "node": 2, "kind": 3, "detail": 4}
    assert trace.records[-1].kind == "send"
    with pytest.raises(TypeError):
        trace.record(3.0, 3, "send", detail, extra=1)
    assert len(trace) == 3


def test_listeners_hear_rows_in_subscription_order():
    trace = Trace()
    seen = []
    trace.subscribe(lambda row: seen.append("all-1"))
    trace.subscribe(lambda row: seen.append("send-only"), kinds=[SEND_DATA])
    trace.subscribe(lambda row: seen.append("all-2"))
    trace.record(1.0, 1, SEND_DATA)
    trace.record(2.0, 1, RECV_DATA)
    assert seen == ["all-1", "send-only", "all-2", "all-1", "all-2"]
    # A kind that already has a route picks a later subscriber up, last.
    trace.subscribe(lambda row: seen.append("late"), kinds=[RECV_DATA])
    del seen[:]
    trace.record(3.0, 1, RECV_DATA)
    trace.record(4.0, 1, SEND_DATA)
    assert seen == ["all-1", "all-2", "late",
                    "all-1", "send-only", "all-2"]


def test_subscribe_rejects_a_bare_string_and_undeclared_kinds():
    """A bare string used to subscribe to its letters, and a misspelt
    kind was accepted; neither listener could ever be called."""
    trace = Trace()
    seen = []
    with pytest.raises(ValueError, match="one string"):
        trace.subscribe(seen.append, kinds="deliver")
    with pytest.raises(ValueError, match="send_reqeust"):
        trace.subscribe(seen.append, kinds=[SEND_REQUEST, "send_reqeust"])
    # A refused subscription leaves nothing behind.
    trace.record(1.0, 1, SEND_REQUEST)
    assert seen == []
    trace.subscribe(seen.append, kinds=frozenset(KINDS))
    trace.record(2.0, 1, SEND_REQUEST)
    assert [row.time for row in seen] == [2.0]


def test_kind_totals_count_every_row_and_survive_clear():
    trace = Trace()
    trace.record(1.0, 1, "send")
    trace.record(2.0, 1, "send")
    trace.record(2.0, 2, "recv")
    trace.clear()
    trace.record(3.0, 1, "send")
    assert trace.kind_totals == {"send": 3, "recv": 1}
    assert trace.count("send") == 1
    # A row nobody keeps or hears is still counted, just not built.
    trace.keep = ()
    trace.record(4.0, 1, "send")
    assert trace.kind_totals["send"] == 4
    assert trace.count("send") == 1


def test_wanted_follows_keep_and_named_subscriptions():
    trace = Trace(keep=[SEND_DATA])
    assert trace.keep == trace.wanted == {SEND_DATA}
    heard = []
    trace.subscribe(heard.append, kinds=[SEND_REQUEST])
    trace.subscribe(heard.append)   # a catch-all wants nothing
    assert trace.wanted == {SEND_DATA, SEND_REQUEST}
    trace.record(1.0, 1, SEND_REQUEST)
    trace.record(2.0, 1, RECV_DATA)
    assert [row.kind for row in trace] == []   # heard, not kept
    assert [row.kind for row in heard] == [SEND_REQUEST, SEND_REQUEST]
    trace.unsubscribe(heard.append)
    trace.unsubscribe(heard.append)
    assert trace.wanted == {SEND_DATA}
    trace.keep = None
    assert trace.wanted == frozenset(KINDS)
    trace.record(3.0, 1, RECV_DATA)
    trace.record(4.0, 1, "undeclared")   # kept: keep=None keeps any kind
    assert [row.kind for row in trace] == [RECV_DATA, "undeclared"]
    assert trace.kind_totals == {SEND_REQUEST: 1, RECV_DATA: 2,
                                 "undeclared": 1}
    with pytest.raises(ValueError, match="one string"):
        trace.keep = SEND_DATA
    with pytest.raises(ValueError, match="send_reqeust"):
        Trace(keep=["send_reqeust"])
