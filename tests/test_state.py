"""Unit + property tests for the data store and reception state."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.names import DEFAULT_PAGE, AduName, PageId
from repro.core.state import DataStore, NameRebindError, ReceptionState


def name(seq, source=1, page=DEFAULT_PAGE):
    return AduName(source, page, seq)


# ----------------------------------------------------------------------
# DataStore
# ----------------------------------------------------------------------

def test_store_put_and_get():
    store = DataStore()
    assert store.put(name(1), "a") is True
    assert store.have(name(1))
    assert name(1) in store
    assert store.get(name(1)) == "a"
    assert len(store) == 1


def test_store_duplicate_put_same_data_is_noop():
    store = DataStore()
    store.put(name(1), "a")
    assert store.put(name(1), "a") is False
    assert len(store) == 1


def test_store_rebind_raises():
    # "The name always refers to the same data" (Section II-C).
    store = DataStore()
    store.put(name(1), "blue line")
    with pytest.raises(NameRebindError):
        store.put(name(1), "red circle")


def test_store_evict():
    store = DataStore()
    store.put(name(1), "a")
    store.evict(name(1))
    assert not store.have(name(1))
    store.evict(name(1))  # idempotent


# ----------------------------------------------------------------------
# ReceptionState
# ----------------------------------------------------------------------

def outstanding(state, arrivals, source=1, page=DEFAULT_PAGE):
    """Feed ``arrivals`` (names received, or ``(source, page, seq)``
    high-water reports) to ``state``: the names revealed missing and not
    received since, sorted, for one stream."""
    missing = set()
    for arrival in arrivals:
        if isinstance(arrival, AduName):
            missing.update(state.mark_received(arrival))
            missing.discard(arrival)
        else:
            missing.update(state.note_high_water(*arrival))
    return sorted(adu for adu in missing
                  if adu.source == source and adu.page == page)


def test_in_order_reception_reveals_no_gaps():
    state = ReceptionState()
    assert state.mark_received(name(1)) == []
    assert state.mark_received(name(2)) == []
    assert state.highest_seq(1, DEFAULT_PAGE) == 2


def test_gap_detection():
    state = ReceptionState()
    state.mark_received(name(1))
    revealed = state.mark_received(name(4))
    assert revealed == [name(2), name(3)]
    assert state.high_water_table(DEFAULT_PAGE) == {1: 4}


def test_first_packet_with_high_seq_reveals_prefix():
    # Streams start at sequence 1: receiving 3 first implies 1-2 missing.
    state = ReceptionState()
    revealed = state.mark_received(name(3))
    assert revealed == [name(1), name(2)]


def test_filling_a_gap_reveals_nothing_new():
    state = ReceptionState()
    assert outstanding(state, [name(1), name(4)]) == [name(2), name(3)]
    assert state.mark_received(name(2)) == []
    assert state.highest_seq(1, DEFAULT_PAGE) == 4
    assert outstanding(ReceptionState(), [name(1), name(4), name(2)]) \
        == [name(3)]


def test_duplicate_reception_is_harmless():
    state = ReceptionState()
    assert state.mark_received(name(2)) == [name(1)]
    assert state.mark_received(name(2)) == []
    assert state.page_state(DEFAULT_PAGE) == {(1, DEFAULT_PAGE): 2}


def test_note_high_water_reveals_tail_losses():
    # Session messages announce the highest seq; a dropped *last* packet
    # is only detectable this way (Section III-A).
    state = ReceptionState()
    state.mark_received(name(1))
    revealed = state.note_high_water(1, DEFAULT_PAGE, 3)
    assert revealed == [name(2), name(3)]
    assert state.highest_seq(1, DEFAULT_PAGE) == 3


def test_note_high_water_below_current_is_noop():
    state = ReceptionState()
    state.mark_received(name(5))
    assert state.note_high_water(1, DEFAULT_PAGE, 3) == []
    assert state.note_high_water(1, DEFAULT_PAGE, 0) == []


def test_streams_are_independent():
    state = ReceptionState()
    assert state.mark_received(name(3, source=1)) == [name(1), name(2)]
    assert state.mark_received(name(1, source=2)) == []
    assert state.high_water_table(DEFAULT_PAGE) == {1: 3, 2: 1}


def test_pages_are_independent():
    state = ReceptionState()
    page_b = PageId(1, 5)
    assert state.mark_received(name(2, page=page_b)) == [name(1, page=page_b)]
    assert state.page_state(DEFAULT_PAGE) == {}
    assert state.page_state(page_b) == {(1, page_b): 2}


def test_page_state_reports_per_page():
    state = ReceptionState()
    page_b = PageId(1, 5)
    state.mark_received(name(2))
    state.mark_received(name(7, source=3))
    state.mark_received(name(1, page=page_b))
    report = state.page_state(DEFAULT_PAGE)
    assert report == {(1, DEFAULT_PAGE): 2, (3, DEFAULT_PAGE): 7}


def test_streams_listing():
    state = ReceptionState()
    state.mark_received(name(1, source=2))
    state.mark_received(name(1, source=1))
    # In first-heard order, the order a session report lists them.
    assert list(state.page_state(DEFAULT_PAGE)) == [
        (2, DEFAULT_PAGE), (1, DEFAULT_PAGE)]


# ----------------------------------------------------------------------
# Stream adoption (live substreams, Section IX-C)
# ----------------------------------------------------------------------

def test_adopted_stream_skips_history():
    state = ReceptionState(adopt_streams=True)
    assert state.mark_received(name(10)) == []
    assert state.highest_seq(1, DEFAULT_PAGE) == 10


def test_adopted_stream_still_detects_later_gaps():
    state = ReceptionState(adopt_streams=True)
    state.mark_received(name(10))
    revealed = state.mark_received(name(13))
    assert revealed == [name(11), name(12)]
    assert state.high_water_table(DEFAULT_PAGE) == {1: 13}


def test_adopted_stream_high_water_does_not_chase_history():
    state = ReceptionState(adopt_streams=True)
    assert state.note_high_water(1, DEFAULT_PAGE, 50) == []
    assert state.page_state(DEFAULT_PAGE) == {(1, DEFAULT_PAGE): 50}
    # But data after the adoption point is tracked normally.
    assert state.mark_received(name(52)) == [name(51)]


def test_adoption_is_per_stream():
    state = ReceptionState(adopt_streams=True)
    state.mark_received(name(10, source=1))
    revealed = state.mark_received(name(3, source=2))
    assert revealed == []  # source 2 adopted at 3
    assert state.mark_received(name(5, source=2)) == [name(4, source=2)]


@settings(max_examples=100, deadline=None)
@given(seqs=st.lists(st.integers(1, 30), min_size=1, max_size=30))
def test_property_adopted_missing_never_precedes_first_arrival(seqs):
    state = ReceptionState(adopt_streams=True)
    first = seqs[0]
    for missing in outstanding(state, [name(seq) for seq in seqs]):
        assert missing.seq > first


@settings(max_examples=100, deadline=None)
@given(seqs=st.lists(st.integers(1, 30), min_size=1, max_size=30))
def test_property_missing_is_exact_complement(seqs):
    """Whatever the arrival order, the names revealed missing and not
    received since are {1..max} minus received."""
    state = ReceptionState()
    received = set(seqs)
    expected = [name(s) for s in range(1, max(seqs) + 1)
                if s not in received]
    assert outstanding(state, [name(seq) for seq in seqs]) == expected
    assert state.highest_seq(1, DEFAULT_PAGE) == max(seqs)


@settings(max_examples=100, deadline=None)
@given(seqs=st.lists(st.integers(1, 30), min_size=1, max_size=30),
       high=st.integers(1, 40))
def test_property_revealed_names_are_each_revealed_once(seqs, high):
    """Each name is revealed missing at most once, and everything still
    missing at the end was revealed at some point (a name revealed early
    may of course be received later)."""
    state = ReceptionState()
    revealed = []
    for seq in seqs:
        revealed.extend(state.mark_received(name(seq)))
    revealed.extend(state.note_high_water(1, DEFAULT_PAGE, high))
    assert len(revealed) == len(set(revealed))
    # Everything up to the mark was either revealed or received.
    mark = state.highest_seq(1, DEFAULT_PAGE)
    assert mark == max(max(seqs), high)
    assert {name(s) for s in range(1, mark + 1)} \
        == set(revealed) | {name(s) for s in seqs}
    # Nothing received *before* its reveal is ever revealed.
    received_order = {}
    for index, seq in enumerate(seqs):
        received_order.setdefault(seq, index)
    for missing_name in revealed:
        first_rx = received_order.get(missing_name.seq)
        if first_rx is not None:
            # It must have been revealed by an earlier higher arrival.
            assert any(s > missing_name.seq for s in seqs[:first_rx])


# ----------------------------------------------------------------------
# Model-based: the page-indexed tables against a flat dict-of-sets model
# ----------------------------------------------------------------------

class FlatModel:
    """Reception state the obvious way: one dict per table, keyed by
    (source, page), every stream starting at sequence 1."""

    def __init__(self, adopt):
        self.adopt = adopt
        self.received, self.high, self.base = {}, {}, {}

    def _reveal(self, key, seq, exclude):
        base = self.base.get(key, 1)
        previous = self.high.get(key, base - 1)
        if seq <= previous:
            return []
        self.high[key] = seq
        got = self.received.setdefault(key, set())
        return [AduName(key[0], key[1], s)
                for s in range(max(previous + 1, base), seq + 1)
                if s != exclude and s not in got]

    def mark_received(self, adu):
        key = (adu.source, adu.page)
        if self.adopt and key not in self.base and key not in self.high:
            self.base[key] = adu.seq
        self.received.setdefault(key, set()).add(adu.seq)
        return self._reveal(key, adu.seq, adu.seq)

    def note_high_water(self, source, page, seq):
        key = (source, page)
        if self.adopt and key not in self.base and key not in self.high:
            self.base[key], self.high[key] = seq + 1, seq
            return []
        return self._reveal(key, seq, None)

    def missing(self, source, page):
        key = (source, page)
        base = self.base.get(key, 1)
        return [AduName(source, page, s)
                for s in range(base, self.high.get(key, base - 1) + 1)
                if s not in self.received.get(key, ())]


MODEL_PAGES = [DEFAULT_PAGE, PageId(1, 5), PageId(2, 5)]
MODEL_SOURCES = [1, 2, 3]

_model_ops = st.lists(
    st.tuples(st.booleans(), st.sampled_from(MODEL_SOURCES),
              st.sampled_from(MODEL_PAGES), st.integers(1, 12)),
    max_size=40)


@settings(max_examples=200, deadline=None)
@given(adopt=st.booleans(), ops=_model_ops)
def test_property_page_indexed_tables_match_the_flat_model(adopt, ops):
    state = ReceptionState(adopt_streams=adopt)
    model = FlatModel(adopt)
    missing = set()  # revealed, and not received since
    for is_data, source, page, seq in ops:
        # A fresh but equal PageId per call: lookups are by value.
        page = PageId(page.creator, page.number)
        if is_data:
            adu = AduName(source, page, seq)
            revealed = state.mark_received(adu)
            assert revealed == model.mark_received(adu)
            missing.update(revealed)
            missing.discard(adu)
        else:
            revealed = state.note_high_water(source, page, seq)
            assert revealed == model.note_high_water(source, page, seq)
            missing.update(revealed)
    assert sorted(key for page in MODEL_PAGES
                  for key in state.page_state(page)) == sorted(model.high)
    for page in MODEL_PAGES:
        report = state.page_state(page)
        # Same streams in the same (first-heard) order, this page's only.
        assert list(report.items()) == [
            (key, high) for key, high in model.high.items()
            if key[1] == page]
        report[(99, page)] = 1
        report.update(dict.fromkeys(report, 0))
        assert (99, page) not in state.page_state(page)
        for source in MODEL_SOURCES:
            key = (source, page)
            assert sorted(adu for adu in missing
                          if adu.source == source and adu.page == page) \
                == model.missing(source, page)
            assert state.highest_seq(source, page) == model.high.get(
                key, model.base.get(key, 1) - 1)
            assert state.high_water_table(page).get(source) \
                == model.high.get(key)


def test_queries_about_an_unheard_page_leave_no_record():
    state = ReceptionState()
    elsewhere = PageId(9, 9)
    assert state.page_state(elsewhere) == {}
    assert state.highest_seq(1, elsewhere) == 0
    assert state._pages == {}
