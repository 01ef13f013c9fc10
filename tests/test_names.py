"""Unit tests for ADU names and pages."""

import copy
import pickle

import pytest

from repro.core.names import DEFAULT_PAGE, AduName, PageId, name_range


def test_page_identity_and_ordering():
    a = PageId(1, 1)
    b = PageId(1, 2)
    c = PageId(2, 1)
    assert a == PageId(1, 1)
    assert a < b < c
    assert str(a) == "page(1:1)"


def test_names_are_value_objects():
    a = AduName(3, DEFAULT_PAGE, 5)
    b = AduName(3, DEFAULT_PAGE, 5)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_name_ordering_by_source_page_seq():
    names = [AduName(2, DEFAULT_PAGE, 1), AduName(1, DEFAULT_PAGE, 9),
             AduName(1, DEFAULT_PAGE, 2)]
    assert sorted(names) == [AduName(1, DEFAULT_PAGE, 2),
                             AduName(1, DEFAULT_PAGE, 9),
                             AduName(2, DEFAULT_PAGE, 1)]


def test_sequence_numbers_start_at_one():
    with pytest.raises(ValueError):
        AduName(1, DEFAULT_PAGE, 0)
    with pytest.raises(ValueError):
        AduName(1, DEFAULT_PAGE, -3)


def test_name_str():
    name = AduName(3, PageId(3, 7), 12)
    assert str(name) == "3:3.7:12"


def test_name_range():
    names = name_range(1, DEFAULT_PAGE, 2, 4)
    assert [n.seq for n in names] == [2, 3, 4]
    assert name_range(1, DEFAULT_PAGE, 5, 4) == []


def test_names_immutable():
    name = AduName(1, DEFAULT_PAGE, 1)
    with pytest.raises(AttributeError):
        name.seq = 2  # type: ignore[misc]
    with pytest.raises(AttributeError):
        name.extra = 2  # type: ignore[attr-defined]
    with pytest.raises(AttributeError):
        DEFAULT_PAGE.number = 2  # type: ignore[misc]


def test_repr_and_keyword_construction():
    name = AduName(source=3, page=PageId(creator=3, number=7), seq=12)
    assert name == AduName(3, PageId(3, 7), 12)
    assert repr(name) == \
        "AduName(source=3, page=PageId(creator=3, number=7), seq=12)"
    assert (name.source, name.page.creator, name.page.number, name.seq) \
        == (3, 3, 7, 12)
    with pytest.raises(ValueError):
        AduName(source=3, page=DEFAULT_PAGE, seq=0)


def test_ordering_is_field_tuple_ordering():
    fields = [(2, (0, 0), 1), (1, (0, 1), 1), (1, (0, 0), 9),
              (1, (0, 0), 2), (1, (1, 0), 1)]
    names = [AduName(source, PageId(*page), seq)
             for source, page, seq in fields]
    assert [tuple(name) for name in sorted(names)] == sorted(fields)
    assert max(names) == AduName(2, DEFAULT_PAGE, 1)
    assert sorted(PageId(*page) for _, page, _ in fields) == \
        sorted(page for _, page, _ in fields)


def test_names_are_tuples_of_their_fields():
    """Names hash, compare and order in C because they *are* tuples; so a
    name equals the plain tuple of its fields and either finds the other
    in a dict."""
    name = AduName(3, PageId(3, 7), 12)
    assert isinstance(name, tuple)
    assert name == (3, (3, 7), 12) and name.page == (3, 7)
    assert hash(name) == hash((3, (3, 7), 12))
    assert {name: "held"}[(3, (3, 7), 12)] == "held"
    source, page, seq = name
    assert (source, page, seq) == (3, PageId(3, 7), 12)


def test_equal_but_distinct_names_are_one_dict_key():
    first = AduName(3, PageId(3, 7), 12)
    second = AduName(3, PageId(3, 7), 12)
    assert first is not second
    table = {first: "held"}
    assert table[second] == "held"
    table[second] = "replaced"
    assert table == {first: "replaced"} and len(table) == 1
    assert {PageId(3, 7): 1}[PageId(3, 7)] == 1


@pytest.mark.parametrize("clone", [
    lambda value: pickle.loads(pickle.dumps(value)),
    lambda value: pickle.loads(pickle.dumps(value, protocol=2)),
    copy.deepcopy, copy.copy], ids=["pickle", "pickle2", "deepcopy", "copy"])
def test_names_survive_pickle_and_copy(clone):
    name = AduName(3, PageId(3, 7), 12)
    twin = clone(name)
    assert twin == name and hash(twin) == hash(name)
    assert type(twin) is AduName and type(twin.page) is PageId
    assert repr(twin) == repr(name) and str(twin) == "3:3.7:12"
