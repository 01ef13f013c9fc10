"""Unit tests for packets and addresses."""

import dataclasses

import pytest

from repro.net.packet import (
    DEFAULT_TTL,
    GroupAddress,
    Packet,
    is_multicast,
)


def test_group_address_identity():
    a = GroupAddress(1, "session")
    b = GroupAddress(1, "session")
    c = GroupAddress(2, "other")
    assert a == b
    assert a != c
    assert str(a) == "session"
    assert str(GroupAddress(7)) == "group-7"


def test_is_multicast():
    assert is_multicast(GroupAddress(1))
    assert not is_multicast(5)


def test_packet_defaults():
    packet = Packet(origin=1, dst=2, kind="data")
    assert packet.ttl == DEFAULT_TTL
    assert packet.initial_ttl == DEFAULT_TTL
    assert not packet.is_multicast
    assert packet.hops_travelled() == 0


def test_packet_multicast_flag():
    packet = Packet(origin=1, dst=GroupAddress(1), kind="data")
    assert packet.is_multicast


def test_forwarded_copy_decrements_ttl_only():
    packet = Packet(origin=1, dst=GroupAddress(1), kind="data", ttl=10)
    copy = packet.forwarded_copy()
    assert copy.ttl == 9
    assert copy.initial_ttl == 10
    assert copy.uid == packet.uid
    assert copy.origin == packet.origin
    assert copy.hops_travelled() == 1


def test_forwarded_copy_matches_the_constructor_field_by_field():
    """``forwarded_copy`` clones slot by slot; it must build what the
    constructor would, and refuse what the constructor refuses."""
    payload = ["shared, not copied"]
    packet = Packet(origin=4, dst=GroupAddress(2, "g"), kind="srm-data",
                    payload=payload, ttl=9, initial_ttl=12, size=640,
                    scope_zone="campus", sent_at=3.5)
    copy = packet.forwarded_copy()
    built = Packet(origin=4, dst=GroupAddress(2, "g"), kind="srm-data",
                   payload=payload, ttl=8, initial_ttl=12, size=640,
                   scope_zone="campus", uid=packet.uid, sent_at=3.5)
    for field in dataclasses.fields(Packet):
        assert getattr(copy, field.name) == getattr(built, field.name), \
            field.name
    assert copy == built and copy is not packet
    assert copy.payload is payload
    assert packet.ttl == 9  # the original is left alone
    last_hop = Packet(origin=4, dst=GroupAddress(2), kind="data", ttl=0)
    with pytest.raises(ValueError, match="negative ttl -1"):
        last_hop.forwarded_copy()
    with pytest.raises(ValueError, match="negative ttl -1"):
        dataclasses.replace(last_hop, ttl=-1)


def test_hops_travelled_accumulates():
    packet = Packet(origin=1, dst=GroupAddress(1), kind="data", ttl=10)
    twice = packet.forwarded_copy().forwarded_copy()
    assert twice.hops_travelled() == 2


def test_negative_ttl_rejected():
    with pytest.raises(ValueError):
        Packet(origin=1, dst=2, kind="data", ttl=-1)


def test_uids_are_unique():
    a = Packet(origin=1, dst=2, kind="data")
    b = Packet(origin=1, dst=2, kind="data")
    assert a.uid != b.uid


def test_explicit_initial_ttl_preserved():
    packet = Packet(origin=1, dst=2, kind="data", ttl=3, initial_ttl=8)
    assert packet.hops_travelled() == 5


def test_str_rendering():
    packet = Packet(origin=1, dst=2, kind="data", ttl=3)
    assert "data" in str(packet)
