"""Tests for parity-based FEC (Section VII-B's cited extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import WireFormatError
from repro.core.config import SrmConfig
from repro.core.fec import FecCodec, recover_missing, xor_parity
from repro.core.names import AduName, DEFAULT_PAGE
from repro.net.link import MatchDropFilter, NthPacketDropFilter
from repro.topology.chain import chain

from conftest import build_srm_session


# ----------------------------------------------------------------------
# Pure parity math
# ----------------------------------------------------------------------

def test_xor_parity_roundtrip_equal_lengths():
    blobs = [b"aaaa", b"bbbb", b"cccc"]
    parity, lengths = xor_parity(blobs)
    rebuilt = recover_missing(parity, [blobs[0], blobs[2]], lengths[1])
    assert rebuilt == b"bbbb"


def test_xor_parity_roundtrip_mixed_lengths():
    blobs = [b"x", b"yyyyy", b"zz"]
    parity, lengths = xor_parity(blobs)
    for index in range(3):
        present = [blob for i, blob in enumerate(blobs) if i != index]
        assert recover_missing(parity, present, lengths[index]) \
            == blobs[index]


@settings(max_examples=60, deadline=None)
@given(blobs=st.lists(st.binary(min_size=0, max_size=40), min_size=2,
                      max_size=8),
       missing=st.integers(0, 7))
def test_property_any_single_loss_recoverable(blobs, missing):
    missing %= len(blobs)
    parity, lengths = xor_parity(blobs)
    present = [blob for index, blob in enumerate(blobs)
               if index != missing]
    assert recover_missing(parity, present, lengths[missing]) \
        == blobs[missing]


def test_codec_requires_sane_block():
    network, agents, _ = build_srm_session(chain(2), range(2))
    with pytest.raises(ValueError):
        FecCodec(agents[0], k=1)


# ----------------------------------------------------------------------
# Protocol integration
# ----------------------------------------------------------------------

def fec_session(drop_seq_predicate, k=4, nodes=4):
    config = SrmConfig(fec_block=k)
    network, agents, _ = build_srm_session(chain(nodes), range(nodes),
                                           config=config)
    network.add_drop_filter(0, 1, NthPacketDropFilter(drop_seq_predicate))
    return network, agents


def test_single_in_block_loss_recovered_without_requests():
    """One loss inside a parity block: reconstructed locally, zero
    requests, zero repairs."""
    network, agents = fec_session(
        lambda p: p.kind == "srm-data")  # drops seq 1

    def burst():
        for index in range(4):
            network.scheduler.schedule(
                float(index), lambda i=index: agents[0].send_data(
                    f"payload-{i}"))

    network.scheduler.schedule(0.0, burst)
    network.run()
    lost = AduName(0, DEFAULT_PAGE, 1)
    for node in (1, 2, 3):
        assert agents[node].store.have(lost)
        assert agents[node].store.get(lost) == "payload-0"
        assert agents[node].fec.reconstructed >= 1
    assert network.trace.count("send_request") == 0
    assert network.trace.count("send_repair") == 0
    assert network.trace.count("fec_reconstructed") == 3


def test_double_loss_falls_back_to_srm_recovery():
    """Two losses in one block exceed the parity's power; normal
    request/repair recovery still delivers everything."""
    config = SrmConfig(fec_block=4)
    network, agents, _ = build_srm_session(chain(4), range(4),
                                           config=config)
    for n in (1, 2):
        network.add_drop_filter(0, 1, NthPacketDropFilter(
            lambda p: p.kind == "srm-data", n=n))

    def burst():
        for index in range(4):
            network.scheduler.schedule(
                float(index), lambda i=index: agents[0].send_data(
                    f"payload-{i}"))

    network.scheduler.schedule(0.0, burst)
    network.run()
    for seq in (1, 2, 3, 4):
        name = AduName(0, DEFAULT_PAGE, seq)
        for node in (1, 2, 3):
            assert agents[node].store.have(name), (node, seq)
    assert network.trace.count("send_request") >= 1


def test_lost_tail_detected_via_parity_packet():
    """A parity packet reveals the existence of the block's data, so a
    dropped *last* data packet is detected even without session
    messages (and reconstructed if it is the only loss)."""
    network, agents = fec_session(
        lambda p: p.kind == "srm-data", k=3)
    # Drop the LAST packet of the block instead of the first.
    network.clear_drop_filters()
    network.add_drop_filter(0, 1, NthPacketDropFilter(
        lambda p: p.kind == "srm-data", n=3))

    def burst():
        for index in range(3):
            network.scheduler.schedule(
                float(index), lambda i=index: agents[0].send_data(
                    f"payload-{i}"))

    network.scheduler.schedule(0.0, burst)
    network.run()
    tail = AduName(0, DEFAULT_PAGE, 3)
    for node in (1, 2, 3):
        assert agents[node].store.have(tail)


def test_parity_loss_is_harmless():
    """Losing the parity packet itself costs nothing: data flowed."""
    config = SrmConfig(fec_block=3)
    network, agents, _ = build_srm_session(chain(3), range(3),
                                           config=config)
    network.add_drop_filter(0, 1, MatchDropFilter(
        lambda p: p.kind == "srm-fec"))

    def burst():
        for index in range(3):
            network.scheduler.schedule(
                float(index), lambda i=index: agents[0].send_data(
                    f"payload-{i}"))

    network.scheduler.schedule(0.0, burst)
    network.run()
    for seq in (1, 2, 3):
        assert agents[2].store.have(AduName(0, DEFAULT_PAGE, seq))
    assert agents[2].fec.reconstructed == 0


def test_parity_sent_once_per_full_block():
    config = SrmConfig(fec_block=3)
    network, agents, _ = build_srm_session(chain(3), range(3),
                                           config=config)

    def burst():
        for index in range(7):
            network.scheduler.schedule(
                float(index), lambda i=index: agents[0].send_data(
                    f"payload-{i}"))

    network.scheduler.schedule(0.0, burst)
    network.run()
    # 7 packets with k=3 -> two full blocks, one partial (no parity yet).
    assert agents[0].fec.parity_sent == 2
    assert network.trace.count("send_fec") == 2


# ----------------------------------------------------------------------
# Payloads ride the XOR as canonical JSON
# ----------------------------------------------------------------------

@pytest.mark.parametrize("data", [("a", 1), float("nan"), {1: "a"},
                                  object()],
                         ids=["tuple", "nan", "int-key", "object"])
def test_a_payload_without_an_equal_json_form_is_refused_at_send(data):
    """Parity used to be computed over pickles; now a payload that does
    not decode back from canonical JSON equal is refused before it is
    named or sent."""
    network, agents = fec_session(lambda p: False)
    with pytest.raises(WireFormatError):
        agents[0].send_data(data)
    assert agents[0].data_sent == 0
    assert agents[0].peek_next_seq() == 1
    assert network.trace.count("send_data") == 0


def test_a_receiver_with_fec_accepts_any_payload_from_a_sender_without():
    network, agents, _ = build_srm_session(chain(2), range(2))
    agents[1].fec = FecCodec(agents[1], k=2)
    name = agents[0].send_data(("not", "json"))
    network.run()
    assert agents[1].store.get(name) == ("not", "json")
