"""Tests for wb integrity tags (Section III-E) and burst-loss model."""

import pytest

from repro.core.config import SrmConfig
from repro.core.names import AduName, PageId
from repro.net.link import GilbertElliottDropFilter, Link
from repro.net.packet import Packet
from repro.sim.rng import RandomSource
from repro.topology.chain import chain
from repro.wb import DrawOp, DrawType, Whiteboard
from repro.wb.drawops import ClearOp, DeleteOp
from repro.wb.integrity import (
    IntegrityError,
    SealedOp,
    compute_tag,
    corrupt,
)

from conftest import build_srm_session

NAME = AduName(3, PageId(3, 1), 5)


def line(color="blue"):
    return DrawOp(DrawType.LINE, ((0.0, 0.0), (1.0, 1.0)), color=color,
                  timestamp=4.0)


# ----------------------------------------------------------------------
# Sealing / verification
# ----------------------------------------------------------------------

def test_seal_and_verify_roundtrip():
    sealed = SealedOp.seal(NAME, line())
    assert sealed.verify(NAME)
    assert sealed.unseal(NAME) == line()


def test_tag_binds_the_name():
    sealed = SealedOp.seal(NAME, line())
    other = AduName(3, PageId(3, 1), 6)
    assert not sealed.verify(other)
    with pytest.raises(IntegrityError):
        sealed.unseal(other)


def test_tag_binds_the_key():
    sealed = SealedOp.seal(NAME, line(), key=b"secret")
    assert sealed.verify(NAME, key=b"secret")
    assert not sealed.verify(NAME, key=b"other")


def test_corrupted_copy_fails_verification():
    sealed = SealedOp.seal(NAME, line())
    bad = corrupt(sealed)
    assert bad.op.color == "corrupted"
    assert not bad.verify(NAME)


def test_all_op_types_canonicalize():
    for op in (line(), DeleteOp(target=NAME, timestamp=1.0),
               ClearOp(timestamp=2.0)):
        tag = compute_tag(NAME, op)
        assert len(tag) == 32
    with pytest.raises(TypeError):
        compute_tag(NAME, object())


def test_corrupt_requires_mutation_for_non_drawops():
    sealed = SealedOp.seal(NAME, ClearOp(timestamp=2.0))
    with pytest.raises(ValueError):
        corrupt(sealed)
    mutated = corrupt(sealed, mutated_op=ClearOp(timestamp=9.0))
    assert not mutated.verify(NAME)


# ----------------------------------------------------------------------
# Whiteboard integration: corruption does not spread
# ----------------------------------------------------------------------

def build_keyed_boards(count=4, key=b"session-key"):
    network = chain(count).build()
    network.trace.keep = None
    group = network.groups.allocate("wb")
    rng = RandomSource(11)
    boards = []
    for node in range(count):
        board = Whiteboard(SrmConfig(), rng.fork(f"b{node}"),
                           integrity_key=key)
        board.join(network, node, group)
        boards.append(board)
    return network, boards


def test_sealed_session_renders_normally():
    network, boards = build_keyed_boards()
    page = [None]

    def go():
        page[0] = boards[0].create_page()
        boards[0].draw(page[0], line())
        boards[0].draw(page[0], line(color="red"))

    network.scheduler.schedule(0.0, go)
    network.run()
    for board in boards:
        assert len(board.render(page[0])) == 2
        assert board.integrity_rejections == 0


def test_corrupted_data_is_refused_not_rendered():
    """The paper's scenario: a member's in-memory copy goes bad and is
    used to answer repairs; tagged receivers refuse it."""
    network, boards = build_keyed_boards()
    page = [None]
    name = [None]

    def go():
        page[0] = boards[0].create_page()
        name[0] = boards[0].draw(page[0], line())

    network.scheduler.schedule(0.0, go)
    network.run()
    # Member 1's stored (sealed) copy becomes corrupt.
    victim = boards[1].agent
    sealed = victim.store.get(name[0])
    victim.store.held[name[0]] = corrupt(sealed)
    # Member 3 loses its copy and asks the group; member 1 happens to
    # answer first (it is closest to node 3 after we silence 0 and 2).
    boards[3].agent.store.evict(name[0])
    boards[0].agent.leave_group()
    boards[2].agent.leave_group()
    network.scheduler.schedule(
        1.0, lambda: boards[3].agent.on_loss_detected(name[0]))
    network.run()
    # The repair delivered corrupted bytes; the tag caught it.
    assert boards[3].integrity_rejections >= 1
    visible = boards[3].render(page[0])
    assert all(op.color != "corrupted" for op in visible)
    # The corrupted copy was also evicted, so member 3 can never serve
    # it to others in a future repair.
    stored = boards[3].agent.store
    if stored.have(name[0]):
        assert stored.get(name[0]).verify(name[0], b"session-key")


def test_rejected_member_rerequests_an_intact_copy():
    """After rejecting a corrupted repair, the member re-enters loss
    recovery and eventually obtains a verifiable copy from an honest
    member."""
    network, boards = build_keyed_boards()
    page = [None]
    name = [None]

    def go():
        page[0] = boards[0].create_page()
        name[0] = boards[0].draw(page[0], line())

    network.scheduler.schedule(0.0, go)
    network.run()
    victim = boards[1].agent
    victim.store.held[name[0]] = corrupt(victim.store.get(name[0]))
    boards[3].agent.store.evict(name[0])
    network.scheduler.schedule(
        1.0, lambda: boards[3].agent.on_loss_detected(name[0]))
    network.run(max_events=2_000_000)
    # Honest members (0 and 2) still answer: node 3 converges on an
    # intact, rendered copy despite node 1's corruption.
    assert [op.color for op in boards[3].render(page[0])] == ["blue"]


def test_an_evicted_name_is_recovered_and_never_revealed_again():
    """The integrity path at agent level: a member evicts a name it held
    and re-enters recovery for it (``store.evict`` + ``on_loss_detected``,
    as ``Whiteboard`` does on a rejected tag). A later, higher data packet
    and the session reports after it lie above that name, so none of them
    reveals it again, and the member still gets it back."""
    network, agents, _ = build_srm_session(
        chain(4), range(4), SrmConfig(session_enabled=True))
    sender, victim = agents[0], agents[3]
    first = sender.send_data("first")
    network.run(until=10.0)
    assert victim.store.get(first) == "first"
    heard, revealed = [], []
    reception = victim.reception

    def recording(method):
        def recorded(*args):
            heard.append(args)
            gaps = method(*args)
            revealed.extend(gaps)
            return gaps
        return recorded

    reception.mark_received = recording(reception.mark_received)
    reception.note_high_water = recording(reception.note_high_water)
    victim.store.evict(first)
    victim.on_loss_detected(first)
    second = sender.send_data("second")
    network.run(until=200.0)
    assert network.trace.filter(kind="send_session", node=0)
    assert (second,) in heard and (first,) in heard  # the repair
    assert first not in revealed
    assert [row.detail["name"] for row in
            network.trace.filter(kind="loss_detected", node=3)] == [first]
    assert victim.store.get(first) == "first"
    assert victim.store.get(second) == "second"
    assert victim.pending_requests() == []
    assert reception.highest_seq(0, first.page) == 2


def test_unkeyed_board_accepts_sealed_ops():
    """Members without a key interoperate (they skip verification)."""
    network = chain(2).build()
    group = network.groups.allocate("wb")
    keyed = Whiteboard(SrmConfig(), RandomSource(1),
                       integrity_key=b"k")
    plain = Whiteboard(SrmConfig(), RandomSource(2))
    keyed.join(network, 0, group)
    plain.join(network, 1, group)
    page = [None]

    def go():
        page[0] = keyed.create_page()
        keyed.draw(page[0], line())

    network.scheduler.schedule(0.0, go)
    network.run()
    assert len(plain.render(page[0])) == 1


# ----------------------------------------------------------------------
# Gilbert-Elliott burst loss
# ----------------------------------------------------------------------

def packet():
    return Packet(origin=1, dst=9, kind="data")


def test_gilbert_elliott_validation():
    with pytest.raises(ValueError):
        GilbertElliottDropFilter(p=1.5, r=0.5, rng=RandomSource(1))


def test_gilbert_elliott_all_good_never_drops():
    drop = GilbertElliottDropFilter(p=0.0, r=1.0, rng=RandomSource(1))
    link = Link(1, 2)
    link.add_filter(drop)
    assert not any(link.drops_packet(packet(), 1) for _ in range(200))


def test_gilbert_elliott_losses_are_bursty():
    """Consecutive drops cluster: the number of loss 'runs' is far below
    what independent (Bernoulli) losses of the same rate would give."""
    drop = GilbertElliottDropFilter(p=0.02, r=0.2, rng=RandomSource(9))
    link = Link(1, 2)
    link.add_filter(drop)
    outcomes = [link.drops_packet(packet(), 1) for _ in range(5000)]
    losses = sum(outcomes)
    runs = sum(1 for index in range(1, len(outcomes))
               if outcomes[index] and not outcomes[index - 1])
    assert losses > 100
    mean_burst = losses / max(1, runs)
    assert mean_burst > 2.0  # average loss burst length ~1/r = 5


def test_gilbert_elliott_respects_predicate():
    drop = GilbertElliottDropFilter(p=1.0, r=0.0, rng=RandomSource(1),
                                    predicate=lambda p: p.kind == "data")
    link = Link(1, 2)
    link.add_filter(drop)
    ctrl = Packet(origin=1, dst=9, kind="ctrl")
    assert not link.drops_packet(ctrl, 1)
    assert link.drops_packet(packet(), 1)


def test_srm_recovers_under_burst_loss():
    from conftest import build_srm_session
    from repro.core.names import DEFAULT_PAGE
    network, agents, _ = build_srm_session(chain(6), range(6))
    network.add_drop_filter(2, 3, GilbertElliottDropFilter(
        p=0.3, r=0.3, rng=RandomSource(5),
        predicate=lambda p: p.kind == "srm-data"))

    def burst():
        for index in range(6):
            network.scheduler.schedule(
                float(index), lambda i=index: agents[0].send_data(f"p{i}"))
        # A final, never-dropped beacon so tail gaps are revealed.
        network.scheduler.schedule(
            10.0, lambda: agents[0].send_data("beacon"))

    network.scheduler.schedule(0.0, burst)
    network.run(max_events=2_000_000)
    for seq in range(1, 7):
        name = AduName(0, DEFAULT_PAGE, seq)
        for node in range(6):
            assert agents[node].store.have(name), (node, seq)
