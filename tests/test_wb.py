"""Tests for the wb whiteboard application (Sections II-C, III-E)."""

import pytest

from repro.core.config import SrmConfig
from repro.core.names import PageId
from repro.net.link import MatchDropFilter, NthPacketDropFilter
from repro.sim.rng import RandomSource
from repro.topology.btree import balanced_tree
from repro.topology.chain import chain
from repro.wb import ClearOp, DeleteOp, DrawOp, DrawType, Whiteboard


def build_boards(spec, count, config=None, seed=0):
    network = spec.build()
    network.trace.keep = None
    group = network.groups.allocate("wb")
    master = RandomSource(seed)
    boards = []
    for node in range(count):
        board = Whiteboard(config or SrmConfig(), master.fork(f"wb{node}"))
        board.join(network, node, group)
        boards.append(board)
    return network, boards


def line(ts=0.0, color="black"):
    return DrawOp(DrawType.LINE, ((0.0, 0.0), (1.0, 1.0)), color=color,
                  timestamp=ts)


def test_drawops_propagate_to_all_members():
    network, boards = build_boards(chain(5), 5)
    page = [None]

    def go():
        page[0] = boards[0].create_page()
        boards[0].draw(page[0], line())
        boards[0].draw(page[0], line(color="red"))

    network.scheduler.schedule(0.0, go)
    network.run()
    for board in boards:
        assert len(board.render(page[0])) == 2


def test_any_member_can_draw_on_any_page():
    network, boards = build_boards(chain(4), 4)
    page = [None]

    def go():
        page[0] = boards[1].create_page()
        boards[1].draw(page[0], line())
        network.scheduler.schedule(
            5.0, lambda: boards[3].draw(page[0], line(color="blue")))

    network.scheduler.schedule(0.0, go)
    network.run()
    for board in boards:
        ops = board.render(page[0])
        assert {op.color for op in ops} == {"black", "blue"}


def test_render_sorts_by_timestamp_not_arrival():
    board = Whiteboard()
    network, _ = build_boards(chain(2), 0)
    group = network.groups.allocate("g")
    board.join(network, 0, group)
    page = board.create_page()
    # Draw with explicitly decreasing timestamps.
    board.draw(page, line(ts=5.0, color="late"))
    board.draw(page, line(ts=1.0, color="early"))
    colors = [op.color for op in board.render(page)]
    assert colors == ["early", "late"]


def test_delete_removes_target():
    network, boards = build_boards(chain(3), 3)
    page = [None]
    name = [None]

    def go():
        page[0] = boards[0].create_page()
        name[0] = boards[0].draw(page[0], line())
        network.scheduler.schedule(
            3.0, lambda: boards[0].delete(page[0], name[0]))

    network.scheduler.schedule(0.0, go)
    network.run()
    for board in boards:
        assert board.render(page[0]) == []
        assert board.op_count(page[0]) == 1  # tombstoned, not forgotten


def test_delete_patching_when_delete_arrives_first():
    """The paper: operations that are not strictly idempotent, such as a
    delete referencing an earlier drawop, 'can be patched after the
    fact, when the missing data arrives'."""
    network, boards = build_boards(chain(4), 4)
    page = [None]

    def go():
        page[0] = boards[0].create_page()
        # The drawop is dropped toward nodes 2-3 but the delete is not:
        # the delete arrives before the drawop it references.
        name = boards[0].draw(page[0], line())
        network.scheduler.schedule(
            0.5, lambda: boards[0].delete(page[0], name))
        network.scheduler.schedule(
            1.0, lambda: boards[0].draw(page[0], line(color="keep")))

    network.add_drop_filter(1, 2, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    network.scheduler.schedule(0.0, go)
    network.run()
    for board in boards:
        visible = board.render(page[0])
        assert [op.color for op in visible] == ["keep"]


def test_replace_is_delete_plus_new_drawop():
    """'To change a blue line to a red circle, a delete drawop for
    floyd:5 is sent, then a drawop for the circle is sent.'"""
    network, boards = build_boards(chain(3), 3)
    page = [None]

    def go():
        page[0] = boards[0].create_page()
        blue_line = boards[0].draw(page[0], line(color="blue"))
        red_circle = DrawOp(DrawType.ELLIPSE, ((2.0, 2.0), (1.0, 1.0)),
                            color="red")
        network.scheduler.schedule(
            2.0, lambda: boards[0].replace(page[0], blue_line, red_circle))

    network.scheduler.schedule(0.0, go)
    network.run()
    for board in boards:
        visible = board.render(page[0])
        assert len(visible) == 1
        assert visible[0].color == "red"
        assert visible[0].shape is DrawType.ELLIPSE


def test_clear_hides_older_ops_only():
    network, boards = build_boards(chain(3), 3)
    page = [None]

    def go():
        page[0] = boards[0].create_page()
        boards[0].draw(page[0], line(color="old"))
        network.scheduler.schedule(5.0, lambda: boards[0].clear(page[0]))
        network.scheduler.schedule(
            10.0, lambda: boards[0].draw(page[0], line(color="new")))

    network.scheduler.schedule(0.0, go)
    network.run()
    for board in boards:
        assert [op.color for op in board.render(page[0])] == ["new"]


def test_loss_recovery_keeps_boards_consistent():
    network, boards = build_boards(balanced_tree(20, 4), 20)
    network.add_drop_filter(0, 1, NthPacketDropFilter(
        lambda p: p.kind == "srm-data"))
    page = [None]

    def go():
        page[0] = boards[0].create_page()
        for i in range(3):
            network.scheduler.schedule(
                float(i), lambda i=i: boards[0].draw(
                    page[0], line(ts=float(i), color=f"c{i}")))

    network.scheduler.schedule(0.0, go)
    network.run()
    reference = [op.color for op in boards[0].render(page[0])]
    assert reference == ["c0", "c1", "c2"]
    for board in boards:
        assert [op.color for op in board.render(page[0])] == reference


def test_late_joiner_fetches_history():
    network, boards = build_boards(chain(5), 4)
    page = [None]

    def go():
        page[0] = boards[0].create_page()
        for member in boards[:4]:
            member.view_page(page[0])
        boards[0].draw(page[0], line(color="a"))
        boards[1].draw(page[0], line(ts=2.0, color="b"))

    network.scheduler.schedule(0.0, go)
    network.run()
    late = Whiteboard(SrmConfig(), RandomSource(777))
    late.join(network, 4, network.groups.known_groups()[0])
    network.scheduler.schedule(1.0, lambda: late.fetch_history(page[0]))
    network.run()
    assert [op.color for op in late.render(page[0])] == ["a", "b"]


def test_source_id_persistence_model():
    """Page-IDs embed the creator's Source-ID; two members' pages never
    collide even with the same local number."""
    board_a = Whiteboard()
    board_b = Whiteboard()
    network, _ = build_boards(chain(3), 0)
    group = network.groups.allocate("g")
    board_a.join(network, 0, group)
    board_b.join(network, 1, group)
    page_a = board_a.create_page()
    page_b = board_b.create_page()
    assert page_a != page_b
    assert page_a.number == page_b.number == 1


def test_drawop_validation():
    with pytest.raises(ValueError):
        DrawOp(DrawType.LINE, ())
    with pytest.raises(ValueError):
        DrawOp(DrawType.TEXT, ((0, 0),))
    op = DrawOp(DrawType.TEXT, ((0, 0),), text="hello")
    assert op.text == "hello"


def test_unknown_operation_type_rejected():
    board = Whiteboard()
    network, _ = build_boards(chain(2), 0)
    board.join(network, 0, network.groups.allocate("g"))
    page = board.create_page()
    from repro.core.names import AduName
    with pytest.raises(TypeError):
        board._apply(AduName(0, page, 1), object())
