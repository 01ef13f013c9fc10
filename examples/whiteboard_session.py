#!/usr/bin/env python
"""A wb whiteboard session: concurrent drawers, loss, and a late joiner.

Reproduces the application story of Sections II-C and III-E:

* several members draw on a shared page, concurrently, with no ordering
  protocol — drawops are idempotent and sorted by timestamp on render;
* a lossy link silently eats packets; SRM's request/repair machinery
  restores consistency — including *tail* losses (the last packet of a
  burst), which only the periodic session messages of Section III-A can
  reveal;
* one member repaints a shape the paper's way (delete + new drawop,
  never rebinding a name);
* a participant joins late and pulls the page history with a page-state
  request.

Run:  python examples/whiteboard_session.py
"""

from repro import RandomSource, SrmConfig
from repro.net.link import BernoulliDropFilter
from repro.topology import balanced_tree
from repro.wb import DrawOp, DrawType, Whiteboard


def describe(op: DrawOp) -> str:
    return f"{op.color} {op.shape.value} @t={op.timestamp:.0f}"


def main() -> None:
    spec = balanced_tree(21, 4)
    network = spec.build()
    network.trace.keep = None
    group = network.groups.allocate("wb-session")
    rng = RandomSource(2024)

    # Twenty participants (node 20 will join late). Session messages are
    # on: they report per-source high-water marks, so even a dropped
    # *last* packet gets detected and repaired.
    config = SrmConfig(session_enabled=True, session_min_interval=10.0)
    boards = {}
    for node in range(20):
        board = Whiteboard(config, rng.fork(f"wb-{node}"))
        board.join(network, node, group)
        boards[node] = board

    # A flaky link: 45% of data packets into one subtree vanish.
    network.add_drop_filter(0, 1, BernoulliDropFilter(
        0.45, rng.fork("loss"),
        predicate=lambda packet: packet.kind == "srm-data"))

    page_box = {}

    def meeting() -> None:
        page = boards[0].create_page()
        page_box["page"] = page
        for board in boards.values():
            board.view_page(page)
        sched = network.scheduler
        # Three members draw concurrently.
        sched.schedule(1.0, lambda: boards[0].draw(
            page, DrawOp(DrawType.LINE, ((0, 0), (4, 4)), color="blue")))
        sched.schedule(1.0, lambda: boards[7].draw(
            page, DrawOp(DrawType.RECTANGLE, ((1, 1), (3, 2)),
                         color="green")))
        sched.schedule(2.0, lambda: boards[13].draw(
            page, DrawOp(DrawType.TEXT, ((2, 3),), text="SRM!",
                         color="black")))
        # Member 0 changes its mind: the blue line becomes a red ellipse
        # ("to change a blue line to a red circle, a delete drawop ...
        # is sent, then a drawop for the circle").
        def repaint():
            line_name = boards[0].render_names(page)[0]
            boards[0].replace(page, line_name, DrawOp(
                DrawType.ELLIPSE, ((2, 2), (1, 1)), color="red"))
        sched.schedule(20.0, repaint)

    network.scheduler.schedule(0.0, meeting)
    # Session timers tick forever; run to a fixed horizon instead of
    # quiescence.
    network.run(until=600.0)
    page = page_box["page"]

    print("=== canvases after loss recovery ===")
    reference = [describe(op) for op in boards[0].render(page)]
    print(f"  visible ops: {reference}")
    consistent = all([describe(op) for op in board.render(page)]
                     == reference for board in boards.values())
    print(f"  all 20 members consistent: {consistent}")
    dropped = network.packets_dropped
    repairs = network.trace.count("send_repair")
    print(f"  packets dropped by the flaky link: {dropped}; "
          f"repairs multicast: {repairs}")

    # A late joiner pulls the history.
    late = Whiteboard(config, rng.fork("late"))
    late.join(network, 20, group)
    network.scheduler.schedule(601.0, lambda: late.fetch_history(page))
    network.run(until=1200.0)
    late_view = [describe(op) for op in late.render(page)]
    print()
    print("=== late joiner (node 20) after page-state recovery ===")
    print(f"  visible ops: {late_view}")
    print(f"  matches the room: {late_view == reference}")
    assert consistent and late_view == reference


if __name__ == "__main__":
    main()
