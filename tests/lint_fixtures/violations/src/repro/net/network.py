"""Fixture: SRM006 — unguarded / re-expanding hot-path Trace.record."""


class Delivery:
    def __init__(self, trace, scheduler) -> None:
        self.trace = trace
        self.scheduler = scheduler

    def deliver(self, node: int) -> None:
        self.trace.record(self.scheduler.now, node, "deliver")  # line 10

    def narrate(self, node: int, kind: str, **detail) -> None:
        if kind in self.trace.wanted:
            self.trace.record(self.scheduler.now, node, kind,
                              **detail)  # call starts on line 14
