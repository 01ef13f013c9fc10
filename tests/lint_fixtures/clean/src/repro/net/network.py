"""Fixture: hot-path Trace.record behind the required guard."""


class Delivery:
    __slots__ = ("trace", "scheduler")

    def __init__(self, trace, scheduler) -> None:
        self.trace = trace
        self.scheduler = scheduler

    def deliver(self, node: int) -> None:
        if "deliver" in self.trace.wanted:
            self.trace.record(self.scheduler.now, node, "deliver")

    def narrate(self, node: int, kind: str, **detail) -> None:
        # The already-built dict goes through as it is (SRM006).
        trace = self.trace
        if kind in trace.wanted:
            trace.record(self.scheduler.now, node, kind, detail)
        else:
            trace.kind_totals[kind] += 1
