"""Fixture: an agent-side emission in the one guarded form (SRM006)."""

SEND_DATA = "send_data"


class Member:
    def __init__(self, network, scheduler, node_id: int) -> None:
        self.network = network
        self._scheduler = scheduler
        self.node_id = node_id

    def send_data(self, name: str) -> None:
        # A kind nobody reads costs one counter bump: no frame, no dict.
        trace = self.network.trace
        if SEND_DATA in trace.wanted:
            trace.record(self._scheduler.now, self.node_id, SEND_DATA,
                         {"name": name})
        else:
            trace.kind_totals[SEND_DATA] += 1
