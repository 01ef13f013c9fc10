"""Fixture: SRM006 — an agent-side emission without the wanted guard."""

SEND_SESSION = "send_session"


class SessionProtocol:
    def __init__(self, agent) -> None:
        self.agent = agent

    def send_session_message(self, now: float) -> None:
        trace = self.agent.network.trace
        trace.record(now, self.agent.node_id, SEND_SESSION, {})  # line 12
