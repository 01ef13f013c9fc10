"""Separate multicast groups for local recovery (Section VII-B2).

"The initial requestor creates a separate multicast group for local
recovery and invites other nearby members to join that multicast group.
The multicast group must include some member capable of sending repairs.
This mechanism is appropriate when there is a stable loss neighborhood
that results from a particular lossy link, or when an isolated member
joins a group late and asks for past history."

:class:`RecoveryGroup` wires that up on top of the agent-level routing
(:meth:`SrmAgent.join_recovery_group`): members invited into the group
route their requests for the covered data onto it; repliers answer on
the group the request arrived on, so recovery traffic never touches the
global session group.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.core.agent import SrmAgent
from repro.core.names import PageId
from repro.net.network import Network
from repro.net.packet import GroupAddress, NodeId


class RecoveryGroup:
    """One local-recovery multicast group and its membership."""

    def __init__(self, network: Network, group: GroupAddress,
                 page: Optional[PageId], source: Optional[NodeId]) -> None:
        self.network = network
        self.group = group
        self.page = page
        self.source = source
        self.members: List[SrmAgent] = []
        self.dissolved = False

    @classmethod
    def establish(cls, network: Network, initiator: SrmAgent,
                  invitees: Sequence[SrmAgent],
                  page: Optional[PageId] = None,
                  source: Optional[NodeId] = None,
                  label: str = "recovery") -> "RecoveryGroup":
        """Create a recovery group and admit the initiator + invitees.

        ``page``/``source`` scope which data the group recovers (None
        matches anything). The caller is responsible for inviting at
        least one member capable of sending repairs — exactly the
        paper's requirement.
        """
        group = network.groups.allocate(label)
        recovery = cls(network, group, page, source)
        recovery.admit(initiator)
        for agent in invitees:
            recovery.admit(agent)
        return recovery

    def admit(self, agent: SrmAgent) -> None:
        """Add a member: it joins the group and routes matching requests
        onto it."""
        if self.dissolved:
            raise RuntimeError("recovery group already dissolved")
        if agent in self.members:
            return
        agent.join_recovery_group(self.group, page=self.page,
                                  source=self.source)
        self.members.append(agent)

    def withdraw(self, agent: SrmAgent) -> None:
        if agent in self.members:
            agent.leave_recovery_group(self.group)
            self.members.remove(agent)

    def dissolve(self) -> None:
        """Tear the group down (e.g. the lossy period ended)."""
        for agent in list(self.members):
            self.withdraw(agent)
        self.dissolved = True

    def member_nodes(self) -> List[NodeId]:
        return sorted(agent.node_id for agent in self.members)


def invite_loss_neighborhood(network: Network, initiator: SrmAgent,
                             agents: Iterable[SrmAgent],
                             loss_members: Iterable[NodeId],
                             helpers: Iterable[NodeId],
                             page: Optional[PageId] = None,
                             source: Optional[NodeId] = None,
                             ) -> RecoveryGroup:
    """Convenience: establish a group over a known loss neighborhood.

    ``loss_members`` are the nodes sharing the losses; ``helpers`` are
    nearby nodes holding the data (potential repliers).
    """
    wanted = set(loss_members) | set(helpers)
    invitees = [agent for agent in agents
                if agent.node_id in wanted
                and agent.node_id != initiator.node_id]
    return RecoveryGroup.establish(network, initiator, invitees,
                                   page=page, source=source)
