"""Local recovery (Section VII-B).

Two layers:

* Protocol support lives in :class:`repro.core.agent.SrmAgent`
  (``request_ttl`` plus ``local_repair_mode`` of "one-step"/"two-step").
* This module provides the *idealized* executions the paper evaluates in
  Fig. 15: "we assume that ... the request/repair algorithms exhibit
  their optimal behavior. That is, there is a single request and a single
  repair, and both come from the members closest to the point of
  failure", with the requester knowing h (the minimum TTL reaching the
  whole loss neighborhood) and H (the minimum TTL reaching some member
  outside it).

All TTL arithmetic uses the network's per-link thresholds via
``SourceTree.ttl_required``, so it is valid for heterogeneous thresholds,
not just the all-ones case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.net.network import Network
from repro.net.packet import NodeId


def loss_neighborhood(network: Network, source: NodeId,
                      congested_parent: NodeId, congested_child: NodeId,
                      members: Sequence[NodeId]) -> List[NodeId]:
    """Members cut off when (parent, child) drops a packet from ``source``.

    The congested edge must be a tree edge of the source's shortest-path
    tree, oriented away from the source.
    """
    below = network.member_tree(
        source, [*members, congested_parent, congested_child]).cut(
            congested_parent, congested_child)
    return sorted(member for member in members if member in below)


def ttl_to_reach(network: Network, from_node: NodeId,
                 targets: Iterable[NodeId]) -> int:
    """Minimum initial TTL for a multicast from ``from_node`` to cover
    every node in ``targets`` (h in the paper's notation)."""
    targets = list(targets)
    tree = network.member_tree(from_node, targets)
    required = 0
    for target in targets:
        if target == from_node:
            continue
        required = max(required, tree.ttl_required[target])
    return required


def ttl_to_escape(network: Network, from_node: NodeId,
                  neighborhood: Iterable[NodeId],
                  candidates: Iterable[NodeId]) -> Optional[int]:
    """Minimum TTL reaching some candidate outside the neighborhood
    (H in the paper's notation); None when no candidate exists."""
    candidates = list(candidates)
    tree = network.member_tree(from_node, candidates)
    inside = set(neighborhood)
    best: Optional[int] = None
    for candidate in candidates:
        if candidate in inside or candidate == from_node:
            continue
        needed = tree.ttl_required[candidate]
        if best is None or needed < best:
            best = needed
    return best


def reached_by(network: Network, from_node: NodeId, ttl: int,
               targets: Iterable[NodeId]) -> Set[NodeId]:
    """Nodes among ``targets`` covered by a TTL-``ttl`` multicast."""
    targets = list(targets)
    tree = network.member_tree(from_node, targets)
    reached = set()
    for target in targets:
        if target == from_node or tree.ttl_required[target] <= ttl:
            reached.add(target)
    return reached


@dataclass(frozen=True)
class LocalRecoveryOutcome:
    """Result of one idealized scoped recovery (one row of Fig. 15)."""

    requester: NodeId
    replier: NodeId
    request_ttl: int
    loss_members: FrozenSet[NodeId]
    repair_reached: FrozenSet[NodeId]
    session_size: int

    @property
    def covered(self) -> bool:
        """Did the repair reach every member that shared the loss?"""
        return self.loss_members <= self.repair_reached

    @property
    def fraction_of_session(self) -> float:
        """Fraction of session members the repair reached (Fig. 15 top)."""
        return len(self.repair_reached) / self.session_size

    @property
    def repair_to_loss_ratio(self) -> float:
        """Repair-neighborhood size over loss-neighborhood size
        (Fig. 15 bottom)."""
        return len(self.repair_reached) / max(1, len(self.loss_members))


def _closest_requester(network: Network, congested_child: NodeId,
                       loss_members: Sequence[NodeId]) -> NodeId:
    tree = network.member_tree(congested_child, loss_members)
    return min(loss_members, key=lambda member: (tree.dist[member], member))


def _closest_replier(network: Network, requester: NodeId, request_ttl: int,
                     good_members: Sequence[NodeId]) -> Optional[NodeId]:
    tree = network.member_tree(requester, good_members)
    reachable = [member for member in good_members
                 if tree.ttl_required[member] <= request_ttl]
    if not reachable:
        return None
    return min(reachable, key=lambda member: (tree.dist[member], member))


def ideal_scoped_recovery(network: Network, source: NodeId,
                          congested_parent: NodeId, congested_child: NodeId,
                          members: Sequence[NodeId],
                          mode: str = "two-step") -> LocalRecoveryOutcome:
    """The paper's idealized one-/two-step TTL recovery for one drop.

    The requester is the loss-neighborhood member closest to the failure.
    It scopes its request with ``max(h, H)``: enough TTL to cover every
    member sharing the loss *and* to reach at least one member that has
    the data. The repair then follows the one- or two-step rule.
    """
    if mode not in ("one-step", "two-step"):
        raise ValueError(f"unknown mode {mode!r}")
    loss_members = loss_neighborhood(network, source, congested_parent,
                                     congested_child, members)
    if not loss_members:
        raise ValueError("no member shares the loss; nothing to recover")
    good_members = [member for member in members
                    if member not in set(loss_members)]
    if not good_members:
        raise ValueError("every member lost the packet; local recovery "
                         "cannot find a replier")
    requester = _closest_requester(network, congested_child, loss_members)
    cover_ttl = ttl_to_reach(network, requester, loss_members)
    escape_ttl = ttl_to_escape(network, requester, loss_members,
                               good_members)
    assert escape_ttl is not None  # good_members is non-empty
    request_ttl = max(cover_ttl, escape_ttl)
    replier = _closest_replier(network, requester, request_ttl, good_members)
    assert replier is not None
    if mode == "one-step":
        # The repair's TTL is the request's plus the replier's hop count
        # back to the requester, optimistically assuming symmetry.
        hops_back = network.hops(replier, requester)
        reached = reached_by(network, replier, request_ttl + hops_back,
                             members)
    else:
        # Step 1: local repair with the request's TTL, naming the
        # requester. Step 2: the requester re-multicasts with its original
        # TTL, so the union covers everyone who saw the request.
        step_one = reached_by(network, replier, request_ttl, members)
        step_two = reached_by(network, requester, request_ttl, members)
        reached = step_one | step_two
    reached.discard(requester)
    reached.add(requester)  # the requester certainly has the data now
    return LocalRecoveryOutcome(
        requester=requester, replier=replier, request_ttl=request_ttl,
        loss_members=frozenset(loss_members),
        repair_reached=frozenset(reached),
        session_size=len(members))
