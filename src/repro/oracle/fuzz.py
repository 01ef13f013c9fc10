"""Random-scenario fuzzing against the protocol oracles.

A fuzz *case* is a pure-data dict — topology, session membership,
membership churn, drop filters, config variations — generated
deterministically from a single integer seed. Cases execute in parallel
through :class:`repro.runner.ExperimentRunner` (``run_fuzz_case`` is one
of the runner's two task kinds), each attaching the full
:class:`repro.oracle.SessionOracleSuite` and running to quiescence.

Any violation is then *shrunk*: greedy transforms (drop churn, drop
loss processes, fewer drops, fewer packets, fewer members, fewer nodes,
shorter horizon) are accepted whenever the same oracle still fires, so
failures land minimized and reproducible — re-running
``repro fuzz --rounds 1 --seed <case_seed>`` regenerates the original
case, and the minimized case is reported as JSON.

That the oracles catch real bugs is shown outside ``src/``: the mutant
catalog (``tests/mutants/``) plants protocol bugs such as a missing
repair hold-down in a copy of the tree, and CI runs this campaign
against it.
"""

from __future__ import annotations

import json
import traceback
from typing import Any, Dict, Iterator, List, Optional

import repro.topology as topology
from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.net.link import BernoulliDropFilter, NthPacketDropFilter
from repro.net.network import Network
from repro.oracle.base import OracleViolationError, SessionOracleSuite
from repro.sim.rng import RandomSource

#: Index -> case seed spacing; a large odd stride so consecutive rounds
#: get unrelated streams and any case is reproducible via
#: ``repro fuzz --rounds 1 --seed <case_seed>``.
CASE_SEED_STRIDE = 1_000_003

#: Safety horizon per case (quiescence normally needs far fewer events).
CASE_EVENT_LIMIT = 2_000_000

TOPOLOGY_KINDS = ("rtree", "rtree", "rtree", "chain", "star", "btree",
                  "mesh")

#: Config keys a case may override (everything else stays at defaults).
CONFIG_KEYS = ("adaptive", "ignore_backoff_enabled", "request_backoff",
               "request_ttl", "local_repair_mode", "request_scope_zone",
               "detect_loss_from_requests")


def case_seed(seed: int, index: int) -> int:
    return seed + index * CASE_SEED_STRIDE


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------

def generate_case(seed: int) -> Dict[str, Any]:
    """One random scenario, a deterministic function of ``seed``."""
    rng = RandomSource(seed)
    kind = rng.choice(TOPOLOGY_KINDS)
    nodes = {"rtree": rng.randint(12, 50), "chain": rng.randint(6, 20),
             "star": rng.randint(6, 24), "btree": rng.randint(8, 40),
             "mesh": rng.randint(12, 40)}[kind]
    topo_seed = rng.randint(0, 2**31)
    extra_edges = rng.randint(1, 4) if kind == "mesh" else 0
    case: Dict[str, Any] = {
        "case_seed": seed,
        "topology": kind,
        "nodes": nodes,
        "topo_seed": topo_seed,
        "extra_edges": extra_edges,
        "delivery": "hop" if rng.random() < 0.2 else "direct",
    }
    spec = build_spec(case)
    nodes = spec.num_nodes  # star(n) has n+1 nodes; trust the spec
    case["nodes"] = nodes
    session = rng.sample(range(nodes), rng.randint(4, min(16, nodes)))
    case["members"] = sorted(session)
    case["source"] = rng.choice(case["members"])

    network = spec.build()
    tree = network.source_tree(case["source"])
    tree_edges = sorted((parent, child) for child, parent in
                        tree.parent.items() if parent is not None)
    num_drops = rng.randint(1, min(3, len(tree_edges)))
    case["data_drops"] = [list(edge) for edge in
                          rng.sample(tree_edges, num_drops)]
    # At least one more packet than any root-to-leaf chain of drop
    # filters can eat, so every loss stays detectable by a later packet.
    case["packets"] = num_drops + rng.randint(1, 3)
    case["repair_loss"] = rng.choice([0.0, 0.2, 0.3, 0.5])
    case["request_loss"] = rng.choice([0.0, 0.0, 0.2, 0.3])

    churn: List[Dict[str, Any]] = []
    if rng.random() < 0.5:
        outsiders = [node for node in range(nodes)
                     if node not in session]
        for node in rng.sample(outsiders,
                               min(rng.randint(1, 3), len(outsiders))):
            join = round(rng.uniform(1.0, 12.0), 3)
            leave = (round(join + rng.uniform(5.0, 30.0), 3)
                     if rng.random() < 0.5 else None)
            churn.append({"node": node, "join": join, "leave": leave})
    case["churn"] = churn

    config: Dict[str, Any] = {}
    if rng.random() < 0.2:
        config["adaptive"] = True
    if rng.random() < 0.15:
        config["ignore_backoff_enabled"] = False
    if rng.random() < 0.1:
        config["detect_loss_from_requests"] = False
    if rng.random() < 0.25:
        config["request_ttl"] = rng.randint(2, 8)
        config["local_repair_mode"] = rng.choice(
            [None, "one-step", "two-step"])
    case["config"] = config
    case["zone"] = rng.random() < 0.15
    case["horizon"] = None
    return case


def build_spec(case: Dict[str, Any]) -> Any:
    kind = case["topology"]
    nodes = case["nodes"]
    if kind == "chain":
        return topology.chain(nodes)
    if kind == "star":
        return topology.star(max(2, nodes - 1))
    if kind == "btree":
        return topology.balanced_tree(nodes)
    if kind == "rtree":
        return topology.random_labeled_tree(
            nodes, RandomSource(case["topo_seed"]))
    if kind == "mesh":
        return topology.tree_plus_edges(
            nodes, nodes - 1 + case["extra_edges"],
            RandomSource(case["topo_seed"]))
    raise ValueError(f"unknown topology kind {kind!r}")


# ----------------------------------------------------------------------
# Case execution (picklable runner task)
# ----------------------------------------------------------------------

def _member_zone(network: Network, members: List[int]) -> List[int]:
    """Every node on a shortest path between two session members."""
    covered = set()
    for member in members:
        for other in members:
            covered.update(network.path(member, other))
    return sorted(covered)


def run_fuzz_case(case: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one scenario with all oracles attached.

    Never raises: a crash becomes the case's report row (its ``error``
    field), so one crashing case is one failure in the campaign's
    report, not the end of the campaign.
    """
    try:
        return _run_case(case)
    except OracleViolationError as exc:
        return {"case": case, "ok": False, "error": None,
                "violations": [violation.to_dict()
                               for violation in exc.report.violations]}
    except Exception:
        return {"case": case, "ok": False,
                "error": traceback.format_exc(limit=20), "violations": []}


def _run_case(case: Dict[str, Any]) -> Dict[str, Any]:
    rng = RandomSource(case["case_seed"] ^ 0x5EED)
    spec = build_spec(case)
    network = spec.build(delivery=case.get("delivery", "direct"))
    network.trace.keep = None
    group = network.groups.allocate("fuzz-session")

    config = SrmConfig(**{key: value
                          for key, value in case["config"].items()
                          if key in CONFIG_KEYS})
    members = [member for member in case["members"]
               if member < spec.num_nodes]
    if case["zone"]:
        network.define_scope_zone("fuzz-zone",
                                  _member_zone(network, members))
        config = config.copy(request_scope_zone="fuzz-zone")

    agents: Dict[int, SrmAgent] = {}

    def add_member(node: int) -> SrmAgent:
        agent = SrmAgent(config, rng.fork(f"member-{node}"))
        network.attach(node, agent)
        agent.join_group(group)
        agents[node] = agent
        return agent

    for member in members:
        add_member(member)
    suite = SessionOracleSuite.attach(network, agents=agents,
                                     assert_delivery_members=members)

    source = case["source"]
    for edge in case["data_drops"]:
        parent, child = edge
        if (parent in network.adjacency
                and child in network.adjacency[parent]):
            network.add_drop_filter(parent, child, NthPacketDropFilter(
                lambda packet: (packet.kind == "srm-data"
                                and packet.origin == source)))
    loss_rng = rng.fork("control-loss")
    for probability, packet_kind in ((case["repair_loss"], "srm-repair"),
                                     (case["request_loss"], "srm-request")):
        if probability <= 0.0:
            continue
        for link in network.links:
            network.add_drop_filter(
                link.a, link.b,
                BernoulliDropFilter(
                    probability, loss_rng.fork(f"{link.a}-{link.b}"),
                    predicate=(lambda kind: lambda packet:
                               packet.kind == kind)(packet_kind)))

    scheduler = network.scheduler
    source_agent = agents[source]
    for index in range(case["packets"]):
        scheduler.schedule(float(index),
                           lambda i=index: source_agent.send_data(
                               f"payload-{i}"))
    for entry in case["churn"]:
        node = entry["node"]
        if node >= spec.num_nodes or node in agents:
            continue
        scheduler.schedule(entry["join"],
                           lambda n=node: add_member(n))
        if entry["leave"] is not None:
            scheduler.schedule(entry["leave"],
                               lambda n=node: agents[n].leave_group())

    events = scheduler.run(until=case["horizon"],
                           max_events=CASE_EVENT_LIMIT)
    report = suite.verify(context=f"case_seed={case['case_seed']}",
                          raise_on_violation=False)
    return {"case": case, "ok": not report, "error": None, "events": events,
            "violations": [violation.to_dict()
                           for violation in report.violations]}


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _still_fails(candidate: Dict[str, Any], oracle: str) -> Optional[float]:
    """Last violation time if ``candidate`` still trips ``oracle``."""
    result = run_fuzz_case(case=candidate)
    if result["error"] is not None:
        return None
    times = [violation["time"] for violation in result["violations"]
             if violation["oracle"] == oracle]
    return max(times) if times else None


def _with(case: Dict[str, Any], **overrides: Any) -> Dict[str, Any]:
    candidate = json.loads(json.dumps(case))  # deep copy, stays pure data
    candidate.update(overrides)
    return candidate


def _shrink_candidates(case: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """Simplification attempts, cheapest wins first."""
    if case["churn"]:
        yield _with(case, churn=[])
        for index in range(len(case["churn"])):
            yield _with(case, churn=case["churn"][:index]
                        + case["churn"][index + 1:])
    if case["zone"]:
        yield _with(case, zone=False)
    if case["config"]:
        yield _with(case, config={})
    if case.get("delivery", "direct") != "direct":
        yield _with(case, delivery="direct")
    if case["request_loss"] > 0.0:
        yield _with(case, request_loss=0.0)
    if case["repair_loss"] > 0.0:
        yield _with(case, repair_loss=0.0)
    if len(case["data_drops"]) > 1:
        for index in range(len(case["data_drops"])):
            yield _with(case, data_drops=case["data_drops"][:index]
                        + case["data_drops"][index + 1:])
    floor = len(case["data_drops"]) + 1
    if case["packets"] > floor:
        yield _with(case, packets=floor)
        yield _with(case, packets=case["packets"] - 1)
    members = case["members"]
    if len(members) > 2:
        for member in members:
            if member == case["source"]:
                continue
            yield _with(case,
                        members=[m for m in members if m != member])
    needed = max(members) + 1
    for smaller in sorted({needed, (case["nodes"] + needed) // 2}):
        if 4 <= smaller < case["nodes"]:
            yield _with(case, nodes=smaller)


def shrink_case(case: Dict[str, Any], oracle: str,
                max_attempts: int = 120) -> Dict[str, Any]:
    """Greedy first-improvement shrink preserving the failing oracle."""
    best = case
    attempts = 0
    improved = True
    last_violation_time: Optional[float] = None
    while improved and attempts < max_attempts:
        improved = False
        for candidate in _shrink_candidates(best):
            attempts += 1
            violation_time = _still_fails(candidate, oracle)
            if violation_time is not None:
                best = candidate
                last_violation_time = violation_time
                improved = True
                break
            if attempts >= max_attempts:
                break
    # Shorter horizon: cut the run just past the surviving violation.
    if last_violation_time is None:
        last_violation_time = _still_fails(best, oracle)
    if last_violation_time is not None and best["horizon"] is None:
        candidate = _with(best, horizon=round(last_violation_time + 1.0, 3))
        if _still_fails(candidate, oracle) is not None:
            best = candidate
    return best


# ----------------------------------------------------------------------
# The fuzz campaign (used by ``repro fuzz``)
# ----------------------------------------------------------------------

def run_fuzz(rounds: int, seed: int, runner: Any, shrink: bool = True,
             shrink_limit: int = 3) -> Dict[str, Any]:
    """Generate ``rounds`` cases, execute through ``runner``, shrink.

    Returns ``{"rounds", "seed", "failures": [...]}`` where each failure
    carries the original case seed, its violations, and (when enabled)
    the minimized case.
    """
    cases = [generate_case(case_seed(seed, index))
             for index in range(rounds)]
    results = runner.map("fuzz", run_fuzz_case,
                         [{"case": case} for case in cases])
    failures: List[Dict[str, Any]] = []
    for index, result in enumerate(results):
        if not (result["violations"] or result["error"]):
            continue
        failure: Dict[str, Any] = {
            "index": index,
            "case_seed": cases[index]["case_seed"],
            "violations": result["violations"],
            "error": result["error"],
            "minimized": None,
        }
        if shrink and result["violations"] and len(failures) < shrink_limit:
            oracle = result["violations"][0]["oracle"]
            failure["minimized"] = shrink_case(cases[index], oracle)
        failures.append(failure)
    return {"rounds": rounds, "seed": seed, "failures": failures}


def format_fuzz_report(outcome: Dict[str, Any]) -> str:
    failures = outcome["failures"]
    if not failures:
        return (f"fuzz: {outcome['rounds']} cases, 0 violations "
                f"(seed {outcome['seed']})")
    lines = [f"fuzz: {len(failures)} failing case(s) out of "
             f"{outcome['rounds']} (seed {outcome['seed']})"]
    for failure in failures:
        lines.append(f"\ncase #{failure['index']} — reproduce with: "
                     f"repro fuzz --rounds 1 --seed {failure['case_seed']}")
        if failure["error"]:
            lines.append("  crashed:")
            lines.extend("    " + line for line in
                         failure["error"].rstrip().splitlines()[-6:])
        for violation in failure["violations"][:5]:
            lines.append(f"  [{violation['oracle']}] t={violation['time']:.4f} "
                         f"node={violation['node']}"
                         + (f" name={violation['name']}"
                            if violation.get("name") else "")
                         + f": {violation['message']}")
            for excerpt_line in violation.get("excerpt", [])[:8]:
                lines.append(f"      | {excerpt_line}")
        if len(failure["violations"]) > 5:
            lines.append(f"  ... {len(failure['violations']) - 5} more "
                         "violation(s)")
        if failure["minimized"] is not None:
            lines.append("  minimized case:")
            lines.append("    " + json.dumps(failure["minimized"],
                                             sort_keys=True))
    return "\n".join(lines)
