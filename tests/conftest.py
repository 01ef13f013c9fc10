"""Shared fixtures and helpers for the SRM reproduction test suite."""

from __future__ import annotations

import json
from typing import Dict, Iterable, Optional, Tuple

import pytest
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from reference_scheduler import ReferenceScheduler

from repro import env as srm_env
from repro.core.agent import SrmAgent
from repro.core.config import SrmConfig
from repro.net.network import Network
from repro.net.packet import GroupAddress
from repro.oracle.base import check_mode_enabled
from repro.sim.rng import RandomSource
from repro.sim.scheduler import EventScheduler
from repro.topology.spec import TopologySpec

#: The production scheduler and the naive reference it is checked against
#: (production-vs-reference tests parametrize over this). The ids predate
#: the single scheduler and are kept so test names stay stable:
#: ``calendar`` is ``EventScheduler`` (a calendar queue); ``heap`` — once
#: the binary-heap backend — is now ``tests/reference_scheduler.py``.
SCHEDULERS = {"heap": ReferenceScheduler, "calendar": EventScheduler}

# ----------------------------------------------------------------------
# Hypothesis profiles
# ----------------------------------------------------------------------
# All property tests share these profiles instead of hand-picking
# max_examples/deadline per test. ``deadline=None`` everywhere: the
# simulations' wall time varies wildly across machines and CI workers,
# and flaky deadline failures taught us it is never a useful signal
# here. ``print_blob=True`` so a CI failure prints the
# ``@reproduce_failure`` blob needed to replay it locally.
#
# Select with SRM_HYPOTHESIS_PROFILE=ci|dev|nightly (default: ci).

_PROFILE_SCALE = {"ci": 1.0, "dev": 0.3, "nightly": 8.0}

for _name, _scale in _PROFILE_SCALE.items():
    hypothesis_settings.register_profile(
        _name, deadline=None, print_blob=True, derandomize=(_name == "ci"))

_ACTIVE_PROFILE = srm_env.hypothesis_profile()
if _ACTIVE_PROFILE not in _PROFILE_SCALE:
    raise RuntimeError(
        f"SRM_HYPOTHESIS_PROFILE={_ACTIVE_PROFILE!r}: expected one of "
        f"{sorted(_PROFILE_SCALE)}")
hypothesis_settings.load_profile(_ACTIVE_PROFILE)


def examples(base: int) -> int:
    """Scale a test's baseline example count by the active profile.

    ``base`` is the count the test wants under the ``ci`` profile; the
    ``dev`` profile shrinks it for fast local iteration and ``nightly``
    multiplies it for the deep cron run.
    """
    return max(1, round(base * _PROFILE_SCALE[_ACTIVE_PROFILE]))


# ----------------------------------------------------------------------
# Wire mutations: one node of a recorded JSON document changed
# ----------------------------------------------------------------------

#: Any JSON value, including an int no float can hold.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6)


def json_paths(node, prefix=()):
    """Every node of a JSON tree, as the key/index path that reaches it."""
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for step, child in children:
        yield from json_paths(child, prefix + (step,))


def mutated(document, path, action, value, key):
    """A deep copy with one node replaced, deleted, or given a child."""
    root = [json.loads(json.dumps(document))]
    parent, step = root, 0
    for next_step in path:
        parent, step = parent[step], next_step
    if action == "replace":
        parent[step] = value
    elif action == "delete" and path:
        del parent[step]
    elif isinstance(parent[step], dict):
        parent[step][key] = value
    elif isinstance(parent[step], list):
        parent[step].append(value)
    else:
        parent[step] = value
    return root[0]


def draw_mutation(data, document):
    """``(path, mutant)``: one hypothesis-drawn change to ``document``."""
    path = data.draw(st.sampled_from(list(json_paths(document))))
    return path, mutated(
        document, path,
        data.draw(st.sampled_from(["replace", "delete", "add"])),
        data.draw(JSON_VALUES), data.draw(st.text(max_size=6)))


def build_srm_session(spec: TopologySpec, members: Iterable[int],
                      config: Optional[SrmConfig] = None, seed: int = 0,
                      delivery: str = "direct", scheduler=None,
                      ) -> Tuple[Network, Dict[int, SrmAgent], GroupAddress]:
    """Instantiate a network and attach SRM agents on the given members."""
    network = spec.build(scheduler=scheduler, delivery=delivery)
    network.trace.keep = None
    group = network.groups.allocate("session")
    master = RandomSource(seed)
    agents: Dict[int, SrmAgent] = {}
    for member in members:
        agent = SrmAgent(config if config is None else config.copy(),
                         master.fork(f"member-{member}"))
        network.attach(member, agent)
        agent.join_group(group)
        agents[member] = agent
    return network, agents, group


def at(network: Network, time: float, callback, *args) -> None:
    """Schedule a callback at an absolute simulated time."""
    network.scheduler.schedule_at(time, callback, *args)


@pytest.fixture
def rng() -> RandomSource:
    return RandomSource(12345)


@pytest.fixture
def admit_tasks(monkeypatch):
    """Let a test's own module-level functions run as runner tasks.

    The runner executes only its two task kinds (``repro.runner.task.
    KINDS``). A test that needs a task which crashes, sleeps or raises
    calls ``admit_tasks(fn, ...)``: each function joins the kind table
    for that test only, taking one JSON ``case`` dict as
    ``run_fuzz_case`` does.
    """
    from repro.runner.task import KINDS, RUN_FUZZ_CASE, function_ref

    def admit(*fns) -> None:
        for fn in fns:
            monkeypatch.setitem(KINDS, function_ref(fn), KINDS[RUN_FUZZ_CASE])

    return admit


@pytest.fixture(autouse=True)
def _isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default result cache at a per-test tmp dir.

    CLI commands cache results under ``results/.cache`` by default;
    tests must never read stale cached results (or litter the repo), so
    every test sees a fresh empty cache location.
    """
    monkeypatch.setenv("SRM_CACHE_DIR", str(tmp_path / "srm-cache"))


@pytest.fixture(autouse=True)
def _protocol_oracles(request, monkeypatch):
    """With SRM_CHECK=1, run every test under the protocol oracles.

    Every :class:`Network` a test builds gets a passive
    :class:`repro.oracle.SessionOracleSuite` subscribed to its trace;
    at teardown each suite's findings are verified and any invariant
    break fails the test with a violation report. Passive mode leaves
    what the trace keeps alone (a network whose trace does not keep
    every row is simply not observed) so the fixture cannot perturb
    tests that assert on trace contents beyond the extra ``deliver``
    records. A test marked ``plants_violation`` breaks an invariant on
    purpose (its own assertions check the finding) and is left alone.
    """
    if (not check_mode_enabled()
            or request.node.get_closest_marker("plants_violation")):
        yield
        return
    from repro.oracle import SessionOracleSuite

    suites = []
    original_init = Network.__init__

    def watched_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        suites.append(SessionOracleSuite.attach(self, enable_trace=False))

    monkeypatch.setattr(Network, "__init__", watched_init)
    yield
    for suite in suites:
        suite.verify(context=request.node.nodeid)
