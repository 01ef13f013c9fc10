"""``repro live wb`` — a multi-process whiteboard over UDP loopback.

The acceptance demo for the live engine: the parent spawns one real
OS process per member (``repro live wb-member``), each running an
unmodified :class:`~repro.wb.whiteboard.Whiteboard` on its own
:class:`~repro.live.session.LiveEngine` with a UDP socket transport.
Every member draws its own operations, loses a configurable fraction of
incoming data/repair traffic to a receive-side
:class:`~repro.live.transport.LinkEmulator`, recovers via SRM
request/repair, and finally writes a canonical digest of its rendered
canvas. The session *converged* when every member reports the same
digest over the full ``members x ops`` canvas — byte-equal shared state
through real sockets and real loss.

Transports: ``udp-peer`` (default; unicast fan-out over a port list,
needs no multicast routing) or ``udp-multicast`` (one shared 224.x
group, loopback-enabled — how the paper's wb actually ran).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from socket import AF_INET, SOCK_DGRAM, socket
from typing import Any, Dict, List, Optional, Sequence

from repro.codec import dumps_canonical
from repro.core.names import DEFAULT_PAGE
from repro.live.session import LiveEngine, live_config
from repro.live.transport import (LinkEmulator, UdpMulticastTransport,
                                  UdpPeerTransport, _UdpTransportBase)
from repro.sim.rng import RandomSource
from repro.wb.drawops import DRAWOPS, DrawOp, DrawType
from repro.wb.whiteboard import Whiteboard

#: Session time granted beyond convergence so a member that already has
#: everything keeps answering repair requests from stragglers.
LINGER = 1.0


# ----------------------------------------------------------------------
# Member process (``repro live wb-member``)
# ----------------------------------------------------------------------


def member_digest(wb: Whiteboard) -> Dict[str, Any]:
    """Canonical digest of the member's rendered canvas.

    Rows are ``[source, page-creator, page-number, seq, wire-op]`` in
    visible (timestamp, name) order; two members render identically iff
    their digests match.
    """
    canvas = wb._canvas(DEFAULT_PAGE)
    rows = [[name.source, name.page.creator, name.page.number, name.seq,
             DRAWOPS.encode(op)] for name, op in canvas.visible_ops()]
    blob = dumps_canonical(rows)
    return {"digest": hashlib.sha256(blob.encode()).hexdigest(),
            "visible": len(rows)}


def run_wb_member(index: int, ports: Sequence[int], ops: int, loss: float,
                  seed: int, duration: float, out: str,
                  multicast: Optional[str] = None,
                  members: Optional[int] = None,
                  delay: float = 0.002) -> Dict[str, Any]:
    """One whiteboard member: draw, lose, recover, digest, report."""
    master = RandomSource(seed)
    transport: _UdpTransportBase
    if multicast:
        group_ip, _, port = multicast.partition(":")
        transport = UdpMulticastTransport(group=group_ip, port=int(port))
    else:
        transport = UdpPeerTransport(ports[index], ports)
    link = LinkEmulator(master.fork(f"link-{index}"), loss=loss,
                        delay=delay, jitter=delay / 2.0)
    config = live_config(default_distance=delay)
    engine = LiveEngine(transport=transport, link=link,
                        default_distance=delay,
                        data=DRAWOPS)
    wb = Whiteboard(config=config, rng=master.fork(f"wb-{index}"))
    session = engine.groups.allocate("wb")
    wb.join(engine, index, session)

    def draw(op_index: int) -> None:
        wb.draw(DEFAULT_PAGE, DrawOp(
            shape=DrawType.LINE,
            coords=((float(index), float(op_index)),
                    (float(index + 1), float(op_index + 1))),
            color=f"member-{index}"))

    for op_index in range(ops):
        engine.scheduler.schedule(0.2 + op_index * 0.15, draw, op_index)

    session_size = members if members is not None else len(ports)
    expected = ops * session_size
    state: Dict[str, Optional[float]] = {"deadline": None}

    def stop() -> bool:
        if wb.op_count(DEFAULT_PAGE) < expected:
            state["deadline"] = None
            return False
        deadline = state["deadline"]
        if deadline is None:
            state["deadline"] = engine.scheduler.now + LINGER
            return False
        return engine.scheduler.now >= deadline

    engine.run(duration, stop_when=stop)

    report: Dict[str, Any] = {
        "index": index,
        "node_id": index,
        "expected": expected,
        "ops_seen": wb.op_count(DEFAULT_PAGE),
        "converged": wb.op_count(DEFAULT_PAGE) >= expected,
        "decode_errors": engine.decode_errors,
        "framing_errors": transport.framing_errors,
        "frames_received": transport.frames_received,
        "injected_drops": link.dropped,
    }
    report.update(member_digest(wb))
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    return report


# ----------------------------------------------------------------------
# Parent orchestration (``repro live wb``)
# ----------------------------------------------------------------------


@dataclass
class WbDemoResult:
    """Per-member reports plus the convergence verdict."""

    members: int
    reports: List[Dict[str, Any]]
    failures: List[str]

    @property
    def digests(self) -> List[str]:
        return [report["digest"] for report in self.reports]

    @property
    def converged(self) -> bool:
        return (not self.failures
                and len(self.reports) == self.members
                and all(report["converged"] for report in self.reports)
                and len(set(self.digests)) == 1)

    def format(self) -> str:
        lines = []
        for report in self.reports:
            lines.append(
                f"member {report['index']}: {report['ops_seen']}/"
                f"{report['expected']} ops, digest "
                f"{report['digest'][:12]}..., "
                f"{report['injected_drops']} deliveries dropped, "
                f"{report['decode_errors']} decode errors")
        lines.extend(f"FAILURE: {failure}" for failure in self.failures)
        if self.converged:
            lines.append(f"CONVERGED: {self.members} members share "
                         f"digest {self.digests[0][:12]}...")
        else:
            lines.append("DID NOT CONVERGE")
        return "\n".join(lines)


def allocate_ports(count: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``count`` free UDP ports by binding and releasing them."""
    sockets = [socket(AF_INET, SOCK_DGRAM) for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind((host, 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def run_wb_demo(members: int = 3, ops: int = 6, loss: float = 0.05,
                seed: int = 0, duration: float = 20.0,
                multicast: Optional[str] = None) -> WbDemoResult:
    """Spawn ``members`` real processes and check they converge."""
    if members < 2:
        raise ValueError("the demo needs at least two members")
    ports = allocate_ports(members) if not multicast else []
    # Children must import this very repro package regardless of how the
    # parent was launched (installed, or PYTHONPATH=src from a checkout).
    import repro
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory(prefix="repro-live-wb-") as workdir:
        procs: List[subprocess.Popen[bytes]] = []
        outs: List[str] = []
        for index in range(members):
            out = os.path.join(workdir, f"member-{index}.json")
            outs.append(out)
            argv = [sys.executable, "-m", "repro", "live", "wb-member",
                    "--index", str(index), "--ops", str(ops),
                    "--loss", str(loss), "--seed", str(seed + index),
                    "--duration", str(duration), "--out", out]
            if multicast:
                argv += ["--multicast", multicast,
                         "--members", str(members)]
            else:
                argv += ["--ports", ",".join(map(str, ports))]
            procs.append(subprocess.Popen(argv, env=env))
        failures: List[str] = []
        for index, proc in enumerate(procs):
            try:
                code = proc.wait(timeout=duration + 15.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                failures.append(f"member {index} timed out")
                continue
            if code != 0:
                failures.append(f"member {index} exited with {code}")
        reports = []
        for index, out in enumerate(outs):
            try:
                with open(out) as handle:
                    reports.append(json.load(handle))
            except (OSError, json.JSONDecodeError) as exc:
                failures.append(f"member {index} wrote no report ({exc})")
    return WbDemoResult(members=members, reports=reports,
                        failures=failures)
