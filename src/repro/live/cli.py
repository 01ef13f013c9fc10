"""The ``repro live`` command: wb demo, member process, and soak.

Modes::

    repro live wb --members 3 --loss 0.05        # multi-process demo
    repro live wb-member --index 0 --ports ...   # one member (internal)
    repro live soak --packets 80 --loss 0.1      # sim-vs-live gate

``wb`` spawns one OS process per member over UDP loopback and checks
every member converges to an identical whiteboard digest. ``soak`` runs
the same sustained-loss workload on the live engine and the simulator
and gates the live metrics bundle against the sim's
(:mod:`repro.live.soak`). ``wb-member`` is the child entry point ``wb``
spawns; it is usable standalone to run one interactive member, e.g. in
two terminals sharing a multicast group (see docs/live.md).
"""

from __future__ import annotations

import argparse
import sys


def install_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("mode", choices=["wb", "wb-member", "soak"],
                     help="wb: multi-process whiteboard demo; "
                          "wb-member: one member process; "
                          "soak: sim-vs-live metrics cross-validation")
    sub.add_argument("--members", type=int, default=3,
                     help="session size (default: %(default)s)")
    sub.add_argument("--loss", type=float, default=0.05,
                     help="injected loss probability per (packet, "
                          "receiver) on data/repair traffic "
                          "(default: %(default)s)")
    sub.add_argument("--seed", type=int, default=6,
                     help="random seed (default: %(default)s)")
    sub.add_argument("--duration", type=float, default=None,
                     help="wall-clock budget in seconds "
                          "(default: mode-specific)")
    sub.add_argument("--check", action="store_true",
                     help="attach the wall-clock-tolerant protocol "
                          "oracles and the metrics consistency check")
    # wb / wb-member
    sub.add_argument("--ops", type=int, default=6,
                     help="drawops each member draws (default: "
                          "%(default)s)")
    sub.add_argument("--multicast", default=None, metavar="GROUP:PORT",
                     help="use real IP multicast (e.g. "
                          "224.101.13.95:47123) instead of unicast "
                          "fan-out over loopback")
    # wb-member only
    sub.add_argument("--index", type=int, default=None,
                     help="(wb-member) this member's index / node id")
    sub.add_argument("--ports", default=None,
                     help="(wb-member) comma-separated UDP port list, "
                          "one per member, ours at position --index")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="(wb-member) write the JSON report here")
    # soak only
    sub.add_argument("--packets", type=int, default=80,
                     help="(soak) data packets from the source "
                          "(default: %(default)s)")
    sub.add_argument("--rate", type=float, default=80.0,
                     help="(soak) packets per second "
                          "(default: %(default)s)")
    sub.add_argument("--drain", type=float, default=1.5,
                     help="(soak) recovery window after the last send "
                          "(default: %(default)s)")
    sub.add_argument("--tolerance", type=float, default=None,
                     help="(soak) relative sim-vs-live tolerance "
                          "(default: the soak default)")
    sub.add_argument("--save-live", default=None, metavar="PATH",
                     help="(soak) save the live metrics bundle here")
    sub.add_argument("--save-sim", default=None, metavar="PATH",
                     help="(soak) save the sim metrics bundle here")


def run_live_command(args: argparse.Namespace) -> int:
    if args.mode == "wb":
        return _run_wb(args)
    if args.mode == "wb-member":
        return _run_wb_member(args)
    return _run_soak(args)


def _run_wb(args: argparse.Namespace) -> int:
    from repro.live.wbdemo import run_wb_demo

    duration = args.duration if args.duration is not None else 20.0
    result = run_wb_demo(members=args.members, ops=args.ops,
                         loss=args.loss, seed=args.seed,
                         duration=duration, multicast=args.multicast)
    print(result.format())
    return 0 if result.converged else 2


def _run_wb_member(args: argparse.Namespace) -> int:
    from repro.live.wbdemo import run_wb_member

    if args.index is None:
        print("live wb-member: --index is required", file=sys.stderr)
        return 2
    if not args.ports and not args.multicast:
        print("live wb-member: --ports or --multicast is required",
              file=sys.stderr)
        return 2
    ports = [int(port) for port in args.ports.split(",")] \
        if args.ports else []
    duration = args.duration if args.duration is not None else 20.0
    report = run_wb_member(
        index=args.index, ports=ports, ops=args.ops, loss=args.loss,
        seed=args.seed, duration=duration, out=args.out or "",
        multicast=args.multicast,
        members=args.members if args.multicast else None)
    if not args.out:
        import json
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _run_soak(args: argparse.Namespace) -> int:
    from repro.live.soak import SOAK_DEFAULT_TOLERANCE, SoakSpec, run_soak
    from repro.metrics import save_bundle

    spec = SoakSpec(members=args.members, packets=args.packets,
                    rate=args.rate, loss=args.loss, drain=args.drain,
                    seed=args.seed,
                    check=args.check)
    if args.duration is not None:
        spec.drain = max(0.0, args.duration - spec.packets / spec.rate)
    tolerance = args.tolerance if args.tolerance is not None \
        else SOAK_DEFAULT_TOLERANCE
    result = run_soak(spec, tolerance=tolerance)
    print(result.format())
    if args.save_live:
        print(f"saved live bundle to "
              f"{save_bundle(result.live.bundle, args.save_live)}",
              file=sys.stderr)
    if args.save_sim:
        print(f"saved sim bundle to "
              f"{save_bundle(result.sim.bundle, args.save_sim)}",
              file=sys.stderr)
    return 0 if result.ok else 2
