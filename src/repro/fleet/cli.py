"""The ``repro fleet`` command: serve, work, submit, inspect.

Modes::

    repro fleet serve --port 8765 --cache-dir results/.cache
    repro fleet worker --url http://127.0.0.1:8765 --name w-a
    repro fleet submit --url ... --figure figure3 --sims 4
    repro fleet status --url ... [--job job-1]
    repro fleet workers --url ...

``submit`` runs the named figure's own sweep code against a
:class:`~repro.fleet.client.FleetRunner`, at the figure's own default
seed and scale (:data:`repro.experiments.figures.FIGURES`), so the
printed table — and the ``--metrics`` bundle — are byte-identical to
the serial ``repro <figure>`` output when the fleet behaves (that
identity is the CI fleet-smoke gate; see docs/fleet.md).
"""

from __future__ import annotations

import argparse
import sys

DEFAULT_URL = "http://127.0.0.1:8765"


def install_options(sub: argparse.ArgumentParser) -> None:
    from repro.cli import any_figure_options
    from repro.experiments.figures import FIGURES

    sub.add_argument("mode",
                     choices=["serve", "worker", "submit", "status",
                              "workers"],
                     help="serve: run a controller; worker: run a "
                          "worker agent; submit: run a figure sweep "
                          "through a controller; status: job states; "
                          "workers: worker states")
    sub.add_argument("--url", default=DEFAULT_URL,
                     help="controller base URL (default: %(default)s)")
    # serve
    sub.add_argument("--host", default="127.0.0.1",
                     help="(serve) bind address (default: %(default)s)")
    sub.add_argument("--port", type=int, default=8765,
                     help="(serve) port, 0 = ephemeral "
                          "(default: %(default)s)")
    sub.add_argument("--cache-dir", default=None, metavar="PATH",
                     help="(serve) result cache location (default: "
                          "$SRM_CACHE_DIR or results/.cache)")
    sub.add_argument("--lease-ttl", type=float, default=None,
                     metavar="SECONDS",
                     help="(serve) lease lifetime without a heartbeat "
                          "(default: 15)")
    sub.add_argument("--retries", type=int, default=2,
                     help="(serve) times a task whose lease expired "
                          "is leased again (default: %(default)s)")
    # worker
    sub.add_argument("--name", default="",
                     help="(worker) display name (default: the id)")
    sub.add_argument("--poll", type=float, default=0.2,
                     metavar="SECONDS",
                     help="(worker) idle poll interval "
                          "(default: %(default)s)")
    sub.add_argument("--max-tasks", type=int, default=None,
                     help="(worker) exit after completing this many "
                          "tasks (default: run until killed)")
    sub.add_argument("--hold", type=float, default=0.0,
                     metavar="SECONDS",
                     help="(worker) pause between lease and execution; "
                          "a crash-recovery test hook")
    # submit
    sub.add_argument("--figure", default="figure3", choices=list(FIGURES),
                     help="(submit) figure sweep to run "
                          "(default: %(default)s)")
    # (submit) --seed and every figure's scale flags.
    any_figure_options(sub)
    sub.add_argument("--metrics", default=None, metavar="PATH",
                     help="(submit) write the merged metrics bundle "
                          "(JSON) here")
    sub.add_argument("--timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="(submit) give up if the job is not done in "
                          "time (default: wait forever)")
    # status
    sub.add_argument("--job", default=None,
                     help="(status) one job id (default: all jobs)")


def run_fleet_command(args: argparse.Namespace) -> int:
    if args.mode == "serve":
        return _serve(args)
    if args.mode == "worker":
        return _worker(args)
    if args.mode == "submit":
        return _submit(args)
    if args.mode == "status":
        return _status(args)
    return _workers(args)


def _serve(args: argparse.Namespace) -> int:
    from repro.fleet.controller import DEFAULT_LEASE_TTL, serve_forever

    lease_ttl = args.lease_ttl if args.lease_ttl is not None \
        else DEFAULT_LEASE_TTL
    serve_forever(host=args.host, port=args.port,
                  cache_dir=args.cache_dir, lease_ttl=lease_ttl,
                  retries=args.retries)
    return 0


def _worker(args: argparse.Namespace) -> int:
    from repro.fleet.client import FleetError
    from repro.fleet.worker import FleetWorker

    worker = FleetWorker(args.url, name=args.name,
                         poll_interval=args.poll, hold=args.hold,
                         max_tasks=args.max_tasks)
    try:
        worker.register()
    except FleetError as exc:
        print(f"fleet worker: cannot reach controller: {exc}",
              file=sys.stderr)
        return 2
    print(f"fleet worker {worker.worker_id} "
          f"({worker.name or worker.worker_id}) polling {args.url}",
          file=sys.stderr)
    try:
        completed = worker.run()
    except KeyboardInterrupt:
        completed = worker.completed
    print(f"fleet worker {worker.worker_id}: {completed} task(s) done",
          file=sys.stderr)
    return 0


def _submit(args: argparse.Namespace) -> int:
    from repro.cli import COMMANDS
    from repro.fleet.client import FleetError, FleetRunner

    runner = FleetRunner(args.url, timeout=args.timeout,
                         metrics_path=args.metrics)
    try:
        COMMANDS[args.figure](args, runner=runner)
    except FleetError as exc:
        print(f"fleet submit: {exc}", file=sys.stderr)
        return 2
    if args.metrics:
        print(f"saved metrics bundle to {args.metrics}", file=sys.stderr)
    return 0


def _status(args: argparse.Namespace) -> int:
    from repro.fleet.client import FleetClient, FleetError

    client = FleetClient(args.url)
    try:
        rows = [client.status(args.job)] if args.job else client.jobs()
    except FleetError as exc:
        print(f"fleet status: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("no jobs")
        return 0
    print(f"{'job':<10} {'experiment':<12} {'state':<8} "
          f"{'done':>6} {'leased':>6} {'pending':>7} {'cached':>6}")
    for row in rows:
        counts = row["counts"]
        print(f"{row['job']:<10} {row['experiment']:<12} "
              f"{row['state']:<8} "
              f"{counts['done']:>3}/{row['tasks']:<3}"
              f"{counts['leased']:>5} {counts['pending']:>7} "
              f"{row['cached']:>6}")
        if row.get("error"):
            print(f"  error: {row['error']}")
    return 0


def _workers(args: argparse.Namespace) -> int:
    from repro.fleet.client import FleetClient, FleetError

    client = FleetClient(args.url)
    try:
        rows = client.workers()
    except FleetError as exc:
        print(f"fleet workers: {exc}", file=sys.stderr)
        return 2
    if not rows:
        print("no workers registered")
        return 0
    print(f"{'worker':<8} {'name':<16} {'state':<6} {'done':>5} "
          f"{'last seen':>10}")
    for row in rows:
        print(f"{row['worker']:<8} {row['name']:<16} {row['state']:<6} "
              f"{row['done']:>5} {row['last_seen_age']:>9}s")
    return 0
