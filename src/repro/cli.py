"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main entry points:

- ``sweep``     — threshold sweep on one network (Figures 1/16 style).
- ``e2e``       — full calibration -> test -> accelerator pipeline.
- ``simulate``  — accelerator what-if for a hypothetical reuse fraction.
- ``table1``    — print the benchmark-network table.
- ``area``      — print the area model.
- ``report``    — full markdown reproduction report.
- ``worker``    — drain a work queue (shared directory or coordinator).
- ``coordinator`` — serve a work queue over HTTP (no shared filesystem).
- ``serve``     — online fuzzy-memoized inference over HTTP (one warm
  model, live-retunable threshold).
- ``loadgen``   — drive a running ``serve`` endpoint with deterministic
  traffic; report latency percentiles and optionally verify served
  predictions bitwise against the offline batch path.
- ``top``       — live text dashboard for a ``serve`` endpoint or a
  ``coordinator`` (request rates, latency percentiles, reuse, queue
  depths, per-owner throughput); ``--watch`` refreshes in place.

``sweep``/``e2e``/``report`` take ``--backend
{serial,process,queue,http}``: ``serial`` evaluates in-process,
``process`` fans out over ``--jobs`` local worker processes, ``queue``
publishes every point into a ``--queue-dir`` that any number of
``repro worker`` processes (on any host sharing that filesystem) drain
concurrently, and ``http`` publishes them to a ``repro coordinator``
URL that any host with network reach can drain
(``repro worker --coordinator URL``).  Every backend prints
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence, Tuple, Union

from repro.accel.area import DEFAULT_AREA_MODEL
from repro.accel.epur import compare
from repro.accel.trace import ReuseTrace
from repro.analysis.figures import render_table
from repro.analysis.sweep import end_to_end, network_sweep
from repro.core.engine import PREDICTOR_KINDS, MemoizationScheme
from repro.models.specs import BENCHMARK_NAMES, PAPER_NETWORKS
from repro.models.zoo import load_benchmark
from repro.runner import (
    BACKEND_NAMES,
    DEFAULT_CACHE_DIR,
    DEFAULT_COORDINATOR_PORT,
    DEFAULT_LEASE_TTL,
    DEFAULT_QUEUE_DIR,
    CoordinatorServer,
    ParallelRunner,
    RemoteWorkQueue,
    ResultCache,
    WorkQueue,
    default_owner,
    drain,
    evaluate_task,
    make_backend,
    read_token_file,
)
from repro.serve import (
    DEFAULT_SERVE_PORT,
    DEFAULT_SESSION_TTL,
    InferenceServer,
    ServeError,
    ServeState,
    parse_layer_thetas,
    run_loadgen,
)


def _add_queue_arguments(sub: argparse.ArgumentParser) -> None:
    """Work-queue knobs shared by the queue backend and ``worker``."""
    sub.add_argument(
        "--queue-dir",
        default=DEFAULT_QUEUE_DIR,
        help=(
            "work-queue directory shared with `repro worker` processes "
            f"(default: {DEFAULT_QUEUE_DIR})"
        ),
    )
    sub.add_argument(
        "--lease-ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        help=(
            "seconds before a claimed task's lease expires and the task "
            f"is re-queued (default: {DEFAULT_LEASE_TTL:.0f})"
        ),
    )


def _add_transport_arguments(sub: argparse.ArgumentParser) -> None:
    """HTTP-coordinator knobs shared by the http backend and ``worker``."""
    sub.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help=(
            "coordinator base URL (http://HOST:PORT) for the http "
            "backend / a network-attached worker"
        ),
    )
    sub.add_argument(
        "--token-file",
        default=None,
        metavar="FILE",
        help="file holding the coordinator's shared auth token",
    )


def _read_token(args) -> Optional[str]:
    if args.token_file is None:
        return None
    try:
        return read_token_file(args.token_file)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"--token-file: {exc}") from exc


def _add_runner_arguments(sub: argparse.ArgumentParser) -> None:
    """Execution knobs shared by the sweep-driven commands."""
    sub.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help=(
            "execution backend (default: process when --jobs > 1, "
            "serial otherwise); all backends print identical output"
        ),
    )
    sub.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the process backend (default: 1)",
    )
    sub.add_argument(
        "--shards",
        type=int,
        default=1,
        help=(
            "split each evaluation batch into N mergeable shards "
            "(default: 1; results are bitwise identical for any N)"
        ),
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    sub.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    sub.add_argument(
        "--seed", type=int, default=0, help="benchmark seed (default: 0)"
    )
    _add_queue_arguments(sub)
    _add_transport_arguments(sub)
    sub.add_argument(
        "--no-drain",
        action="store_true",
        help=(
            "queue/http backends only: do not evaluate tasks in this "
            "process; rely entirely on external `repro worker` processes"
        ),
    )
    sub.add_argument(
        "--queue-timeout",
        type=float,
        default=None,
        help=(
            "queue/http backends only: abort after this many seconds "
            "without progress (default: wait forever)"
        ),
    )


def _build_runner(args) -> ParallelRunner:
    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.lease_ttl <= 0:
        raise SystemExit("--lease-ttl must be positive")
    backend_name = args.backend
    if backend_name is None:
        backend_name = "process" if args.jobs > 1 else "serial"
    if backend_name != "process" and args.jobs > 1:
        raise SystemExit(
            f"--backend {backend_name} is incompatible with --jobs > 1 "
            "(--jobs only parameterises the process backend)"
        )
    if backend_name == "http" and not args.coordinator:
        raise SystemExit("--backend http requires --coordinator URL")
    backend = make_backend(
        backend_name,
        jobs=args.jobs,
        queue_dir=args.queue_dir,
        lease_ttl=args.lease_ttl,
        drain=not args.no_drain,
        timeout=args.queue_timeout,
        reuse_results=not args.no_cache,
        coordinator=args.coordinator,
        token=_read_token(args),
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return ParallelRunner(cache=cache, backend=backend)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Neuron-level fuzzy memoization in RNNs (MICRO-52 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="threshold sweep on one network")
    sweep.add_argument("network", choices=BENCHMARK_NAMES)
    sweep.add_argument(
        "--predictor", choices=PREDICTOR_KINDS, default="bnn"
    )
    sweep.add_argument("--no-throttle", action="store_true")
    sweep.add_argument(
        "--thetas",
        type=float,
        nargs="+",
        default=[0.0, 0.05, 0.1, 0.2, 0.3, 0.5],
    )
    sweep.add_argument("--scale", choices=("tiny", "bench"), default="tiny")
    _add_runner_arguments(sweep)

    e2e = sub.add_parser("e2e", help="calibrate, test, project onto E-PUR")
    e2e.add_argument("network", choices=BENCHMARK_NAMES)
    e2e.add_argument("--loss-target", type=float, default=1.0)
    e2e.add_argument("--scale", choices=("tiny", "bench"), default="tiny")
    _add_runner_arguments(e2e)

    simulate = sub.add_parser(
        "simulate", help="accelerator what-if at a given reuse fraction"
    )
    simulate.add_argument("network", choices=BENCHMARK_NAMES)
    simulate.add_argument("--reuse", type=float, required=True)

    sub.add_parser("table1", help="print the Table 1 network specs")
    sub.add_parser("area", help="print the area model")

    report = sub.add_parser("report", help="full markdown reproduction report")
    report.add_argument("--scale", choices=("tiny", "bench"), default="tiny")
    report.add_argument("--loss-target", type=float, default=1.0)
    report.add_argument(
        "--networks", nargs="+", default=list(BENCHMARK_NAMES)
    )
    _add_runner_arguments(report)

    worker = sub.add_parser(
        "worker",
        help="drain a work queue (shared directory or HTTP coordinator)",
        description=(
            "Claim and evaluate tasks until the queue stays empty for "
            "--idle-timeout seconds (or forever without it).  The queue "
            "is either a --queue-dir shared over a filesystem, or a "
            "--coordinator URL served by `repro coordinator` (no shared "
            "filesystem needed).  Run any number of workers on any "
            "hosts; crashed workers' tasks are re-queued when their "
            "lease expires.  Exits non-zero if any task this run was "
            "quarantined under failed/, so deployment scripts can "
            "detect poison tasks."
        ),
    )
    _add_queue_arguments(worker)
    _add_transport_arguments(worker)
    worker.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after completing this many tasks (default: unlimited)",
    )
    worker.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help=(
            "exit after this many seconds without claimable work "
            "(default: run forever)"
        ),
    )
    worker.add_argument(
        "--poll-interval",
        type=float,
        default=0.1,
        help="seconds between queue polls when idle (default: 0.1)",
    )

    coordinator = sub.add_parser(
        "coordinator",
        help="serve a work queue over HTTP (no shared filesystem needed)",
        description=(
            "Wrap --queue-dir in an HTTP coordinator so any machine "
            "that can reach this URL joins the fleet: workers run "
            "`repro worker --coordinator http://HOST:PORT`, submitters "
            "run `repro sweep ... --backend http --coordinator ...`.  "
            "Queue state lives on disk, so a restarted coordinator "
            "resumes exactly where the old one stopped.  Pass "
            "--token-file to require `Authorization: Bearer` on every "
            "request."
        ),
    )
    _add_queue_arguments(coordinator)
    coordinator.add_argument(
        "--host",
        default="0.0.0.0",
        help="bind address (default: 0.0.0.0 — all interfaces)",
    )
    coordinator.add_argument(
        "--port",
        type=int,
        default=DEFAULT_COORDINATOR_PORT,
        help=f"listen port (default: {DEFAULT_COORDINATOR_PORT}; 0 = ephemeral)",
    )
    coordinator.add_argument(
        "--token-file",
        default=None,
        metavar="FILE",
        help=(
            "file holding the shared auth token workers must present "
            "(strongly recommended off-loopback)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="online fuzzy-memoized inference over HTTP",
        description=(
            "Train (or load) one zoo network, wrap it with fuzzy "
            "memoization once, and answer inference requests over HTTP "
            "with the memo buffers warm across requests.  The reuse "
            "threshold is retunable live (globally and per layer) via "
            "PUT /api/v1/theta; /api/v1/metrics reports request "
            "counters, a latency histogram and the running reuse rate.  "
            "Pass --token-file to require `Authorization: Bearer` on "
            "every request."
        ),
    )
    serve.add_argument("network", choices=BENCHMARK_NAMES)
    serve.add_argument("--scale", choices=("tiny", "bench"), default="tiny")
    serve.add_argument(
        "--seed", type=int, default=0, help="benchmark seed (default: 0)"
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1 — loopback only)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=DEFAULT_SERVE_PORT,
        help=f"listen port (default: {DEFAULT_SERVE_PORT}; 0 = ephemeral)",
    )
    serve.add_argument(
        "--token-file",
        default=None,
        metavar="FILE",
        help="file holding the shared auth token clients must present",
    )
    serve.add_argument(
        "--theta",
        type=float,
        default=0.05,
        help="initial reuse threshold (default: 0.05)",
    )
    serve.add_argument(
        "--predictor", choices=PREDICTOR_KINDS, default="bnn"
    )
    serve.add_argument("--no-throttle", action="store_true")
    serve.add_argument(
        "--layer-theta",
        action="append",
        default=[],
        metavar="LAYER=THETA",
        help=(
            "per-layer threshold override (repeatable), e.g. "
            "--layer-theta stack.layer0=0.1"
        ),
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="N",
        help=(
            "independently-wrapped compute copies of the model in the "
            "pool; K concurrent requests run up to N forwards in "
            "parallel (default: 1)"
        ),
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        default=DEFAULT_SESSION_TTL,
        metavar="SECONDS",
        help=(
            "evict streaming sessions idle this long; <= 0 disables "
            f"eviction (default: {DEFAULT_SESSION_TTL:.0f})"
        ),
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running `repro serve` endpoint; print a JSON summary",
        description=(
            "Send deterministic test-split traffic at a running server "
            "and report client-side latency percentiles (p50/p95/p99), "
            "throughput, and the server's reuse metrics.  With --verify, "
            "train the same benchmark locally (bitwise the server's "
            "weights) and diff every served prediction against the "
            "offline batch path under the server's live scheme."
        ),
    )
    loadgen.add_argument("network", choices=BENCHMARK_NAMES)
    loadgen.add_argument(
        "--url", required=True, help="server base URL (http://HOST:PORT)"
    )
    loadgen.add_argument("--scale", choices=("tiny", "bench"), default="tiny")
    loadgen.add_argument(
        "--seed", type=int, default=0, help="benchmark seed (default: 0)"
    )
    loadgen.add_argument(
        "--requests",
        type=int,
        default=32,
        help="number of requests to send (default: 32)",
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="client threads (default: 4)",
    )
    loadgen.add_argument(
        "--batch",
        type=int,
        default=4,
        help="rows per request (default: 4)",
    )
    loadgen.add_argument(
        "--theta",
        type=float,
        default=None,
        help="PUT this threshold to the server before the run",
    )
    loadgen.add_argument(
        "--retune-theta",
        type=float,
        default=None,
        metavar="THETA",
        help=(
            "fire a live PUT /theta to this threshold once about half "
            "the requests have completed; --verify still checks every "
            "row bitwise, per scheme version"
        ),
    )
    loadgen.add_argument(
        "--token-file",
        default=None,
        metavar="FILE",
        help="file holding the server's shared auth token",
    )
    loadgen.add_argument(
        "--verify",
        action="store_true",
        help=(
            "diff served predictions bitwise against the local offline "
            "batch path (trains the benchmark locally first)"
        ),
    )
    loadgen.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the JSON summary report to this file",
    )

    top = sub.add_parser(
        "top",
        help="live text dashboard for a serve endpoint or coordinator",
        description=(
            "Scrape a running `repro serve` (/api/v1/metrics) or "
            "`repro coordinator` (/api/v1/stats) and render a compact "
            "text dashboard: request rates, latency percentiles, pool "
            "occupancy and reuse for the serving tier; queue depths and "
            "per-owner throughput for the coordinator.  With --watch, "
            "refresh in place until interrupted."
        ),
    )
    top.add_argument(
        "--url", required=True, help="server base URL (http://HOST:PORT)"
    )
    top.add_argument(
        "--token-file",
        default=None,
        metavar="FILE",
        help="file holding the server's shared auth token",
    )
    top.add_argument(
        "--watch",
        action="store_true",
        help="refresh the dashboard in place until Ctrl-C",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between --watch refreshes (default: 2)",
    )
    return parser


def _cmd_sweep(args) -> str:
    # trained=False: on a warm cache (or with --jobs) no training is
    # needed in this process, so defer it to the first cache miss.
    bench = load_benchmark(
        args.network, scale=args.scale, seed=args.seed, trained=False
    )
    scheme = MemoizationScheme(
        predictor=args.predictor, throttle=not args.no_throttle
    )
    with _build_runner(args) as runner:
        sweep = network_sweep(
            bench,
            scheme,
            thetas=tuple(args.thetas),
            runner=runner,
            shards=args.shards,
        )
    rows = [
        [p.theta, f"{p.loss:.2f}", f"{100 * p.reuse:.1f}%"] for p in sweep.points
    ]
    metric = bench.spec.quality_metric
    return render_table(["theta", f"{metric} loss", "reuse"], rows)


def _cmd_e2e(args) -> str:
    bench = load_benchmark(
        args.network, scale=args.scale, seed=args.seed, trained=False
    )
    with _build_runner(args) as runner:
        result = end_to_end(
            bench,
            loss_target=args.loss_target,
            runner=runner,
            shards=args.shards,
        )
    rows = [
        ["calibrated theta", result.theta],
        ["test quality loss", f"{result.quality_loss:.2f}"],
        ["computation reuse", f"{result.reuse_percent:.1f}%"],
        ["energy savings", f"{result.energy_savings_percent:.1f}%"],
        ["speedup", f"{result.speedup:.2f}x"],
    ]
    return render_table(["quantity", "value"], rows)


def _cmd_simulate(args) -> str:
    if not 0.0 <= args.reuse <= 1.0:
        raise SystemExit("--reuse must be in [0, 1]")
    spec = PAPER_NETWORKS[args.network]
    comparison = compare(spec, ReuseTrace.uniform(args.reuse, spec.layers))
    rows = [
        ["network", spec.name],
        ["reuse", f"{comparison.reuse_percent:.1f}%"],
        ["energy savings", f"{comparison.energy_savings_percent:.1f}%"],
        ["speedup", f"{comparison.speedup:.2f}x"],
    ]
    return render_table(["quantity", "value"], rows)


def _cmd_table1(args) -> str:
    del args
    rows = [
        [
            spec.name,
            spec.app_domain,
            spec.cell_type,
            spec.layers,
            spec.neurons,
            f"{spec.base_quality} {spec.quality_metric}",
            f"{spec.paper_reuse_percent}%",
        ]
        for spec in PAPER_NETWORKS.values()
    ]
    return render_table(
        ["network", "domain", "cell", "layers", "neurons", "base", "reuse@1%"],
        rows,
    )


def _cmd_report(args) -> str:
    from repro.analysis.report import generate_report

    with _build_runner(args) as runner:
        return generate_report(
            scale=args.scale,
            loss_target=args.loss_target,
            networks=tuple(args.networks),
            runner=runner,
            seed=args.seed,
            shards=args.shards,
        )


def _cmd_worker(args) -> Tuple[str, int]:
    if args.lease_ttl <= 0:
        raise SystemExit("--lease-ttl must be positive")
    if args.max_tasks is not None and args.max_tasks < 1:
        raise SystemExit("--max-tasks must be >= 1")
    if args.coordinator:
        queue = RemoteWorkQueue(args.coordinator, token=_read_token(args))
    else:
        queue = WorkQueue(args.queue_dir, lease_ttl=args.lease_ttl)
    owner = default_owner()
    print(f"worker {owner} draining {queue.location}", flush=True)
    quarantined = 0

    def counting_evaluate(payload):
        # Count only *this worker's* quarantines (handler exceptions it
        # raised itself): a fleet-wide failed_count() delta would blame
        # every concurrently-draining worker for one poison task.
        nonlocal quarantined
        try:
            return evaluate_task(payload)
        except Exception:
            quarantined += 1
            raise

    completed = drain(
        queue,
        counting_evaluate,
        max_tasks=args.max_tasks,
        idle_timeout=args.idle_timeout,
        poll_interval=args.poll_interval,
    )
    summary = f"worker {owner}: drained {completed} task(s) from {queue.location}"
    if quarantined:
        # Non-zero exit: scripted deployments must be able to see from
        # the exit code alone that poison tasks are sitting in failed/.
        summary += f" ({quarantined} task(s) quarantined in failed/)"
    return summary, 1 if quarantined else 0


def _cmd_coordinator(args) -> str:
    if args.lease_ttl <= 0:
        raise SystemExit("--lease-ttl must be positive")
    token = _read_token(args)
    queue = WorkQueue(args.queue_dir, lease_ttl=args.lease_ttl)
    server = CoordinatorServer(
        queue, host=args.host, port=args.port, token=token
    )
    auth = "token auth" if token else "NO auth -- trusted networks only"
    print(
        f"coordinator serving queue {args.queue_dir} at {server.url} "
        f"({auth}); Ctrl-C to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    stats = queue.stats()
    return (
        f"coordinator stopped; queue {args.queue_dir}: "
        f"{stats['pending']} pending, {stats['active']} active, "
        f"{stats['failed']} failed, {stats['results']} result(s)"
    )


def _cmd_serve(args) -> str:
    token = _read_token(args)
    try:
        scheme = MemoizationScheme(
            theta=args.theta,
            predictor=args.predictor,
            throttle=not args.no_throttle,
            layer_thetas=parse_layer_thetas(args.layer_theta) or None,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(
        f"loading {args.network} ({args.scale}, seed {args.seed}); "
        "training if needed...",
        flush=True,
    )
    bench = load_benchmark(args.network, scale=args.scale, seed=args.seed)
    try:
        state = ServeState(
            bench,
            scheme,
            replicas=args.replicas,
            session_ttl=args.session_ttl,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    server = InferenceServer(state, host=args.host, port=args.port, token=token)
    auth = "token auth" if token else "NO auth -- trusted networks only"
    print(
        f"serving {args.network} at {server.url} (theta={scheme.theta}, "
        f"predictor={scheme.predictor}, {state.replica_count} replica(s), "
        f"{auth}); Ctrl-C to stop",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return (
        f"serve stopped; {state.infer_requests} inference request(s), "
        f"{state.rows_served} row(s), "
        f"{100.0 * state.aggregate_stats().reuse_fraction():.1f}% reuse"
    )


def _cmd_loadgen(args) -> Tuple[str, int]:
    try:
        summary = run_loadgen(
            args.url,
            args.network,
            scale=args.scale,
            seed=args.seed,
            requests=args.requests,
            concurrency=args.concurrency,
            batch=args.batch,
            token=_read_token(args),
            verify=args.verify,
            theta=args.theta,
            retune_theta=args.retune_theta,
            out=args.out,
        )
    except (ServeError, ValueError) as exc:
        raise SystemExit(f"loadgen: {exc}") from exc
    failed = bool(summary["errors"]) or (
        args.verify and summary["verify"]["mismatches"] > 0
    )
    return json.dumps(summary, indent=2), 1 if failed else 0


def _cmd_top(args) -> Union[str, Tuple[str, int]]:
    # Lazy import: the dashboard renderer is the one obs module the
    # library tiers never load.
    from repro.obs.top import TopError, run_top

    if args.interval <= 0:
        raise SystemExit("--interval must be positive")
    token = _read_token(args)
    if not args.watch:
        try:
            return run_top(args.url, token=token)
        except TopError as exc:
            raise SystemExit(f"top: {exc}") from exc
    import time as _time

    try:
        while True:
            try:
                dashboard = run_top(args.url, token=token)
            except TopError as exc:
                dashboard = f"top: {exc}"
            # Clear screen + home, like watch(1).
            print("\x1b[2J\x1b[H" + dashboard, flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return ""


def _cmd_area(args) -> str:
    del args
    model = DEFAULT_AREA_MODEL
    rows = [[name, f"{mm2:.1f}"] for name, mm2 in model.breakdown().items()]
    rows.append(["E-PUR", f"{model.baseline_mm2:.1f}"])
    rows.append(["E-PUR+BM", f"{model.memoized_mm2:.1f}"])
    return render_table(["component", "mm^2"], rows)


_COMMANDS = {
    "sweep": _cmd_sweep,
    "e2e": _cmd_e2e,
    "simulate": _cmd_simulate,
    "table1": _cmd_table1,
    "area": _cmd_area,
    "report": _cmd_report,
    "worker": _cmd_worker,
    "coordinator": _cmd_coordinator,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "top": _cmd_top,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    outcome: Union[str, Tuple[str, int]] = _COMMANDS[args.command](args)
    text, code = outcome if isinstance(outcome, tuple) else (outcome, 0)
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
