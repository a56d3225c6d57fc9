"""Command-line interface.

The CLI exposes the common workflows of the package without writing Python:

.. code-block:: console

    # Generate a DAG and save it as JSON or DOT
    python -m repro generate --workflow cholesky --size 8 --output chol8.json
    python -m repro generate --workflow lu --size 5 --format dot --output lu5.dot

    # Estimate the expected makespan of a DAG under silent errors
    python -m repro estimate --workflow lu --size 12 --pfail 0.001 \
        --method first-order --method normal --method monte-carlo

    # Re-run the paper's experiments
    python -m repro experiment figure --figure figure5
    python -m repro experiment table1 --size 12
    python -m repro experiment all --output-dir results/

    # Schedule a DAG on a finite platform and simulate it under failures
    python -m repro schedule --workflow cholesky --size 8 --processors 4 \
        --pfail 0.01 --priority expected-first-order

    # Run the long-lived estimation service (JSON lines over TCP)
    python -m repro serve --port 8642 --cache-bytes 268435456
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
from pathlib import Path
from typing import Any, List, Optional

import numpy as np

from . import estimate_expected_makespan
from .core.serialize import save_dot, save_json
from .estimators.registry import available_estimators
from .experiments.config import (
    KERNEL_ESTIMATORS,
    PAPER_FIGURES,
    PARALLEL_ESTIMATORS,
    SHM_ESTIMATORS,
)
from .experiments.error_vs_size import run_figure
from .experiments.reporting import figure_ascii_plot, figure_table, scalability_table
from .experiments.runner import run_everything
from .experiments.scalability import run_scalability
from .experiments.config import ScalabilityConfig, TABLE1
from .failures.models import ExponentialErrorModel
from .scheduling import Platform, cp_schedule, expected_schedule_makespan
from .workflows.registry import available_workflows, build_dag

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser of the ``repro-makespan`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-makespan",
        description=(
            "Expected makespan of task graphs under silent errors "
            "(reproduction of Casanova, Herrmann, Robert, P2S2/ICPP 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # generate ----------------------------------------------------------
    gen = sub.add_parser("generate", help="generate a workflow DAG and write it to a file")
    gen.add_argument("--workflow", required=True, choices=available_workflows())
    gen.add_argument("--size", type=int, required=True, help="graph size parameter (k)")
    gen.add_argument("--format", choices=["json", "dot"], default="json")
    gen.add_argument("--output", required=True, help="output file path")

    # estimate ----------------------------------------------------------
    est = sub.add_parser("estimate", help="estimate the expected makespan of a DAG")
    est.add_argument("--workflow", required=True, choices=available_workflows())
    est.add_argument("--size", type=int, required=True)
    est.add_argument("--pfail", type=float, default=1e-3,
                     help="failure probability of a task of average weight (default 1e-3)")
    est.add_argument("--method", action="append", default=None,
                     help=f"estimator name (repeatable); available: {', '.join(available_estimators())}")
    est.add_argument("--trials", type=int, default=None, help="Monte Carlo trials")
    est.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    est.add_argument("--dtype", choices=["float64", "float32"], default=None,
                     help="Monte Carlo kernel precision (float32 halves memory traffic)")
    est.add_argument("--workers", type=int, default=None,
                     help="Monte Carlo parallel evaluation workers (default 1)")
    est.add_argument("--backend", choices=["serial", "threads", "processes"], default=None,
                     help="Monte Carlo execution backend (default: serial for 1 "
                          "worker, threads otherwise; processes sidesteps the GIL)")
    est.add_argument("--streaming", action="store_true", default=None,
                     help="streaming statistics: mean/std/CI/quantiles in O(batch) "
                          "memory, no materialised sample")
    est.add_argument("--kernel-backend", choices=["numpy", "numba", "cupy"],
                     default=None,
                     help="compiled-kernel backend of the hot numerical loops "
                          "(default numpy, the bit-reference; numba JIT-compiles "
                          "the fused band gathers and level recurrences, cupy "
                          "runs the Monte Carlo sweep on a CUDA device; "
                          "unported/unavailable backends fall back per function; "
                          "also via REPRO_KERNEL_BACKEND)")
    est.add_argument("--est-workers", type=int, default=None,
                     help="parallel workers of the analytical estimators "
                          "(normal-correlated fold, second-order sweeps, dodin "
                          "rounds) on the shared execution service (default 1; "
                          "also via REPRO_EST_WORKERS)")
    est.add_argument("--corr-backend", choices=["dense", "banded", "lowrank"],
                     default=None,
                     help="correlation storage of the normal-correlated "
                          "estimator (default dense; banded stores Θ(|V|·band) "
                          "and is bit-equal to dense at the auto bandwidth)")
    est.add_argument("--corr-bandwidth", type=int, default=None,
                     help="level bandwidth of the banded/lowrank correlation "
                          "stores (default: auto = the exact bandwidth)")
    est.add_argument("--corr-rank", type=int, default=None,
                     help="Nyström rank of the lowrank correlation store "
                          "(default 32)")
    est.add_argument("--exec-retries", type=int, default=None,
                     help="re-dispatches allowed per work partition of the "
                          "execution service (default 0 = fail fast; retries "
                          "replay the partition's RNG stream so results stay "
                          "bit-identical; also via REPRO_EXEC_RETRIES)")
    est.add_argument("--exec-timeout", type=float, default=None,
                     help="per-partition soft deadline in seconds (advisory "
                          "in-process, enforced by worker preemption on the "
                          "processes backend; also via REPRO_EXEC_TIMEOUT)")
    est.add_argument("--exec-on-failure", choices=["raise", "degrade"], default=None,
                     help="unusable-backend policy: raise a structured "
                          "ExecutionError (default) or degrade processes->"
                          "threads->serial (also via REPRO_EXEC_ON_FAILURE)")
    est.add_argument("--exec-backend", choices=["serial", "threads", "processes"],
                     default=None,
                     help="execution backend of the correlated/second-order "
                          "work partitions (default: serial at one worker, "
                          "threads otherwise; processes attaches workers "
                          "zero-copy to the shared-memory kernel plane, "
                          "bit-identical at any worker count; also via "
                          "REPRO_EXEC_BACKEND)")
    est.add_argument("--json", action="store_true", help="print machine-readable JSON")

    # experiment ---------------------------------------------------------
    exp = sub.add_parser("experiment", help="re-run the paper's experiments")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    fig = exp_sub.add_parser("figure", help="one error-vs-size figure")
    fig.add_argument("--figure", required=True, choices=sorted(PAPER_FIGURES))
    fig.add_argument("--trials", type=int, default=None)
    fig.add_argument("--seed", type=int, default=None)
    fig.add_argument("--dtype", choices=["float64", "float32"], default=None,
                     help="Monte Carlo kernel precision")
    fig.add_argument("--workers", type=int, default=None,
                     help="Monte Carlo parallel evaluation workers (default 1)")
    fig.add_argument("--backend", choices=["serial", "threads", "processes"], default=None,
                     help="Monte Carlo execution backend")
    fig.add_argument("--streaming", action="store_true", default=None,
                     help="Monte Carlo streaming statistics (O(batch) memory)")
    fig.add_argument("--kernel-backend", choices=["numpy", "numba", "cupy"],
                     default=None,
                     help="compiled-kernel backend of the hot numerical loops "
                          "(also via REPRO_KERNEL_BACKEND)")
    fig.add_argument("--est-workers", type=int, default=None,
                     help="parallel workers of the analytical estimators "
                          "(also via REPRO_EST_WORKERS)")
    fig.add_argument("--no-plot", action="store_true")

    tab = exp_sub.add_parser("table1", help="the scalability study (Table I)")
    tab.add_argument("--size", type=int, default=None,
                     help="tile count k (paper: 20; smaller values for quick runs)")
    tab.add_argument("--trials", type=int, default=None)
    tab.add_argument("--seed", type=int, default=None)
    tab.add_argument("--dtype", choices=["float64", "float32"], default=None,
                     help="Monte Carlo kernel precision")
    tab.add_argument("--workers", type=int, default=None,
                     help="Monte Carlo parallel evaluation workers (default 1)")
    tab.add_argument("--backend", choices=["serial", "threads", "processes"], default=None,
                     help="Monte Carlo execution backend")
    tab.add_argument("--streaming", action="store_true", default=None,
                     help="Monte Carlo streaming statistics (O(batch) memory)")
    tab.add_argument("--kernel-backend", choices=["numpy", "numba", "cupy"],
                     default=None,
                     help="compiled-kernel backend of the hot numerical loops "
                          "(also via REPRO_KERNEL_BACKEND)")
    tab.add_argument("--est-workers", type=int, default=None,
                     help="parallel workers of the analytical estimators "
                          "(also via REPRO_EST_WORKERS)")

    allp = exp_sub.add_parser("all", help="all figures and Table I")
    allp.add_argument("--trials", type=int, default=None)
    allp.add_argument("--table1-size", type=int, default=None)
    allp.add_argument("--seed", type=int, default=None)
    allp.add_argument("--dtype", choices=["float64", "float32"], default=None,
                      help="Monte Carlo kernel precision")
    allp.add_argument("--workers", type=int, default=None,
                      help="Monte Carlo parallel evaluation workers (default 1)")
    allp.add_argument("--backend", choices=["serial", "threads", "processes"], default=None,
                      help="Monte Carlo execution backend")
    allp.add_argument("--streaming", action="store_true", default=None,
                      help="Monte Carlo streaming statistics (O(batch) memory)")
    allp.add_argument("--kernel-backend", choices=["numpy", "numba", "cupy"],
                      default=None,
                      help="compiled-kernel backend of the hot numerical loops "
                           "(also via REPRO_KERNEL_BACKEND)")
    allp.add_argument("--est-workers", type=int, default=None,
                      help="parallel workers of the analytical estimators "
                           "(also via REPRO_EST_WORKERS)")
    allp.add_argument("--output-dir", default=None, help="directory for CSV archives")

    # serve --------------------------------------------------------------
    srv = sub.add_parser(
        "serve",
        help="run the long-lived estimation service (JSON lines over TCP)",
    )
    srv.add_argument("--host", default="127.0.0.1", help="bind address")
    srv.add_argument("--port", type=int, default=8642,
                     help="bind port (0 picks a free port; default 8642)")
    srv.add_argument("--cache-bytes", type=int, default=None,
                     help="byte budget of the schedule cache and the shared-"
                          "memory segment registry (also via "
                          "REPRO_SERVICE_CACHE_BYTES; default unbounded)")
    srv.add_argument("--service-workers", type=int, default=None,
                     help="concurrent estimation threads (also via "
                          "REPRO_SERVICE_WORKERS; default 4)")

    # schedule -----------------------------------------------------------
    sch = sub.add_parser("schedule", help="CP-schedule a DAG and simulate it under failures")
    sch.add_argument("--workflow", required=True, choices=available_workflows())
    sch.add_argument("--size", type=int, required=True)
    sch.add_argument("--processors", type=int, default=4)
    sch.add_argument("--pfail", type=float, default=1e-2)
    sch.add_argument("--priority", default="bottom-level",
                     choices=["bottom-level", "expected-first-order", "expected-sculli"])
    sch.add_argument("--trials", type=int, default=500, help="execution-simulation trials")
    sch.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = build_dag(args.workflow, args.size)
    path = Path(args.output)
    if args.format == "json":
        save_json(graph, path)
    else:
        save_dot(graph, path)
    print(f"wrote {graph.num_tasks} tasks / {graph.num_edges} edges to {path}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    graph = build_dag(args.workflow, args.size)
    model = ExponentialErrorModel.for_graph(graph, args.pfail)
    methods = args.method or ["first-order", "normal", "dodin"]
    outputs = []
    for method in methods:
        kwargs = {}
        if method in ("monte-carlo", "mc", "montecarlo"):
            if args.trials is not None:
                kwargs["trials"] = args.trials
            if args.seed is not None:
                kwargs["seed"] = args.seed
            if args.dtype is not None:
                kwargs["dtype"] = args.dtype
            if args.workers is not None:
                kwargs["workers"] = args.workers
            if args.backend is not None:
                kwargs["backend"] = args.backend
            if args.streaming is not None:
                kwargs["streaming"] = args.streaming
        if method in ("normal-correlated", "corlca"):
            if args.corr_backend is not None:
                kwargs["correlation_backend"] = args.corr_backend
            if args.corr_bandwidth is not None:
                kwargs["bandwidth"] = args.corr_bandwidth
            if args.corr_rank is not None:
                kwargs["rank"] = args.corr_rank
        if method in KERNEL_ESTIMATORS and args.kernel_backend is not None:
            kwargs["kernel_backend"] = args.kernel_backend
        if method in PARALLEL_ESTIMATORS and args.est_workers is not None:
            kwargs["workers"] = args.est_workers
        if method in SHM_ESTIMATORS and args.exec_backend is not None:
            kwargs["exec_backend"] = args.exec_backend
        if method in ("monte-carlo", "mc", "montecarlo") or method in PARALLEL_ESTIMATORS:
            if args.exec_retries is not None:
                kwargs["exec_retries"] = args.exec_retries
            if args.exec_timeout is not None:
                kwargs["exec_timeout"] = args.exec_timeout
            if args.exec_on_failure is not None:
                kwargs["exec_on_failure"] = args.exec_on_failure
        result = estimate_expected_makespan(graph, model, method=method, **kwargs)
        outputs.append(result)
        if not args.json:
            print(result.summary())
    if args.json:
        payload = {
            "workflow": args.workflow,
            "size": args.size,
            "num_tasks": graph.num_tasks,
            "pfail": args.pfail,
            "error_rate": model.error_rate,
            "estimates": [
                {
                    "method": r.method,
                    "expected_makespan": r.expected_makespan,
                    "failure_free_makespan": r.failure_free_makespan,
                    "wall_time": r.wall_time,
                    "std_error": r.std_error,
                    "confidence_interval": r.confidence_interval,
                    "details": r.details,
                }
                for r in outputs
            ],
        }
        print(json.dumps(_json_safe(payload), indent=2, allow_nan=False))
    return 0


def _json_safe(value: Any) -> Any:
    """``value`` with NumPy scalars unwrapped and non-finite floats as ``None``.

    Strict JSON has no ``Infinity``/``NaN`` (a one-trial confidence
    interval is ``(-inf, inf)``) and no NumPy types.
    """
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cmd_experiment(args: argparse.Namespace) -> int:
    progress = lambda message: print(message, file=sys.stderr)  # noqa: E731
    if args.experiment == "figure":
        result = run_figure(
            args.figure,
            mc_trials=args.trials,
            mc_dtype=args.dtype,
            mc_workers=args.workers,
            mc_backend=args.backend,
            mc_streaming=args.streaming,
            kernel_backend=args.kernel_backend,
            est_workers=args.est_workers,
            seed=args.seed,
            progress=progress,
        )
        print(figure_table(result))
        if not args.no_plot:
            print()
            print(figure_ascii_plot(result))
        return 0
    if args.experiment == "table1":
        config = TABLE1 if args.size is None else ScalabilityConfig(
            workflow=TABLE1.workflow, size=args.size, pfail=TABLE1.pfail
        )
        result = run_scalability(
            config,
            mc_trials=args.trials,
            mc_dtype=args.dtype,
            mc_workers=args.workers,
            mc_backend=args.backend,
            mc_streaming=args.streaming,
            kernel_backend=args.kernel_backend,
            est_workers=args.est_workers,
            seed=args.seed,
            progress=progress,
        )
        print(scalability_table(result))
        return 0
    # all
    results = run_everything(
        mc_trials=args.trials,
        mc_dtype=args.dtype,
        mc_workers=args.workers,
        mc_backend=args.backend,
        mc_streaming=args.streaming,
        kernel_backend=args.kernel_backend,
        est_workers=args.est_workers,
        table1_size=args.table1_size,
        seed=args.seed,
        output_dir=args.output_dir,
        progress=progress,
    )
    for name in sorted(results["figures"], key=lambda n: int(n.replace("figure", ""))):
        print(figure_table(results["figures"][name]))
        print()
    print(scalability_table(results["table1"]))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the asyncio front end only loads when serving.
    from .service.server import EstimationServer

    server = EstimationServer(
        args.host,
        args.port,
        cache_bytes=args.cache_bytes,
        workers=args.service_workers,
    )
    # Bind before announcing, so `--port 0` reports the port it drew.
    server.start()
    print(
        f"estimation service on {args.host}:{server.port} — "
        f"{server.workers} workers, cache "
        f"{server.cache_bytes if server.cache_bytes is not None else 'unbounded'}"
        f"{' bytes' if server.cache_bytes is not None else ''} "
        "(Ctrl-C to stop)",
        file=sys.stderr,
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("estimation service stopped", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    graph = build_dag(args.workflow, args.size)
    model = ExponentialErrorModel.for_graph(graph, args.pfail)
    platform = Platform.homogeneous(args.processors)
    schedule = cp_schedule(graph, platform, priority=args.priority, model=model)
    mean, distribution = expected_schedule_makespan(
        schedule, model, trials=args.trials, seed=args.seed
    )
    print(f"workflow           : {args.workflow} k={args.size} ({graph.num_tasks} tasks)")
    print(f"processors         : {args.processors}")
    print(f"priority scheme    : {args.priority}")
    print(f"failure-free makespan (schedule): {schedule.makespan:.6g}")
    print(f"expected makespan under failures: {mean:.6g} "
          f"(p99 = {distribution.quantile(0.99):.6g}, {args.trials} simulated executions)")
    print(f"processor utilisation (failure-free): {schedule.utilisation() * 100:.1f}%")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro-makespan`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "schedule":
        return _cmd_schedule(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
