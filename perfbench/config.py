"""Workload definitions and metric names shared by the harness and its child.

Both ``run.py`` (the harness, which never imports ``repro``) and
``child.py`` (the fresh process that runs a workload) import this module,
so the DAGs, methods and metric names live in exactly one place.
"""

from __future__ import annotations

WORKLOADS = ("analytic", "mc", "service")

#: Analytical estimators timed by the ``analytic`` workload.
ANALYTIC_METHODS = ("first-order", "normal", "normal-correlated", "second-order", "dodin")

#: Methods each service request asks for.
SERVICE_METHODS = ("first-order", "normal")

#: Short DAG labels used in metric names: label -> (family, k, p_fail).
DAGS = {
    "chol24": ("cholesky", 24, 1e-3),
    "lu16": ("lu", 16, 1e-2),
    "qr16": ("qr", 16, 1e-4),
    "chol12": ("cholesky", 12, 1e-3),
    "lu20": ("lu", 20, 1e-3),
    # Tiny stand-ins used by selftest.py (``--size tiny``).
    "chol6": ("cholesky", 6, 1e-3),
    "lu4": ("lu", 4, 1e-2),
    "qr4": ("qr", 4, 1e-4),
    "chol4": ("cholesky", 4, 1e-3),
}

#: Per size: the DAGs and Monte Carlo trial counts of every workload, and
#: how many fresh processes measure set-up.  The ``tiny`` size keeps the
#: structure of ``full`` so the self-test exercises every code path.
SIZES = {
    "full": {
        "analytic": ("chol24", "lu16", "qr16"),
        "mc": {"chol12": 100_000, "lu20": 20_000},
        "service": "chol12",
        "setups": 5,
    },
    "tiny": {
        "analytic": ("chol6", "lu4", "qr4"),
        "mc": {"chol4": 4_000, "lu4": 2_000},
        "service": "chol4",
        "setups": 2,
    },
}

#: The untimed warm-up DAG of every fresh process (pays lazy imports).
WARMUP_DAG = ("cholesky", 4, 1e-3)

#: Service mix: three repeats of one payload (cache hits) to one payload
#: with freshly perturbed weights (a cache miss) per pass.
SERVICE_MIX = ("hit", "hit", "hit", "miss")
PERTURBATION = 1e-9

#: Server peak RSS is read after this many passes (or at the end of a
#: shorter run): every miss adds a cache entry, so a peak read at the end
#: would grow with throughput.
SERVICE_RSS_PASSES = 50

#: Correctness tolerances (see DESIGN.md).
ANALYTIC_RTOL = 1e-9
SERVICE_MISS_RTOL = 1e-7
MC_SIGMAS = 4.0

END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("pass_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_FULL = SIZES["full"]
_ANALYTIC_DAGS = _FULL["analytic"]
_MC_DAGS = tuple(_FULL["mc"])
_ALL_DAGS = _ANALYTIC_DAGS + _MC_DAGS
_MC_METHOD = "monte-carlo"
_FOLD_METHODS = ("normal-correlated", "second-order", "dodin", _MC_METHOD)
LAYERS = ("bench", "workflows", "core", "estimators", "sim", "service")


def per_layer_metrics():
    """``(name, unit)`` of every per-layer metric, in print order.

    Metric names use the ``full`` DAG labels; a ``tiny`` run reports under
    the same names so that the self-test checks the real name set.
    """
    m = [("setup.import_s", "s")]
    m += [(f"setup.first_call_s.{x}", "s") for x in ANALYTIC_METHODS + (_MC_METHOD,)]
    m += [("setup.lazy_share", "ratio")]
    m += [(f"workflows.build_dag_s.{d}", "s") for d in _ALL_DAGS]
    m += [(f"core.index_s.{d}", "s") for d in _ALL_DAGS]
    m += [(f"core.schedule_compile_s.{d}", "s") for d in _ALL_DAGS]
    m += [
        ("core.schedule_compilations", "count"),
        ("core.graph_to_dict_s", "s"),
        ("core.graph_from_dict_s", "s"),
    ]
    m += [(f"estimators.{x}.{d}_s", "s") for x in ANALYTIC_METHODS for d in _ANALYTIC_DAGS]
    m += [(f"estimators.{x}.pass_s", "s") for x in ANALYTIC_METHODS]
    m += [("estimators.dodin.pass_share", "ratio")]
    m += [
        (f"estimators.dodin.{c}.{d}", "count")
        for c in ("join_rounds", "duplications", "max_support")
        for d in _ANALYTIC_DAGS
    ]
    m += [(f"estimators.second-order.probability_covered.{d}", "ratio") for d in _ANALYTIC_DAGS]
    m += [
        (f"estimators.normal-correlated.correlation_store_bytes.{d}", "bytes")
        for d in _ANALYTIC_DAGS
    ]
    m += [
        (f"exec.{c}.{x}", "count")
        for c in ("partitions", "attempts", "retries")
        for x in _FOLD_METHODS
    ]
    m += [("exec.serial_share", "ratio")]
    m += [(f"sim.batch_size.{d}", "count") for d in _MC_DAGS]
    m += [(f"sim.working_set_mb.{d}", "MB") for d in _MC_DAGS]
    m += [(f"sim.trials_per_s.{d}", "1/s") for d in _MC_DAGS]
    m += [(f"sim.task_trials_per_s.{d}", "1/s") for d in _MC_DAGS]
    m += [("sim.task_trials_ratio", "ratio")]
    m += [
        ("service.request_bytes", "bytes"),
        ("service.latency_p50_s", "s"),
        ("service.latency_p90_s", "s"),
    ]
    for kind in ("hit", "miss"):
        m += [
            (f"service.rtt_p50_s.{kind}", "s"),
            (f"service.estimate_wall_s.{kind}", "s"),
            (f"service.overhead_s.{kind}", "s"),
        ]
    m += [
        ("service.cache.hits", "count"),
        ("service.cache.misses", "count"),
        ("service.cache.hit_ratio", "ratio"),
        ("service.cache.evictions", "count"),
        ("service.cache.resident_bytes", "bytes"),
        ("service.registry.hits", "count"),
        ("service.registry.misses", "count"),
    ]
    m += [(f"trace.self_s.{layer}", "s") for layer in LAYERS]
    m += [
        ("trace.spans_per_pass", "count"),
        ("trace.span_cost_s", "s"),
        ("trace.pass_s", "s"),
        ("trace.requests_per_s", "1/s"),
    ]
    return m
