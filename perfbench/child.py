"""One workload in one fresh process; started by ``run.py``, never by hand.

The harness starts this script with ``PYTHONPATH=src`` and every
``REPRO_*`` variable removed.  It measures set-up, then (``--role run``)
runs closed-loop passes of the workload for ``--seconds`` and prints one
JSON object with the raw results as its last stdout line.  The harness
checks the results and turns them into metrics.

Every call into ``repro`` that a per-layer metric measures sits inside a
``tracer.span``; with ``--trace 0`` those spans are no-ops.
"""

from __future__ import annotations

import time

_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import config  # noqa: E402
from tracer import Tracer, span_cost  # noqa: E402

_t = time.perf_counter()
import repro  # noqa: E402,F401
from repro.core.backends import resolve_kernel_backend  # noqa: E402
from repro.core.kernels import schedule_compilations, schedule_for  # noqa: E402
from repro.core.serialize import graph_from_dict, graph_to_dict  # noqa: E402
from repro.estimators.registry import get_estimator  # noqa: E402
from repro.failures.models import ExponentialErrorModel  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.workflows.registry import build_dag  # noqa: E402

IMPORT_S = time.perf_counter() - _t

MC = "monte-carlo"
WARMUP_TRIALS = 2_000


def _median(values):
    return statistics.median(values) if values else 0.0


def _slots(size, workload):
    """``(metric label, dag label)`` pairs; tiny DAGs report under full names."""
    full, mine = config.SIZES["full"][workload], config.SIZES[size][workload]
    return list(zip(full, mine))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _estimator(method, trials=None, seed=None):
    if method == MC:
        return get_estimator(MC, trials=trials, seed=seed)
    return get_estimator(method)


def _warm_up(methods):
    """First and warm call of each method on a small DAG: first - warm."""
    family, k, pfail = config.WARMUP_DAG
    graph = build_dag(family, k)
    model = ExponentialErrorModel.for_graph(graph, pfail)
    first_call = {}
    for method in methods:
        calls = []
        for _ in range(2):
            t = time.perf_counter()
            _estimator(method, WARMUP_TRIALS, 0).estimate(graph, model)
            calls.append(time.perf_counter() - t)
        first_call[method] = calls[0] - calls[1]
    return first_call


class Run:
    """State of one run: results, failures, per-pass walls, trace."""

    def __init__(self, args):
        self.args = args
        self.tracer = Tracer(bool(args.trace))
        self.rng = random.Random(args.seed)
        self.results = []
        self.errors = []
        self.pass_walls = []
        self.ops = 0
        self.details = {}  # (slot, method) -> list of details dicts
        self.num_tasks = {}
        self.out = {}

    def timed_loop(self, one_pass):
        start = time.perf_counter()
        while not self.pass_walls or time.perf_counter() - start < self.args.seconds:
            p0 = time.perf_counter()
            with self.tracer.span("bench.pass", request=len(self.pass_walls)):
                one_pass(len(self.pass_walls))
            self.pass_walls.append(time.perf_counter() - p0)
        self.out["elapsed"] = time.perf_counter() - start

    def failed(self, where, exc):
        self.errors.append(f"{where}: {type(exc).__name__}: {exc}")

    # -- in-process workloads ------------------------------------------
    def fresh_dag(self, slot, label, directions, request):
        family, k, pfail = config.DAGS[label]
        span = self.tracer.span
        with span(f"workflows.build_dag.{slot}", request):
            graph = build_dag(family, k)
        with span(f"core.index.{slot}", request):
            index = graph.index()
        with span(f"core.schedule_compile.{slot}", request):
            for direction in directions:
                schedule_for(index, direction)
        self.num_tasks[slot] = graph.num_tasks
        return graph, ExponentialErrorModel.for_graph(graph, pfail)

    def analytic_pass(self, p):
        slots = _slots(self.args.size, "analytic")
        self.rng.shuffle(slots)
        for slot, label in slots:
            graph, model = self.fresh_dag(slot, label, ("up", "down"), p)
            methods = list(config.ANALYTIC_METHODS)
            self.rng.shuffle(methods)
            for method in methods:
                self.ops += 1
                try:
                    with self.tracer.span(f"estimators.{method}.{slot}", p):
                        r = get_estimator(method).estimate(graph, model)
                except Exception as exc:  # counted as a failed operation
                    self.failed(f"{method} on {label}", exc)
                    continue
                self.results.append(
                    {"kind": "analytic", "dag": label, "method": method,
                     "value": r.expected_makespan}
                )
                self.details.setdefault((slot, method), []).append(r.details)

    def mc_pass(self, p):
        trials = config.SIZES[self.args.size]["mc"]
        slots = _slots(self.args.size, "mc")
        self.rng.shuffle(slots)
        for slot, label in slots:
            graph, model = self.fresh_dag(slot, label, ("up",), p)
            seed = self.rng.randrange(2**32)
            self.ops += 1
            try:
                with self.tracer.span(f"sim.monte_carlo.{slot}", p):
                    r = get_estimator(MC, trials=trials[label], seed=seed).estimate(graph, model)
            except Exception as exc:  # counted as a failed operation
                self.failed(f"{MC} on {label}", exc)
                continue
            self.results.append(
                {"kind": "mc", "dag": label, "mean": r.expected_makespan,
                 "std": r.details["makespan_std"], "trials": r.details["trials"],
                 "seed": seed}
            )
            self.details.setdefault((slot, MC), []).append(r.details)

    def in_process(self, workload):
        methods = config.ANALYTIC_METHODS if workload == "analytic" else (MC,)
        first_call = _warm_up(methods)
        self.out["setup_s"] = time.monotonic() - self.args.t0
        self.out["setup"] = {"import_s": IMPORT_S, "first_call_s": first_call}
        if self.args.role == "setup":
            return
        compilations = schedule_compilations()
        self.timed_loop(self.analytic_pass if workload == "analytic" else self.mc_pass)
        self.out["schedule_compilations"] = (
            (schedule_compilations() - compilations) / len(self.pass_walls)
        )
        self.out["peak_rss_mb"] = _peak_rss_mb()

    # -- service workload ------------------------------------------------
    def service(self):
        label = config.SIZES[self.args.size]["service"]
        family, k, pfail = config.DAGS[label]
        server = Server()
        try:
            server.start()
            client = ServiceClient(port=server.port)
            try:
                self.serve(server, client, family, k, pfail, label)
            finally:
                client.close()
        finally:
            server.stop()

    def request(self, client, graph_payload, pfail, request_id):
        return client.request(
            {"op": "estimate", "id": request_id, "graph": graph_payload,
             "pfail": pfail, "methods": list(config.SERVICE_METHODS)}
        )

    def serve(self, server, client, family, k, pfail, label):
        graph = build_dag(family, k)
        base = graph_to_dict(graph)
        first = self.request(client, base, pfail, 0)
        if not first.get("ok"):
            raise RuntimeError(f"first service request failed: {first.get('error')}")
        self.out["setup_s"] = time.monotonic() - server.launched
        warm = self.request(client, base, pfail, 0)
        self.out["setup"] = {
            "import_s": server.ready - server.launched,
            "first_call_s": {
                a["method"]: a["wall_time"] - b["wall_time"]
                for a, b in zip(first["estimates"], warm.get("estimates", []))
            },
        }
        if self.args.role == "setup":
            return
        stats0 = client.stats()
        span = self.tracer.span
        samples = []  # (kind, rtt, server estimate wall)

        def one_pass(p):
            mix = list(config.SERVICE_MIX)
            self.rng.shuffle(mix)
            for kind in mix:
                rid = len(samples) + 1
                g = graph
                if kind == "miss":
                    rnd = self.rng.random
                    spec = dict(base, tasks=[
                        dict(t, weight=t["weight"] * (1.0 + config.PERTURBATION * rnd()))
                        for t in base["tasks"]
                    ])
                    with span("core.graph_from_dict", rid):
                        g = graph_from_dict(spec)
                with span("core.graph_to_dict", rid):
                    payload = graph_to_dict(g)
                self.ops += 1
                t = time.perf_counter()
                try:
                    with span("service.request", rid):
                        response = self.request(client, payload, pfail, rid)
                except Exception as exc:  # counted as a failed operation
                    self.failed(f"request {rid}", exc)
                    continue
                rtt = time.perf_counter() - t
                if not response.get("ok") or response.get("id") != rid:
                    self.errors.append(f"request {rid}: {response.get('error', 'bad id')}")
                    continue
                estimates = response["estimates"]
                samples.append((kind, rtt, sum(e["wall_time"] for e in estimates)))
                for e in estimates:
                    self.results.append(
                        {"kind": "service", "dag": label, "method": e["method"],
                         "value": e["expected_makespan"], "perturbed": kind == "miss"}
                    )
            if p + 1 == config.SERVICE_RSS_PASSES:
                self.out["peak_rss_mb"] = server.peak_rss_mb()

        self.timed_loop(one_pass)
        self.out.setdefault("peak_rss_mb", server.peak_rss_mb())
        stats1 = client.stats()
        self.out["service"] = {
            "samples": samples,
            "stats0": stats0,
            "stats1": stats1,
            "request_bytes": len(json.dumps(
                {"op": "estimate", "id": 1, "graph": base, "pfail": pfail,
                 "methods": list(config.SERVICE_METHODS)}, separators=(",", ":"))),
        }

    # -- per-layer metrics (traced run) --------------------------------
    def layer_metrics(self, workload):
        tr = self.tracer
        passes = len(self.pass_walls)
        m = {}
        setup = self.out["setup"]
        m["setup.import_s"] = setup["import_s"]
        for method, value in setup["first_call_s"].items():
            m[f"setup.first_call_s.{method}"] = value
        m["setup.lazy_share"] = sum(setup["first_call_s"].values()) / self.out["setup_s"]
        if workload == "service":
            self.service_layers(m)
        else:
            per_pass = self.in_process_layers(m)
            if workload == "analytic":
                self.analytic_layers(m, per_pass)
            else:
                self.mc_layers(m)
        self.fold_layers(m)
        for layer, total in tr.self_times().items():
            m[f"trace.self_s.{layer}"] = total / passes
        m["trace.spans_per_pass"] = len(tr.spans) / passes
        m["trace.span_cost_s"] = span_cost()
        m["trace.pass_s"] = _median(self.pass_walls)
        m["trace.requests_per_s"] = self.ops / self.out["elapsed"]
        return m

    def in_process_layers(self, m):
        """Per-DAG layer times: the median over passes of each span's time.

        Returns ``{span name: {pass: seconds}}``.
        """
        per_pass = {}
        for name, start, end, _, req in self.tracer.spans:
            if name != "bench.pass":
                by_pass = per_pass.setdefault(name, {})
                by_pass[req] = by_pass.get(req, 0.0) + end - start
        for name, by_pass in per_pass.items():
            layer, call, slot = name.split(".")
            value = _median(list(by_pass.values()))
            if layer == "workflows":
                m[f"workflows.{call}_s.{slot}"] = value
            elif layer == "core":
                m[f"core.{call}_s.{slot}"] = value
            elif layer == "estimators":
                m[f"estimators.{call}.{slot}_s"] = value
        m["core.schedule_compilations"] = self.out["schedule_compilations"]
        return per_pass

    def analytic_layers(self, m, per_pass):
        passes = range(len(self.pass_walls))
        for method in config.ANALYTIC_METHODS:
            sums = [
                sum(by.get(p, 0.0) for n, by in per_pass.items()
                    if n.startswith(f"estimators.{method}."))
                for p in passes
            ]
            m[f"estimators.{method}.pass_s"] = _median(sums)
        m["estimators.dodin.pass_share"] = (
            m["estimators.dodin.pass_s"] / _median(self.pass_walls)
        )
        for (slot, method), details in self.details.items():
            d = details[-1]
            if method == "dodin":
                for c in ("join_rounds", "duplications", "max_support"):
                    m[f"estimators.dodin.{c}.{slot}"] = d[c]
            elif method == "second-order":
                m[f"estimators.second-order.probability_covered.{slot}"] = d["probability_covered"]
            elif method == "normal-correlated":
                m[f"estimators.normal-correlated.correlation_store_bytes.{slot}"] = (
                    d["correlation_store_bytes"]
                )

    def mc_layers(self, m):
        slots = [slot for slot, _ in _slots(self.args.size, "mc")]
        for slot in slots:
            details = self.details.get((slot, MC))
            walls = self.tracer.durations(f"sim.monte_carlo.{slot}")
            if not details or not walls:
                continue
            d = details[-1]
            tasks = self.num_tasks[slot]
            itemsize = 4 if d["dtype"] == "float32" else 8
            m[f"sim.batch_size.{slot}"] = d["batch_size"]
            m[f"sim.working_set_mb.{slot}"] = tasks * d["batch_size"] * itemsize / 1e6
            rate = d["trials"] / _median(walls)
            m[f"sim.trials_per_s.{slot}"] = rate
            m[f"sim.task_trials_per_s.{slot}"] = rate * tasks
        rates = [m.get(f"sim.task_trials_per_s.{slot}") for slot in slots]
        if all(rates):
            m["sim.task_trials_ratio"] = rates[0] / rates[1]

    def service_layers(self, m):
        s = self.out["service"]
        tr = self.tracer
        m["core.graph_to_dict_s"] = _median(tr.durations("core.graph_to_dict"))
        m["core.graph_from_dict_s"] = _median(tr.durations("core.graph_from_dict"))
        m["service.request_bytes"] = s["request_bytes"]
        rtts = sorted(x[1] for x in s["samples"])
        if len(rtts) >= 2:
            q = statistics.quantiles(rtts, n=10)
            m["service.latency_p50_s"] = _median(rtts)
            m["service.latency_p90_s"] = q[8]
        for kind in ("hit", "miss"):
            rows = [x for x in s["samples"] if x[0] == kind]
            m[f"service.rtt_p50_s.{kind}"] = _median([x[1] for x in rows])
            m[f"service.estimate_wall_s.{kind}"] = _median([x[2] for x in rows])
            m[f"service.overhead_s.{kind}"] = _median([x[1] - x[2] for x in rows])
        c0, c1 = s["stats0"]["cache"], s["stats1"]["cache"]
        for c in ("hits", "misses", "evictions"):
            m[f"service.cache.{c}"] = c1[c] - c0[c]
        looked_up = m["service.cache.hits"] + m["service.cache.misses"]
        m["service.cache.hit_ratio"] = m["service.cache.hits"] / looked_up if looked_up else 0.0
        m["service.cache.resident_bytes"] = c1["resident_bytes"]
        r0, r1 = s["stats0"]["registry"], s["stats1"]["registry"]
        m["service.registry.hits"] = r1["hits"] - r0["hits"]
        m["service.registry.misses"] = r1["misses"] - r0["misses"]

    def fold_layers(self, m):
        """``repro.exec`` counts per pass, from each estimate's execution report."""
        passes = len(self.pass_walls)
        serial = folds = 0
        for (_, method), details in self.details.items():
            for d in details:
                report = d.get("execution")
                if not report:
                    continue
                folds += 1
                serial += report["effective_backend"] == "serial"
                for c in ("partitions", "attempts", "retries"):
                    key = f"exec.{c}.{method}"
                    m[key] = m.get(key, 0.0) + report[c] / passes
        if folds:
            m["exec.serial_share"] = serial / folds

    def environment(self):
        """Resolved backends and MC knobs, recorded with every result."""
        env = {"kernel_backend": resolve_kernel_backend()}
        backends = set()
        for (_, method), details in self.details.items():
            for d in details:
                if d.get("execution"):
                    backends.add(d["execution"]["effective_backend"])
                if method == MC:
                    env["mc_batch_size"] = d["batch_size"]
                    env["mc_dtype"] = d["dtype"]
                if "kernel_backend" in d:
                    env["kernel_backend"] = d["kernel_backend"]
        env["exec_effective_backends"] = sorted(backends)
        return env


class Server:
    """``python -m repro serve`` at its defaults, on a port it picks itself."""

    def __init__(self):
        self.proc = None
        self.port = None
        self._drain = None

    def start(self):
        self.launched = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stderr.readline()
        self.ready = time.monotonic()
        match = re.search(r":(\d+) ", banner)
        if match is None:
            raise RuntimeError(f"estimation server did not start: {banner!r}")
        self.port = int(match.group(1))
        self._drain = threading.Thread(target=self._forward_stderr, daemon=True)
        self._drain.start()

    def _forward_stderr(self):
        for line in self.proc.stderr:
            sys.stderr.write(line)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            kib = re.search(r"VmHWM:\s+(\d+)", fh.read()).group(1)
        return int(kib) / 1024.0

    def stop(self):
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # the CLI then stops the server cleanly
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join(timeout=5)
        self.proc.stderr.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=config.WORKLOADS, required=True)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(config.SIZES), default="full")
    parser.add_argument("--t0", type=float, default=_START)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    run = Run(args)
    if args.workload == "service":
        run.service()
    else:
        run.in_process(args.workload)
    out = run.out
    out["errors"] = run.errors
    if args.role == "run":
        out["results"] = run.results
        out["ops"] = run.ops
        out["pass_walls"] = run.pass_walls
        out["environment"] = run.environment()
        if args.trace:
            out["layer"] = run.layer_metrics(args.workload)
            run.tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
