"""Repository benchmark: one workload, checked for correctness, as metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytic|mc|service --seed N \\
        --seconds S --trace 0|1

Each run starts fresh child processes (``child.py``) with every
``REPRO_*`` variable removed: several that only measure set-up, then one
that measures set-up and runs the workload for ``--seconds``.  Every
result is checked against ``references.json``.  The last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from spans
around the benchmark's own calls into ``repro``) with ``--trace 1``.
The lines before it list every metric with its unit and sample count.
Run records and traces go to ``perfbench/out/``; nothing else is written.
See DESIGN.md for the workloads, the metrics and what they predict.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170.0


def child_env():
    """The caller's environment minus every ``REPRO_*`` knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, role, deadline, trace_out=None):
    """Start ``child.py`` in a fresh process (own session); return its JSON."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--role", role, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--t0", repr(time.monotonic()),
    ]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any server it started
        proc.communicate()
        raise SystemExit(f"perfbench: {args.workload} {role} child timed out")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} {role} child exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def check(results, references, workload):
    """Names of failed checks, one per wrong result."""
    bad = []
    for r in results:
        ref = references.get(workload, {}).get(r["dag"])
        if ref is None:
            bad.append(f"no reference for {workload}/{r['dag']}")
        elif r["kind"] == "mc":
            sigma = math.hypot(r["std"] / math.sqrt(r["trials"]), ref["stderr"])
            if not abs(r["mean"] - ref["mean"]) <= config.MC_SIGMAS * sigma:
                bad.append(f"mc {r['dag']} seed {r['seed']}: {r['mean']} vs {ref['mean']} "
                           f"(> {config.MC_SIGMAS} sigma = {sigma:.3g})")
        else:
            rtol = config.SERVICE_MISS_RTOL if r.get("perturbed") else config.ANALYTIC_RTOL
            expected = ref.get(r["method"])
            if expected is None or not abs(r["value"] - expected) <= rtol * abs(expected):
                bad.append(f"{r['kind']} {r['method']} {r['dag']}: {r['value']} vs {expected}")
    return bad


def end_to_end(setups, run):
    walls = run["pass_walls"]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "requests_per_s": (run["ops"] / run["elapsed"], run["ops"]),
        "pass_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="Repository benchmark (see DESIGN.md).")
    parser.add_argument("--workload", choices=config.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(config.SIZES), default="full",
                        help="'tiny' runs small stand-in DAGs (self-test only)")
    parser.add_argument("--references", type=Path, default=HERE / "references.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    references = json.loads(args.references.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    setups = []
    errors = []
    for _ in range(config.SIZES[args.size]["setups"] - 1):
        probe = run_child(args, "setup", deadline)
        setups.append(probe["setup_s"])
        errors += probe["errors"]
    trace_out = OUT / f"{stem}.spans.json" if args.trace else None
    run = run_child(args, "run", deadline, trace_out)
    setups.append(run["setup_s"])
    errors += run["errors"]
    wrong = check(run["results"], references, args.workload)

    attempted = run["ops"]
    failed = min(attempted, len(errors) + len(wrong))
    if args.trace:
        layer = run["layer"]
        passes = len(run["pass_walls"])
        rows = {name: (layer.get(name, 0.0), unit, passes)
                for name, unit in config.per_layer_metrics()}
    else:
        units = {name: unit for name, unit, _, _ in config.END_TO_END}
        rows = {name: (value, units[name], n)
                for name, (value, n) in end_to_end(setups, run).items()}

    for problem in errors + wrong:
        print(f"FAILED {problem}")
    print(f"environment {json.dumps(run['environment'], sort_keys=True)}")
    for name, (value, unit, n) in rows.items():
        print(f"{name:<58} {value:>16.6g} {unit:<6} n={n}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": run["environment"],
        "setups": setups, "pass_walls": run["pass_walls"], "problems": errors + wrong,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in rows.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in rows.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
