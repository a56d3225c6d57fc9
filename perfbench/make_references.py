"""Regenerate ``references.json``, the correctness gate's stored answers.

Run from the repository root with no ``REPRO_*`` variable set::

    PYTHONPATH=src python3 perfbench/make_references.py

Analytical and service references are single deterministic estimates on
the unperturbed DAGs.  Monte Carlo references are one seeded run with
ten times the workload's trials (``stderr`` = sample std / sqrt(trials)).
It takes about a minute, most of it the lu k=20 reference.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import config
from repro.estimators.registry import get_estimator
from repro.failures.models import ExponentialErrorModel
from repro.workflows.registry import build_dag

REFERENCE_SEED = 20160816
MC_TRIAL_FACTOR = 10


def _dag(label):
    family, k, pfail = config.DAGS[label]
    graph = build_dag(family, k)
    return graph, ExponentialErrorModel.for_graph(graph, pfail)


def _estimates(label, methods):
    graph, model = _dag(label)
    return {m: get_estimator(m).estimate(graph, model).expected_makespan for m in methods}


def main():
    refs = {"analytic": {}, "mc": {}, "service": {}}
    for size in config.SIZES.values():
        for label in size["analytic"]:
            refs["analytic"][label] = _estimates(label, config.ANALYTIC_METHODS)
        refs["service"][size["service"]] = _estimates(size["service"], config.SERVICE_METHODS)
        for label, trials in size["mc"].items():
            graph, model = _dag(label)
            n = trials * MC_TRIAL_FACTOR
            r = get_estimator("monte-carlo", trials=n, seed=REFERENCE_SEED).estimate(graph, model)
            refs["mc"][label] = {
                "mean": r.expected_makespan,
                "stderr": r.details["makespan_std"] / math.sqrt(n),
                "trials": n,
                "seed": REFERENCE_SEED,
            }
            print(label, refs["mc"][label], file=sys.stderr)
    path = Path(__file__).resolve().parent / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
