"""Benchmarks of the Monte Carlo engine itself.

The paper's ground-truth method is the bottleneck of its evaluation (ten
hours for LU k = 20 with 300,000 trials).  These benchmarks measure the
throughput of the vectorised engine as a function of the trial count and of
the batch size, and the scaling of a single batched longest-path sweep with
the graph size — the data behind the "Monte Carlo is prohibitively
expensive in practice" statement of Section II-A1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.paths import batched_makespans
from repro.failures.models import ExponentialErrorModel
from repro.sim.engine import MonteCarloEngine
from repro.sim.sampler import sample_task_times
from repro.workflows.lu import lu_dag

PFAIL = 1e-3


@pytest.mark.parametrize("trials", [5_000, 20_000, 80_000])
def test_monte_carlo_trial_scaling(benchmark, paper_graphs, trials):
    graph = paper_graphs["lu"]
    model = ExponentialErrorModel.for_graph(graph, PFAIL)
    engine = MonteCarloEngine(graph, model, trials=trials, seed=7)
    result = benchmark.pedantic(engine.run, rounds=1, iterations=1)
    assert result.trials == trials


@pytest.mark.parametrize("batch_size", [None, 1_024, 8_192, 32_768])
def test_monte_carlo_batch_size(benchmark, paper_graphs, batch_size):
    graph = paper_graphs["cholesky"]
    model = ExponentialErrorModel.for_graph(graph, PFAIL)
    engine = MonteCarloEngine(graph, model, trials=32_768, batch_size=batch_size, seed=3)
    result = benchmark.pedantic(engine.run, rounds=1, iterations=1)
    assert result.trials == 32_768


@pytest.mark.parametrize("k", [8, 12, 16, 20])
def test_batched_longest_path_graph_scaling(benchmark, k):
    """One vectorised longest-path sweep over a 4,096-trial batch."""
    graph = lu_dag(k)
    index = graph.index()
    model = ExponentialErrorModel.for_graph(graph, PFAIL)
    rng = np.random.default_rng(0)
    weights = sample_task_times(index, model, 4_096, rng)
    out = benchmark(lambda: batched_makespans(index, weights))
    assert out.shape == (4_096,)
