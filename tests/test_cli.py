"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.serialize import load_json


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_estimate_defaults(self):
        args = build_parser().parse_args(
            ["estimate", "--workflow", "lu", "--size", "6"]
        )
        assert args.pfail == pytest.approx(1e-3)
        assert args.method is None


class TestGenerate:
    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "chol.json"
        code = main(
            ["generate", "--workflow", "cholesky", "--size", "4", "--output", str(out)]
        )
        assert code == 0
        graph = load_json(out)
        assert graph.num_tasks == 20
        assert "20 tasks" in capsys.readouterr().out

    def test_dot_output(self, tmp_path):
        out = tmp_path / "lu.dot"
        code = main(
            [
                "generate",
                "--workflow",
                "lu",
                "--size",
                "3",
                "--format",
                "dot",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("digraph")


class TestEstimate:
    def test_text_output(self, capsys):
        code = main(
            [
                "estimate",
                "--workflow",
                "cholesky",
                "--size",
                "4",
                "--pfail",
                "0.01",
                "--method",
                "first-order",
                "--method",
                "normal",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "first-order" in out and "normal" in out

    def test_json_output_with_monte_carlo(self, capsys):
        code = main(
            [
                "estimate",
                "--workflow",
                "lu",
                "--size",
                "4",
                "--pfail",
                "0.01",
                "--method",
                "first-order",
                "--method",
                "monte-carlo",
                "--trials",
                "2000",
                "--seed",
                "7",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_tasks"] == 30
        methods = {e["method"] for e in payload["estimates"]}
        assert methods == {"first-order", "monte-carlo"}
        for entry in payload["estimates"]:
            assert entry["expected_makespan"] >= entry["failure_free_makespan"]
        mc = next(e for e in payload["estimates"] if e["method"] == "monte-carlo")
        assert mc["details"]["batch_size"] == 2000  # auto size, clamped to trials
        assert mc["details"]["trials"] == 2000
        assert mc["details"]["dtype"] == "float64"
        assert mc["details"]["execution"]["partitions"] == 1
        low, high = mc["confidence_interval"]
        assert low <= mc["expected_makespan"] <= high
        assert mc["std_error"] > 0

    def test_json_output_is_strict_json(self, capsys):
        # One trial has an unbounded confidence interval: strict JSON
        # carries it as null, never as Infinity.
        code = main(
            ["estimate", "--workflow", "lu", "--size", "4", "--pfail", "0.01",
             "--method", "monte-carlo", "--trials", "1", "--seed", "7", "--json"]
        )
        assert code == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        (mc,) = payload["estimates"]
        assert mc["confidence_interval"] == [None, None]
        assert mc["details"]["batch_size"] == 1


class TestExperimentAndSchedule:
    def test_table1_small(self, capsys):
        code = main(
            ["experiment", "table1", "--size", "4", "--trials", "2000", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "first-order" in out

    def test_figure_small(self, capsys, monkeypatch):
        # Shrink figure4 so the CLI run stays fast.
        from repro.experiments.config import FigureConfig
        from repro.experiments import config as config_module

        small = FigureConfig(
            figure="figure4",
            workflow="cholesky",
            pfail=1e-2,
            sizes=(2, 3),
            estimators=("first-order", "normal"),
        )

        monkeypatch.setitem(config_module.PAPER_FIGURES, "figure4", small)
        code = main(
            ["experiment", "figure", "--figure", "figure4", "--trials", "1500", "--no-plot"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "figure4" in out

    def test_schedule_command(self, capsys):
        code = main(
            [
                "schedule",
                "--workflow",
                "cholesky",
                "--size",
                "4",
                "--processors",
                "3",
                "--pfail",
                "0.05",
                "--priority",
                "expected-first-order",
                "--trials",
                "100",
                "--seed",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "expected makespan under failures" in out
        assert "utilisation" in out
