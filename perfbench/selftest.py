"""Quick self-test of the benchmark (about a minute; run from the repo root).

    python3 perfbench/selftest.py

It runs every workload at the ``tiny`` size and asserts that:

* every metric listed in ``BENCHMARK.json`` is printed, end-to-end ones
  untraced and per-layer ones traced, and the run passes its correctness
  gate on two seeds;
* the gate fires when the stored references are deliberately corrupted;
* no file that git tracks was changed by the runs;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.

It is not named ``test_*.py`` so the repository's test suite does not
collect it: it starts servers and fresh interpreters.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"


def run(workload, seed, trace, references=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
           "--size", "tiny"]
    if references is not None:
        cmd += ["--references", str(references)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tracked_changes():
    """``git status --porcelain`` lines, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except OSError:
        return None
    return set(proc.stdout.splitlines()) if proc.returncode == 0 else None


def corrupted_references(path):
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    tiny = config.SIZES["tiny"]
    refs["analytic"][tiny["analytic"][0]]["dodin"] *= 1 + 1e-6
    for label in tiny["mc"]:
        refs["mc"][label]["mean"] *= 1.05
    refs["service"][tiny["service"]]["normal"] *= 1 + 1e-5
    path.write_text(json.dumps(refs), encoding="utf-8")
    return path


def check_bare_checkout(out):
    """Without the program, the benchmark must fail and print no result."""
    bare = out / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "analytic", "--seed", "1",
         "--seconds", SECONDS, "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert end_to_end == {m[0] for m in config.END_TO_END}, "BENCHMARK.json end_to_end drifted"
    assert per_layer == {m[0] for m in config.per_layer_metrics()}, "BENCHMARK.json per_layer drifted"
    assert [w["name"] for w in spec["workloads"]] == list(config.WORKLOADS)

    before = tracked_changes()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    bad_refs = corrupted_references(out / "selftest-corrupted-references.json")
    for workload in config.WORKLOADS:
        for seed, trace, names in ((1, 0, end_to_end), (2, 1, per_layer)):
            result = run(workload, seed, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert set(result["metrics"]) == names, f"{workload}: metric names differ"
            assert result["correct"] and result["failed"] == 0, f"{workload} seed {seed}: {result}"
            assert result["attempted"] >= 1
            if not trace:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
        result = run(workload, 1, 0, references=bad_refs)
        assert not result["correct"] and result["failed"] > 0, (
            f"{workload}: corrupted references were not detected: {result}"
        )
        print(f"selftest: {workload} ok")
    bad_refs.unlink()
    check_bare_checkout(out)
    after = tracked_changes()
    if before is not None:
        assert after == before, f"tracked files changed: {sorted(after ^ before)}"
    print("selftest: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
