"""Fast self-test of the benchmark: every workload at tiny size.

    python3 bench/selftest.py

For each workload it makes one untraced and two traced runs of one seed
and checks that each run is correct, that the metrics are exactly the ones
BENCHMARK.json names, each with its unit, that every count and fraction
(counts of calls and instances, suppressed fractions, clean-test P@1)
repeats exactly across the two traced runs, and that the environment is
recorded. It also checks that the benchmark exits non-zero without a
result when the package source is absent. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ENV_KEYS = {"python", "numpy", "scipy", "blas", "blas_config", "blas_threads",
            "nproc", "pinned_cpu", "cpu", "git_sha", "seed"}


def run(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(proc, label: str) -> dict:
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    env_lines = [l for l in lines if l.startswith("# environment ")]
    assert env_lines, f"{label}: no environment record"
    env = json.loads(env_lines[0][len("# environment "):])
    assert set(env) == ENV_KEYS and env["seed"] == 5, f"{label}: environment {env}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0, f"{label}: {proc.stderr}"
    assert result["attempted"] >= 1, label
    return result


def check_metrics(result: dict, expected: list, label: str) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in expected], (
        f"{label}: metrics {sorted(metrics)}")
    for m in expected:
        entry = metrics[m["name"]]
        assert entry["unit"] == m["unit"], f"{label}: unit of {m['name']}"
        assert isinstance(entry["value"], (int, float)), f"{label}: {m['name']}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact_units = {"count", "frac"}
    for workload in (w["name"] for w in spec["workloads"]):
        result = result_of(run(workload, 0), f"{workload} untraced")
        check_metrics(result, spec["end_to_end"], f"{workload} untraced")
        traced = [result_of(run(workload, 1), f"{workload} traced #{i}")
                  for i in (1, 2)]
        for r in traced:
            check_metrics(r, spec["per_layer"], f"{workload} traced")
        for m in spec["per_layer"]:
            if m["unit"] in exact_units:
                a, b = (r["metrics"][m["name"]]["value"] for r in traced)
                assert a == b, f"{workload}: {m['name']} differs: {a} != {b}"
        print(f"ok {workload}")

    bare = BENCH_DIR / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (
        "benchmark must fail without a result when src/ is missing")
    print("ok refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
