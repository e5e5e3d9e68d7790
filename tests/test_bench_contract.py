"""The benchmark's hooks still fit the package.

A traced benchmark run wraps ``matcher.score``, ``engine.build_protocol``,
``matcher.loss_and_grad`` and ``engine.coteach_train`` by name, and reads
``protocol.pairwise`` / ``protocol.pointwise`` / ``protocol.loss_kind`` and
the config passed as ``coteach_train``'s fourth positional argument. The
CLI workload also wraps the corpus functions ``cli`` binds by name and
reads the model ``engine.pretrain`` returns. A tiny traced run of each
workload fails here when a refactor breaks what it reads.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["noise-experiment", "large-vocab",
                                      "cli-pipeline"])
def test_tiny_traced_run_has_no_failures(workload):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["failed"] == 0, result.stderr
