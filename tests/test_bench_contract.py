"""The benchmark's hooks still fit the package.

A traced benchmark run wraps ``matcher.score``, ``engine.build_protocol``,
``matcher.loss_and_grad`` and ``engine.coteach_train`` by name, and reads
``protocol.pairwise`` / ``protocol.pointwise`` / ``protocol.loss_kind`` and
the config passed as ``coteach_train``'s fourth positional argument. The
CLI workload also wraps the corpus functions ``cli`` binds by name and
reads the model ``engine.pretrain`` returns. A tiny traced run of each
workload fails here when a refactor breaks what it reads.

A wrapper that the package stops calling through its module attribute
breaks nothing; it just counts zero. So the noise-experiment run, whose
steps take a dense gradient, and the large-vocab run, whose steps take it as
rows, must also count calls on the training hot path.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Counts of the calls a co-teaching step makes through module attributes.
HOT_PATH_COUNTS = ("matcher.loss_and_grad_calls", "matcher.loss_and_grad_instances",
                   "strategies.protocol_calls", "engine.adam_update_calls",
                   "engine.coteach_step_calls")


@pytest.mark.parametrize("workload", ["noise-experiment", "large-vocab",
                                      "cli-pipeline"])
def test_tiny_traced_run_has_no_failures(workload):
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1", "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["failed"] == 0, result.stderr
    if workload != "cli-pipeline":
        for name in HOT_PATH_COUNTS:
            assert report["metrics"][name]["value"] > 0, name
