"""Run one ``coteach`` command as the console script does, plus probes.

    python3 bench/cli_entry.py PROBE_FILE TRACE COMMAND ARGS...

The ``coteach`` console script is ``coteach.cli:main``; this calls the
same function with the same arguments. It samples the machine speed for
the whole process (see speed.py), times every coteach_step and counts what
each teacher suppressed; with TRACE 1 it also records spans around the
package's public functions. What it saw is written to PROBE_FILE as JSON
(step times already normalised) and the exit code is the command's own.
"""

from __future__ import annotations

from time import perf_counter

_START = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402
from spans import Patches, ProtocolAudit, StepTimer, Tracer  # noqa: E402


def main() -> int:
    probe_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    with speed.SpeedSampler() as sampler:
        from coteach import cli, corpus, engine, evaluation, matcher

        patches = Patches()
        tracer = Tracer()
        if traced:
            tracer.spans.append(["cli.import", _START, perf_counter(), -1, 0])
            tracer.install(patches, {"corpus": corpus, "matcher": matcher,
                                     "engine": engine, "evaluation": evaluation,
                                     "cli": cli})
        # Outside the spans, so timing and counting are not charged to the
        # package.
        timer, audit = StepTimer(sampler), ProtocolAudit()
        timer.install(patches, engine)
        audit.install(patches, engine)
        # Steps are normalised by the speed while training, not over the
        # whole process.
        train, training = engine.coteach_train, {}

        def sampled_train(*args, **kwargs):
            mark = sampler.mark()
            try:
                return train(*args, **kwargs)
            finally:
                training["factor"], _ = sampler.since(mark)

        patches.replace(engine, "coteach_train", sampled_train)
        try:
            code = cli.main(argv)
        finally:
            patches.restore()
    with open(probe_path, "w") as f:
        json.dump({"factor": sampler.mean(),
                   "sampling_s": sampler.overhead_s,
                   "step_ms": [ms * training.get("factor", 1.0)
                               for ms in timer.step_ms],
                   "audit": audit.snapshot(),
                   "spans": tracer.spans,
                   "counts": {k: n for (_, k), n in tracer.counts.items()}}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
