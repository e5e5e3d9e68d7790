"""Spans and counters recorded around calls into the coteach package.

The benchmark never edits the package. It swaps module attributes such as
``engine.coteach_step`` or ``matcher.score`` for thin wrappers and puts the
originals back afterwards. This works because the package always calls
across modules through the module attribute (``matcher.score(...)``,
``engine`` calling its own ``build_protocol`` global), so a swapped
attribute is seen by every caller.

A span is ``(name, start, end, parent, run_id)`` with ``perf_counter``
times. ``perf_counter`` is CLOCK_MONOTONIC on Linux, so spans recorded in
a CLI subprocess can be merged under the parent's span for that command.
The layer of a span is the part of its name before the first dot. Span
times are raw wall times and include the speed sampler's share (a few
percent, see speed.py), spread evenly over whatever was running.
"""

from __future__ import annotations

import csv
import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import speed

# (owner module attribute, span name) pairs wrapped in a traced run. The
# ``cli`` module binds the corpus functions by name, so those are wrapped
# there too when it is loaded.
TRACED_CALLS = (
    ("corpus", "generate_synthetic_corpus", "corpus.generate"),
    ("corpus", "save_corpus", "corpus.save"),
    ("corpus", "load_corpus", "corpus.load"),
    ("matcher", "init_params", "matcher.init_params"),
    ("matcher", "score", "matcher.score"),
    ("matcher", "save_checkpoint", "matcher.save_checkpoint"),
    ("matcher", "load_checkpoint", "matcher.load_checkpoint"),
    ("engine", "pretrain", "engine.pretrain"),
    ("engine", "coteach_step", "engine.coteach_step"),
    ("engine", "adam_update", "engine.adam_update"),
    ("engine", "validation_p_at_1", "engine.validation_p_at_1"),
    ("engine", "select_model", "engine.select_model"),
    ("evaluation", "filter_degenerate", "evaluation.filter_degenerate"),
    ("evaluation", "rank_test_groups", "evaluation.rank_test_groups"),
    ("evaluation", "per_group_metrics", "evaluation.per_group_metrics"),
    ("evaluation", "compute_metrics", "evaluation.compute_metrics"),
    ("evaluation", "paired_t_test", "evaluation.paired_t_test"),
)
CLI_BOUND_CALLS = (
    ("generate_synthetic_corpus", "corpus.generate"),
    ("save_corpus", "corpus.save"),
    ("load_corpus", "corpus.load"),
)


class Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class StepTimer:
    """Wall time of every ``engine.coteach_step`` call, in milliseconds,
    less any speed sampling (see speed.py) that fell inside it. This and
    ``ProtocolAudit`` are the only hooks of an untraced run.
    """

    def __init__(self, sampler: speed.SpeedSampler):
        self.sampler = sampler
        self.step_ms: list[float] = []

    def install(self, patches: Patches, engine) -> None:
        step = engine.coteach_step
        sampler = self.sampler

        @functools.wraps(step)
        def timed_step(*args, **kwargs):
            sampling = sampler.overhead_s
            t0 = perf_counter()
            result = step(*args, **kwargs)
            seconds = perf_counter() - t0 - (sampler.overhead_s - sampling)
            self.step_ms.append(seconds * 1e3)
            return result

        patches.replace(engine, "coteach_step", timed_step)


class ProtocolAudit:
    """What each teacher did to its peer's instances, per strategy.

    Read from the protocol ``engine.build_protocol`` returns: a margin
    instance is suppressed when its margin is 0, a weighting instance when
    its weight is below 0.5, and a curriculum instance when it was dropped.
    The counts are deterministic for a seed, so they double as an output
    check.
    """

    def __init__(self):
        self.instances = Counter()
        self.suppressed = Counter()
        self.calls = Counter()

    def install(self, patches: Patches, engine) -> None:
        build = engine.build_protocol

        @functools.wraps(build)
        def audited(strategy, teacher, sub_batch, config):
            protocol = build(strategy, teacher, sub_batch, config)
            self.observe(strategy, sub_batch, protocol)
            return protocol

        patches.replace(engine, "build_protocol", audited)

    def observe(self, strategy, sub_batch, protocol) -> None:
        self.calls[strategy] += 1
        if strategy == "margin":
            self.instances[strategy] += len(protocol.pairwise)
            self.suppressed[strategy] += sum(m == 0.0 for _, m in protocol.pairwise)
        elif strategy == "weighting":
            self.instances[strategy] += len(protocol.pointwise)
            self.suppressed[strategy] += sum(w < 0.5 for _, w in protocol.pointwise)
        else:
            offered = 2 * len(sub_batch)  # pointwise view of the triples
            self.instances[strategy] += offered
            self.suppressed[strategy] += offered - len(protocol.pointwise)

    def merge(self, snapshot: dict) -> None:
        """Add the counts a subprocess reported with ``snapshot``."""
        for strategy, (calls, instances, suppressed) in snapshot.items():
            self.calls[strategy] += calls
            self.instances[strategy] += instances
            self.suppressed[strategy] += suppressed

    def snapshot(self) -> dict:
        return {s: (self.calls[s], self.instances[s], self.suppressed[s])
                for s in sorted(self.calls)}

    def suppressed_frac(self, strategy=None) -> float:
        keys = [strategy] if strategy else list(self.instances)
        n = sum(self.instances[k] for k in keys)
        return sum(self.suppressed[k] for k in keys) / n if n else 0.0


@dataclass
class Probes:
    """What a rep may record into: machine speed, step times, protocol
    counts, and, in a traced rep, the tracer (None otherwise)."""

    sampler: speed.SpeedSampler
    train_kernel: str  # which of the sampler's kernels times training
    timer: StepTimer
    audit: ProtocolAudit
    tracer: Tracer | None = None


class Tracer:
    """Keeps spans and counters in memory; written out when the run ends."""

    def __init__(self):
        self.spans: list = []
        self.counts = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.run_id])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def wrap(self, patches: Patches, owner, attr: str, name: str,
             suffix=None, note=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``suffix(args)`` extends the span name (e.g. with the loss kind);
        ``note(args)`` updates ``counts``. Both read positional arguments,
        which is how the package and the benchmark call these functions.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name + "." + suffix(args) if suffix else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
                if note is not None:
                    note(args)

        patches.replace(owner, attr, traced)

    def install(self, patches: Patches, modules: dict) -> None:
        """Wrap every call in TRACED_CALLS plus protocol build and grads."""
        for module, attr, name in TRACED_CALLS:
            self.wrap(patches, modules[module], attr, name)
        self.wrap(patches, modules["engine"], "coteach_train",
                  "engine.coteach_train", suffix=lambda a: a[3].strategy)
        if "cli" in modules:
            for attr, name in CLI_BOUND_CALLS:
                self.wrap(patches, modules["cli"], attr, name)
        self.wrap(patches, modules["engine"], "build_protocol",
                  "strategies.protocol", suffix=lambda a: a[0])

        def count_instances(args):
            protocol = args[1]
            key = "matcher.loss_and_grad_instances." + protocol.loss_kind
            self.counts[self.run_id, key] += (
                len(protocol.pairwise) + len(protocol.pointwise))

        self.wrap(patches, modules["matcher"], "loss_and_grad",
                  "matcher.loss_and_grad", suffix=lambda a: a[1].loss_kind,
                  note=count_instances)

    def merge(self, spans, counts, parent: int) -> None:
        """Attach a subprocess's spans below span ``parent``."""
        base = len(self.spans)
        for name, start, end, p, _ in spans:
            self.spans.append([name, start, end,
                               parent if p < 0 else base + p, self.run_id])
        for key, n in counts.items():
            self.counts[self.run_id, key] += n

    def write(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["id", "name", "start", "end", "parent", "run_id"])
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                writer.writerow([sid, name, repr(start), repr(end), parent, run_id])


def summarize(spans, run_ids) -> dict:
    """Per span name and per layer: calls, total and self seconds.

    Self time is a span's duration minus the part its child spans cover.
    Only spans whose run id is in ``run_ids`` are counted.
    """
    child_time = defaultdict(float)
    child_calls = Counter()
    for name, start, end, parent, run_id in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if run_id in run_ids:
                child_calls[spans[parent][0], name] += 1
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    by_layer = defaultdict(float)
    for sid, (name, start, end, parent, run_id) in enumerate(spans):
        if run_id not in run_ids:
            continue
        self_s = (end - start) - child_time[sid]
        entry = by_name[name]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += self_s
        by_layer[name.split(".", 1)[0]] += self_s
    return {"by_name": {k: tuple(v) for k, v in by_name.items()},
            "by_layer": dict(by_layer), "child_calls": child_calls}


def calls_per_run(spans, run_ids) -> dict:
    """Span counts per name for each run id, to check they repeat exactly."""
    per_run = {r: Counter() for r in run_ids}
    for name, _, _, _, run_id in spans:
        if run_id in per_run:
            per_run[run_id][name] += 1
    return per_run
