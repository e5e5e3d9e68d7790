"""Benchmark of the coteach package: one command, three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): noise-experiment,
large-vocab, cli-pipeline. The seed makes the inputs; the package only
receives them. The timed phase of a workload is repeated until the next
repetition would end after S seconds (at least twice). Each of its phases
is timed while the machine speed is sampled, and reported in normalised
seconds: the time it would take at a fixed machine speed (see speed.py).
Raw wall times are printed as well. Timings are medians over repetitions.
Every repetition's outputs are checked, and must repeat exactly within the
run.

--trace 0 records no spans and reports the end-to-end metrics. --trace 1
alternates untraced and traced repetitions, reports the per-layer metrics
derived from the spans and the tracing overhead, and writes the spans to
bench/.work/<workload>/spans.csv.

Every metric is printed by name and unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Exits 2 without a result when the package source (src/coteach) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work"
MIN_REPS = 2
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
SETUP_RUN_ID = -1

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_triples_per_s", "1/s"),
    ("coteach_step_ms_p50", "ms"),
    ("evaluate_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("corpus.generate_s", "s"),
    ("matcher.score_us", "us"),
    ("matcher.score_calls", "count"),
    ("matcher.loss_and_grad_us", "us"),
    ("matcher.loss_and_grad_calls", "count"),
    ("matcher.loss_and_grad_instances", "count"),
    ("strategies.protocol_us", "us"),
    ("strategies.protocol_calls", "count"),
    ("strategies.teacher_scores_per_protocol", "count"),
    ("strategies.suppressed_frac", "frac"),
    ("engine.adam_update_us", "us"),
    ("engine.adam_update_calls", "count"),
    ("engine.coteach_step_self_ms", "ms"),
    ("engine.coteach_step_calls", "count"),
    ("engine.coteach_step_ms_p90", "ms"),
    ("engine.coteach_train_s", "s"),
    ("engine.validation_p_at_1_ms", "ms"),
    ("engine.select_model_ms", "ms"),
    ("evaluation.rank_test_groups_ms", "ms"),
    ("evaluation.rank_us_per_candidate", "us"),
    ("evaluation.paired_t_test_ms", "ms"),
    ("matcher.self_s", "s"),
    ("strategies.self_s", "s"),
    ("engine.self_s", "s"),
    ("evaluation.self_s", "s"),
    ("evaluation.clean_test_p1", "frac"),
    ("cli.startup_s", "s"),
    ("trace.overhead_s", "s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the self-test")
    parser.add_argument("--probe", choices=("setup", "startup"),
                        help="only build the workload's inputs (setup) or "
                             "import coteach.cli (startup), print the speed "
                             "sampled meanwhile, and exit")
    return parser.parse_args(argv)


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, asked from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f
                     if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(seed: int, cpu: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu": cpu_model(),
        "git_sha": git_sha(),
        "seed": seed,
    }


def timed_probe(args, probe: str) -> tuple[bool, float]:
    """Normalised seconds (see speed.py) of a fresh interpreter doing the
    set-up of ``args.workload`` or the import every CLI command pays."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--probe", probe,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--scale", args.scale]
    t0 = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return False, wall
    sampled = json.loads(proc.stdout)
    return True, (wall - sampled["sampling_s"]) * sampled["factor"]


def run_probe(args, workloads) -> None:
    with speed.SpeedSampler() as sampler:
        if args.probe == "setup":
            workloads.WORKLOADS[args.workload].setup(args.seed, args.scale,
                                                     WORK / args.workload)
        else:
            import coteach.cli  # noqa: F401
    print(json.dumps({"factor": sampler.mean(),
                      "sampling_s": sampler.overhead_s}))


def phase_medians(reps) -> tuple[list, dict]:
    """The reps with every phase, and each phase's median normalised time
    over them."""
    names = list(reps[0].phases)
    reps = [r for r in reps if list(r.phases) == names]
    return reps, {n: statistics.median(r.phases[n].normalised for r in reps)
                  for n in names}


class Run:
    """One invocation: repetitions, checks and the metrics derived."""

    def __init__(self, args, workloads, spans):
        self.args = args
        self.workloads = workloads
        self.spans = spans
        self.workload = workloads.WORKLOADS[args.workload]
        self.workdir = WORK / args.workload
        self.checks: list = []
        self.reps: list = []  # (traced, RepResult)
        kernel = self.workload.train_kernel
        self.sampler = speed.SpeedSampler({"interpreter", kernel})
        self.timer = spans.StepTimer(self.sampler)
        self.audit = spans.ProtocolAudit()
        self.tracer = spans.Tracer()
        self.traced_probes = spans.Probes(self.sampler, kernel, self.timer,
                                          self.audit, self.tracer)
        self.untraced_probes = spans.Probes(self.sampler, kernel, self.timer,
                                            self.audit)
        from coteach import corpus, engine, evaluation, matcher
        self.modules = {"corpus": corpus, "matcher": matcher,
                        "engine": engine, "evaluation": evaluation}

    def probe_samples(self, probe) -> list:
        walls = []
        for _ in range(SETUP_SAMPLES if self.args.scale == "full" else 1):
            ok, wall = timed_probe(self.args, probe)
            self.checks.append((probe, ok))
            walls.append(wall)
        return walls

    def setup(self):
        """Time set-up in fresh interpreters, then build the inputs here."""
        a = self.args
        self.setup_walls = [] if a.trace else self.probe_samples("setup")
        self.startup_walls = self.probe_samples("startup") if a.trace else []
        if a.trace:
            traced = self.spans.Patches()
            self.tracer.run_id = SETUP_RUN_ID
            self.tracer.install(traced, self.modules)
            try:
                self.inputs = self.workload.setup(a.seed, a.scale, self.workdir)
            finally:
                traced.restore()
        else:
            self.inputs = self.workload.setup(a.seed, a.scale, self.workdir)

    def one_rep(self, traced: bool):
        audit_before = self.audit.snapshot()
        # The step timer and the audit wrap outside the spans, so their own
        # work is not charged to the package.
        patches = self.spans.Patches()
        if traced:
            self.tracer.run_id = len(self.reps)
            if self.workload.in_process:
                self.tracer.install(patches, self.modules)
        self.timer.install(patches, self.modules["engine"])
        self.audit.install(patches, self.modules["engine"])
        probes = self.traced_probes if traced else self.untraced_probes
        try:
            result = self.workload.rep(self.inputs, probes)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            result = self.workloads.RepResult(checks=[("repetition", False)])
        finally:
            patches.restore()
        after = self.audit.snapshot()
        result.outputs["audit"] = {
            s: tuple(x - y for x, y in zip(v, audit_before.get(s, (0, 0, 0))))
            for s, v in after.items()}
        if self.reps:
            first = self.reps[0][1]
            result.checks.append(("outputs repeat", result.outputs == first.outputs))
        self.reps.append((traced, result))
        self.checks.extend(result.checks)
        return result

    def measure(self):
        # CLI commands sample the speed in their own process; a sampler here
        # would take the vCPU from them.
        with self.sampler if self.workload.in_process else nullcontext():
            start = perf_counter()
            while True:
                traced = bool(self.args.trace) and len(self.reps) % 2 == 1
                t0 = perf_counter()
                self.one_rep(traced)
                elapsed = perf_counter() - start
                if (len(self.reps) >= MIN_REPS and
                        elapsed + (perf_counter() - t0) > self.args.seconds):
                    break
        if self.args.trace:
            counts = self.spans.calls_per_run(self.tracer.spans,
                                              self.traced_run_ids())
            distinct = {tuple(sorted(c.items())) for c in counts.values()}
            self.checks.append(("span counts repeat", len(distinct) == 1))

    def traced_run_ids(self) -> set:
        return {i for i, (traced, _) in enumerate(self.reps) if traced}

    def untraced(self) -> list:
        return [r for traced, r in self.reps if not traced]

    def end_to_end(self) -> dict:
        """End-to-end metrics from the untraced reps, in normalised seconds
        (see speed.py): each phase's median over the reps, summed."""
        import numpy as np

        reps, seconds = phase_medians(self.untraced())
        kinds = {n: p.kind for n, p in reps[0].phases.items()}
        steps = self.untraced_steps()
        if self.workload.in_process:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # The tail depends on each seed's mix of active hinge and kept
        # instances as much as on speed, so it is reported without a bound.
        self.detail = {
            "coteach_step_samples": len(steps),
            "coteach_step_ms_p90": float(np.percentile(steps, 90)),
            "coteach_step_ms_p99": float(np.percentile(steps, 99)),
            "raw_wall_s": statistics.median(r.wall_s for r in reps),
            "speed_factor": statistics.median(
                p.factor for r in reps for p in r.phases.values()),
            **{f"phase.{n}_s": s for n, s in seconds.items()},
            **self.clean_test_p1(),
        }
        return {
            "setup_s": statistics.median(self.setup_walls),
            "wall_s": sum(seconds.values()),
            "train_triples_per_s": reps[0].train_triples / sum(
                s for n, s in seconds.items() if kinds[n] == "train"),
            "coteach_step_ms_p50": float(np.percentile(steps, 50)),
            "evaluate_s": statistics.fmean(
                s for n, s in seconds.items() if kinds[n] == "eval"),
            "peak_rss_mb": rss_kb / 1024.0,
        }

    def untraced_steps(self) -> list:
        """Normalised coteach_step times of every untraced rep, in ms."""
        return [ms for r in self.untraced() for samples in r.step_ms.values()
                for ms in samples]

    def clean_test_p1(self) -> dict:
        """Clean-test P@1 of the selected peer per strategy (equal in every
        rep, which is checked) and their mean."""
        p1 = self.reps[-1][1].p1
        return {"evaluation.clean_test_p1": statistics.fmean(p1.values()),
                **{f"evaluation.clean_test_p1.{k}": v for k, v in p1.items()}}

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        run_ids = self.traced_run_ids()
        n = len(run_ids)
        rep_sum = self.spans.summarize(spans, run_ids)
        all_sum = self.spans.summarize(spans, run_ids | {SETUP_RUN_ID})
        child_calls = rep_sum["child_calls"]

        def totals(prefix, summary=rep_sum):
            rows = [v for k, v in summary["by_name"].items()
                    if k == prefix or k.startswith(prefix + ".")]
            return (sum(r[0] for r in rows), sum(r[1] for r in rows),
                    sum(r[2] for r in rows))

        def per_call(prefix, scale, summary=rep_sum):
            calls, total, _ = totals(prefix, summary)
            return total / calls * scale if calls else 0.0

        def children(parent_prefix, child):
            return sum(c for (p, name), c in child_calls.items()
                       if p.startswith(parent_prefix) and name == child)

        instances = {}
        for (run_id, key), count in self.tracer.counts.items():
            if run_id in run_ids:
                instances[key] = instances.get(key, 0) + count
        protocol_calls = totals("strategies.protocol")[0]
        step_calls, _, step_self = totals("engine.coteach_step")
        rank_total = totals("evaluation.rank_test_groups")[1]
        candidates = children("evaluation.rank_test_groups", "matcher.score")
        metrics = {
            "corpus.generate_s": per_call("corpus.generate", 1.0, all_sum),
            "matcher.score_us": per_call("matcher.score", 1e6),
            "matcher.score_calls": totals("matcher.score")[0] / n,
            "matcher.loss_and_grad_us": per_call("matcher.loss_and_grad", 1e6),
            "matcher.loss_and_grad_calls": totals("matcher.loss_and_grad")[0] / n,
            "matcher.loss_and_grad_instances": sum(instances.values()) / n,
            "strategies.protocol_us": per_call("strategies.protocol", 1e6),
            "strategies.protocol_calls": protocol_calls / n,
            "strategies.teacher_scores_per_protocol":
                children("strategies.protocol", "matcher.score") / protocol_calls
                if protocol_calls else 0.0,
            "strategies.suppressed_frac": self.audit.suppressed_frac(),
            "engine.adam_update_us": per_call("engine.adam_update", 1e6),
            "engine.adam_update_calls": totals("engine.adam_update")[0] / n,
            "engine.coteach_step_self_ms":
                step_self / step_calls * 1e3 if step_calls else 0.0,
            "engine.coteach_step_calls": step_calls / n,
            "engine.coteach_step_ms_p90":
                statistics.quantiles(self.untraced_steps(), n=10)[-1],
            "engine.coteach_train_s": totals("engine.coteach_train")[1] / n,
            "engine.validation_p_at_1_ms": per_call("engine.validation_p_at_1", 1e3),
            "engine.select_model_ms": per_call("engine.select_model", 1e3),
            "evaluation.rank_test_groups_ms":
                per_call("evaluation.rank_test_groups", 1e3),
            "evaluation.rank_us_per_candidate":
                rank_total / candidates * 1e6 if candidates else 0.0,
            "evaluation.paired_t_test_ms": per_call("evaluation.paired_t_test", 1e3),
            "evaluation.clean_test_p1": self.clean_test_p1()[
                "evaluation.clean_test_p1"],
            "cli.startup_s": statistics.median(self.startup_walls),
            "trace.overhead_s":
                sum(phase_medians([r for t, r in self.reps if t])[1].values())
                - sum(phase_medians(self.untraced())[1].values()),
        }
        for layer in ("matcher", "strategies", "engine", "evaluation"):
            metrics[layer + ".self_s"] = rep_sum["by_layer"].get(layer, 0.0) / n
        self.detail = self.layer_detail(rep_sum, instances, n, children)
        return metrics

    def layer_detail(self, rep_sum, instances, n, children) -> dict:
        """Per-strategy, per-loss-kind and per-command figures, where the
        workload has them."""
        detail = self.clean_test_p1()
        for name, (calls, total, _) in sorted(rep_sum["by_name"].items()):
            family, _, kind = name.rpartition(".")
            metric, scale = DETAIL_NAMES.get(family, (name + "_ms", 1e3))
            metric = metric.format(kind=kind)
            detail[metric] = total / calls * scale
            detail[f"{name}.calls"] = calls / n
            if family == "strategies.protocol":
                scores = children(name, "matcher.score")
                detail[f"strategies.teacher_scores_per_protocol.{kind}"] = (
                    scores / calls)
        for strategy in self.audit.instances:
            detail[f"strategies.suppressed_frac.{strategy}"] = (
                self.audit.suppressed_frac(strategy))
        for key, count in instances.items():
            detail[key] = count / n
        for layer in ("corpus", "cli"):
            if layer in rep_sum["by_layer"]:
                detail[f"{layer}.self_s"] = rep_sum["by_layer"][layer] / n
        corpus_dir = self.workdir / "corpus"
        load = rep_sum["by_name"].get("corpus.load")
        if load and corpus_dir.is_dir():
            size = sum(p.stat().st_size for p in corpus_dir.iterdir())
            detail["corpus.load_mb_per_s"] = size / 1e6 / (load[1] / load[0])
        return detail


# Per-call figures of span families, named as in the benchmark's design:
# span family -> (metric name, scale from seconds). Other spans give
# "<span>_ms".
DETAIL_NAMES = {
    "strategies.protocol": ("strategies.protocol_us.{kind}", 1e6),
    "matcher.loss_and_grad": ("matcher.loss_and_grad_us.{kind}", 1e6),
    "engine.coteach_train": ("engine.coteach_train_s.{kind}", 1.0),
    "engine": ("engine.{kind}_ms", 1e3),
    "corpus": ("corpus.{kind}_s", 1.0),
    "cli": ("cli.{kind}_s", 1.0),
    "cli.evaluate": ("cli.evaluate.{kind}_s", 1.0),
}


def print_metrics(title, metrics, units):
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"{name:<48} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "coteach" / "__init__.py").is_file():
        print(f"error: package source not found at {ROOT / 'src' / 'coteach'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    if args.probe:
        run_probe(args, workloads)
        return 0

    cpu = speed.pin_to_one_cpu()
    run = Run(args, workloads, spans)
    shutil.rmtree(run.workdir, ignore_errors=True)
    run.workdir.mkdir(parents=True)
    env = environment(args.seed, cpu)
    run.setup()
    run.measure()
    if args.trace:
        metrics, units = run.per_layer(), dict(PER_LAYER)
        run.tracer.write(run.workdir / "spans.csv")
    else:
        metrics, units = run.end_to_end(), dict(END_TO_END)
    failed = sum(1 for _, ok in run.checks if not ok)
    attempted = len(run.checks)
    for label, ok in run.checks:
        if not ok:
            print(f"check failed: {label}", file=sys.stderr)

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{len(run.reps)} repetitions ({len(run.traced_run_ids())} traced)")
    print("# environment " + json.dumps(env))
    print_metrics("metrics", metrics, units)
    print_metrics("workload detail", run.detail, {})
    print(f"{'failed_frac':<48} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations and checks)")
    record = {"workload": args.workload, "environment": env,
              "metrics": metrics, "detail": run.detail,
              "reps": [{"traced": traced, "phases": r.phases}
                       for traced, r in run.reps],
              "failed": failed, "attempted": attempted}
    (run.workdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name, _ in (PER_LAYER if args.trace else END_TO_END)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
