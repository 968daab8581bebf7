#!/usr/bin/env python3
"""ovklearn benchmark: run one workload in this process and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload growing-batch --seed 1 --seconds 50 --trace 0

Workloads: growing-batch, online-truncated (see bench/workloads.py and
bench/NOTES.md).  The library is imported from ./src, never from an
installed copy.

--trace 0  measures the end-to-end metrics: set-up time (median of this
           process and SETUP_PROBES fresh child processes), then measured
           passes over the same inputs until --seconds have elapsed.
--trace 1  measures one untraced pass, then wraps the library's public
           entry points (bench/tracing.py), sets up again and runs traced
           passes until --seconds have elapsed, then unwraps them and
           measures one more untraced pass.  It reports the per-layer
           metrics for one set-up plus one pass, the tracing overhead, and
           writes every span to bench/out/spans-<workload>-seed<seed>.npz.

Every metric is printed with its unit; the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Output checks run after the first pass, outside every timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join("bench", "out")
# one BLAS thread on the 2-core machine the baseline was measured on:
# the second core absorbs system noise, and the online learners gain
# nothing from more threads
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("growing-batch", "online-truncated")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "onorma_steps_per_s": ("1/s", "higher"),
    "monorma_steps_per_s": ("1/s", "higher"),
    "onorma_late_step_us_p50": ("us", "lower"),
    "monorma_late_step_us_p50": ("us", "lower"),
    "predict_rows_per_s": ("rows/s", "higher"),
    "batch_fit_s": ("s", "lower"),
    "check_bounds_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "onorma_test_mse": ("1", "lower"),
    "monorma_test_mse": ("1", "lower"),
    "batch_test_mse": ("1", "lower"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once, print the set-up time and exit
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def source_digest(src: str) -> str:
    """sha256 over the library's .py files, for checkouts without git."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fn)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of ./.git, read without running git; None outside a repository."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "machine": f"{platform.system()} {platform.machine()} {cpu}",
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "src_sha256": source_digest("src"),
        "seed": seed,
    }


def percentile(values, q) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def end_to_end(workload, inputs, passes, setup_s, peak_rss_mb) -> dict:
    """The end-to-end metrics over every measured pass.

    Times are means, not medians: the machine's speed switches between
    levels for tens of seconds at a time, and a median then jumps from
    one level to the other with the share of time spent in each, while
    a mean moves in proportion to it.  A latency median is taken per
    stream (robust to single slow steps; the streams of two learners of
    one kind differ in step cost, and the median of their mixture would
    fall in the gap between them) and averaged over streams.
    """
    import workloads

    out = {"setup_s": setup_s}
    for kind in ("onorma", "monorma"):
        streams = [t for p in passes for t in p.step_ns[kind]]
        total_ns = sum(int(t.sum()) for t in streams)
        out[f"{kind}_steps_per_s"] = sum(len(t) for t in streams) / (total_ns / 1e9)
        out[f"{kind}_late_step_us_p50"] = statistics.fmean(
            percentile(late_quarter_us(t), 50) for t in streams
        )
    out["predict_rows_per_s"] = sum(p.predict_rows for p in passes) / sum(
        p.predict_s for p in passes
    )
    out["batch_fit_s"] = statistics.fmean(s for p in passes for s in p.batch_fit_s)
    out["check_bounds_s"] = statistics.fmean(s for p in passes for s in p.check_bounds_s)
    out["peak_rss_mb"] = peak_rss_mb
    mse = workloads.held_out_mse(workload, inputs, passes[0])
    for kind in ("onorma", "monorma", "batch"):
        out[f"{kind}_test_mse"] = mse[kind]
    return out


def late_quarter_us(step_ns):
    """Step times (us) over the last quarter of one stream."""
    return step_ns[3 * len(step_ns) // 4 :] / 1e3


def late_steps_us(passes, kind):
    """Step times (us) over the last quarter of every stream of one kind."""
    import numpy as np

    return np.concatenate([late_quarter_us(t) for p in passes for t in p.step_ns[kind]])


def run_passes(workload, inputs, seconds, tracer=None, check=None):
    """Passes until their own time reaches ``seconds`` (at least one).

    ``check`` sees the first pass before its models are dropped; later
    passes keep only their timings and predictions, so memory does not
    grow with the number of passes.
    """
    import workloads

    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        result = workloads.run_pass(workload, inputs, tracer)
        if check is not None and not passes:
            check(result)
        result.models.clear()
        result.batch_model = None
        passes.append(result)
    return passes


def probe_setup(args) -> list:
    """Set-up times of SETUP_PROBES fresh processes, run one after another."""
    times = []
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def print_metrics(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "ovklearn", "__init__.py")):
        print("error: src/ovklearn not found; run from the repository root", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    import ovklearn

    if not os.path.abspath(ovklearn.__file__).startswith(src + os.sep):
        print(f"error: ovklearn imported from {ovklearn.__file__}, not ./src", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs = workloads.setup(workload, args.seed, workdir)
        own_setup_s = time.perf_counter() - started
        if args.probe_setup:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        return measure(args, workload, inputs, own_setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, inputs, own_setup_s) -> int:
    """Run the passes and checks, then print the metrics and the result line."""
    import tracing
    import workloads

    env = environment(args.seed)
    attempted = failed = 0
    checks = []
    passes, traced = [], []
    try:
        passes = run_passes(
            workload,
            inputs,
            0 if args.trace else args.seconds,
            check=lambda p: checks.extend(workloads.check_outputs(workload, inputs, p)),
        )
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            mark = len(tracer)
            workloads.setup(workload, args.seed, inputs.workdir)
            setup_totals = tracing.summarize(tracer, mark, len(tracer))
            setup_totals.update(tracer.counts)
            tracer.counts.clear()
            mark = len(tracer)
            traced = run_passes(workload, inputs, args.seconds, tracer)
            pass_totals = tracing.summarize(tracer, mark, len(tracer))
            pass_totals.update(tracer.counts)
            tracing.uninstall(tracer)
            # untraced passes before and after the traced ones, for the overhead
            passes += run_passes(workload, inputs, 0)
        for p in passes + traced:
            attempted += p.attempted
            checks += workloads.check_cli(p)
        for p in passes[1:] + traced:
            checks += workloads.check_repeat(passes[0], p)
    except Exception:
        traceback.print_exc()
        failed += 1
        attempted += 1
    attempted += len(checks)
    failed += sum(1 for _, ok, _ in checks if not ok)
    for name, ok, detail in checks:
        if not ok:
            print(f"check failed: {name} ({detail})", file=sys.stderr)
    correct = failed == 0
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}"
          + (f" untraced, {len(traced)} traced" if args.trace else ""))
    for label, group in (("pass", passes), ("traced pass", traced)):
        for p in group:
            rates = "  ".join(
                f"{kind} {sum(len(t) for t in p.step_ns[kind]) / (sum(int(t.sum()) for t in p.step_ns[kind]) / 1e9):.1f}/s"
                for kind in ("onorma", "monorma")
            )
            print(f"{label}: {p.wall_s:.3f} s  {rates}")
    print(f"checks {len(checks)}  failed {failed}  attempted operations {attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    if not correct:
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    if not args.trace:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_samples = [own_setup_s] + probe_setup(args)
        metrics = end_to_end(workload, inputs, passes, statistics.median(setup_samples), rss)
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
        print("late-step samples: " + ", ".join(
            f"{kind} {len(late_steps_us(passes, kind))}" for kind in ("onorma", "monorma")))
        print(f"fail_frac {failed / attempted:g}")
        print_metrics(metrics, units)
    else:
        n = len(traced)
        totals = {k: setup_totals.get(k, 0.0) + pass_totals.get(k, 0.0) / n
                  for k in set(setup_totals) | set(pass_totals)}
        metrics = tracing.derive(totals)
        kept = [p.kept_ratio[l.label] for p in traced[:1] for l in workload.learners
                if l.kind == "onorma"]
        metrics["onorma.kept_ratio"] = sum(kept) / len(kept)
        # p99 step latency does not repeat run to run within a tenth, so it
        # is a per-layer figure, taken over the traced passes
        for kind in ("onorma", "monorma"):
            metrics[f"{kind}.step.late_us_p99"] = percentile(late_steps_us(traced, kind), 99)
        plain = end_to_end(workload, inputs, passes, own_setup_s, 0.0)
        with_spans = end_to_end(workload, inputs, traced, own_setup_s, 0.0)
        plain_wall = statistics.median(p.wall_s for p in passes)
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics["tracing.overhead_frac"] = traced_wall / plain_wall - 1.0
        print(f"spans {len(tracer)}  missing entry points {tracer.missing or 'none'}")
        print("tracing overhead (traced minus untraced pass):")
        for name, value in with_spans.items():
            if name not in ("setup_s", "peak_rss_mb") and not name.endswith("_mse"):
                print(f"  {name:46s} {value - plain[name]:>+16.6g} {units[name]}")
        layer_units = {name: unit_of(name) for name in metrics}
        print_metrics(metrics, layer_units)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans written to {path}")
        units = layer_units
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us_p99"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("bytes", "bytes_computed")):
        return "B"
    if name.endswith((".calls", ".terms", ".gram_entries", ".factor_retries")):
        return "count"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
