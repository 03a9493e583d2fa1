"""Timed loop, metrics and environment record behind `run.py`."""

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
from time import perf_counter

import numpy as np

import spans
import workloads

def timed_loop(ops, seconds, min_ops):
    """Run ops round-robin, each after the last ends, for about `seconds`.

    Stops before the next op is expected to cross `seconds`, once at least
    min_ops have run, so runs of one workload hold the same number of ops.
    """
    samples = []
    t0 = perf_counter()
    while True:
        samples.append(ops[len(samples) % len(ops)]())
        elapsed = perf_counter() - t0
        if len(samples) >= min_ops and elapsed * (len(samples) + 1) / len(samples) > seconds:
            return samples


def percentile_with_tail(values_ms, q):
    """q-th percentile, or None when fewer than ten samples lie beyond it."""
    if len(values_ms) * (100 - q) < 10 * 100:
        return None
    return float(np.percentile(values_ms, q))


def throughput(samples):
    return sum(s.steps for s in samples) / sum(s.seconds for s in samples)


def environment(seed, nproc, root):
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "drumgen")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


SETUP_MAX_REPEATS = 200


def setup_repeated(make_workload, scale):
    """Set up fresh workloads until at least setup_min_repeats have run and
    setup_min_seconds have passed, so that the median of a cheap set-up is
    taken over many repeats; keep the last, time each."""
    times = []
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < scale.setup_min_repeats or sum(times) < scale.setup_min_seconds):
        wl = make_workload()
        t0 = perf_counter()
        wl.setup()
        times.append(perf_counter() - t0)
    return wl, times


def declared_units(root, trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this run."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(name, seed, seconds, trace, out_dir, root, nproc, scale=workloads.FULL):
    """One benchmark run; returns (detail, result) dictionaries."""
    units = declared_units(root, trace)
    os.makedirs(out_dir, exist_ok=True)
    workdir = os.path.join(out_dir, f"work-{name}-{os.getpid()}")
    env = environment(seed, nproc, root)
    wl, setup_times = setup_repeated(
        lambda: workloads.make(name, seed, scale, workdir), scale)
    ops = wl.ops
    samples = timed_loop(ops, seconds, wl.min_ops)
    op_ms = [s.seconds * 1e3 for s in samples]

    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "env": env, "ops": len(samples), "setup_repeats": len(setup_times)}
    if trace:
        tracer = spans.Tracer()
        wl.tracer = tracer  # only cli-pipeline reads it
        tracer.install()
        try:
            traced = []
            for i, op in enumerate(ops):
                tracer.request_id = i
                traced.append(op())
            tracer.request_id = -1
            quality = wl.finish()
        finally:
            tracer.uninstall()
        metrics = spans.layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = throughput(samples) / throughput(traced) - 1.0
        path = os.path.join(out_dir, f"spans-{name}-seed{seed}.npz")
        tracer.save(path)
        detail["spans_file"] = os.path.relpath(path, root)
        detail["traced_steps_per_s"] = throughput(traced)
    else:
        quality = wl.finish()
        metrics = {
            "setup_s": statistics.median(setup_times),
            "steps_per_s": throughput(samples),
            "op_ms_p50": statistics.median(op_ms),
            "train_loss": quality["train_loss"],
            "gen_feature_l1": quality["gen_feature_l1"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    checks = wl.checks
    finite = all(math.isfinite(v) for v in metrics.values())
    detail.update({
        "steps_per_s": throughput(samples),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": percentile_with_tail(op_ms, 90),
        "op_samples": len(op_ms),
        "op_ms_each": op_ms,
        "setup_s_each": setup_times,
        "quality": quality,
        "fail_ratio": checks.failed / max(checks.attempted, 1),
        "failed_checks": sorted(set(checks.failures)),
    })
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0 and finite,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    with open(os.path.join(out_dir, f"result-{name}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1, sort_keys=True)
    return detail, result
