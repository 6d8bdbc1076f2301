"""Runs one workload in a fresh interpreter; started by run.py.

`--setup-only` builds the workload's specifications, prints `ready` and
exits; run.py times that from spawn to `ready`.  Otherwise the worker
prepares the inputs and measures passes over the workload's jobs until
`--seconds` have gone by, checking every job's output, and prints one JSON
line for run.py.

With `--trace 0` no pass is traced; a pass's time is the sum of its job
latencies, so the benchmark's own checks between jobs are not counted.
In-process workloads first run one untimed warm-up job; CLI jobs do not,
because a user pays the import on every command.  With `--trace 1` the
set-up is traced, then untraced and traced passes alternate, and the
per-layer values are medians over the traced passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy

import workloads
from tracing import Tracer, layer_metrics

# Jobs that a pass may have beyond the reported tail percentile.
TAIL_BEYOND = 10


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--reference")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    make = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed, args.size)
        print("ready", flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install("setup")
    try:
        wl = make(args.seed, args.size)
    finally:
        if tracer:
            tracer.uninstall()
    setup_trace = tracer.take() if tracer else None

    workdir = Path(".bench_work") / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _measure(args, wl, tracer, setup_trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, wl, tracer, setup_trace, workdir: Path) -> int:
    wl.prepare(workdir)
    reference = _reference(args)
    runs: list[tuple[str, list[str]]] = []  # (job key, problems) per timed job
    digests: dict[str, str] = {}

    def run_pass(traced: bool) -> tuple[float, list[float]]:
        latencies = []
        for key in wl.keys:
            if traced:
                tracer.install(f"{len(runs)}:{key}")
            start = time.perf_counter()
            try:
                out, problems = wl.run(key), []
            except Exception as exc:  # a failed job is counted, not fatal
                out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
            latencies.append(time.perf_counter() - start)
            if traced:
                tracer.uninstall()
            if out is not None:
                try:
                    job_digests, problems = wl.check(key, out)
                except Exception as exc:
                    job_digests, problems = {}, [f"check raised {type(exc).__name__}: {exc}"]
                del out
                for name, value in job_digests.items():
                    digests.setdefault(name, value)
                    expected = reference.get(name)
                    if expected is not None and expected != value:
                        problems.append(f"digest {name} is {value}, reference {expected}")
            runs.append((key, problems))
        return sum(latencies), latencies

    if wl.warm_up:
        try:
            wl.run(wl.keys[0])
        except Exception:
            pass  # the timed run of the same job reports it

    walls, latencies, traced_walls, layer_passes = [], [], [], []
    if args.trace:
        wl.in_process = True  # CLI jobs go through m4extremes.cli.main
        start = time.monotonic()
        while not traced_walls or time.monotonic() - start < args.seconds:
            walls.append(run_pass(traced=False)[0])
            traced_walls.append(run_pass(traced=True)[0])
            layer_passes.append(_layers(tracer, setup_trace))
    else:
        start = time.monotonic()
        while not walls or time.monotonic() - start < args.seconds:
            wall, pass_latencies = run_pass(traced=False)
            walls.append(wall)
            latencies.append(pass_latencies)
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    late = wl.finish()
    failed = 0
    problems = []
    for key, job_problems in runs:
        job_problems = job_problems + late.get(key, [])
        failed += bool(job_problems)
        problems += [f"{key}: {p}" for p in job_problems]

    result = {
        "attempted": len(runs),
        "failed": failed,
        "problems": sorted(set(problems))[:20],
        "digests": digests,
        "properties": wl.properties(),
        "passes": len(walls),
        "jobs_per_pass": len(wl.keys),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__},
    }
    if args.trace:
        metrics = {name: statistics.median(p.get(name, 0.0) for p in layer_passes)
                   for name in set().union(*layer_passes)}
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls))
        metrics["simulate.distinct_column_ratio"] = result["properties"].get(
            "simulate.distinct_column_ratio", 0.0)
        result["absent_layers"] = tracer.absent_layers
        result["absent_sites"] = tracer.absent_sites
    else:
        percentile, p50s, tails = _tail_percentile(len(wl.keys)), [], []
        for pass_latencies in latencies:
            ordered = sorted(pass_latencies)
            p50s.append(statistics.median(ordered))
            tails.append(ordered[-TAIL_BEYOND - 1] if len(ordered) > TAIL_BEYOND
                         else ordered[-1])
        metrics = {
            "wall_s": statistics.median(walls),
            "job_p50_ms": 1000 * statistics.median(p50s),
            "job_tail_ms": 1000 * statistics.median(tails),
            "peak_rss_mb": peak_kib / 1024,
        }
        result["job_tail_percentile"] = percentile
    result["metrics"] = metrics
    print(json.dumps(result), flush=True)
    return 0


def _tail_percentile(jobs: int) -> float:
    """The highest percentile of a pass with TAIL_BEYOND jobs above it."""
    return 100.0 * (jobs - TAIL_BEYOND) / jobs if jobs > TAIL_BEYOND else 100.0


def _layers(tracer, setup_trace) -> dict[str, float]:
    """Per-layer values of the latest traced pass, set-up spans included."""
    spans, counts, errors = tracer.take()
    setup_spans, setup_counts, setup_errors = setup_trace
    offset = len(setup_spans)
    spans = setup_spans + [
        [kind, start, end, None if parent is None else parent + offset, job, label]
        for kind, start, end, parent, job, label in spans
    ]
    return layer_metrics(spans, counts + setup_counts, errors + setup_errors)


def _reference(args) -> dict[str, str]:
    """Reference digests recorded for this size and seed, if any."""
    if not args.reference:
        return {}
    recorded = json.loads(Path(args.reference).read_text()).get(args.size, {})
    if recorded.get("seed") != args.seed:
        return {}
    return recorded.get("workloads", {}).get(args.workload, {})


if __name__ == "__main__":
    sys.exit(main())
