"""Layer-by-layer benchmark of m4extremes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring_oracle --seed 1 --seconds 15 --trace 0

Without `--workload` it runs every workload of BENCHMARK.json, one after
another.  `exact_region` (closed forms only) runs only when named.

The workloads, metrics, units and regression bounds are declared in
BENCHMARK.json; perfbench/layers.json says which end-to-end metric each
per-layer metric should move, and on which workload.  Each run starts the
workload in its own fresh worker process (perfbench/worker.py) that imports
the package from src/, so nothing needs installing.  Load is a closed loop
with one client: one job at a time and at most one child process at a time.

With `--trace 0` the run reports the end-to-end metrics; `setup_s` is the
median over several fresh interpreters of the time from spawn until
`import m4extremes` has returned and the workload's specifications are
built and validated.  With `--trace 1` it reports the per-layer metrics
from a separate traced run.  Every job's output is checked: invariants at
any seed, and at the recorded seed also the digests in
perfbench/reference.json.  The last line of standard output is one JSON
object; the exit code is nonzero when any job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_SPAWNS = {"full": 7, "smoke": 2}
IMPORT_SPAWNS = 3
RUN_LIMIT_S = 175  # every run must end within 180 s
# Runnable by name, but not declared in BENCHMARK.json: on a shared 2-vCPU
# host its Fraction-heavy timings drifted by up to 29% (IQR over median of
# ten runs), beyond the largest regression bound a declared metric may have.
UNDECLARED_WORKLOADS = ("exact_region",)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' for those of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="'smoke' shrinks every input, for the self-test")
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="digests recorded at the reference seed")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "m4extremes" / "__init__.py").is_file():
        print("error: run from a checkout of m4extremes (src/m4extremes not found)",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names + list(UNDECLARED_WORKLOADS):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])

    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        results[name] = _run_workload(args, name, bench, root, env)
        if results[name] is None:
            return 3
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def _run_workload(args, name: str, bench: dict, root: Path, env: dict) -> dict | None:
    """Measure one workload in its own worker; print its provenance and metrics."""
    deadline = time.monotonic() + RUN_LIMIT_S
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", name,
              "--seed", str(args.seed), "--size", args.size,
              "--seconds", str(args.seconds)]
    measured: dict[str, float] = {}
    if args.trace:
        measured["cli.import_s"] = statistics.median(
            _import_seconds(env) for _ in range(IMPORT_SPAWNS))
    else:
        measured["setup_s"] = statistics.median(
            _setup_seconds(worker, env) for _ in range(SETUP_SPAWNS[args.size]))
    proc = subprocess.Popen(
        worker + ["--trace", str(args.trace), "--reference", args.reference],
        env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: {name} did not finish in time", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: the {name} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    report = json.loads(lines[-1])
    measured.update(report["metrics"])
    lines_of = _source_lines(root)
    if args.trace:
        measured.update(lines_of)

    attempted, failed = report["attempted"], report["failed"]
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    missing = [m["name"] for m in declared if m["name"] not in measured]

    provenance = {
        "workload": name,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        **report["versions"],
        "git_commit": _git_commit(root),
        "inputs": report["properties"],
        "passes": report["passes"],
        "jobs_per_pass": report["jobs_per_pass"],
        "src_lines": lines_of,
        "digests": report["digests"],
    }
    if args.trace:
        provenance["zero_because_unused"] = sorted(missing)
        provenance["absent_layers"] = report["absent_layers"]
        provenance["absent_sites"] = report["absent_sites"]
        missing = []
    else:
        provenance["job_tail_percentile"] = report["job_tail_percentile"]
    print(json.dumps({"provenance": provenance}, sort_keys=True))

    for metric_name, metric in metrics.items():
        print(f"{name:16} {metric_name:32} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        print(f"{name:16} {'error_ratio':32} {failed / attempted:.6g} ratio"
              f" ({failed} of {attempted} jobs)")
    for problem in report["problems"]:
        print(f"FAILED {name} {problem}", file=sys.stderr)
    for metric_name in missing:
        print(f"FAILED {name}: metric {metric_name} was not measured", file=sys.stderr)
    return {"correct": failed == 0 and not missing, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def _setup_seconds(worker: list[str], env: dict) -> float:
    """Spawn to `ready` of a fresh interpreter that builds the workload's specs."""
    start = time.perf_counter()
    proc = subprocess.Popen(worker + ["--setup-only"], env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError("set-up of the workload failed")
    return elapsed


def _import_seconds(env: dict) -> float:
    """Time of `import m4extremes.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import m4extremes.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return float(out)


def _source_lines(root: Path) -> dict[str, float]:
    files = sorted((root / "src" / "m4extremes").glob("*.py"))
    lines = {f"src.lines.{f.stem}": float(len(f.read_text().splitlines())) for f in files}
    lines["src.lines.total"] = sum(lines.values())
    return lines


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
