"""Smoke self-test of the benchmark: every workload at tiny sizes.

Run from the root of the repository:

    python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["exact_region"]
SEED = 3


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, trace, *extra):
    return bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke", *extra)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }
    printed = {tuple(line.split()[1:4:2]) for line in lines[1:-1]}
    names = [(m["name"], m["unit"]) for m in declared]
    if not trace:
        names.append(("error_ratio", "ratio"))
    assert set(names) <= printed
    provenance = json.loads(lines[0])["provenance"]
    assert provenance["seed"] == SEED and provenance["nproc"] >= 1
    assert provenance["absent_layers" if trace else "job_tail_percentile"] is not None
    if trace and workload == "ring_oracle":
        # one 2*10**5 x 9 sample per traced pass, two lags per location
        cells = 9 * provenance["inputs"]["rows"]
        assert result["metrics"]["rng.draws"]["value"] == 2 * provenance["inputs"]["rows"]
        assert result["metrics"]["estimate.rank_cells"]["value"] == cells
        assert result["metrics"]["simulate.cells"]["value"] == cells


def test_wrong_reference_digest_is_a_failed_job(tmp_path):
    reference = tmp_path / "reference.json"
    wrong = {"smoke": {"seed": SEED, "workloads": {"exact_region": {"cir/exact/1": "0" * 16}}}}
    reference.write_text(json.dumps(wrong))
    proc = smoke("exact_region", 0, "--reference", str(reference))
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "digest cir/exact/1" in proc.stderr


def test_layer_table_covers_every_per_layer_metric():
    rows = json.loads((ROOT / "perfbench" / "layers.json").read_text())["rows"]
    tabled = [name for row in rows for name in row["metrics"]]
    assert sorted(tabled) == sorted(m["name"] for m in BENCH["per_layer"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
