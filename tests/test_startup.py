"""The spec-only commands and closed-form calls start without numpy.

`m4extremes._numpy` puts a lazy placeholder for numpy in `sys.modules`, so a
fresh interpreter that never reads a numpy attribute imports none of numpy's
submodules.  Each test runs in a fresh `python` process: the suite itself has
numpy loaded."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import m4extremes
from m4extremes import LatticePoint, neighbors, preset, simulate_m4

SRC = Path(__file__).resolve().parents[1] / "src"

def fresh(code: str, cwd=None) -> str:
    """Run `code` in a fresh interpreter that imports the package from `src`;
    its stdout, after checking that it exited 0 and wrote nothing on stderr."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, encoding="utf-8",
    )
    assert (result.returncode, result.stderr) == (0, "")
    return result.stdout


SPEC_ONLY_SCRIPT = """
import hashlib, sys, types

def lazy_parts():  # numpy's submodules, and the thread pool's package that only a split loads
    return sorted(name for name in sys.modules
                  if name.startswith("numpy.") or name.split(".")[0] == "concurrent")

from m4extremes.cli import main
assert lazy_parts() == [], lazy_parts()
for argv in (
    ["preset", "two-pattern", "--out", "spec.json"],
    ["validate", "--spec", "spec.json", "--out", "valid.json"],
    ["exact", "--spec", "spec.json", "--site", "3,3", "--region", "neighbors",
     "--given", "4,3;2,3", "--matrix", "--out", "exact.json"],
):
    assert main(argv) == 0, argv
    assert lazy_parts() == [], (argv, lazy_parts())

import m4extremes
from m4extremes import LatticePoint, neighbors, preset, summarize
site = LatticePoint(3, 3)
summarize(preset("two-pattern"), neighbors(site), site)
assert lazy_parts() == [], lazy_parts()

sample = m4extremes.simulate_m4(preset("two-pattern"), neighbors(site), 200, 11)
assert type(sys.modules["numpy"]) is types.ModuleType
assert "concurrent" not in sys.modules  # 200 replicates do not split
import numpy
assert m4extremes._numpy.np is numpy
print(hashlib.sha256(sample.values.tobytes()).hexdigest())
"""


def test_spec_only_commands_load_no_numpy_module(tmp_path):
    """preset, validate, exact and a closed-form call import no numpy module and
    no `concurrent` module; the first simulation then loads numpy in place and
    draws the same sample."""
    digest = fresh(SPEC_ONLY_SCRIPT, cwd=tmp_path).strip()
    site = LatticePoint(3, 3)
    sample = simulate_m4(preset("two-pattern"), neighbors(site), 200, 11)
    assert digest == hashlib.sha256(sample.values.tobytes()).hexdigest()


NAMES_SCRIPT = """
import json
import m4extremes
import m4extremes.cli as cli
from m4extremes import estimate, simulate, stations

print(json.dumps(m4extremes.__all__))
assert all(name in vars(m4extremes) for name in m4extremes.__all__)
for name, module in [("simulate_m4", simulate), ("read_sample_csv", simulate),
                     ("rank_transform", estimate), ("monte_carlo_study", estimate),
                     ("ingest_stations", stations), ("station_indices", stations)]:
    assert vars(cli)[name] is vars(module)[name], name
"""


def test_every_public_name_is_bound_at_import():
    """The lazy numpy leaves the package's and the CLI's names bound, where
    callers and wrappers look them up, and `__all__` is the one this suite
    reads with numpy loaded first (`tests/test_readme.py` ties it to the README)."""
    assert json.loads(fresh(NAMES_SCRIPT)) == m4extremes.__all__


def test_star_import_binds_no_submodule():
    code = "from m4extremes import *\nprint(*sorted(n for n in globals() if n[0] != '_'))"
    bound = fresh(code).split()
    assert bound == m4extremes.__all__
    assert not {"dependence", "errors", "estimate", "lattice", "patterns", "rng",
                "simulate", "stations"} & set(bound)


def test_numpy_imported_first_is_used_as_is():
    fresh("import numpy, m4extremes._numpy; assert m4extremes._numpy.np is numpy")
