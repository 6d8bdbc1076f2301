"""Spans around the public `m4extremes` names, for the traced run.

The tracer replaces a public function with a timing wrapper in each module
that looks the name up at call time: `uniform_block` in `m4extremes.rng`
and in `m4extremes.simulate` (where `simulate_m4` finds it), `rank_transform`
and `simulate_m4` in `m4extremes.estimate` (where `monte_carlo_study` finds
them), and so on.  Nothing in the program changes; the wrappers are removed
after each traced job.  A name that no longer exists is reported as an
absent site, and a layer whose sites are all absent as an absent layer.

Each span records its kind, start, end, parent span and job id.  Spans stay
in memory and are never written out: the worker turns each traced pass's
spans into per-layer values.  A kind's self time is its spans' durations
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter as _now

# span kind -> {module: names looked up there}.  The part of a kind before
# the first dot is its layer.
SPAN_SITES = {
    "rng": {
        "m4extremes.rng": ["uniform_block"],
        "m4extremes.simulate": ["uniform_block"],
        "m4extremes": ["uniform_block"],
    },
    "simulate": {
        "m4extremes": ["simulate_m4"],
        "m4extremes.estimate": ["simulate_m4"],
        "m4extremes.cli": ["simulate_m4"],
    },
    "simulate.oracle": {"m4extremes": ["empirical_contagion", "empirical_stability"]},
    "simulate.csv_write": {
        "m4extremes.simulate": ["write_sample_csv"],
        "m4extremes": ["write_sample_csv"],
    },
    "simulate.csv_read": {
        "m4extremes": ["read_sample_csv"],
        "m4extremes.cli": ["read_sample_csv"],
    },
    "estimate.rank": {
        "m4extremes": ["rank_transform", "scores_from_matrix"],
        "m4extremes.estimate": ["rank_transform"],
        "m4extremes.cli": ["rank_transform"],
        "m4extremes.stations": ["scores_from_matrix"],
    },
    "estimate.estimator": {
        "m4extremes": ["estimate_contagion", "estimate_stability",
                       "estimate_extremal_coefficient", "estimate_contagion_region"],
        "m4extremes.estimate": ["estimate_contagion", "estimate_stability"],
        "m4extremes.cli": ["estimate_contagion", "estimate_stability",
                           "estimate_extremal_coefficient"],
        "m4extremes.stations": ["estimate_contagion", "estimate_stability",
                                "estimate_extremal_coefficient"],
    },
    "estimate.study": {
        "m4extremes": ["monte_carlo_study"],
        "m4extremes.cli": ["monte_carlo_study"],
    },
    "dependence": {
        "m4extremes": ["summarize", "extremal_coefficient_matrix", "contagion_index",
                       "stability_index", "stability_bounds", "extremal_coefficient",
                       "pairwise_tail_dependence", "exponent_value"],
        "m4extremes.estimate": ["contagion_index", "stability_index"],
        "m4extremes.cli": ["summarize", "extremal_coefficient_matrix"],
    },
    "dependence.region": {
        "m4extremes": ["contagion_index_region", "fragility_index",
                       "multivariate_tail_dependence"],
        "m4extremes.cli": ["contagion_index_region", "fragility_index"],
    },
    "patterns.spec": {
        "m4extremes": ["validate", "load_spec", "preset", "preset_one_pattern",
                       "preset_two_pattern", "dump_spec"],
        "m4extremes.patterns": ["validate"],
        "m4extremes.cli": ["validate", "load_spec", "preset", "dump_spec"],
    },
    "stations.ingest": {
        "m4extremes": ["ingest_stations"],
        "m4extremes.cli": ["ingest_stations"],
    },
    "stations.indices": {
        "m4extremes": ["station_indices"],
        "m4extremes.cli": ["station_indices"],
    },
    "cli": {"m4extremes.cli": ["main"]},
}

# Names called too often for a span each: these only count calls.
COUNT_SITES = {
    "dependence.coefficient_evals": ("m4extremes.dependence", "extremal_coefficient"),
    "patterns.patterns_at_calls": ("m4extremes.patterns", "M4Spec.patterns_at"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _given_size(name, args, kwargs):
    if name == "fragility_index":
        return len(_arg(args, kwargs, 1, "region"))
    return len(_arg(args, kwargs, 2, "given"))


def _measure(tracer, kind, name, args, kwargs, result):
    """Record the work counts of one call that returned."""
    c = tracer.counts
    if kind == "rng":
        c["rng.draws"] += _arg(args, kwargs, 2, "count")
    elif kind == "simulate":
        c["simulate.cells"] += result.values.size
    elif kind == "simulate.oracle":
        c["simulate.oracle_calls"] += 1
    elif kind == "simulate.csv_write":
        c["simulate.csv_write_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    elif kind == "simulate.csv_read":
        c["simulate.csv_read_rows"] += result.values.size
    elif kind == "estimate.rank":
        c["estimate.rank_cells"] += result.rank_counts.size
    elif kind == "estimate.estimator":
        c["estimate.estimator_calls"] += 1
    elif kind == "estimate.study":
        c["estimate.study_reps"] += _arg(args, kwargs, 3, "replications")
    elif kind.startswith("dependence"):
        c["dependence.calls"] += 1
        if kind == "dependence.region":
            size = _given_size(name, args, kwargs)
            c["dependence.max_given_size"] = max(c["dependence.max_given_size"], size)
    elif kind == "stations.ingest":
        c["stations.ingest_rows"] += result.n
    elif kind == "cli" and result != 0:
        c["cli.nonzero_exits"] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [kind, start, end, parent, job, label]
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._seen_errors: set[int] = set()
        self._installed: list[tuple] = []
        self.absent_sites: list[str] = []
        self.absent_layers: list[str] = []
        self._find_sites()

    def _find_sites(self):
        sites, present = [], Counter()
        for kind, modules in SPAN_SITES.items():
            for module, names in modules.items():
                for name in names:
                    sites.append((module, name, kind, self._span_wrapper))
        for counter, (module, name) in COUNT_SITES.items():
            sites.append((module, name, counter, self._count_wrapper))
        self._sites = []
        for module, name, kind, factory in sites:
            owner, attr = _resolve(module, name)
            if owner is None:
                self.absent_sites.append(f"{module}.{name}")
                present[kind.split(".")[0]] += 0
            else:
                self._sites.append((owner, attr, factory(kind, attr, getattr(owner, attr))))
                present[kind.split(".")[0]] += 1
        self.absent_layers = sorted(layer for layer, n in present.items() if n == 0)

    def install(self, job) -> None:
        self.job = job
        for owner, attr, wrapper in self._sites:
            self._installed.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self.job = None

    def _span_wrapper(self, kind, name, fn):
        layer = kind.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            label = args[0][0] if kind == "cli" and args and args[0] else None
            span = [kind, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.job, label]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = _now()
                self._stack.pop()
                if id(exc) not in self._seen_errors:
                    self._seen_errors.add(id(exc))
                    self.errors[layer] += 1
                raise
            span[2] = _now()
            self._stack.pop()
            _measure(self, kind, name, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, counter, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        taken = (self.spans, self.counts, self.errors)
        self.spans, self.counts, self.errors = [], Counter(), Counter()
        return taken


def _resolve(module: str, name: str):
    """The object that holds `name` (a module or a class) and the attribute."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *path, attr = name.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if attr not in getattr(owner, "__dict__", {}) or not callable(getattr(owner, attr)):
        return None, None
    return owner, attr


def self_times(spans) -> tuple[dict, dict]:
    """Self time per span kind, and total time per CLI command."""
    covered = [0.0] * len(spans)
    for kind, start, end, parent, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    commands: dict[str, float] = defaultdict(float)
    for i, (kind, start, end, _, _, label) in enumerate(spans):
        own[kind] += end - start - covered[i]
        if kind == "cli":
            commands[label] += end - start
    return own, commands


def layer_metrics(spans, counts, errors) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    own, commands = self_times(spans)
    values = {name: float(v) for name, v in counts.items()}
    for kind, seconds in own.items():
        layer, _, part = kind.partition(".")
        values[f"{layer}.{part + '_' if part else ''}busy_s"] = seconds
    values["dependence.busy_s"] = own.get("dependence", 0.0) + own.get(
        "dependence.region", 0.0)
    for command, seconds in commands.items():
        values[f"cli.{command}_s"] = seconds
    for layer, n in errors.items():
        values[f"{layer}.errors"] = float(n)
    return values
