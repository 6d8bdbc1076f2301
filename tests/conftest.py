from __future__ import annotations

import os
import random
import re
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from m4extremes import (
    LatticePoint,
    LatticeRect,
    M4Spec,
    PatternRule,
    Region,
    neighbors,
    preset_one_pattern,
    preset_two_pattern,
)

settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")

DATA_DIR = Path(__file__).parent / "data"


def raises_exactly(exc_type: type[BaseException], message: str):
    """`pytest.raises` for `exc_type` whose whole message is `message`."""
    return pytest.raises(exc_type, match=f"^{re.escape(message)}$")


# Frozen seeds: chosen once, verified to satisfy every tolerance gate with
# margin; all stochastic assertions below are deterministic given these.
ORACLE_SEED = 4
STUDY_SEED = 42


@pytest.fixture
def started(monkeypatch) -> list:
    """The threads that this test starts, in order of `Thread.start`."""
    started = []
    real_start = threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def use_cpus(monkeypatch, count: int) -> None:
    """Makes `os.sched_getaffinity` report `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


HOST_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def threads_for(monkeypatch, started: list, parts: int) -> list:
    """Lets a runner split its work into `parts` parts, on the calling thread and
    `parts - 1` more.  Where the host has a CPU for each part, the threads are real.
    Else `threading.Thread` becomes a stand-in whose `start` appends it to `started` and
    starts nothing, and whose `join` runs its target on the joining thread: no test
    starts more threads than the host has CPUs.  Returns the stand-ins whose target is
    running, in a join (none outside one)."""
    running = []
    if parts <= (HOST_CPUS or 1):
        return running

    class StandInThread(threading.Thread):
        def start(self):
            started.append(self)

        def join(self, timeout=None):
            running.append(self)
            try:
                self.run()
            finally:
                running.remove(self)

    monkeypatch.setattr(threading, "Thread", StandInThread)
    return running


@pytest.fixture(scope="session")
def one_pattern_spec() -> M4Spec:
    return preset_one_pattern()


@pytest.fixture(scope="session")
def two_pattern_spec() -> M4Spec:
    return preset_two_pattern()


@pytest.fixture(scope="session")
def site() -> LatticePoint:
    return LatticePoint(3, 3)


@pytest.fixture(scope="session")
def ring(site) -> Region:
    return neighbors(site)


@pytest.fixture(scope="session")
def row_region() -> Region:
    return Region(
        [LatticePoint(2, 4), LatticePoint(3, 4), LatticePoint(4, 4), LatticePoint(5, 4)]
    )


def random_rational_spec(rng: random.Random) -> M4Spec:
    """A random valid rule-based specification with exact rational weights."""
    n_patterns = rng.randint(1, 3)
    m_min = rng.randint(-1, 1)
    lag_count = rng.randint(1, 3)
    pool = ["both_odd", "abscissa_even"]
    rng.shuffle(pool)
    predicates = pool[: rng.randint(0, 2)] + ["always"]
    rules = []
    for name in predicates:
        weights = [rng.randint(0, 9) for _ in range(n_patterns * lag_count)]
        if sum(weights) == 0:
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        flat = [Fraction(w, total) for w in weights]
        patterns = tuple(
            tuple(flat[l * lag_count : (l + 1) * lag_count])
            for l in range(n_patterns)
        )
        rules.append(PatternRule(name, patterns))
    domain = LatticeRect(-4, 4, -4, 4)
    return M4Spec.from_rules(
        n_patterns, m_min, m_min + lag_count - 1, domain, tuple(rules)
    )


def random_table_spec(rng: random.Random, sites) -> M4Spec:
    """Per-site rational weights with many zeros and some repeated matrices."""
    n_patterns, lag_count = rng.randint(1, 3), rng.randint(1, 3)
    entries = {}
    for point in sites:
        if entries and rng.random() < 0.25:
            entries[point] = entries[rng.choice(list(entries))]
            continue
        raw = [rng.choice((0, 0, 1, 2, 5)) for _ in range(n_patterns * lag_count)]
        if not any(raw):
            raw[rng.randrange(len(raw))] = 1
        flat = [Fraction(w, sum(raw)) for w in raw]
        entries[point] = [
            flat[i * lag_count : (i + 1) * lag_count] for i in range(n_patterns)
        ]
    return M4Spec.from_table(n_patterns, 0, lag_count - 1, entries)


def random_point(rng: random.Random) -> LatticePoint:
    return LatticePoint(rng.randint(-4, 4), rng.randint(-4, 4))


def random_region(rng: random.Random, max_size: int = 5) -> Region:
    size = rng.randint(1, max_size)
    return Region(random_point(rng) for _ in range(size))


def random_fraction_matrix(rng, n_patterns, lag_count):
    raw = [[rng.randint(0, 9) for _ in range(lag_count)] for _ in range(n_patterns)]
    raw[0][0] += 1  # never all zero
    total = sum(map(sum, raw))
    return [[Fraction(w, total) for w in row] for row in raw]


def table_spec(distinct_count, n_points=12, seed=0):
    """A valid 2-pattern, 3-lag table spec whose points cycle through
    `distinct_count` random matrices."""
    rng = random.Random(seed)
    matrices = [random_fraction_matrix(rng, 2, 3) for _ in range(distinct_count)]
    points = [LatticePoint(x, y) for x in range(-2, 2) for y in range(-1, 2)][:n_points]
    return M4Spec.from_table(
        2, 1, 3, {p: matrices[i % distinct_count] for i, p in enumerate(points)}
    )
