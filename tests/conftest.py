from __future__ import annotations

import random
import re
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


def keeps(monkeypatch, module) -> list[bool]:
    """Whether each call of `module._read_only` kept its array rather than
    copying it, in call order."""
    calls, real = [], module._read_only

    def spy(array, *source):
        out = real(array, *source)
        calls.append(out is array)
        return out

    monkeypatch.setattr(module, "_read_only", spy)
    return calls


# Frozen seeds: chosen once, verified to satisfy every tolerance gate with
# margin; all stochastic assertions below are deterministic given these.
ORACLE_SEED = 4
STUDY_SEED = 42


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
