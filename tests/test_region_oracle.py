"""Region conditioning against a brute-force inclusion-exclusion oracle.

The oracle knows only a set function `eps` (the extremal coefficient of a
point set) and enumerates subsets: the rate at which every point of a set
exceeds a high threshold is the alternating sum of `eps` over its non-empty
subsets, and "j and any of G" is the alternating sum of those rates over the
non-empty subsets of G.  It is exponential, so it stays at 8 sites or fewer.
"""

import math
import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from m4extremes import (
    DegenerateConditioningError,
    LatticePoint,
    M4Spec,
    Region,
    contagion_index_region,
    estimate_contagion_region,
    estimate_extremal_coefficient,
    fragility_index,
    multivariate_tail_dependence,
    neighbors,
    preset,
    rank_transform,
    scores_from_matrix,
    simulate_m4,
)
from conftest import random_table_spec

P = LatticePoint
MAX_SITES = 8


def nonempty_subsets(points):
    for size in range(1, len(points) + 1):
        yield from combinations(points, size)


class InclusionExclusion:
    """Region indices of any set function, by subset enumeration."""

    def __init__(self, eps):
        self.eps = lru_cache(maxsize=None)(lambda key: eps(tuple(sorted(key))))
        self._all_exceed = lru_cache(maxsize=None)(self._all_exceed_rate)

    def _all_exceed_rate(self, key: frozenset) -> F:
        return sum(
            (-1) ** (len(s) + 1) * self.eps(frozenset(s))
            for s in nonempty_subsets(sorted(key))
        )

    def all_exceed(self, points) -> F:
        return self._all_exceed(frozenset(points))

    def tail_dependence(self, target, given) -> F | None:
        """None when the conditioning rate vanishes."""
        denominator = self.all_exceed(given)
        if denominator == 0:
            return None
        return self.all_exceed(tuple(target) + tuple(given)) / denominator

    def contagion(self, region, given) -> F:
        numerator = sum(
            (-1) ** (len(s) + 1) * self.all_exceed(s + (j,))
            for j in region
            for s in nonempty_subsets(tuple(given))
        )
        return numerator / self.eps(frozenset(given))


def model_eps(spec: M4Spec):
    """Extremal coefficient straight from the weight matrices."""

    def eps(points) -> F:
        matrices = [spec.patterns_at(p) for p in points]
        return sum(
            max(m[i][g] for m in matrices)
            for i in range(spec.n_patterns)
            for g in range(spec.lag_count)
        )

    return eps


def random_layout(rng: random.Random):
    sites = [P(i, 0) for i in range(rng.randint(1, MAX_SITES))]
    region = Region(rng.sample(sites, rng.randint(1, len(sites))))
    given = Region(rng.sample(sites, rng.randint(1, len(sites))))
    return sites, region, given


def close(got: float, want: F) -> bool:
    return math.isclose(got, float(want), rel_tol=1e-12, abs_tol=0.0)


def test_closed_forms_match_oracle():
    rng = random.Random(20)
    degenerate = 0
    for _ in range(150):
        sites, region, given = random_layout(rng)
        spec = random_table_spec(rng, sites)
        oracle = InclusionExclusion(model_eps(spec))
        as_float = spec.as_float()

        want = oracle.contagion(region, given)
        assert contagion_index_region(spec, region, given) == want
        assert close(contagion_index_region(as_float, region, given), want)
        want = oracle.contagion(given, given)
        assert fragility_index(spec, given) == want
        assert close(fragility_index(as_float, given), want)

        want = oracle.tail_dependence(region, given)
        if want is None:
            degenerate += 1
            for mode in (spec, as_float):
                with pytest.raises(DegenerateConditioningError):
                    multivariate_tail_dependence(mode, region, given)
        else:
            assert multivariate_tail_dependence(spec, region, given) == want
            assert close(multivariate_tail_dependence(as_float, region, given), want)
    # the layouts must reach both branches of the tail-dependence check
    assert 0 < degenerate < 150


def test_plugin_contagion_matches_oracle_on_ties():
    rng = random.Random(21)
    np_rng = np.random.default_rng(21)
    for _ in range(40):
        sites, region, given = random_layout(rng)
        values = np_rng.integers(0, 4, size=(rng.randint(2, 40), len(sites)))
        if len(sites) > 1:  # a repeated column ties a whole pair of sites
            values[:, -1] = values[:, 0]
        scores = scores_from_matrix(values, sites)
        oracle = InclusionExclusion(
            lambda pts: estimate_extremal_coefficient(scores, Region(pts)).as_fraction()
        )
        got = estimate_contagion_region(scores, region, given)
        assert got == float(oracle.contagion(region, given))


def estimate_oracle(scores) -> InclusionExclusion:
    return InclusionExclusion(
        lambda pts: estimate_extremal_coefficient(scores, Region(pts)).as_fraction()
    )


@pytest.mark.parametrize("grouped", [False, True])
def test_plugin_contagion_matches_oracle_on_shared_columns(grouped):
    site = P(3, 3)
    points = list(neighbors(site))
    # one-pattern: the site shares its weight matrix with (3,2) and (3,4)
    sample = simulate_m4(preset("one-pattern"), Region([site, *points]), 200, 5)
    scores = rank_transform(sample)
    if not grouped:
        scores = scores_from_matrix(sample.values, sample.locations)
    oracle = estimate_oracle(scores)
    for region, given in (
        (Region([P(3, 2), P(4, 3)]), Region([site])),  # G shares R's weight matrix
        (Region([site, points[0]]), Region([site, points[3]])),  # a point inside G
        (Region(points[:3]), Region(points[1:5])),
    ):
        got = estimate_contagion_region(scores, region, given)
        assert got == float(oracle.contagion(region, given))


def test_plugin_contagion_matches_oracle_on_tied_counts():
    # hand-built counts, each column's own: the singleton estimates floor a row at 0
    counts = np.array([[4, 3, 1, 4], [1, 4, 3, 4], [2, 1, 4, 4], [4, 3, 3, 4]])
    scores = scores_from_matrix(counts, tuple(P(c, 0) for c in range(4)))
    assert scores.rank_counts.tolist() == counts.tolist()
    region, given = Region([P(1, 0)]), Region([P(2, 0), P(3, 0)])
    got = estimate_contagion_region(scores, region, given)
    assert got == float(estimate_oracle(scores).contagion(region, given))
