import random
import struct
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from m4extremes import (
    ArgumentError,
    DegenerateConditioningError,
    DomainError,
    LatticePoint,
    M4Spec,
    Region,
    preset_one_pattern,
    contagion_index,
    contagion_index_region,
    exponent_value,
    extremal_coefficient,
    extremal_coefficient_matrix,
    fragility_index,
    multivariate_tail_dependence,
    neighbors,
    pairwise_tail_dependence,
    stability_bounds,
    stability_index,
    summarize,
)
from m4extremes.dependence import _ksum
import m4extremes.dependence as dependence_module
from conftest import (
    raises_exactly,
    random_point,
    random_rational_spec,
    random_region,
    table_spec,
)

P = LatticePoint


def brute_eps_one_pattern(points):
    """Independent oracle for the one-pattern preset: per-lag max over the
    hardcoded parity weights, summed over lags."""
    even = (F(4, 5), F(1, 5))
    odd = (F(1, 4), F(3, 4))
    vectors = [even if p.x % 2 == 0 else odd for p in points]
    return sum(max(v[m] for v in vectors) for m in (0, 1))


# independent 3-site layout (disjoint single-pattern support per site)
INDEPENDENT3 = M4Spec.from_table(
    3,
    1,
    1,
    {
        P(0, 0): [[1], [0], [0]],
        P(1, 0): [[0], [1], [0]],
        P(2, 0): [[0], [0], [1]],
    },
)

# three sites carrying the identical single pattern (total dependence)
DEPENDENT3 = M4Spec.from_table(
    1, 1, 2, {p: [[F(2, 3), F(1, 3)]] for p in (P(0, 0), P(1, 0), P(2, 0))}
)

TRIPLE = Region([P(0, 0), P(1, 0), P(2, 0)])
PAIR_A = Region([P(1, 0), P(2, 0)])

# the same two layouts over 100 sites
HUNDRED = Region([P(i, 0) for i in range(100)])
INDEPENDENT100 = M4Spec.from_table(
    100, 1, 1, {p: [[int(i == k)] for k in range(100)] for i, p in enumerate(HUNDRED)}
)
DEPENDENT100 = M4Spec.from_table(1, 1, 2, {p: [[F(2, 3), F(1, 3)]] for p in HUNDRED})


class TestExponentValue:
    def test_singleton_is_reciprocal(self, one_pattern_spec):
        region = Region([P(3, 3)])
        assert exponent_value(one_pattern_spec, region, (F(2),)) == F(1, 2)
        assert exponent_value(one_pattern_spec, region, (4,)) == F(1, 4)

    def test_pair_at_unit_scales(self, one_pattern_spec):
        region = Region([P(3, 3), P(4, 3)])
        assert exponent_value(one_pattern_spec, region, (1, 1)) == F(31, 20)

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=2),
    )
    def test_homogeneity(self, t, x):
        spec = preset_one_pattern()
        region = Region([P(3, 3), P(4, 3)])
        scaled = exponent_value(spec, region, [t * xi for xi in x])
        direct = exponent_value(spec, region, x)
        assert scaled * t == pytest.approx(direct, rel=1e-12)

    def test_rejects_bad_scales(self, one_pattern_spec):
        region = Region([P(3, 3), P(4, 3)])
        with pytest.raises(ArgumentError):
            exponent_value(one_pattern_spec, region, (1, 0))
        with pytest.raises(ArgumentError):
            exponent_value(one_pattern_spec, region, (1, -2))
        with pytest.raises(ArgumentError):
            exponent_value(one_pattern_spec, region, (1,))
        with pytest.raises(ArgumentError):
            exponent_value(one_pattern_spec, Region([]), ())


class TestExtremalCoefficient:
    def test_singleton_is_one(self, one_pattern_spec, two_pattern_spec):
        for spec in (one_pattern_spec, two_pattern_spec):
            assert extremal_coefficient(spec, Region([P(3, 3)])) == 1

    def test_empty_region(self, one_pattern_spec):
        with raises_exactly(ArgumentError, "region must contain at least one point"):
            extremal_coefficient(one_pattern_spec, Region(()))

    def test_pair_value(self, one_pattern_spec):
        assert extremal_coefficient(
            one_pattern_spec, Region([P(3, 3), P(4, 3)])
        ) == F(31, 20)

    def test_site_plus_ring_matches_brute_force(self, one_pattern_spec, site, ring):
        region = Region([site]).union(ring)
        expected = brute_eps_one_pattern(region.points)
        assert expected == F(31, 20)  # frozen from the oracle
        assert extremal_coefficient(one_pattern_spec, region) == expected

    def test_brute_force_agreement_on_random_sets(self, one_pattern_spec):
        rng = random.Random(99)
        for _ in range(25):
            region = random_region(rng)
            assert extremal_coefficient(one_pattern_spec, region) == (
                brute_eps_one_pattern(region.points)
            )

    def test_monotone_in_region(self, one_pattern_spec):
        rng = random.Random(7)
        for _ in range(20):
            region = random_region(rng, max_size=4)
            extra = random_point(rng)
            small = extremal_coefficient(one_pattern_spec, region)
            big = extremal_coefficient(one_pattern_spec, region.with_point(extra))
            assert small <= big <= small + 1
            assert 1 <= small <= len(region)


class TestCoefficientMatrix:
    def test_one_pattern_display(self, one_pattern_spec, site):
        got = extremal_coefficient_matrix(one_pattern_spec, site)
        e = F(31, 20)
        assert got == ((e, 1, e), (e, 1, e), (e, 1, e))

    def test_two_pattern_display(self, two_pattern_spec, site):
        got = extremal_coefficient_matrix(two_pattern_spec, site)
        e = F(71, 60)  # frozen: 13/20 + 8/15, per-lag maxima of the two rows
        assert got == ((e, e, e), (e, 1, e), (e, e, e))

    def test_center_always_one(self, two_pattern_spec):
        got = extremal_coefficient_matrix(two_pattern_spec, P(2, 2))
        assert got[1][1] == 1

    def test_domain_error_near_edge(self, one_pattern_spec):
        with pytest.raises(DomainError):
            extremal_coefficient_matrix(one_pattern_spec, P(10, 10))


class TestPairwiseTailDependence:
    def test_self_pair_is_one(self, one_pattern_spec):
        assert pairwise_tail_dependence(one_pattern_spec, P(3, 3), P(3, 3)) == 1

    def test_cross_parity_pair(self, one_pattern_spec):
        assert pairwise_tail_dependence(one_pattern_spec, P(3, 3), P(4, 3)) == F(9, 20)

    def test_disjoint_support_pair_is_zero(self):
        assert pairwise_tail_dependence(INDEPENDENT3, P(0, 0), P(1, 0)) == 0


class TestMultivariateTailDependence:
    def test_reduces_to_pairwise(self, one_pattern_spec):
        rng = random.Random(3)
        for _ in range(20):
            i, j = random_point(rng), random_point(rng)
            lam = multivariate_tail_dependence(
                one_pattern_spec, Region([j]), Region([i])
            )
            assert lam == pairwise_tail_dependence(one_pattern_spec, i, j)

    def test_equal_regions_give_one(self, one_pattern_spec, ring):
        assert multivariate_tail_dependence(one_pattern_spec, ring, ring) == 1

    def test_two_conditioning_on_one(self, one_pattern_spec):
        lam = multivariate_tail_dependence(
            one_pattern_spec, Region([P(4, 3), P(2, 3)]), Region([P(3, 3)])
        )
        assert lam == F(9, 20)  # frozen: hand inclusion-exclusion over {43,23,33}

    def test_degenerate_conditioning(self):
        with pytest.raises(DegenerateConditioningError):
            multivariate_tail_dependence(
                INDEPENDENT3, Region([P(0, 0)]), Region([P(1, 0), P(2, 0)])
            )

    def test_tiny_joint_rate_is_not_degenerate(self):
        # only a vanishing rate is degenerate; 1e-15 is a rate like any other
        tiny = F(1, 10**15)
        spec = M4Spec.from_table(
            3, 1, 1, {P(0, 0): [[tiny], [1 - tiny], [0]], P(1, 0): [[tiny], [0], [1 - tiny]]}
        )
        both = Region([P(0, 0), P(1, 0)])
        for mode in (spec, spec.as_float()):
            assert multivariate_tail_dependence(mode, Region([P(0, 0)]), both) == 1

    def test_empty_regions_rejected(self, one_pattern_spec):
        with pytest.raises(ArgumentError):
            multivariate_tail_dependence(one_pattern_spec, Region([]), Region([P(0, 0)]))


class TestContagionIndex:
    def test_one_pattern_ring(self, one_pattern_spec, site, ring):
        assert contagion_index(one_pattern_spec, ring, site) == F(47, 10)

    def test_two_pattern_row(self, two_pattern_spec, site, row_region):
        assert contagion_index(two_pattern_spec, row_region, site) == F(49, 15)

    def test_polar_cases(self):
        assert contagion_index(DEPENDENT3, PAIR_A, P(0, 0)) == 2
        assert contagion_index(INDEPENDENT3, PAIR_A, P(0, 0)) == 0

    def test_empty_region_rejected(self, one_pattern_spec):
        with pytest.raises(ArgumentError):
            contagion_index(one_pattern_spec, Region([]), P(0, 0))

    def test_monotone_in_region(self, one_pattern_spec):
        rng = random.Random(11)
        for _ in range(20):
            region = random_region(rng, max_size=4)
            extra = random_point(rng)
            i = random_point(rng)
            small = contagion_index(one_pattern_spec, region, i)
            big = contagion_index(one_pattern_spec, region.with_point(extra), i)
            assert small <= big


class TestContagionIndexRegion:
    def test_singleton_conditioning_matches_site_form(self, one_pattern_spec, ring):
        rng = random.Random(5)
        for _ in range(10):
            region = random_region(rng, max_size=3)
            i = random_point(rng)
            assert contagion_index_region(
                one_pattern_spec, region, Region([i])
            ) == contagion_index(one_pattern_spec, region, i)

    def test_empty_regions(self, one_pattern_spec, ring):
        with raises_exactly(ArgumentError, "regions must be non-empty"):
            contagion_index_region(one_pattern_spec, Region(()), ring)
        with raises_exactly(ArgumentError, "regions must be non-empty"):
            contagion_index_region(one_pattern_spec, ring, Region(()))

    def test_singleton_fragility(self, one_pattern_spec):
        i = P(3, 3)
        assert contagion_index_region(one_pattern_spec, Region([i]), Region([i])) == 1

    def test_identical_columns_conditioning(self, one_pattern_spec):
        got = contagion_index_region(
            one_pattern_spec, Region([P(3, 4)]), Region([P(4, 3), P(2, 3)])
        )
        assert got == F(9, 20)  # frozen: hand reduction, MC-checked in acceptance

    def test_mixed_conditioning(self, one_pattern_spec):
        got = contagion_index_region(
            one_pattern_spec, Region([P(3, 4)]), Region([P(4, 3), P(3, 2)])
        )
        assert got == F(20, 31)  # frozen: hand reduction, MC-checked in acceptance

    def test_conditioning_on_hundred_sites(self):
        # polar values at |G| = 100, far past what subset enumeration reaches
        assert fragility_index(DEPENDENT100, HUNDRED) == 100
        assert fragility_index(INDEPENDENT100, HUNDRED) == 1
        assert multivariate_tail_dependence(DEPENDENT100, HUNDRED, HUNDRED) == 1
        with pytest.raises(DegenerateConditioningError):
            multivariate_tail_dependence(INDEPENDENT100, HUNDRED, HUNDRED)


class TestFragilityIndex:
    def test_singleton_is_one(self, one_pattern_spec):
        assert fragility_index(one_pattern_spec, Region([P(3, 3)])) == 1

    def test_independent_triple_is_one(self):
        assert fragility_index(INDEPENDENT3, TRIPLE) == 1

    def test_dependent_triple_is_size(self):
        assert fragility_index(DEPENDENT3, TRIPLE) == 3


class TestStabilityIndex:
    def test_one_pattern_ring(self, one_pattern_spec, site, ring):
        assert stability_index(one_pattern_spec, ring, site) == F(66, 31)

    def test_two_pattern_row(self, two_pattern_spec, site, row_region):
        assert stability_index(two_pattern_spec, row_region, site) == F(44, 71)

    def test_total_dependence_is_zero(self):
        assert stability_index(DEPENDENT3, PAIR_A, P(0, 0)) == 0

    def test_bounds_one_pattern(self, one_pattern_spec, site, ring):
        lower, upper = stability_bounds(one_pattern_spec, ring, site)
        assert lower == F(33, 90)
        assert upper == F(66, 31)
        # here the index attains its upper bound
        assert stability_index(one_pattern_spec, ring, site) == upper

    def test_bounds_total_dependence(self):
        assert stability_bounds(DEPENDENT3, PAIR_A, P(0, 0)) == (0, 0)


class TestIdentities:
    def test_index_identities_on_random_specs(self):
        rng = random.Random(314)
        for _ in range(30):
            spec = random_rational_spec(rng)
            region = random_region(rng)
            i = random_point(rng)
            pair_lams = [
                pairwise_tail_dependence(spec, i, j) for j in region
            ]
            ci = contagion_index(spec, region, i)
            si = stability_index(spec, region, i)
            joint = extremal_coefficient(spec, Region([i]).union(region))
            lower, upper = stability_bounds(spec, region, i)
            assert ci == sum(pair_lams)
            assert si * joint + ci == len(region)
            assert lower <= si <= upper
            assert 0 <= ci <= len(region)

    def test_summary_is_internally_consistent(self, one_pattern_spec, site, ring):
        summ = summarize(one_pattern_spec, ring, site)
        assert summ.contagion == F(47, 10)
        assert summ.stability == F(66, 31)
        assert summ.joint_extremal == F(31, 20)
        assert summ.stability_lower <= summ.stability <= summ.stability_upper
        pair_sum = sum(v for _, v in summ.pairwise_extremal)
        assert summ.contagion == 2 * len(ring) - pair_sum
        assert summ.stability * summ.joint_extremal + summ.contagion == len(ring)
        doc = summ.to_json_dict()
        assert doc["contagion_index"]["exact"] == "47/10"
        assert doc["stability_index"]["value"] == pytest.approx(66 / 31)

    def test_summary_two_pattern(self, two_pattern_spec, site, row_region):
        summ = summarize(two_pattern_spec, row_region, site)
        assert summ.contagion == F(49, 15)
        assert summ.stability == F(44, 71)


def kahan_sum(terms):
    """Reference: the compensated sum `_ksum` ran on every input, rational
    terms included."""
    total = F(0)
    comp = F(0)
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def float_bits(x):
    return struct.pack("<d", x)


rationals = st.one_of(
    st.fractions(max_denominator=10**6), st.integers(-(10**12), 10**12)
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestKsumOracle:
    @given(st.lists(rationals, max_size=40))
    def test_rational_terms_give_the_same_fraction(self, terms):
        got = _ksum(iter(terms))
        expected = kahan_sum(terms)
        assert type(got) is type(expected) is F
        assert (got.numerator, got.denominator) == (
            expected.numerator,
            expected.denominator,
        )

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_float_terms_give_identical_bits(self, terms):
        got = _ksum(iter(terms))
        assert type(got) is float
        assert float_bits(got) == float_bits(kahan_sum(terms))

    @given(
        st.lists(st.one_of(rationals, finite_floats), min_size=1, max_size=40).filter(
            lambda ts: any(isinstance(t, float) for t in ts)
        )
    )
    def test_mixed_terms_give_identical_bits(self, terms):
        assert float_bits(_ksum(terms)) == float_bits(kahan_sum(terms))

    def test_mixed_terms_are_compensated(self):
        # a plain sum loses every 1e-16 against 1; the Kahan loop keeps them
        terms = [F(1)] + [1e-16] * 10
        assert sum(terms, F(0)) == 1.0
        assert _ksum(terms) == kahan_sum(terms) > 1.0

    def test_empty_and_integer_sums_are_fractions(self):
        assert type(_ksum([])) is F and _ksum([]) == 0
        assert type(_ksum([1, 2, True])) is F and _ksum([1, 2, True]) == 4


def loop_pair_coefficients(spec, region, site):
    """Reference: the pairwise loop each closed form ran for itself before
    they shared one derivation."""
    points = region.points
    if not points:
        raise ArgumentError("region must contain at least one point")
    return [extremal_coefficient(spec, Region((site, j))) for j in points]


def loop_contagion_index(spec, region, site):
    pair_eps = loop_pair_coefficients(spec, region, site)
    return 2 * len(pair_eps) - _ksum(pair_eps)


def loop_stability_index(spec, region, site):
    pair_eps = loop_pair_coefficients(spec, region, site)
    joint = extremal_coefficient(spec, Region((site,)).union(region))
    return (_ksum(pair_eps) - len(pair_eps)) / joint


def loop_stability_bounds(spec, region, site):
    pair_eps = loop_pair_coefficients(spec, region, site)
    numerator = _ksum(pair_eps) - len(pair_eps)
    return numerator / (len(pair_eps) + 1), numerator / max(pair_eps)


def shared_derivation_cases():
    """Random rule and table specifications, each also in float mode."""
    rng = random.Random(2718)
    for case in range(60):
        if case % 2:
            spec = random_rational_spec(rng)
            region, site = random_region(rng), random_point(rng)
        else:
            spec = table_spec(rng.randint(1, 12), seed=case)
            points = spec.domain_points()
            region = Region(rng.choice(points) for _ in range(rng.randint(1, 8)))
            site = rng.choice(points)
        yield spec, region, site
        yield spec.as_float(), region, site


class TestSharedDerivationOracle:
    def test_closed_forms_match_per_index_loops(self):
        for spec, region, site in shared_derivation_cases():
            ci = loop_contagion_index(spec, region, site)
            si = loop_stability_index(spec, region, site)
            bounds = loop_stability_bounds(spec, region, site)
            assert repr(contagion_index(spec, region, site)) == repr(ci)
            assert repr(stability_index(spec, region, site)) == repr(si)
            assert repr(stability_bounds(spec, region, site)) == repr(bounds)
            summary = summarize(spec, region, site)
            pairwise = tuple(zip(region, loop_pair_coefficients(spec, region, site)))
            assert repr(summary.pairwise_extremal) == repr(pairwise)
            assert repr(summary.joint_extremal) == repr(
                extremal_coefficient(spec, Region((site,)).union(region))
            )
            assert repr((summary.contagion, summary.stability)) == repr((ci, si))
            assert repr((summary.stability_lower, summary.stability_upper)) == repr(bounds)

    def test_contagion_needs_no_joint_coefficient(self):
        # unvalidated all-zero weights: every coefficient is 0, so only the
        # stability index divides by zero
        spec = M4Spec.from_table(1, 1, 1, {P(0, 0): [[0]], P(1, 0): [[0]]}, check=False)
        assert contagion_index(spec, Region([P(1, 0)]), P(0, 0)) == 2
        with pytest.raises(ZeroDivisionError):
            stability_index(spec, Region([P(1, 0)]), P(0, 0))

    def test_each_coefficient_evaluated_once(self, monkeypatch, one_pattern_spec, site):
        calls = []
        real = dependence_module.extremal_coefficient

        def counting(spec, region):
            calls.append(region)
            return real(spec, region)

        monkeypatch.setattr(dependence_module, "extremal_coefficient", counting)
        for region in (neighbors(site), Region([P(4, 3)]), Region([site, P(2, 4)])):
            for function, expected in (
                (summarize, len(region) + 1),
                (stability_index, len(region) + 1),
                (stability_bounds, len(region)),
                (contagion_index, len(region)),
            ):
                calls.clear()
                function(one_pattern_spec, region, site)
                assert len(calls) == expected
