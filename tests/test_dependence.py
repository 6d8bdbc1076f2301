import dataclasses
import random
import struct
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from m4extremes import (
    ArgumentError,
    DegenerateConditioningError,
    DependenceSummary,
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
    random_table_spec,
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


class TestExtremalCoefficient:
    def test_singleton_is_one(self, one_pattern_spec, two_pattern_spec):
        for spec in (one_pattern_spec, two_pattern_spec):
            assert extremal_coefficient(spec, Region([P(3, 3)])) == 1

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

    def test_compass_orientation(self, site):
        # one distinct 1 x 2 matrix per location, as in the mc_study workload;
        # the site's first weight is the smallest, so all eight pairs differ
        locations = Region((site,)).union(neighbors(site))
        spec = M4Spec.from_table(
            1, 1, 2, {p: [[F(k, 11), F(11 - k, 11)]] for k, p in enumerate(locations, 1)}
        )
        got = extremal_coefficient_matrix(spec, site)
        assert len({v for row in got for v in row}) == 9
        assert got == tuple(
            tuple(
                extremal_coefficient(spec, Region((site, site.translated(dx, dy))))
                for dx in (-1, 0, 1)
            )
            for dy in (1, 0, -1)
        )

    @pytest.mark.parametrize("site", [P(10, 0), P(10, 10)])
    def test_domain_error_names_the_east_neighbor(self, one_pattern_spec, site):
        east = site.translated(1, 0)
        message = f"location {east} outside domain {one_pattern_spec.domain!r}"
        with raises_exactly(DomainError, message):
            extremal_coefficient_matrix(one_pattern_spec, site)


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

    def test_underflowing_weight_parts_the_modes(self):
        # 1/10^400 rounds to 0.0 in floats: the exact rate is positive, the float one 0.0
        tiny = F(1, 10**400)
        spec = M4Spec.from_table(
            3, 1, 1, {P(0, 0): [[tiny], [1 - tiny], [0]], P(1, 0): [[tiny], [0], [1 - tiny]]}
        )
        both = Region([P(0, 0), P(1, 0)])
        assert multivariate_tail_dependence(spec, Region([P(0, 0)]), both) == 1
        message = (
            "joint exceedance rate of the conditioning region is 0.0; "
            "the conditional tail dependence is undefined"
        )
        with raises_exactly(DegenerateConditioningError, message):
            multivariate_tail_dependence(spec.as_float(), Region([P(0, 0)]), both)

    def test_negative_rate_is_printed_as_a_weight(self):
        # unvalidated, with a negative weight: the rate is -1/4 over a common
        # denominator of 4, and the message prints the weight, not -1
        spec = M4Spec.from_table(
            3, 1, 1,
            {P(0, 0): [[F(-1, 4)], [F(5, 4)], [0]], P(1, 0): [[F(1, 2)], [0], [F(1, 2)]]},
            check=False,
        )
        both = Region([P(0, 0), P(1, 0)])
        for mode, rate in ((spec, "-1/4"), (spec.as_float(), "-0.25")):
            message = (
                f"joint exceedance rate of the conditioning region is {rate}; "
                "the conditional tail dependence is undefined"
            )
            with raises_exactly(DegenerateConditioningError, message):
                multivariate_tail_dependence(mode, Region([P(0, 0)]), both)


class TestContagionIndex:
    def test_one_pattern_ring(self, one_pattern_spec, site, ring):
        assert contagion_index(one_pattern_spec, ring, site) == F(47, 10)

    def test_two_pattern_row(self, two_pattern_spec, site, row_region):
        assert contagion_index(two_pattern_spec, row_region, site) == F(49, 15)

    def test_polar_cases(self):
        assert contagion_index(DEPENDENT3, PAIR_A, P(0, 0)) == 2
        assert contagion_index(INDEPENDENT3, PAIR_A, P(0, 0)) == 0

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

    def test_zero_conditioning_rate_is_degenerate(self):
        # unvalidated: every weight of (0,0) is 0, so no exceedance is ever seen there
        spec = M4Spec.from_table(
            1, 1, 2, {P(0, 0): [[0, 0]], P(1, 0): [[F(1, 3), F(2, 3)]]}, check=False
        )
        zero = Region([P(0, 0)])
        for mode, rate in ((spec, "0"), (spec.as_float(), "0.0")):
            message = (
                f"exceedance rate of the conditioning region is {rate}; "
                "the region contagion index is undefined"
            )
            with raises_exactly(DegenerateConditioningError, message):
                contagion_index_region(mode, Region([P(1, 0)]), zero)
            with raises_exactly(DegenerateConditioningError, message):
                fragility_index(mode, zero)


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

    def test_zero_spec_derives_only_what_is_defined(self):
        # unvalidated all-zero weights: every coefficient is 0, so the summary
        # builds and contagion is 2|R|; stability divides by the joint
        # coefficient and its upper bound by the largest pair
        spec = M4Spec.from_table(1, 1, 1, {P(0, 0): [[0]], P(1, 0): [[0]]}, check=False)
        region, site = Region([P(1, 0)]), P(0, 0)
        summary = summarize(spec, region, site)
        assert summary.pairwise_extremal == ((P(1, 0), 0),) and summary.joint_extremal == 0
        assert same(contagion_index(spec, region, site), F(2))
        for function in (stability_index, stability_bounds):
            with pytest.raises(ZeroDivisionError):
                function(spec, region, site)

    def test_each_coefficient_evaluated_once(self, monkeypatch, one_pattern_spec, site):
        calls = []
        real = dependence_module.extremal_coefficient

        def counting(spec, region):
            calls.append(region)
            return real(spec, region)

        monkeypatch.setattr(dependence_module, "extremal_coefficient", counting)
        for region in (neighbors(site), Region([P(4, 3)]), Region([site, P(2, 4)])):
            # the |R| pairs in region order, then the joint
            expected = [Region((site, j)) for j in region] + [Region((site,)).union(region)]
            for function in (summarize, stability_index, stability_bounds, contagion_index):
                calls.clear()
                function(one_pattern_spec, region, site)
                assert calls == expected, function


class TestSummaryDerivesIndices:
    """A summary holds its coefficients once and derives every index when read."""

    def test_holds_only_its_coefficients(self, one_pattern_spec, site, ring):
        names = [field.name for field in dataclasses.fields(DependenceSummary)]
        assert names == ["site", "region", "pairwise_extremal", "joint_extremal"]
        summary = summarize(one_pattern_spec, ring, site)
        with pytest.raises(TypeError):
            DependenceSummary(site, ring, summary.pairwise_extremal, summary.joint_extremal,
                              contagion=99)
        rebuilt = DependenceSummary(site, ring, summary.pairwise_extremal, summary.joint_extremal)
        assert rebuilt == summary and rebuilt.to_json_dict() == summary.to_json_dict()

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_one_pair_sum_per_summary(self, monkeypatch, one_pattern_spec, site, ring, mode):
        spec = one_pattern_spec if mode == "exact" else one_pattern_spec.as_float()
        summaries = [summarize(spec, region, site) for region in (ring, Region([P(4, 3)]))]
        sums = []
        real = dependence_module._ksum
        monkeypatch.setattr(dependence_module, "_ksum", lambda terms: sums.append(1) or real(terms))
        for summary in summaries:
            sums.clear()
            for _ in range(2):  # every index, twice, and the document that reads them all
                summary.to_json_dict()
                summary.contagion, summary.stability
                summary.stability_lower, summary.stability_upper
            assert len(sums) == 1


def ref_sum(terms):
    """Reference sum: plain `Fraction` addition of rational terms, the Kahan
    loop once any term is a float."""
    terms = list(terms)
    if all(isinstance(term, (F, int)) for term in terms):
        return sum(terms, F(0))
    return kahan_sum(terms)


def ref_slots(spec, points, pick):
    """`pick` (max or min) of the weights of `points`, in point order, at each
    (pattern, lag) slot, pattern-major."""
    matrices = [spec.patterns_at(p) for p in points]
    return [
        pick(matrix[i][g] for matrix in matrices)
        for i in range(spec.n_patterns)
        for g in range(spec.lag_count)
    ]


def ref_coefficient(spec, points):
    return ref_sum(ref_slots(spec, points, max))


def ref_coefficient_matrix(spec, site):
    return tuple(
        tuple(ref_coefficient(spec, (site, site.translated(dx, dy))) for dx in (-1, 0, 1))
        for dy in (1, 0, -1)
    )


def ref_tail_dependence(spec, target, given):
    numerator = ref_sum(ref_slots(spec, target.union(given), min))
    denominator = ref_sum(ref_slots(spec, given, min))
    if denominator <= 0:
        raise DegenerateConditioningError(denominator)
    return numerator / denominator


def ref_region_contagion(spec, region, given):
    given_max = ref_slots(spec, given, max)
    numerator = ref_sum(
        ref_sum(map(min, ref_slots(spec, (j,), max), given_max)) for j in region
    )
    return numerator / ref_sum(given_max)


def ref_summary(spec, region, site):
    """Every field of `summarize`, from the pairwise and joint references."""
    pairs = [ref_coefficient(spec, (site, j)) for j in region]
    joint = ref_coefficient(spec, Region((site,)).union(region))
    pair_sum = ref_sum(pairs)
    numerator = pair_sum - len(pairs)
    return {
        "pairwise_extremal": pairs,
        "joint_extremal": joint,
        "contagion": 2 * len(pairs) - pair_sum,
        "stability": numerator / joint,
        "stability_lower": numerator / (len(pairs) + 1),
        "stability_upper": numerator / max(pairs),
    }


def same(got, want) -> bool:
    """One type and one value: the same `Fraction`, or the same float bits."""
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return float_bits(got) == float_bits(want)
    return (got.numerator, got.denominator) == (want.numerator, want.denominator)


def outcome(function, *args):
    """The value of `function(*args)`, or `DegenerateConditioningError` if it raised one."""
    try:
        return function(*args)
    except DegenerateConditioningError as exc:
        return type(exc)


def partly_float(spec, rng):
    """`spec` with a random choice of its matrices in floats: a mixed spec."""
    floats = spec.as_float()
    if spec.rules is not None:
        rules = [rng.choice(pair) for pair in zip(spec.rules, floats.rules)]
        return M4Spec.from_rules(spec.n_patterns, spec.m_min, spec.m_max, spec.domain, rules)
    table = dict(rng.choice(pair) for pair in zip(spec.table, floats.table))
    return M4Spec.from_table(spec.n_patterns, spec.m_min, spec.m_max, table)


def reference_cases():
    """Random rule and table specs, each exact, in floats and mixed, with a
    region, a conditioning region and a site whose eight neighbours the spec
    covers."""
    rng = random.Random(1729)
    for case in range(60):
        if case % 2:
            spec = random_rational_spec(rng)
            points = [random_point(rng) for _ in range(6)]
            site = P(rng.randint(-3, 3), rng.randint(-3, 3))
        else:
            points = [P(x, y) for x in range(-1, 3) for y in range(-1, 2)]
            spec = random_table_spec(rng, points)
            site = P(0, 0)
        region = Region(rng.sample(points, rng.randint(1, len(points))))
        given = Region(rng.sample(points, rng.randint(1, len(points))))
        for mode in (spec, spec.as_float(), partly_float(spec, rng)):
            yield mode, region, given, site


class TestIndependentReference:
    """Each closed form against a reference that reads only `patterns_at`."""

    def test_cases_cover_every_mode(self):
        kinds = Counter()
        for spec, *_ in reference_cases():
            weights = {type(w) for m in spec.matrices for row in m for w in row}
            kinds[frozenset(weights)] += 1
        assert kinds.keys() == {frozenset({F}), frozenset({float}), frozenset({F, float})}

    def test_closed_forms_match_reference(self):
        degenerate = 0
        for spec, region, given, site in reference_cases():
            for got, want in (
                (extremal_coefficient(spec, region), ref_coefficient(spec, region)),
                (contagion_index_region(spec, region, given),
                 ref_region_contagion(spec, region, given)),
                (fragility_index(spec, given), ref_region_contagion(spec, given, given)),
                *zip(
                    sum(extremal_coefficient_matrix(spec, site), ()),
                    sum(ref_coefficient_matrix(spec, site), ()),
                ),
            ):
                assert same(got, want), (spec, region, given, site, got, want)
            got = outcome(multivariate_tail_dependence, spec, region, given)
            want = outcome(ref_tail_dependence, spec, region, given)
            degenerate += want is DegenerateConditioningError
            assert got is want or same(got, want), (spec, region, given, got, want)

            summary = summarize(spec, region, site)
            expected = ref_summary(spec, region, site)
            assert (summary.site, summary.region) == (site, region)
            assert tuple(p for p, _ in summary.pairwise_extremal) == region.points
            for got, want in zip(
                (v for _, v in summary.pairwise_extremal), expected.pop("pairwise_extremal")
            ):
                assert same(got, want)
            for field, want in expected.items():
                assert same(getattr(summary, field), want), (field, spec, region, site)
        # the layouts reach both branches of the conditioning check
        assert 0 < degenerate < 180
