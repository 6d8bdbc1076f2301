import inspect
import tracemalloc
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from m4extremes import (
    ArgumentError,
    EstimationError,
    FieldSample,
    LatticePoint,
    Region,
    UniformScores,
    estimate_contagion,
    estimate_contagion_region,
    estimate_extremal_coefficient,
    estimate_stability,
    estimate_summary,
    extremal_coefficient,
    monte_carlo_study,
    neighbors,
    preset,
    preset_two_pattern,
    rank_transform,
    scores_from_matrix,
    simulate_m4,
    substream,
)
import m4extremes.estimate as estimate_module
from conftest import STUDY_SEED, raises_exactly, table_spec

P = LatticePoint
A2 = Region([P(0, 0), P(1, 0)])
A3 = Region([P(0, 0), P(1, 0), P(2, 0)])


def sample_of(columns) -> FieldSample:
    values = np.array(columns, dtype=float).T
    points = tuple(P(i, 0) for i in range(values.shape[1]))
    return FieldSample(points, values)


class TestRankTransform:
    def test_single_replicate(self):
        scores = rank_transform(sample_of([[3.0]]))
        assert scores.scores.tolist() == [[0.5]]

    def test_simple_column(self):
        scores = rank_transform(sample_of([[3.0, 1.0, 2.0]]))
        assert scores.scores[:, 0].tolist() == [0.75, 0.25, 0.5]
        assert scores.rank_counts[:, 0].tolist() == [3, 1, 2]

    def test_ties_share_maximal_count(self):
        scores = rank_transform(sample_of([[5.0, 5.0]]))
        assert scores.rank_counts[:, 0].tolist() == [2, 2]
        assert scores.scores[:, 0].tolist() == [2 / 3, 2 / 3]

    @given(
        st.lists(
            st.integers(min_value=0, max_value=9), min_size=1, max_size=40
        )
    )
    def test_scores_properties(self, raw):
        col = [float(v) + 1.0 for v in raw]
        n = len(col)
        scores = rank_transform(sample_of([col]))
        s = scores.scores[:, 0]
        allowed = {k / (n + 1) for k in range(1, n + 1)}
        assert set(s.tolist()) <= allowed
        # monotone: larger values never get smaller scores; ties tied
        for i in range(n):
            for j in range(n):
                if col[i] < col[j]:
                    assert s[i] < s[j]
                elif col[i] == col[j]:
                    assert s[i] == s[j]

    def test_rank_invariance_under_monotone_transform(self, one_pattern_spec):
        sample = simulate_m4(one_pattern_spec, Region([P(3, 3), P(4, 3), P(2, 3)]), 300, 5)
        transformed = FieldSample(
            sample.locations,
            np.column_stack(
                [
                    np.log1p(sample.values[:, 0]),
                    sample.values[:, 1] ** 3,
                    sample.values[:, 2] + 17.0,
                ]
            ),
        )
        a = rank_transform(sample)
        b = rank_transform(transformed)
        assert np.array_equal(a.rank_counts, b.rank_counts)


# A small alphabet makes ties heavy; the infinities rank as ordinary values.
ALPHABET = [-np.inf, -1.0, 0.0, 0.5, 2.0, np.inf]


@st.composite
def tied_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    k = draw(st.integers(min_value=1, max_value=8))
    cells = st.lists(st.sampled_from(ALPHABET), min_size=n, max_size=n)
    columns = []
    for c in range(k):
        source = draw(st.integers(min_value=-1, max_value=c - 1))
        columns.append(draw(cells) if source < 0 else columns[source])
    return np.array(columns, dtype=float).T


def brute_force_counts(values):
    """O(n^2) reference: per column, the count of values <= each value."""
    return np.column_stack(
        [(col[None, :] <= col[:, None]).sum(1) for col in values.T]
    )


def points_for(values):
    return [P(i, 0) for i in range(values.shape[1])]


class TestRankOracle:
    @given(tied_matrices())
    def test_counts_match_brute_force(self, values):
        expected = brute_force_counts(values)
        for layout in (values, np.asfortranarray(values)):
            scores = scores_from_matrix(layout, points_for(layout))
            assert np.array_equal(scores.rank_counts, expected)
            assert scores.rank_counts.flags.f_contiguous
        strided = values[:, ::2]
        scores = scores_from_matrix(strided, points_for(strided))
        assert np.array_equal(scores.rank_counts, brute_force_counts(strided))

    @pytest.mark.parametrize("name", ["one-pattern", "two-pattern", "table"])
    def test_grouped_ranks_match_ungrouped(self, name, monkeypatch):
        if name == "table":
            spec = table_spec(distinct_count=3)
            points = list(spec.domain_points())
        else:
            spec = preset(name)
            points = list(neighbors(P(3, 3))) + list(spec.domain_points()[:40])
        sample = simulate_m4(spec, Region(points), 120, 31)
        groups = sample._column_groups
        assert len(set(groups)) < len(groups)  # some columns are shared
        kernel_rows = []
        real_rank_rows = estimate_module._rank_rows

        def counting_rank_rows(rows):
            kernel_rows.append(rows.shape[0])
            return real_rank_rows(rows)

        monkeypatch.setattr(estimate_module, "_rank_rows", counting_rank_rows)
        grouped = rank_transform(sample)
        assert kernel_rows == [len(set(groups))]  # one row per group, in one call
        ungrouped = scores_from_matrix(sample.values, sample.locations)
        assert kernel_rows == [len(set(groups)), len(groups)]
        assert np.array_equal(grouped.rank_counts, ungrouped.rank_counts)
        assert np.array_equal(grouped.rank_counts, brute_force_counts(sample.values))
        assert grouped.rank_counts.flags.f_contiguous
        assert grouped.scores.flags.f_contiguous
        assert not grouped.rank_counts.flags.writeable
        with pytest.raises(ValueError):
            grouped.rank_counts[0, -1] = 7

    def test_duplicate_column_counts_are_shared_read_only(self):
        values = np.array([[3.0, 1.0, 3.0], [1.0, 1.0, 1.0], [2.0, 5.0, 2.0]])
        scores = scores_from_matrix(values, points_for(values))
        duplicate = scores.rank_counts[:, 2]
        assert duplicate.tolist() == scores.rank_counts[:, 0].tolist() == [3, 1, 2]
        assert not duplicate.flags.writeable
        with pytest.raises(ValueError):
            duplicate[0] = 7
        assert scores.scores.flags.f_contiguous

    def test_nan_cell_is_named(self):
        values = np.array([[1.0, 2.0], [3.0, np.nan], [np.nan, 4.0]])
        with pytest.raises(ArgumentError, match=r"NaN at row 1, column 1"):
            scores_from_matrix(values, points_for(values))


def sorted_counts(values):
    """O(n log n) reference for large columns: `searchsorted` of each value
    in its sorted column counts the values <= it (-0.0 equals 0.0)."""
    return np.column_stack(
        [np.searchsorted(np.sort(col), col, side="right") for col in values.T]
    )


def tie_bits_column(n, rng, sign=1.0):
    """Values 1 + j*2**-52 with random small j: they differ only in their
    lowest mantissa bits, which the packed key drops, so they tie in it."""
    return sign * (1.0 + rng.integers(0, 64, n) * 2.0**-52)


class TestPackedKeyOracle:
    """The packed-key rank against brute force, on the floats whose keys
    tie or whose bits differ while they compare equal."""

    SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, -1.0])

    def matrix(self, n, d, rng):
        columns = [
            tie_bits_column(n, rng),
            tie_bits_column(n, rng, sign=-1.0),
            rng.choice(self.SPECIALS, n),
            np.repeat(rng.standard_normal(n // 7 + 1), 7)[:n],  # runs of repeats
            np.full(n, 3.5),
        ]
        return np.column_stack([columns[c % len(columns)] for c in range(d)])

    def check(self, values, reference):
        expected = reference(values)
        for layout in (values, np.asfortranarray(values), np.repeat(values, 2, axis=1)[:, ::2]):
            scores = scores_from_matrix(layout, points_for(layout))
            assert np.array_equal(scores.rank_counts, expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 441])
    def test_small_matrices_match_brute_force(self, n, d):
        rng = np.random.default_rng(1000 * n + d)
        self.check(self.matrix(n, d, rng), brute_force_counts)

    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_large_columns_match_reference(self, n, d):
        values = self.matrix(n, d, np.random.default_rng(n + d))
        rows = np.arange(0, n, 997)  # the reference itself, on a sample of rows
        brute = np.column_stack([(col[None, :] <= col[rows, None]).sum(1) for col in values.T])
        assert np.array_equal(sorted_counts(values)[rows], brute)
        self.check(values, sorted_counts)

    def test_ties_in_kept_bits_are_sorted_by_value(self, monkeypatch):
        rng = np.random.default_rng(5)
        values = np.column_stack([tie_bits_column(300, rng), tie_bits_column(300, rng, -1.0)])
        argsorts = []
        real_argsort = np.argsort

        def counting_argsort(a):
            argsorts.append(len(a))
            return real_argsort(a)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        scores = scores_from_matrix(values, points_for(values))
        assert argsorts == [300, 300]  # every value ties in its kept bits
        assert np.array_equal(scores.rank_counts, brute_force_counts(values))

    def test_few_value_bits_survive_in_the_key(self):
        # d*n just under 2**20: the flat position takes 20 bits of the key, and
        # the values differ only in their lowest 20 mantissa bits
        d, n = 16, 2**16 - 1
        rng = np.random.default_rng(6)
        j = rng.integers(0, 2**20, (n, d))
        values = (1.0 + j * 2.0**-52) * np.where(np.arange(d) % 2, -1.0, 1.0)
        scores = scores_from_matrix(values, points_for(values))
        assert np.array_equal(scores.rank_counts, sorted_counts(values))

    def test_runs_end_with_their_row(self):
        # each column's maximum equals the next column's minimum
        values = np.array([[1.0, 3.0, 5.0], [3.0, 5.0, 7.0], [2.0, 4.0, 5.0]])
        scores = scores_from_matrix(values, points_for(values))
        assert np.array_equal(scores.rank_counts, brute_force_counts(values))

    def test_signed_zeros_tie(self):
        values = np.array([[0.0], [-0.0], [5e-324], [-5e-324], [np.inf], [-np.inf], [0.0]])
        scores = scores_from_matrix(values, points_for(values))
        assert scores.rank_counts[:, 0].tolist() == [5, 5, 6, 2, 7, 1, 5]

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_tie_free_and_tied_rows_match_brute_force(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        distinct = rng.permutation(n)[:, None] + rng.random((n, m))  # no two equal
        cases = {
            "tie-free": distinct,
            "tie-free, signed": distinct - n / 2,
            "rounded to 0.1": np.round(rng.standard_normal((n, m)), 1),
            "signed zeros": rng.choice([0.0, -0.0, 1.0], (n, m)),
            "all equal": np.full((n, m), 2.5),
            "one tied column": np.column_stack([distinct[:, :-1], np.zeros(n)]),
        }
        for values in cases.values():
            self.check(values, brute_force_counts)

    def test_run_pass_only_for_tied_keys(self, monkeypatch):
        copies = []
        real_copyto = np.copyto

        def counting_copyto(*args, **kwargs):
            copies.append(args[0].size)
            return real_copyto(*args, **kwargs)

        monkeypatch.setattr(np, "copyto", counting_copyto)
        rng = np.random.default_rng(8)
        tie_free = rng.permutation(4000).reshape(1000, 4) + 0.5
        for values, runs in ((tie_free, []), (tie_free.round(-2), [3999])):
            for layout in (values, np.asfortranarray(values), np.repeat(values, 2, 1)[:, ::2]):
                copies.clear()
                scores = scores_from_matrix(layout, points_for(layout))
                assert copies == runs  # the run pass fills one position per element
                assert np.array_equal(scores.rank_counts, sorted_counts(values))

    @pytest.mark.parametrize("nan", [np.nan, -np.nan, np.frombuffer(
        np.uint64(0xFFF0000000000001).tobytes(), np.float64)[0]])
    def test_nan_message_names_first_in_row_major_order(self, nan):
        values = np.ones((4, 3))
        values[3, 0] = values[1, 2] = values[2, 1] = nan
        for layout in (values, np.asfortranarray(values)):
            with pytest.raises(ArgumentError, match=r"NaN at row 1, column 2"):
                scores_from_matrix(layout, points_for(layout))


class TestCountsBase:
    """Counts that another array could still change are copied."""

    LOCATIONS = (P(0, 0), P(1, 0))

    def test_view_of_writable_base_is_copied(self):
        base = np.array([[1, 2], [2, 1], [3, 3]])
        scores = UniformScores(self.LOCATIONS, base[:, :])
        region = Region(self.LOCATIONS)
        assert estimate_extremal_coefficient(scores, region).as_fraction() == F(7, 5)
        base[:, 1] = base[:, 0]
        assert scores.rank_counts.tolist() == [[1, 2], [2, 1], [3, 3]]
        assert estimate_extremal_coefficient(scores, region).as_fraction() == F(7, 5)
        fresh = UniformScores(self.LOCATIONS, np.array(scores.rank_counts))
        assert estimate_extremal_coefficient(fresh, region).as_fraction() == F(7, 5)
        changed = UniformScores(self.LOCATIONS, base.copy())  # the base's new counts
        assert estimate_extremal_coefficient(changed, region).as_fraction() == 1
        assert not scores.rank_counts.flags.writeable

    def test_layout_is_kept_and_read_only_bases_are_shared(self):
        base = np.array([[1, 2], [3, 1], [2, 3]])
        scores = UniformScores(self.LOCATIONS + (P(2, 0),), base.T)
        assert scores.rank_counts.flags.f_contiguous
        assert not np.shares_memory(scores.rank_counts, base)
        frozen = np.array([[1, 2], [2, 1]])
        frozen.setflags(write=False)
        view = frozen.T
        assert UniformScores(self.LOCATIONS, view).rank_counts is view

    def test_shape_must_match_locations(self):
        message = "rank counts shape does not match locations"
        with raises_exactly(ArgumentError, message):
            UniformScores(self.LOCATIONS, np.array([[1, 2, 3]]))
        with raises_exactly(ArgumentError, message):
            UniformScores(self.LOCATIONS, np.array([1, 2]))

    def test_rank_transform_counts_are_not_copied(self, monkeypatch, one_pattern_spec):
        passed = []

        class Spy(UniformScores):
            def __post_init__(self):
                passed.append(self.rank_counts)
                super().__post_init__()

        monkeypatch.setattr(estimate_module, "UniformScores", Spy)
        points = [P(3, 3), P(4, 3), P(3, 4), P(2, 2)]
        sample = simulate_m4(one_pattern_spec, Region(points), 50, 8)
        for rank in (rank_transform, lambda s: scores_from_matrix(s.values, points)):
            passed.clear()
            scores = rank(sample)
            assert len(passed) == 1 and scores.rank_counts is passed[0]


class TestExtremalCoefficientEstimate:
    def test_identical_columns_give_one(self):
        scores = rank_transform(sample_of([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
        est = estimate_extremal_coefficient(scores, A2)
        assert est.value == 1.0
        assert est.as_fraction() == 1
        assert not est.out_of_range

    def test_antithetic_pair_reaches_two(self):
        scores = rank_transform(sample_of([[1.0, 2.0], [2.0, 1.0]]))
        est = estimate_extremal_coefficient(scores, A2)
        # max counts are (2, 2): mean max score 2/3, ratio 2
        assert est.value == 2.0
        assert not est.out_of_range

    def test_out_of_range_flag(self):
        scores = rank_transform(
            sample_of([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        )
        est = estimate_extremal_coefficient(scores, A2)
        assert est.as_fraction() == F(14, 6)
        assert est.value > 2
        assert est.out_of_range  # unclamped, flagged

    def test_range_of_mean_max(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            cols = rng.uniform(1, 9, size=(2, n)).tolist()
            scores = rank_transform(sample_of(cols))
            est = estimate_extremal_coefficient(scores, A2)
            mean_max = F(est.numerator, est.numerator + est.denominator)
            assert F(1, n + 1) <= mean_max <= F(n, n + 1)

    def test_internal_guard_on_saturated_counts(self):
        doctored = UniformScores((P(0, 0),), np.array([[3], [3]]))
        with pytest.raises(EstimationError):
            estimate_extremal_coefficient(doctored, Region([P(0, 0)]))

    def test_needs_two_replicates(self):
        scores = rank_transform(sample_of([[1.0], [2.0]]))
        with pytest.raises(ArgumentError):
            estimate_extremal_coefficient(scores, A2)

    def test_monte_carlo_recovers_pair_coefficient(self, one_pattern_spec):
        sample = simulate_m4(one_pattern_spec, Region([P(3, 3), P(4, 3)]), 1000, STUDY_SEED)
        est = estimate_extremal_coefficient(
            rank_transform(sample), Region([P(3, 3), P(4, 3)])
        )
        assert est.value == pytest.approx(31 / 20, abs=0.1)


class TestPluginIndices:
    def test_identical_columns_degenerate_exactly(self):
        scores = rank_transform(
            sample_of([[1.0, 5.0, 2.0], [1.0, 5.0, 2.0], [1.0, 5.0, 2.0]])
        )
        region = Region([P(1, 0), P(2, 0)])
        assert estimate_contagion(scores, region, P(0, 0)) == 2.0
        assert estimate_stability(scores, region, P(0, 0)) == 0.0

    def test_estimator_identity_exact(self, one_pattern_spec, site, ring):
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), 250, 8)
        scores = rank_transform(sample)
        pair_sum = sum(
            estimate_extremal_coefficient(scores, Region([site, j])).as_fraction()
            for j in ring
        )
        joint = estimate_extremal_coefficient(
            scores, Region([site]).union(ring)
        ).as_fraction()
        ci_frac = 2 * len(ring) - pair_sum
        si_frac = (pair_sum - len(ring)) / joint
        # the identity holds exactly in rational arithmetic
        assert si_frac * joint + ci_frac == len(ring)
        # and the float API agrees with the rational values
        assert estimate_contagion(scores, ring, site) == float(ci_frac)
        assert estimate_stability(scores, ring, site) == float(si_frac)

    @pytest.mark.parametrize(
        "estimator", [estimate_contagion, estimate_stability, estimate_summary]
    )
    def test_site_estimators_warn_on_small_joint(self, estimator):
        # rank counts from rank_transform always give joint estimates >= 1;
        # a sub-1 joint can only come from doctored scores, and is flagged
        # at the line that called the public estimator
        doctored = UniformScores((P(0, 0), P(1, 0)), np.array([[1, 1], [1, 1]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = inspect.currentframe().f_lineno + 1
            estimator(doctored, Region([P(1, 0)]), P(0, 0))
        [warning] = caught
        assert issubclass(warning.category, RuntimeWarning)
        assert "below 1" in str(warning.message)
        assert (warning.filename, warning.lineno) == (__file__, line)

    def test_region_form_matches_site_form_for_singleton(self, one_pattern_spec, site, ring):
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), 200, 2)
        scores = rank_transform(sample)
        small = Region([P(4, 3), P(2, 3)])
        direct = estimate_contagion(scores, small, site)
        via_region = estimate_contagion_region(scores, small, Region([site]))
        assert via_region == pytest.approx(direct, rel=1e-12)


class TestMonteCarloStudy:
    def test_invariants_on_small_study(self, one_pattern_spec, site):
        region = Region([P(4, 3), P(2, 3)])
        ci, si = monte_carlo_study(one_pattern_spec, region, site, 3, 10, 123)
        for result in (ci, si):
            assert result.replications == 3
            assert result.sample_size == 10
            assert result.seed == 123
            assert result.mse >= 0
            assert (result.mean_estimate - result.true_value) ** 2 <= result.mse + 1e-12
        assert ci.index_name == "CI" and si.index_name == "SI"
        assert ci.true_value == pytest.approx(2 * 2 - 2 * (31 / 20))

    def test_deterministic(self, one_pattern_spec, site):
        region = Region([P(4, 3)])
        a = monte_carlo_study(one_pattern_spec, region, site, 3, 20, 9)
        b = monte_carlo_study(one_pattern_spec, region, site, 3, 20, 9)
        assert a == b

    def test_rejects_single_replication(self, one_pattern_spec, site, ring):
        with pytest.raises(ArgumentError):
            monte_carlo_study(one_pattern_spec, ring, site, 1, 10, 1)

    def test_consistency_trend_smoke(self, one_pattern_spec, site, ring):
        # error shrinks with sample size (full check in the acceptance suite)
        small_ci, _ = monte_carlo_study(one_pattern_spec, ring, site, 10, 100, STUDY_SEED)
        large_ci, _ = monte_carlo_study(one_pattern_spec, ring, site, 10, 4000, STUDY_SEED)
        assert large_ci.mse < small_ci.mse

    def test_study_result_serialization(self, one_pattern_spec, site):
        ci, _ = monte_carlo_study(one_pattern_spec, Region([P(4, 3)]), site, 2, 10, 5)
        doc = ci.to_json_dict()
        assert doc["index"] == "CI"
        assert doc["seed"] == 5
        row = ci.csv_row()
        assert row[0] == "CI" and row[4] == 2 and row[5] == 10


def test_substream_used_per_replication(one_pattern_spec, site):
    # replication r of a study draws from substream(seed, r): rebuilding one
    # replication by hand reproduces its estimate
    region = Region([P(4, 3), P(2, 3)])
    ci, _ = monte_carlo_study(one_pattern_spec, region, site, 2, 50, 77)
    locations = Region([site]).union(region)
    estimates = []
    for r in range(2):
        sample = simulate_m4(one_pattern_spec, locations, 50, substream(77, r))
        estimates.append(estimate_contagion(rank_transform(sample), region, site))
    assert ci.mean_estimate == pytest.approx(np.mean(estimates), rel=1e-15)


def test_scores_from_matrix_validates():
    with pytest.raises(ArgumentError):
        scores_from_matrix(np.zeros((0, 2)), (P(0, 0), P(1, 0)))
    with pytest.raises(ArgumentError):
        scores_from_matrix(np.zeros(3), (P(0, 0),))


class TestColumnLookup:
    def test_region_lookup_makes_no_linear_scan(self, two_pattern_spec, monkeypatch):
        domain = two_pattern_spec.domain_points()
        assert len(domain) == 441
        sample = simulate_m4(two_pattern_spec, Region(domain), 50, 3)
        scores = rank_transform(sample)
        # fresh, equal points: identity cannot short-cut a comparison
        site = P(domain[0].x, domain[0].y)
        region = Region(P(p.x, p.y) for p in domain[1:])
        calls = 0
        real_eq = LatticePoint.__eq__

        def counting_eq(self, other):
            nonlocal calls
            calls += 1
            return real_eq(self, other)

        monkeypatch.setattr(LatticePoint, "__eq__", counting_eq)
        estimate_stability(scores, region, site)
        estimate_contagion(scores, region, site)
        for point in region:
            sample.column_index(point)
        # about 3,100 column lookups, each at most one comparison; a linear
        # scan of the locations makes about 390,000
        assert calls <= 3200

    def test_lookup_messages_and_first_column(self):
        sample = sample_of([[1.0, 2.0], [3.0, 1.0]])
        with pytest.raises(ArgumentError, match=r"location \(5,5\) not in sample"):
            sample.column_index(P(5, 5))
        scores = UniformScores((P(0, 0), P(1, 0), P(0, 0)), np.ones((2, 3), dtype=np.int64))
        assert scores.column_index(P(0, 0)) == 0
        with pytest.raises(ArgumentError, match=r"location \(5,5\) not in scores"):
            scores.column_index(P(5, 5))


def loop_contagion(scores, region, site):
    """Reference: the per-pair loop `estimate_contagion` ran before the
    plug-in indices went through the shared summary."""
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    total = F(0)
    for j in region:
        total += estimate_extremal_coefficient(scores, Region((site, j))).as_fraction()
    return float(2 * len(region) - total)


def loop_stability(scores, region, site):
    """Reference: the per-pair and joint loop `estimate_stability` ran."""
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    pair_sum = F(0)
    for j in region:
        pair_sum += estimate_extremal_coefficient(scores, Region((site, j))).as_fraction()
    joint = estimate_extremal_coefficient(scores, Region((site,)).union(region))
    return float((pair_sum - len(region)) / joint.as_fraction())


def loop_contagion_region(scores, region, given):
    """Reference: the region-to-region index from one estimate per set, the given
    set, each singleton {j} and each given + j."""

    def theta(points):
        return estimate_extremal_coefficient(scores, Region(points)).as_fraction()

    theta_given = theta(given)
    return float(sum(theta([j]) + theta_given - theta([*given, j]) for j in region) / theta_given)


def loop_study(spec, region, site, replications, sample_size, seed):
    """Reference: `monte_carlo_study` with its per-index loops, as
    (index, true value, mean estimate, mse) rows."""
    pair_sum = sum(extremal_coefficient(spec, Region((site, j))) for j in region)
    joint = extremal_coefficient(spec, Region((site,)).union(region))
    true_ci = float(2 * len(region) - pair_sum)
    true_si = float((pair_sum - len(region)) / joint)
    ci = np.empty(replications)
    si = np.empty(replications)
    locations = Region((site,)).union(region)
    for r in range(replications):
        scores = rank_transform(simulate_m4(spec, locations, sample_size, substream(seed, r)))
        ci[r] = loop_contagion(scores, region, site)
        si[r] = loop_stability(scores, region, site)
    return [
        (name, truth, float(e.mean()), float(np.mean((e - truth) ** 2)))
        for name, truth, e in (("CI", true_ci, ci), ("SI", true_si, si))
    ]


def tie_heavy_cases():
    """Scores of small-integer matrices (many ties) with a site and regions
    that do and do not contain it."""
    rng = np.random.default_rng(2024)
    for n in (2, 3, 7, 40):
        for k in (2, 4, 6):
            values = rng.integers(0, 3, size=(n, k)).astype(float)
            points = [P(c, 0) for c in range(k)]
            scores = scores_from_matrix(values, points)
            yield scores, Region(points[1:]), points[0]
            yield scores, Region(points[::-1]), points[1]


def simulated_cases():
    site = P(3, 3)
    for spec in (preset("one-pattern"), preset_two_pattern()):
        for region in (neighbors(site), Region([P(4, 3)]), Region([P(2, 4), site, P(3, 4)])):
            for seed in (1, 2):
                sample = simulate_m4(spec, Region([site]).union(region), 300, seed)
                yield rank_transform(sample), region, site


class TestEstimateSummaryOracle:
    @pytest.mark.parametrize("cases", [tie_heavy_cases, simulated_cases])
    def test_fields_match_per_call_estimates(self, cases):
        for scores, region, site in cases():
            summary = estimate_summary(scores, region, site)
            pairwise = tuple(
                (j, estimate_extremal_coefficient(scores, Region((site, j))).as_fraction())
                for j in region
            )
            joint = estimate_extremal_coefficient(
                scores, Region((site,)).union(region)
            ).as_fraction()
            assert (summary.site, tuple(summary.region)) == (site, tuple(region))
            assert summary.pairwise_extremal == pairwise
            assert summary.joint_extremal == joint
            values = [v for _, v in pairwise] + [joint]
            assert all(type(v) is F for v in values)
            numerator = sum(v for _, v in pairwise) - len(region)
            assert summary.contagion == len(region) - numerator
            assert summary.stability == numerator / joint
            assert summary.stability_lower == numerator / (len(region) + 1)
            assert summary.stability_upper == numerator / max(v for _, v in pairwise)
            ci, si = loop_contagion(scores, region, site), loop_stability(scores, region, site)
            assert repr(float(summary.contagion)) == repr(ci)
            assert repr(float(summary.stability)) == repr(si)
            assert repr(estimate_contagion(scores, region, site)) == repr(ci)
            assert repr(estimate_stability(scores, region, site)) == repr(si)

    def test_study_matches_per_index_loops(self, one_pattern_spec, site, ring):
        spec = table_spec(12, seed=3)
        for args in (
            (spec, Region(p for p in spec.domain_points() if p != P(0, 0)), P(0, 0), 4, 60, 11),
            (one_pattern_spec, ring, site, 3, 80, 5),
        ):
            got = [
                (r.index_name, r.true_value, r.mean_estimate, r.mse)
                for r in monte_carlo_study(*args)
            ]
            assert repr(got) == repr(loop_study(*args))


SATURATED = "mean of maximal scores reached 1; impossible for modified-ECDF ranks"


class TestSummaryFirstError:
    """Every plug-in estimator raises the first error of one rule: the first
    missing point (the site, then region order), then fewer than two
    replicates, then a saturated set.  An empty region cannot be built."""

    # site s, a fair column a, b whose pair with s saturates, and d and e whose
    # pairs with s do not while their joint with s does; (7,7) is not in them
    S, A, B, D, E, MISSING = P(0, 0), P(1, 0), P(2, 0), P(3, 0), P(4, 0), P(7, 7)
    COUNTS = [[1, 1, 4, 5, 1], [1, 2, 4, 1, 5], [1, 3, 4, 5, 1]]

    def scores(self, rows):
        return UniformScores((self.S, self.A, self.B, self.D, self.E), np.array(rows))

    def outcomes(self, scores, region, site):
        """Each estimator's result or error for (site, region).  The joint
        coefficient reads {site} + region and the region-to-region index is
        given {site}, so all five look up the same points in the same order."""
        region = Region(region)
        return {
            estimator: result(estimator, scores, *args)
            for estimator, args in (
                (estimate_summary, (region, site)),
                (estimate_stability, (region, site)),
                (estimate_contagion, (region, site)),
                (estimate_extremal_coefficient, (Region([site]).union(region),)),
                (estimate_contagion_region, (region, Region([site]))),
            )
        }

    def check(self, scores, region, site, error, message):
        outcomes = self.outcomes(scores, region, site)
        assert outcomes == dict.fromkeys(outcomes, (error, message))

    @pytest.mark.parametrize("region, site, message", [
        ([A], P(9, 9), "location (9,9) not in scores"),
        ([MISSING, B], S, "location (7,7) not in scores"),
        # every point is looked up before any set is summed
        ([A, B, MISSING], S, "location (7,7) not in scores"),
        ([A, MISSING, B], S, "location (7,7) not in scores"),
    ])
    def test_first_missing_point(self, region, site, message):
        self.check(self.scores(self.COUNTS), region, site, ArgumentError, message)

    def test_saturated_set(self):
        self.check(self.scores(self.COUNTS), [self.B, self.A], self.S, EstimationError, SATURATED)

    @pytest.mark.parametrize("region, site, message", [
        ([A, MISSING], P(9, 9), "location (9,9) not in scores"),
        ([MISSING, A], S, "location (7,7) not in scores"),
        # every point is looked up before the replicate count is checked
        ([A, MISSING], S, "location (7,7) not in scores"),
        # and the replicate count before any set is summed
        ([A, B], S, "need at least two replicates to estimate"),
    ])
    def test_missing_point_with_one_replicate(self, region, site, message):
        self.check(self.scores(self.COUNTS[:1]), region, site, ArgumentError, message)

    def test_saturated_joint_only(self):
        scores = self.scores(self.COUNTS)
        outcomes = self.outcomes(scores, [self.D, self.E], self.S)
        # the three site estimators read one summary, which needs the joint; given
        # {site}, the region-to-region index's first request ({site}, region) tops
        # out at the same joint, so it raises too
        assert outcomes == dict.fromkeys(outcomes, (EstimationError, SATURATED))

    def test_region_to_region_looks_up_every_point_first(self):
        scores, saturated = self.scores(self.COUNTS), Region([self.S, self.B])
        with raises_exactly(ArgumentError, "location (7,7) not in scores"):
            estimate_contagion_region(scores, Region([self.A, self.MISSING]), saturated)
        with raises_exactly(EstimationError, SATURATED):
            estimate_contagion_region(scores, Region([self.A]), saturated)
        # the given points come before the region's
        with raises_exactly(ArgumentError, "location (9,9) not in scores"):
            estimate_contagion_region(scores, Region([self.MISSING]), Region([self.S, P(9, 9)]))
        with raises_exactly(ArgumentError, "need at least two replicates to estimate"):
            estimate_contagion_region(self.scores(self.COUNTS[:1]), Region([self.A]), saturated)


@pytest.fixture
def passes(monkeypatch):
    """The (base, extras) columns of each pass over the rank counts, in order."""
    calls = []
    real = estimate_module._max_sums

    def counting(counts, base, extras):
        calls.append((base, extras))
        return real(counts, base, extras)

    monkeypatch.setattr(estimate_module, "_max_sums", counting)
    return calls


class Gathered(np.ndarray):
    """Rank counts that add the size of every copy an index makes to `cells`."""

    cells = 0

    def __getitem__(self, index):
        out = super().__getitem__(index)
        if isinstance(out, np.ndarray) and not np.may_share_memory(out, self):
            Gathered.cells += out.size
        return out


class TestEachCoefficientOnce:
    def test_passes_per_estimator(self, passes, one_pattern_spec, site, ring):
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), 100, 4)
        columns = {p: c for c, p in enumerate(sample.locations)}
        for region in (ring, Region([P(4, 3)]), Region([site, P(4, 3)])):
            # one pass makes every pair and the joint: the site's column, raised by
            # each other column of the region; the site's own pair is the site
            expected = [((columns[site],), tuple(columns[j] for j in region if j != site))]
            for estimator in (estimate_summary, estimate_stability, estimate_contagion):
                scores = scores_from_matrix(sample.values, sample.locations)
                passes.clear()
                estimator(scores, region, site)
                assert passes == expected, (estimator, region)
                passes.clear()
                estimator(scores, region, site)
                assert passes == []  # the memo holds every sum
            # after contagion, stability sums nothing
            scores = scores_from_matrix(sample.values, sample.locations)
            estimate_contagion(scores, region, site)
            passes.clear()
            estimate_stability(scores, region, site)
            assert passes == [], region

    def test_extremal_coefficient_makes_one_pass(self, passes, one_pattern_spec, site, ring):
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), 100, 4)
        scores = scores_from_matrix(sample.values, sample.locations)  # no groups
        first, middle, last = sample.locations[0], sample.locations[4], sample.locations[-1]
        for region in (Region([first, last]), Region([first, middle, last]),
                       Region(sample.locations)):
            passes.clear()
            estimate_extremal_coefficient(scores, region)
            assert passes == [(tuple(sorted(sample.column_index(p) for p in region)), ())]
            passes.clear()
            estimate_extremal_coefficient(scores, region)
            # the memo key is the set of columns, not their order
            estimate_extremal_coefficient(scores, Region(region.points[::-1]))
            assert passes == []

    def test_region_to_region_makes_two_passes(self, passes, one_pattern_spec, site, ring):
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), 100, 4)
        column = sample.column_index
        points = list(ring)
        for region, given in (
            (ring, Region([site])),
            (Region(points[:3]), Region([site, *points[5:]])),
            (Region(points[::-1]), ring),  # every given + j is the given set
        ):
            scores = scores_from_matrix(sample.values, sample.locations)  # no groups
            given_cols = tuple(sorted(map(column, given)))
            outside = tuple(column(j) for j in region if j not in given)
            passes.clear()
            estimate_contagion_region(scores, region, given)
            # the given set with each given + j, then each singleton {j}
            assert passes == [(given_cols, outside), ((), tuple(map(column, region)))]
            passes.clear()
            estimate_contagion_region(scores, region, given)
            assert passes == []

    def test_summary_pass_is_chunked(self, one_pattern_spec, site, ring):
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), 200_000, 9)
        scores = scores_from_matrix(sample.values, sample.locations)  # no groups
        tracemalloc.start()
        try:
            estimate_summary(scores, ring, site)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # bytes: a few chunks of gathered counts, where one gather of every
        # pair's two columns at once would take 200_000 * 16 * 8 = 25.6 MB
        assert peak < 4_000_000
        assert len(scores._numerators) == 1  # one request: the site, raised by the ring

    def test_study_makes_one_pass_per_replication(self, passes, monkeypatch):
        import m4extremes.dependence as dependence_module

        evals = []
        real = dependence_module.extremal_coefficient

        def counting(spec, region):
            evals.append(region)
            return real(spec, region)

        monkeypatch.setattr(dependence_module, "extremal_coefficient", counting)
        spec = table_spec(12)  # every point its own weight matrix
        region = Region(p for p in spec.domain_points() if p != P(0, 0))
        monte_carlo_study(spec, region, P(0, 0), 3, 30, 1)
        assert [(len(base), len(extras)) for base, extras in passes] == [(1, len(region))] * 3
        assert len(evals) == len(region) + 1


class TestRegionToRegion:
    """`estimate_contagion_region` from its two passes equals the per-set loop."""

    @pytest.mark.parametrize("grouped", [False, True])
    def test_shared_columns_match_loop(self, grouped):
        site = P(3, 3)
        ring = neighbors(site)
        points = list(ring)
        # one-pattern: the site shares its weight matrix with (3,2) and (3,4)
        sample = simulate_m4(preset("one-pattern"), Region([site]).union(ring), 300, 12)
        scores = rank_transform(sample)
        if not grouped:
            scores = scores_from_matrix(sample.values, sample.locations)
        assert (scores._representatives is not None) == grouped
        for region, given in (
            (ring, Region([site])),  # the given set shares a weight matrix with R
            (Region([P(3, 2)]), Region([P(3, 4)])),  # G and R: one weight matrix
            (Region([site, points[0]]), Region([site, points[3]])),  # a point inside G
            (Region(points[:4]), ring),  # every point inside G
        ):
            got = estimate_contagion_region(scores, region, given)
            assert repr(got) == repr(loop_contagion_region(scores, region, given))

    def test_empty_base_is_no_floor(self):
        # hand-built negative counts: the singletons' pass takes no maximum with 0
        counts = np.array([[3, -2, 1, 4], [1, -5, 2, 2], [2, 1, 3, 1], [4, 3, 4, 3]])
        scores = UniformScores(tuple(P(c, 0) for c in range(4)), counts)
        region, given = Region([P(1, 0)]), Region([P(2, 0), P(3, 0)])
        got = estimate_contagion_region(scores, region, given)
        assert repr(got) == repr(loop_contagion_region(scores, region, given))
        assert repr(got) == "-0.07023411371237458"

    @pytest.mark.parametrize("size", [6, 24])
    def test_gathered_cells_are_linear(self, monkeypatch, size):
        real = estimate_module._max_sums
        monkeypatch.setattr(estimate_module, "_max_sums",
                            lambda counts, *request: real(counts.view(Gathered), *request))
        monkeypatch.setattr(Gathered, "cells", 0)
        n, points = 50, [P(c, 0) for c in range(2 * size)]
        scores = scores_from_matrix(np.random.default_rng(size).random((n, 2 * size)), points)
        region, given = Region(points[size:]), Region(points[:size])
        got = estimate_contagion_region(scores, region, given)
        # |G| + |R| columns per row for the given set's pass, |R| for the singletons';
        # one gather per set of G + j would take |R| (|G| + 1)
        assert Gathered.cells <= n * (len(given) + 2 * len(region))
        assert repr(got) == repr(loop_contagion_region(scores, region, given))


def grouped_cases():
    """Scores ranked from samples whose columns share weight matrices, each
    with a region and a site; the ungrouped path ranks the same values."""
    site = P(3, 3)
    ring = neighbors(site)
    for spec in (preset("one-pattern"), preset_two_pattern()):
        # one-pattern: the site shares its weight matrix with (3,2) and (3,4)
        sample = simulate_m4(spec, Region([site]).union(ring), 300, 12)
        yield sample, ring, site
    rng = np.random.default_rng(31)
    labels = (0, 1, 0, 2, 1, 0)  # three distinct columns of small integers
    for n in (1, 2, 3, 40):
        values = rng.integers(1, 4, size=(n, 3)).astype(float)[:, labels]
        points = tuple(P(c, 0) for c in range(len(labels)))
        sample = FieldSample(points, values)
        object.__setattr__(sample, "_column_groups", labels)
        yield sample, Region(points[1:]), points[0]


def result(estimator, *args):
    try:
        return estimator(*args)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)


class TestGroupedEstimates:
    """Scores that carry column groups give the ungrouped estimates exactly."""

    def test_match_ungrouped(self):
        for sample, region, site in grouped_cases():
            scores = rank_transform(sample)
            assert scores._representatives is not None

            def plain():  # fresh each call: no numerator is reused
                fresh = scores_from_matrix(sample.values, sample.locations)
                assert fresh._representatives is None
                return fresh

            points = list(region)
            regions = [region, region.with_point(site), Region(points[:1]),
                       Region([site, points[-1]]), Region(points[1::2])]
            for r in regions:
                for estimator in (estimate_contagion, estimate_stability, estimate_summary):
                    assert result(estimator, scores, r, site) == result(
                        estimator, plain(), r, site
                    ), (estimator, r)
                assert result(estimate_extremal_coefficient, scores, r) == result(
                    estimate_extremal_coefficient, plain(), r
                )
                for given in (Region([site]), region, Region(points[::3])):
                    assert result(estimate_contagion_region, scores, r, given) == result(
                        estimate_contagion_region, plain(), r, given
                    )

    @pytest.mark.parametrize("site_last", [False, True])
    def test_ring_estimates_share_one_pass(self, passes, one_pattern_spec, site, ring,
                                           site_last):
        # with the site's column last, the base is still the site's column alone
        locations = ring.union([site]) if site_last else Region([site]).union(ring)
        sample = simulate_m4(one_pattern_spec, locations, 200, 6)
        plain = scores_from_matrix(sample.values, sample.locations)
        expected = loop_contagion(plain, ring, site), loop_stability(plain, ring, site)
        for scores, extras in (
            # one pass of the site's weight matrix raised by the other one; the
            # joint is the two-matrix pair, so stability makes no pass
            (rank_transform(sample), 1),
            # no groups: one pass of the site raised by every ring column
            (scores_from_matrix(sample.values, sample.locations), len(ring)),
        ):
            site_column = scores._representative(scores.column_index(site))
            passes.clear()
            contagion = estimate_contagion(scores, ring, site)
            stability = estimate_stability(scores, ring, site)
            assert [(base, len(cols)) for base, cols in passes] == [((site_column,), extras)]
            assert (contagion, stability) == expected
