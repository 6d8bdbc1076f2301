import itertools
import threading
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from m4extremes import (
    ArgumentError,
    ExtremalCoefficientEstimate,
    FieldSample,
    LatticePoint,
    Region,
    StudyResult,
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
import m4extremes.dependence as dependence_module
import m4extremes.estimate as estimate_module
import m4extremes.simulate as simulate_module
from conftest import STUDY_SEED, raises_exactly, table_spec, use_cpus

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
        groups = sample._row_of
        assert len(sample._rows) == len(set(groups)) < len(groups)  # some rows are shared
        kernel_rows = []
        real_rank_rows = estimate_module._rank_rows

        def counting_rank_rows(rows):
            kernel_rows.append(rows.shape[0])
            return real_rank_rows(rows)

        monkeypatch.setattr(estimate_module, "_rank_rows", counting_rank_rows)
        grouped = rank_transform(sample)
        assert kernel_rows == [len(set(groups))]  # each row of the sample, in one call
        assert grouped._row_of == groups
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

    def test_no_columns(self):
        # scores hold at least one location, as a sample does
        with raises_exactly(ArgumentError, "need at least one location"):
            scores_from_matrix(np.ones((3, 0)), [])

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

    @staticmethod
    def tie_passes(monkeypatch):
        """Spies on `np.repeat`; returns the length of each result: one per pass over
        the value ties of a row group."""
        lengths, real_repeat = [], np.repeat

        def counting_repeat(*args, **kwargs):
            result = real_repeat(*args, **kwargs)
            lengths.append(len(result))
            return result

        monkeypatch.setattr(np, "repeat", counting_repeat)
        return lengths

    @staticmethod
    def value_ties(values):
        """The number of elements that equal the next of their column, once sorted."""
        return sum(len(col) - len(np.unique(col)) for col in values.T)

    @staticmethod
    def layouts(values):
        return values, np.asfortranarray(values), np.repeat(values, 2, axis=1)[:, ::2]

    def test_tie_pass_only_for_value_ties(self, monkeypatch):
        rng = np.random.default_rng(8)
        tie_free = rng.permutation(4000).reshape(1000, 4) + 0.5
        # 64 distinct values a column, 1 + j*2**-52: they tie in their keys, not by value
        key_ties = 1.0 + rng.permuted(np.tile(np.arange(64), (16, 1)), axis=1).T * 2.0**-52
        rounded = tie_free.round(-2)
        cases = [(tie_free, []), (key_ties, []), (rounded, [self.value_ties(rounded)])]
        cases = [(layout, passes) for values, passes in cases for layout in self.layouts(values)]
        lengths = self.tie_passes(monkeypatch)
        for layout, passes in cases:
            lengths.clear()
            scores = scores_from_matrix(layout, points_for(layout))
            assert lengths == passes  # one pass, over the value-tied elements alone
            assert np.array_equal(scores.rank_counts, sorted_counts(layout))

    BLOCK = estimate_module._CACHE_ELEMENTS  # keys are built and split in blocks

    def few_ties(self, n, d, rng):
        """Distinct values but for one repeat in about 997 in each column."""
        values = rng.permutation(n * d).reshape(n, d) + rng.random((n, d))
        rows = np.arange(0, n - 1, 997)
        values[rows] = values[rows + 1]
        return values

    @pytest.mark.parametrize("n, d", [(BLOCK - 1, 1), (BLOCK, 1), (BLOCK + 1, 1),
                                      (BLOCK // 2, 2), (BLOCK + 7, 3)])
    def test_flat_sizes_around_a_block(self, n, d):
        rng = np.random.default_rng(n + d)
        self.check(self.matrix(n, d, rng), sorted_counts)
        self.check(self.few_ties(n, d, rng), sorted_counts)

    def test_tied_run_across_a_block_seam(self):
        # rows of two blocks: each row ends on a seam, and five equal values
        # straddle the seam inside it, in flat order (ascending) or sorted order
        n, rng = 2 * self.BLOCK, np.random.default_rng(9)
        ascending = np.arange(n) + rng.random(n)
        ascending[self.BLOCK - 2 : self.BLOCK + 3] = ascending[self.BLOCK]
        values = np.column_stack([ascending, ascending[::-1], rng.permutation(ascending)])
        self.check(values, sorted_counts)

    def test_few_ties_touch_only_the_tied_elements(self, monkeypatch):
        values = self.few_ties(3 * self.BLOCK, 2, np.random.default_rng(10))
        expected, tied = sorted_counts(values), self.value_ties(values)
        assert 0 < tied < values.size // 100
        layouts = self.layouts(values)
        lengths = self.tie_passes(monkeypatch)
        for layout in layouts:
            lengths.clear()
            scores = scores_from_matrix(layout, points_for(layout))
            assert lengths == [tied]
            assert np.array_equal(scores.rank_counts, expected)

    # Row groups.  These tests lower the cut-off below every matrix and run the other
    # groups' threads on the calling thread, so no group count starts a thread.

    @pytest.fixture
    def split(self, monkeypatch):
        """Sets the usable CPUs for the next ranks; returns the threads they start."""
        started = []

        class SerialThread(threading.Thread):
            def start(self):
                started.append(self)
                self.run()

            def join(self, timeout=None):
                pass

        monkeypatch.setattr(simulate_module, "_SPLIT_CELLS", 1)
        monkeypatch.setattr(threading, "Thread", SerialThread)

        def set_cpus(cpus):
            use_cpus(monkeypatch, cpus)
            started.clear()
            return started

        return set_cpus

    def check_groups(self, values, split, cpus, reference=brute_force_counts):
        """In every layout, one group and min(columns, cpus) groups give the same
        counts, bit for bit, and those of `reference`."""
        expected = reference(values)
        for layout in (values, np.asfortranarray(values), np.repeat(values, 2, axis=1)[:, ::2]):
            split(1)
            one = scores_from_matrix(layout, points_for(layout)).rank_counts
            started = split(cpus)
            grouped = scores_from_matrix(layout, points_for(layout)).rank_counts
            assert len(started) == min(values.shape[1], cpus) - 1
            assert grouped.dtype == one.dtype and grouped.tobytes() == one.tobytes()
            assert np.array_equal(one, expected)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("cpus", [2, 3, 64])
    def test_row_groups_match_one_group(self, split, d, cpus):
        # key-only ties, exact ties, signed zeros and a constant column, one kind a row
        self.check_groups(self.matrix(300, d, np.random.default_rng(d)), split, cpus)

    @pytest.mark.parametrize("cpus", [2, 3, 5])
    def test_ties_at_group_seams(self, split, cpus):
        # each column's largest value is the next column's smallest, so every seam
        # between rows, and so between groups, joins equal values
        n, d, rng = 200, 5, np.random.default_rng(11)
        tie_free = rng.permuted(np.linspace(0.0, 1.0, n)[:, None] + np.arange(d), axis=0)
        j = rng.integers(0, 64, (n, d)) + 63 * np.arange(d)  # 64 ulps a column
        j[:2] = 63 * np.arange(d), 63 * np.arange(d) + 63
        key_ties = 1.0 + j * 2.0**-52  # columns that tie in their keys' kept bits
        for values in (tie_free, key_ties, -key_ties[:, ::-1]):
            self.check_groups(values, split, cpus)

    def test_tie_pass_in_the_tied_group_only(self, split, monkeypatch):
        lengths = self.tie_passes(monkeypatch)
        n, rng = 400, np.random.default_rng(12)
        tied, tie_free = rng.integers(0, 5, n) * 1.0, rng.permutation(n) + 0.5
        for values in (np.column_stack([tied, tie_free]), np.column_stack([tie_free, tied])):
            for cpus in (1, 2):
                split(cpus)
                lengths.clear()
                counts = scores_from_matrix(values, points_for(values)).rank_counts
                assert lengths == [n - len(np.unique(tied))]  # the tied group's pass alone
                assert np.array_equal(counts, brute_force_counts(values))

    @pytest.mark.parametrize("nan", [np.nan, -np.nan, np.frombuffer(
        np.uint64(0xFFF0000000000001).tobytes(), np.float64)[0]])
    def test_nan_message_names_first_in_row_major_order(self, nan):
        values = np.ones((4, 3))
        values[3, 0] = values[1, 2] = values[2, 1] = nan
        for layout in (values, np.asfortranarray(values)):
            with pytest.raises(ArgumentError, match=r"NaN at row 1, column 2"):
                scores_from_matrix(layout, points_for(layout))


class TestRankThreads:
    """From `_SPLIT_CELLS` cells on, a rank starts at most min(rows, usable CPUs) - 1
    threads, through one call of `_in_parts` (whose contract `TestInParts` in
    test_simulate.py checks)."""

    @pytest.mark.parametrize("cpus, threads", [(64, 1), (2, 1), (1, 0)])
    def test_two_rows_start_at_most_one_thread(self, started, monkeypatch, cpus, threads):
        use_cpus(monkeypatch, cpus)
        rows = np.random.default_rng(13).standard_normal((2, simulate_module._SPLIT_CELLS // 2))
        counts = estimate_module._rank_rows(rows)
        assert len(started) == threads
        assert not any(thread.is_alive() for thread in started)
        assert np.array_equal(counts, sorted_counts(rows.T).T)

    @pytest.mark.parametrize("shape", [(9, 1000), (441, 1000), (16, 2**16 - 1)])
    def test_small_matrices_start_no_thread(self, started, monkeypatch, shape):
        use_cpus(monkeypatch, 64)
        assert shape[0] * shape[1] < simulate_module._SPLIT_CELLS
        estimate_module._rank_rows(np.random.default_rng(15).standard_normal(shape))
        assert started == []

    @pytest.mark.parametrize("shape", [(2, 2**19), (3, 100), (9, 1000), (1, 7)])
    def test_one_runner_call(self, monkeypatch, shape):
        # the rows, one group at most each, and the cell count decide the split
        calls, real = [], estimate_module._in_parts

        def spy(work, total, most, cells):
            calls.append((total, most, cells))
            real(work, total, most, cells)

        monkeypatch.setattr(estimate_module, "_in_parts", spy)
        use_cpus(monkeypatch, 3)
        rows = np.random.default_rng(16).standard_normal(shape)
        counts = estimate_module._rank_rows(rows)
        assert calls == [(shape[0], shape[0], shape[0] * shape[1])]
        assert np.array_equal(counts, sorted_counts(rows.T).T)


class TestCountsBase:
    """`scores_from_matrix` ranks the matrix it is given into counts the scores own."""

    LOCATIONS = (P(0, 0), P(1, 0))

    def test_view_of_writable_base_is_copied(self):
        base = np.array([[1, 2], [2, 1], [3, 3]])  # each column is its own counts
        scores = scores_from_matrix(base[:, :], self.LOCATIONS)
        region = Region(self.LOCATIONS)
        assert estimate_extremal_coefficient(scores, region).as_fraction() == F(7, 5)
        base[:, 1] = base[:, 0]
        assert scores.rank_counts.tolist() == [[1, 2], [2, 1], [3, 3]]
        assert estimate_extremal_coefficient(scores, region).as_fraction() == F(7, 5)
        fresh = scores_from_matrix(np.array(scores.rank_counts), self.LOCATIONS)
        assert estimate_extremal_coefficient(fresh, region).as_fraction() == F(7, 5)
        changed = scores_from_matrix(base.copy(), self.LOCATIONS)  # the base's new counts
        assert estimate_extremal_coefficient(changed, region).as_fraction() == 1
        assert not scores.rank_counts.flags.writeable

    def test_every_layout_is_copied_and_read_back_f_order(self):
        base = np.array([[1, 2, 3], [3, 1, 2], [2, 3, 1]])  # rows and columns are rank counts
        frozen = base.copy()
        frozen.setflags(write=False)
        for counts in (base, base.T.copy().T, base[:, ::-1], frozen, frozen.T, base.tolist()):
            scores = scores_from_matrix(counts, tuple(P(c, 0) for c in range(np.shape(counts)[1])))
            assert scores._rows.base is None and scores._rows.flags.c_contiguous
            assert not np.shares_memory(scores._rows, base)
            assert not np.shares_memory(scores._rows, frozen)
            assert scores.rank_counts.flags.f_contiguous
            assert not scores.rank_counts.flags.writeable
            assert scores.rank_counts.tolist() == np.asarray(counts).tolist()

    def test_rejects_zero_replicates(self):
        with raises_exactly(ArgumentError, "need at least one replicate"):
            scores_from_matrix(np.zeros((0, 1), np.int64), (P(0, 0),))
        with raises_exactly(ArgumentError, "need at least one replicate"):
            scores_from_matrix(np.zeros((0, 0), np.int64), ())

    def test_shape_must_match_locations(self):
        with raises_exactly(ArgumentError, "3 columns for 2 locations"):
            scores_from_matrix(np.array([[1, 2, 3]]), self.LOCATIONS)
        with raises_exactly(ArgumentError, "expected a 2-d matrix"):
            scores_from_matrix(np.array([1, 2]), self.LOCATIONS)

    def test_ranked_rows_are_handed_over(self, monkeypatch, one_pattern_spec):
        ranked = []
        real = estimate_module._rank_rows
        monkeypatch.setattr(estimate_module, "_rank_rows",
                            lambda rows: ranked.append(real(rows)) or ranked[-1])
        points = [P(3, 3), P(4, 3), P(3, 4), P(2, 2)]
        sample = simulate_m4(one_pattern_spec, Region(points), 50, 8)
        for rank, row_of in ((rank_transform, sample._row_of),
                             (lambda s: scores_from_matrix(s.values, points), (0, 1, 2, 3))):
            ranked.clear()
            scores = rank(sample)
            assert len(ranked) == 1 and scores._rows is ranked[0]
            assert scores._row_of == row_of and not scores._rows.flags.writeable


def doctored_counts(n=9, k=5):
    """Integer matrices whose columns ranking gives back for no column of values."""
    rng = np.random.default_rng(5)
    return [
        rng.integers(-3, n + 5, size=(n, k)),
        np.zeros((n, k), dtype=np.int64),
        np.full((n, k), n + 1),  # above n: a mean of maximal scores would reach 1
        # within 1..n, but a tie takes its run's count: a joint estimate would be below 1
        np.ones((n, k), dtype=np.int64),
        rng.integers(0, n + 2, size=(n, k)).astype(np.uint8),
        rng.choice([-(2**62), 2**62, 3], size=(n, k)),
        np.array([[1, 2, 3, 2**64 - 1]] * 3, dtype=np.uint64).T,
    ]


DOCTORED = doctored_counts()


class TestRankCountRule:
    """Scores have no public constructor: ranking makes them, so they hold rank counts,
    the modified-ECDF counts of some column, which are their own counts."""

    def test_no_public_constructor(self):
        counts = np.array([[1, 2], [2, 1]])
        with pytest.raises(TypeError):
            UniformScores((P(0, 0), P(1, 0)), counts)
        scores = scores_from_matrix(counts, (P(0, 0), P(1, 0)))
        assert "scores" not in repr(scores)  # a property, not a field

    @pytest.mark.parametrize("n", range(1, 6))
    def test_rank_counts_come_back_unchanged(self, n):
        # values in 1..n take every order of n values, ties included; their counts are
        # every column that ranking gives, and each one ranks to itself
        values = np.array(list(itertools.product(range(1, n + 1), repeat=n)), float).T
        images = brute_force_counts(values)
        points = tuple(P(c, 0) for c in range(values.shape[1]))
        assert np.array_equal(scores_from_matrix(values, points).rank_counts, images)
        assert np.array_equal(scores_from_matrix(images, points).rank_counts, images)

    @pytest.mark.parametrize("counts", DOCTORED, ids=range(len(DOCTORED)))
    def test_doctored_counts_are_ranked_to_their_own_counts(self, counts):
        points = tuple(P(c, 0) for c in range(counts.shape[1]))
        scores = scores_from_matrix(counts, points)
        assert np.array_equal(scores.rank_counts, brute_force_counts(counts.astype(float)))
        assert not np.array_equal(scores.rank_counts, counts)
        again = scores_from_matrix(scores.rank_counts, points)
        assert np.array_equal(again.rank_counts, scores.rank_counts)
        joint = estimate_extremal_coefficient(scores, Region(points)).as_fraction()
        assert joint >= 1  # the estimators rely on it: no joint estimate below 1

    def test_repeated_locations_are_refused(self):
        points = (P(0, 0), P(1, 0), P(0, 0))
        with raises_exactly(ArgumentError, "duplicate locations in scores"):
            scores_from_matrix(np.ones((2, 3)), points)
        with raises_exactly(ArgumentError, "duplicate locations in sample"):
            FieldSample(points, np.ones((2, 3)))

    def test_rank_counts_of_any_scores_are_ranked_to_themselves(self, one_pattern_spec):
        sample = simulate_m4(one_pattern_spec, neighbors(P(3, 3)), 60, 3)
        tied = scores_from_matrix(np.random.default_rng(1).integers(0, 3, (40, 6)),
                                  tuple(P(c, 0) for c in range(6)))
        for scores in (rank_transform(sample), tied):
            copy = scores_from_matrix(scores.rank_counts, scores.locations)
            assert np.array_equal(copy.rank_counts, scores.rank_counts)


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

    def test_value_is_the_fraction(self):
        est = ExtremalCoefficientEstimate(3, 2, 2)
        assert est.value == 1.5 and est.as_fraction() == F(3, 2)
        assert not est.out_of_range
        assert ExtremalCoefficientEstimate(1, 2, 2).out_of_range

    def test_range_of_mean_max(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 30))
            cols = rng.uniform(1, 9, size=(2, n)).tolist()
            scores = rank_transform(sample_of(cols))
            est = estimate_extremal_coefficient(scores, A2)
            mean_max = F(est.numerator, est.numerator + est.denominator)
            assert F(1, n + 1) <= mean_max <= F(n, n + 1)

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

    @given(tied_matrices().filter(lambda values: len(values) >= 2))
    def test_every_coefficient_is_at_least_one(self, values):
        points = points_for(values)
        scores = scores_from_matrix(values, points)
        for site in points:
            summary = estimate_summary(scores, Region(points), site)
            assert summary.joint_extremal >= 1
            assert all(v >= 1 for _, v in summary.pairwise_extremal)

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

    def test_record_layouts(self):
        result = StudyResult("CI", 4.7, 4.65, 0.01, 3, 10, 123)
        doc = result.to_json_dict()
        assert list(doc.items()) == [
            ("index", "CI"), ("true_value", 4.7), ("mean_estimate", 4.65), ("mse", 0.01),
            ("replications", 3), ("sample_size", 10), ("seed", 123),
        ]
        assert result.csv_row() == ["CI", "4.7", "4.65", "0.01", 3, 10, 123]

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

    def test_lookup_messages_and_columns(self):
        sample = sample_of([[1.0, 2.0], [3.0, 1.0]])
        with pytest.raises(ArgumentError, match=r"location \(5,5\) not in sample"):
            sample.column_index(P(5, 5))
        scores = scores_from_matrix(np.full((2, 3), 2), (P(2, 0), P(1, 0), P(0, 0)))
        assert scores.column_index(P(0, 0)) == 2
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

    def test_estimates_evaluate_no_bound(self, monkeypatch, one_pattern_spec, site, ring):
        # the bounds are the only `max` of a summary; the estimate readers read none
        scores = rank_transform(simulate_m4(one_pattern_spec, ring.union((site,)), 200, 1))
        maxima = []
        monkeypatch.setattr(dependence_module, "max",
                            lambda *args: maxima.append(args) or max(*args), raising=False)
        summary = estimate_summary(scores, ring, site)
        summary.contagion, summary.stability
        estimate_contagion(scores, ring, site), estimate_stability(scores, ring, site)
        estimate_module._estimates_json(summary, "point", map(str, ring))
        assert maxima == []
        summary.stability_upper, summary.stability_upper  # each read takes its own max
        assert len(maxima) == 2

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


class TestSummaryFirstError:
    """Every plug-in estimator raises the first error of one rule: the first
    missing point (the site, then region order), then fewer than two
    replicates.  An empty region cannot be built."""

    # site s and columns a, b, d and e, whose first replicate alone is a sample
    # too; (7,7) is not in them
    S, A, B, D, E, MISSING = P(0, 0), P(1, 0), P(2, 0), P(3, 0), P(4, 0), P(7, 7)
    COUNTS = [[1, 1, 1, 1, 1], [2, 3, 2, 3, 3], [3, 2, 3, 2, 3]]

    def scores(self, rows):  # each column of COUNTS is its own counts
        return scores_from_matrix(np.array(rows), (self.S, self.A, self.B, self.D, self.E))

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

    def test_region_to_region_looks_up_every_point_first(self):
        scores, given = self.scores(self.COUNTS), Region([self.S, self.B])
        with raises_exactly(ArgumentError, "location (7,7) not in scores"):
            estimate_contagion_region(scores, Region([self.A, self.MISSING]), given)
        # the given points come before the region's
        with raises_exactly(ArgumentError, "location (9,9) not in scores"):
            estimate_contagion_region(scores, Region([self.MISSING]), Region([self.S, P(9, 9)]))
        with raises_exactly(ArgumentError, "need at least two replicates to estimate"):
            estimate_contagion_region(self.scores(self.COUNTS[:1]), Region([self.A]), given)


@pytest.fixture
def passes(monkeypatch):
    """The (base, extras) rows of each pass over the rows of counts, in order."""
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
        assert (len(scores._rows) < len(scores.locations)) == grouped
        for region, given in (
            (ring, Region([site])),  # the given set shares a weight matrix with R
            (Region([P(3, 2)]), Region([P(3, 4)])),  # G and R: one weight matrix
            (Region([site, points[0]]), Region([site, points[3]])),  # a point inside G
            (Region(points[:4]), ring),  # every point inside G
        ):
            got = estimate_contagion_region(scores, region, given)
            assert repr(got) == repr(loop_contagion_region(scores, region, given))

    def test_empty_base_on_tied_counts(self):
        # the singletons' pass has no base: its maximum floors at 0, below every count
        counts = np.array([[4, 3, 1, 4], [1, 4, 3, 4], [2, 1, 4, 4], [4, 3, 3, 4]])
        scores = scores_from_matrix(counts, tuple(P(c, 0) for c in range(4)))
        assert scores.rank_counts.tolist() == counts.tolist()  # each column's own counts
        region, given = Region([P(1, 0)]), Region([P(2, 0), P(3, 0)])
        got = estimate_contagion_region(scores, region, given)
        assert repr(got) == repr(loop_contagion_region(scores, region, given))
        assert repr(got) == "0.3055555555555556"

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
    row_of = (0, 1, 0, 2, 1, 0)  # three distinct rows of small integers
    for n in (1, 2, 3, 40):
        rows = rng.integers(1, 4, size=(n, 3)).astype(float).T.copy()
        points = tuple(P(c, 0) for c in range(len(row_of)))
        sample = FieldSample._of_rows(points, rows, row_of)
        yield sample, Region(points[1:]), points[0]


def result(estimator, *args):
    try:
        return estimator(*args)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)


class TestGroupedEstimates:
    """Scores whose locations share rows give the estimates of a row per location
    exactly."""

    def test_match_ungrouped(self):
        for sample, region, site in grouped_cases():
            scores = rank_transform(sample)
            assert len(scores._rows) < len(scores.locations)

            def plain():  # fresh each call: no numerator is reused
                fresh = scores_from_matrix(sample.values, sample.locations)
                assert len(fresh._rows) == len(fresh.locations)
                return fresh

            points = list(region)
            regions = [region, region.union((site,)), Region(points[:1]),
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
            site_column = scores._row_of[scores.column_index(site)]
            passes.clear()
            contagion = estimate_contagion(scores, ring, site)
            stability = estimate_stability(scores, ring, site)
            assert [(base, len(cols)) for base, cols in passes] == [((site_column,), extras)]
            assert (contagion, stability) == expected
