import hashlib
import itertools
import json
import math
import os
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from m4extremes import estimate, rng, simulate
from m4extremes import (
    ArgumentError,
    FieldSample,
    LatticePoint,
    M4Spec,
    ParseError,
    Region,
    UndefinedConditionalError,
    UniformScores,
    empirical_contagion,
    empirical_stability,
    estimate_contagion,
    estimate_contagion_region,
    estimate_extremal_coefficient,
    estimate_stability,
    estimate_summary,
    export_sample,
    monte_carlo_study,
    neighbors,
    preset,
    rank_transform,
    read_sample_csv,
    scores_from_matrix,
    simulate_m4,
)
from m4extremes.rng import U64_MASK, frechet_block, uniform_block
from m4extremes.stations import Station, StationDataset
from conftest import raises_exactly, table_spec, threads_for, use_cpus

P = LatticePoint


def test_dead_api_is_deleted():
    # neither had a caller in the package, the benchmark or the README
    import m4extremes

    assert not hasattr(simulate, "unit_frechet_quantile")
    assert not hasattr(m4extremes, "unit_frechet_quantile")
    assert "unit_frechet_quantile" not in m4extremes.__all__
    assert not hasattr(M4Spec, "is_exact")


class TestSimulate:
    def test_same_seed_is_bit_identical(self, one_pattern_spec, ring):
        a = simulate_m4(one_pattern_spec, ring, 200, 7)
        b = simulate_m4(one_pattern_spec, ring, 200, 7)
        assert np.array_equal(a.values, b.values)
        assert a.seed == b.seed == 7
        assert a.spec_fingerprint == one_pattern_spec.fingerprint()

    def test_different_seeds_differ(self, one_pattern_spec, ring):
        a = simulate_m4(one_pattern_spec, ring, 200, 7)
        b = simulate_m4(one_pattern_spec, ring, 200, 8)
        assert not np.array_equal(a.values, b.values)

    def test_rows_are_prefix_stable(self, one_pattern_spec, ring):
        short = simulate_m4(one_pattern_spec, ring, 5, 7)
        long = simulate_m4(one_pattern_spec, ring, 50, 7)
        assert np.array_equal(short.values, long.values[:5])

    def test_identical_pattern_sites_share_columns(self, one_pattern_spec):
        # (3,3) and (3,4) are both odd-abscissa, so they carry the same
        # weights and the same latent draws
        sample = simulate_m4(one_pattern_spec, Region([P(3, 3), P(3, 4), P(4, 3)]), 500, 3)
        c33 = sample.values[:, sample.column_index(P(3, 3))]
        c34 = sample.values[:, sample.column_index(P(3, 4))]
        c43 = sample.values[:, sample.column_index(P(4, 3))]
        assert np.array_equal(c33, c34)
        assert not np.array_equal(c33, c43)

    def test_values_positive(self, two_pattern_spec, row_region):
        sample = simulate_m4(two_pattern_spec, row_region, 1000, 1)
        assert np.all(sample.values > 0)

    def test_rejects_bad_arguments(self, one_pattern_spec, ring):
        with pytest.raises(ArgumentError):
            simulate_m4(one_pattern_spec, ring, 0, 1)

    def test_marginals_are_unit_frechet(self, one_pattern_spec, ring):
        scipy_stats = pytest.importorskip("scipy.stats")
        n = 10**5
        sample = simulate_m4(one_pattern_spec, Region([P(3, 3), P(4, 3)]), n, 4)
        critical = 1.6276 / math.sqrt(n)  # Kolmogorov critical value, alpha=0.01
        for col in range(2):
            stat = scipy_stats.kstest(
                sample.values[:, col], lambda x: np.exp(-1.0 / x)
            ).statistic
            assert stat < critical

    def test_table_spec_simulation(self):
        spec = M4Spec.from_table(2, 1, 1, {P(0, 0): [[1], [0]], P(1, 0): [[0], [1]]})
        sample = simulate_m4(spec, Region([P(0, 0), P(1, 0)]), 100, 11)
        assert sample.values.shape == (100, 2)

    def test_working_set_is_chunked(self, one_pattern_spec, site, ring):
        n, locations = 200_000, Region([site]).union(ring)
        tracemalloc.start()
        try:
            sample = simulate_m4(one_pattern_spec, locations, n, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # bytes beyond the 3.2 MB output, one row for each of the ring's two weight
        # matrices: one chunk's draws, shift temporary and product (0.4 MB), where a
        # single chunk of all rows peaks near 10 MB
        assert sample._rows.nbytes == n * 2 * 8 == 3_200_000
        assert peak - sample._rows.nbytes < 2_000_000

    def test_grouped_ring_holds_no_location_matrix(self, one_pattern_spec, site, ring):
        # simulation, ranking, the five estimators and both oracles hold the two
        # weight matrices' rows of values and counts, and build no (n, locations)
        # matrix beside them: one would take 14.4 MB
        n, locations = 200_000, Region([site]).union(ring)
        tracemalloc.start()
        try:
            sample = simulate_m4(one_pattern_spec, locations, n, 9)
            scores = rank_transform(sample)
            estimate_summary(scores, ring, site)
            estimate_contagion(scores, ring, site)
            estimate_stability(scores, ring, site)
            estimate_extremal_coefficient(scores, ring)
            estimate_contagion_region(scores, ring, Region([site]))
            for oracle in (empirical_contagion, empirical_stability):
                oracle(sample, ring, site, 0.99, scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = 2 * 2 * n * 8  # two rows of values and two of counts
        assert peak - held < n * len(locations) * 8 == 14_400_000


def traced_peak(call) -> int:
    """The tracemalloc peak of `call()`, in bytes; the result is dropped after."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSets:
    """The per-call figures that the README states, each bounded by a tracemalloc
    peak; `simulate_m4`'s are `TestSimulate.test_working_set_is_chunked` and
    `TestSimulationThreads.test_each_part_holds_one_chunk`."""

    @pytest.mark.parametrize("kind, per_cell", [("tie-free", 32), ("rounded to 0.1", 64)])
    def test_rank(self, kind, per_cell):
        # counts, keys and order take 24 bytes a cell; the value-order fix-up's
        # temporaries take about 37 more where ties are dense (61 in all)
        rows = np.random.default_rng(17).standard_normal((2, 2**18))
        if kind != "tie-free":
            rows = rows.round(1)
        peak = traced_peak(lambda: estimate._rank_rows(rows))
        assert 24 * rows.size < peak < per_cell * rows.size

    def test_a_read_gathers_one_location_matrix(self, one_pattern_spec, site, ring):
        n, locations = 200_000, Region([site]).union(ring)
        sample = simulate_m4(one_pattern_spec, locations, n, 9)
        scores = rank_transform(sample)
        matrix = 8 * len(locations) * n  # 14.4 MB, from 2 rows
        for read in (lambda: sample.values, lambda: scores.rank_counts):
            assert matrix <= traced_peak(read) < matrix + 100_000
        # the float scores of the rows, then their gather
        assert matrix < traced_peak(lambda: scores.scores) < matrix + 8 * 2 * n + 100_000
        own = FieldSample(locations, sample.values)  # one row per location: a view
        assert traced_peak(lambda: own.values) < 100_000

    def test_an_estimator_pass_holds_one_chunk(self, one_pattern_spec, site, ring):
        # a chunk of 2^18 counts (2 MB), whatever the replicate count: one pass over
        # the ungrouped scores at once would hold 14.4 MB
        n, locations = 200_000, Region([site]).union(ring)
        sample = simulate_m4(one_pattern_spec, locations, n, 9)
        for rank in (rank_transform, lambda s: scores_from_matrix(s.values, s.locations)):
            for request in (lambda scores: estimate_summary(scores, ring, site),
                            lambda scores: estimate_contagion_region(scores, ring, Region([site])),
                            lambda scores: estimate_extremal_coefficient(scores, ring)):
                scores = rank(sample)  # with an empty memo
                assert traced_peak(lambda: request(scores)) < 2_500_000


def identical_column_sample(n=400):
    values = np.tile(
        (-1.0 / np.log(np.linspace(0.05, 0.95, n)))[:, None], (1, 3)
    )
    return FieldSample((P(0, 0), P(1, 0), P(2, 0)), values)


class TestEmpiricalContagion:
    def test_identical_columns_give_region_size(self):
        sample = identical_column_sample()
        region = Region([P(1, 0), P(2, 0)])
        assert empirical_contagion(sample, region, P(0, 0), 0.5) == 2.0
        assert empirical_contagion(sample, region, P(0, 0), 0.9) == 2.0

    def test_threshold_above_all_scores_errors(self):
        sample = identical_column_sample(n=100)
        region = Region([P(1, 0), P(2, 0)])
        # max modified-ECDF score is n/(n+1) < 1 - 1e-9
        with pytest.raises(UndefinedConditionalError):
            empirical_contagion(sample, region, P(0, 0), 1 - 1e-9)

    def test_matches_exact_value_loosely(self, one_pattern_spec, site, ring):
        sample = simulate_m4(
            one_pattern_spec, Region([site]).union(ring), 20000, 4
        )
        got = empirical_contagion(sample, ring, site, 0.99)
        assert got == pytest.approx(4.7, abs=0.5)

    def test_rejects_bad_threshold(self):
        sample = identical_column_sample(n=50)
        with pytest.raises(ArgumentError):
            empirical_contagion(sample, Region([P(1, 0)]), P(0, 0), 0.0)


class TestEmpiricalStability:
    def test_identical_columns_have_no_crossings(self):
        sample = identical_column_sample()
        region = Region([P(1, 0), P(2, 0)])
        with pytest.raises(UndefinedConditionalError):
            empirical_stability(sample, region, P(0, 0), 0.5)

    def test_matches_exact_value_loosely(self, one_pattern_spec, site, ring):
        sample = simulate_m4(
            one_pattern_spec, Region([site]).union(ring), 20000, 4
        )
        got = empirical_stability(sample, ring, site, 0.99)
        assert got == pytest.approx(66 / 31, abs=0.4)

    def test_accepts_precomputed_scores(self, one_pattern_spec, site, ring):
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), 5000, 4)
        scores = rank_transform(sample)
        direct = empirical_stability(sample, ring, site, 0.95)
        cached = empirical_stability(sample, ring, site, 0.95, scores)
        assert direct == cached


def loop_scores(sample, scores):
    if scores is None:
        scores = rank_transform(sample)
    if scores.locations != sample.locations:
        raise ArgumentError("scores were computed for different locations")
    return scores.scores


def loop_empirical_contagion(sample, region, site, u, scores=None):
    """Reference contagion oracle: float scores compared with `u`, and the
    region's conditioned rows copied out."""
    if not 0.0 < u < 1.0:
        raise ArgumentError(f"threshold must be in (0,1), got {u}")
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    s = loop_scores(sample, scores)
    site_col = sample.column_index(site)
    region_cols = [sample.column_index(p) for p in region]
    conditioning = s[:, site_col] > u
    m = int(conditioning.sum())
    if m == 0:
        raise UndefinedConditionalError(f"no replicate has a site score above u={u}")
    exceed = s[np.ix_(conditioning, region_cols)] > u
    return float(exceed.sum()) / m


def loop_empirical_stability(sample, region, site, u, scores=None):
    """Reference stability oracle: float scores compared with `u` into an
    (n, |region|) buffer."""
    if not 0.0 < u < 1.0:
        raise ArgumentError(f"threshold must be in (0,1), got {u}")
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    s = loop_scores(sample, scores)
    site_scores = s[:, sample.column_index(site)]
    region_high = np.empty((len(site_scores), len(region)), dtype=bool, order="F")
    for c, p in enumerate(region):
        np.greater(s[:, sample.column_index(p)], u, out=region_high[:, c])
    total_crossings = int(region_high[site_scores <= u].sum())
    if total_crossings == 0:
        raise UndefinedConditionalError(f"no replicate has a crossing at u={u}")
    any_high = int(((site_scores > u) | region_high.any(axis=1)).sum())
    return total_crossings / any_high


def outcome(oracle, *args):
    try:
        value = oracle(*args)
    except Exception as exc:  # the comparison is of the exception itself
        return type(exc), str(exc)
    assert type(value) is float
    return value


def u_grid(n):
    """Every score k/(n+1), k in 0..n+1, and its two float neighbours."""
    for k in range(n + 2):
        u = k / (n + 1)
        yield from (np.nextafter(u, 0.0).item(), u, np.nextafter(u, 1.0).item())


def tie_heavy_sample(n, k=5, seed=0):
    values = np.random.default_rng(seed).integers(1, 4, size=(n, k)).astype(float)
    return FieldSample(tuple(P(x, 0) for x in range(k)), values)


class TestOraclesAgainstLoops:
    """The rank-count oracles return the reference's floats and errors."""

    @staticmethod
    def check(sample, region, site, us, scores=None):
        for u in us:
            for new, old in ((empirical_contagion, loop_empirical_contagion),
                             (empirical_stability, loop_empirical_stability)):
                got = outcome(new, sample, region, site, u, scores)
                assert got == outcome(old, sample, region, site, u, scores), (u, new)

    @pytest.mark.parametrize("name", ["one-pattern", "two-pattern"])
    def test_presets(self, name):
        site = P(3, 3)
        ring = neighbors(site)
        sample = simulate_m4(preset(name), Region([site]).union(ring), 3000, 17)
        scores = rank_transform(sample)
        us = [0.5, 0.9, 0.99, 0.999, 0.9999, 2999 / 3001, 3000 / 3001, 1 - 1e-9]
        for region in (ring, Region([P(4, 3)]), ring.union((site,))):
            self.check(sample, region, site, us)
            self.check(sample, region, site, us, scores)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 301])
    def test_tie_heavy_samples(self, n):
        sample = tie_heavy_sample(n, seed=n)
        scores = rank_transform(sample)
        site, region = P(0, 0), Region([P(3, 0), P(1, 0), P(4, 0)])
        us = [u for u in u_grid(n) if n < 50 or u > 0.9] + [0.5]
        self.check(sample, region, site, us, scores)
        self.check(sample, region.union((site,)), site, us, scores)
        self.check(sample, Region([P(2, 0)]), site, [0.25, 0.5, 0.75])

    def test_scores_of_another_matrix(self):
        # counts that rank no column of the sample: all tied, every count is n
        n = 9
        sample = tie_heavy_sample(n)
        site, region = P(1, 0), Region([P(0, 0), P(2, 0), P(4, 0)])
        scores = scores_from_matrix(np.ones((n, 5)), sample.locations)
        assert scores.rank_counts.tolist() == [[n] * 5] * n
        self.check(sample, region, site, u_grid(n), scores)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_score_and_its_neighbours(self, n):
        sample = tie_heavy_sample(n, seed=100 + n)
        scores = rank_transform(sample)
        self.check(sample, Region([P(1, 0), P(2, 0), P(3, 0)]), P(0, 0), u_grid(n), scores)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_integer_threshold(self, n):
        # row g holds the count g - 2 for every replicate: every count in -2..n+1;
        # with two copies, every row is the row of two locations
        rows = np.repeat(np.arange(-2, n + 2)[:, None], n, axis=1)
        for copies in (1, 2):
            locations = tuple(P(j, 0) for j in range(copies * (n + 4)))
            sample = FieldSample(locations, np.ones((n, len(locations))))
            row_of = [c // copies for c in range(len(locations))]
            scores = UniformScores._of_rows(locations, rows.copy(), row_of)
            self.check_threshold(sample, scores, n)

    @staticmethod
    def check_threshold(sample, scores, n):
        """Every point's comparison, read through its row of the scores, is its
        float scores above `u`; each distinct row comes once, with the number of
        region points that it holds."""
        site, region = sample.locations[0], Region(sample.locations[1:])
        column = {p: scores._row_of[sample.column_index(p)] for p in (site, *region)}
        distinct = list(dict.fromkeys(column[p] for p in region))
        for u in u_grid(n):
            if not 0.0 < u < 1.0:
                continue
            site_high, region_high = estimate._exceedances(sample, region, site, u, scores)
            region_high = list(region_high)
            assert [mult for _, mult in region_high] == [
                sum(column[p] == c for p in region) for c in distinct
            ]
            high_of = dict(zip(distinct, (high for high, _ in region_high)))
            high_of.setdefault(column[site], site_high)
            assert np.array_equal(site_high, high_of[column[site]])
            for p in (site, *region):
                assert np.array_equal(
                    high_of[column[p]], scores.scores[:, sample.column_index(p)] > u
                )

    def test_other_real_thresholds(self):
        sample = tie_heavy_sample(30)
        scores = rank_transform(sample)
        us = [Fraction(1, 2), Fraction(20, 31), np.float32(0.6), np.float64(20 / 31)]
        self.check(sample, Region([P(1, 0), P(2, 0)]), P(0, 0), us, scores)

    def test_unknown_region_point_before_undefined(self):
        sample = identical_column_sample(n=100)
        region = Region([P(1, 0), P(9, 9)])
        for oracle in (empirical_contagion, empirical_stability):
            with pytest.raises(ArgumentError, match=r"not in sample"):
                oracle(sample, region, P(0, 0), 1 - 1e-9)
        self.check(sample, region, P(0, 0), [1 - 1e-9, 0.5])

    def test_float_scores_are_built_only_when_read(self, monkeypatch):
        sample = tie_heavy_sample(40)
        scores = rank_transform(sample)
        site, region = P(0, 0), Region([P(1, 0), P(2, 0)])
        monkeypatch.setattr(
            UniformScores, "scores", property(lambda self: pytest.fail("scores read"))
        )
        for scores_arg in (None, scores):
            empirical_contagion(sample, region, site, 0.5, scores_arg)
            empirical_stability(sample, region, site, 0.5, scores_arg)
        estimate_summary(scores, region, site)
        estimate_contagion(scores, region, site)
        estimate_stability(scores, region, site)
        monkeypatch.undo()
        first = scores.scores
        assert scores.scores is not first  # built on each read, never kept
        assert np.array_equal(first, scores.rank_counts / 41)
        assert first.flags.f_contiguous and not first.flags.writeable

    def test_scores_of_any_dtype_hold_integer_counts(self):
        # the oracles compare integer counts with an integer threshold: ranking gives
        # int64 counts whatever the matrix's dtype
        sample = FieldSample((P(0, 0), P(1, 0)), np.ones((2, 2)))
        scores = scores_from_matrix(np.array([[1.5, 1.5], [0.5, 0.5]]), sample.locations)
        assert scores.rank_counts.tolist() == [[2, 2], [1, 1]]
        self.check(sample, Region([P(1, 0)]), P(0, 0), u_grid(2), scores)
        for dtype in (np.float32, bool, np.int8, np.uint8, np.int32, np.uint64):
            scores = scores_from_matrix(np.full((2, 2), 2, dtype=dtype), sample.locations)
            assert scores._rows.dtype == np.int64 and scores.n == 2


class TestSharedRowRules:
    """Both holders refuse, in this order, rows without a replicate, a row index
    count that is not the location count, no location and a location twice;
    then the sample's cell rule.  The scores' rows come from ranking and have no cell
    rule.  The rows they keep are frozen."""

    HOLDERS = {
        FieldSample: ("sample", np.ones, np.zeros,
                      "replicate 0, location (0,0): field value must be positive and finite, "
                      "got 0.0"),
        UniformScores: ("scores", lambda shape: np.ones(shape, np.int64), np.zeros, None),
    }

    @pytest.mark.parametrize("holder", [FieldSample, UniformScores])
    def test_first_error(self, holder):
        name, good, bad, cell_problem = self.HOLDERS[holder]
        a, b = P(0, 0), P(1, 0)
        for locations, rows, row_of, problem in (
            ((a, a), bad((1, 0)), (0,), "need at least one replicate"),
            ((), bad((1, 2)), (0,), "1 columns for 0 locations"),
            ((a, a), bad((1, 2)), (0,), "1 columns for 2 locations"),
            ((), bad((0, 2)), (), "need at least one location"),
            ((a, a), bad((1, 2)), (0, 0), f"duplicate locations in {name}"),
            ((a, b), bad((1, 2)), (0, 0), cell_problem),
        ):
            if problem is None:
                assert holder._of_rows(locations, rows, row_of)._rows is rows
                continue
            with raises_exactly(ArgumentError, problem):
                holder._of_rows(locations, rows, row_of)
        rows = good((1, 2))
        assert holder._of_rows((a, b), rows, (0, 0))._rows is rows and not rows.flags.writeable


def grouped_tie_heavy_sample(n, seed=0):
    """Small integers (many ties) in three distinct rows, each the row of
    several locations, as simulation holds locations that share a matrix."""
    row_of = (0, 1, 0, 2, 1, 0)
    rows = np.random.default_rng(seed).integers(1, 4, size=(n, 3)).astype(float).T.copy()
    return FieldSample._of_rows(tuple(P(x, 0) for x in range(len(row_of))), rows, row_of)


class TestGroupedOracles:
    """On a sample whose locations share rows, the oracles read one row per
    distinct column and return the floats and errors of the same values with
    a row per location."""

    @staticmethod
    def check(sample, region, site, us):
        plain = FieldSample(sample.locations, sample.values)
        scores, plain_scores = rank_transform(sample), scores_from_matrix(
            sample.values, sample.locations
        )
        assert len(scores._rows) == len(sample._rows) < len(sample.locations)
        assert len(plain._rows) == len(plain_scores._rows) == len(sample.locations)
        assert np.array_equal(scores.rank_counts, plain_scores.rank_counts)
        for u in us:
            for oracle in (empirical_contagion, empirical_stability):
                got = outcome(oracle, sample, region, site, u, scores)
                assert got == outcome(oracle, plain, region, site, u, plain_scores), u
        for u in us[:: max(1, len(us) // 8)]:  # ranked by the oracle itself
            for oracle in (empirical_contagion, empirical_stability):
                got = outcome(oracle, sample, region, site, u)
                assert got == outcome(oracle, plain, region, site, u), u

    @pytest.mark.parametrize("name", ["one-pattern", "two-pattern"])
    def test_presets(self, name):
        # one-pattern: the site (3,3) shares a weight matrix with (3,2) and (3,4)
        site = P(3, 3)
        ring = neighbors(site)
        sample = simulate_m4(preset(name), Region([site]).union(ring), 200, 23)
        us = list(u_grid(200))
        for region in (ring, Region([P(3, 4)]), Region([P(4, 3), P(3, 2)]),
                       ring.union((site,))):
            self.check(sample, region, site, us)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50])
    def test_tie_heavy_samples(self, n):
        sample = grouped_tie_heavy_sample(n, seed=n)
        points = sample.locations
        for site in (points[0], points[3]):
            for region in (Region(points[1:]), Region([points[2], points[5]]),
                           Region(points), Region([points[4]])):
                self.check(sample, region, site, list(u_grid(n)))


class TestCsvRoundTrip:
    def test_export_and_read_back(self, one_pattern_spec, tmp_path):
        sample = simulate_m4(one_pattern_spec, Region([P(3, 3), P(4, 3)]), 25, 9)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        meta = json.loads(meta_path.read_text())
        assert meta["seed"] == 9
        assert meta["n"] == 25
        assert meta["spec_fingerprint"] == one_pattern_spec.fingerprint()
        back = read_sample_csv(csv_path, meta_path)
        assert back.locations == sample.locations
        assert np.array_equal(back.values, sample.values)
        assert back.seed == 9
        assert back.spec_fingerprint == one_pattern_spec.fingerprint()

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rep,x,y,value\n0,0,0,1.0\n")
        with pytest.raises(ParseError):
            read_sample_csv(path)

    def test_read_rejects_nonpositive_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("replicate,x,y,value\n0,0,0,-1.0\n")
        with pytest.raises(ParseError):
            read_sample_csv(path)

    def test_read_rejects_ragged_replicates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "replicate,x,y,value\n0,0,0,1.0\n0,1,0,2.0\n1,0,0,3.0\n"
        )
        with pytest.raises(ParseError):
            read_sample_csv(path)


class TestFieldSampleInvariants:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(ArgumentError):
            FieldSample((P(0, 0),), np.array([[0.0]]))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -5e-324, math.inf, -math.inf, math.nan])
    def test_names_first_cell_that_is_not_positive_and_finite(self, bad):
        # the first in replicate order, then location order, as the readers meet it
        values = np.full((3, 3), 2.0)
        values[2, 0] = values[1, 2] = bad
        values[1, 1] = 1.7976931348623157e308
        values[0, 0] = 5e-324
        message = f"replicate 1, location (5,0): field value must be positive and finite, got {bad}"
        for layout in (values, np.asfortranarray(values)):
            with raises_exactly(ArgumentError, message):
                FieldSample((P(3, 0), P(4, 0), P(5, 0)), layout)

    def test_names_the_first_location_that_reads_a_bad_row(self):
        # the first bad cell in replicate order, at the first location of its row
        rows = np.array([[2.0, 2.0, -5.0], [2.0, -1.0, 2.0]])
        message = "replicate 1, location (0,0): field value must be positive and finite, got -1.0"
        with raises_exactly(ArgumentError, message):
            FieldSample._of_rows((P(0, 0), P(1, 0), P(2, 0)), rows, (1, 0, 0))

    def test_rejects_zero_locations(self):
        with raises_exactly(ArgumentError, "need at least one location"):
            FieldSample((), np.empty((3, 0)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            FieldSample((P(0, 0),), np.array([[1.0, 2.0]]))

    def test_rejects_values_that_are_not_2d(self):
        message = "values must be a 2-d array (replicates x locations)"
        with raises_exactly(ArgumentError, message):
            FieldSample((P(0, 0),), np.array([1.0]))

    def test_rejects_zero_replicates(self):
        with raises_exactly(ArgumentError, "need at least one replicate"):
            FieldSample((P(0, 0),), np.empty((0, 1)))

    def test_rejects_duplicate_locations(self):
        with raises_exactly(ArgumentError, "duplicate locations in sample"):
            FieldSample((P(0, 0), P(0, 0)), np.ones((2, 2)))

    @pytest.mark.parametrize("fields, problem", [
        ({"seed": "abc"}, "'seed' must be an integer, got 'abc'"),
        ({"seed": True}, "'seed' must be an integer, got True"),
        ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
        ({"seed": 1, "spec_fingerprint": 7}, "'spec_fingerprint' must be a string, got 7"),
        ({"spec_fingerprint": ["f"]}, "'spec_fingerprint' must be a string, got ['f']"),
    ])
    def test_refuses_provenance_the_sidecar_refuses(self, tmp_path, fields, problem):
        # the constructor's text is the sidecar reader's, for the same provenance
        with raises_exactly(ArgumentError, problem):
            FieldSample((P(0, 0),), np.ones((2, 1)), **fields)
        csv_path, meta_path = export_sample(FieldSample((P(0, 0),), np.ones((2, 1))),
                                            tmp_path / "s.csv")
        meta_path.write_text(json.dumps(fields))
        with raises_exactly(ParseError, f"metadata {meta_path}: {problem}"):
            read_sample_csv(csv_path, meta_path)

    @pytest.mark.parametrize("seed, fingerprint", [(None, None), (0, ""), (-3, "f00d"),
                                                   (2**70, None)])
    def test_held_provenance_reads_back(self, tmp_path, seed, fingerprint):
        sample = FieldSample((P(0, 0),), np.ones((2, 1)), seed, fingerprint)
        back = read_sample_csv(*export_sample(sample, tmp_path / "s.csv"))
        assert (back.seed, back.spec_fingerprint) == (seed, fingerprint)

    def test_provenance_rule_runs_where_provenance_arrives(self, monkeypatch, one_pattern_spec,
                                                          tmp_path):
        # once for the public constructor and once for a sidecar; never for a builder
        calls = []
        real = simulate._provenance
        monkeypatch.setattr(simulate, "_provenance", lambda *args: calls.append(1) or real(*args))
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 5, 1)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        read_sample_csv(csv_path)
        assert calls == []
        read_sample_csv(csv_path, meta_path)
        FieldSample(sample.locations, sample.values, sample.seed, sample.spec_fingerprint)
        assert calls == [1, 1]

    def test_values_read_only(self, one_pattern_spec):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0)]), 5, 1)
        with pytest.raises(ValueError):
            sample.values[0, 0] = 3.0

    def test_view_of_writable_base_is_copied(self):
        base = np.ones((3, 2))
        sample = FieldSample((P(0, 0), P(1, 0)), base[:])
        base[0, 0] = -5.0
        assert sample.values.tolist() == [[1.0, 1.0]] * 3
        assert rank_transform(sample).rank_counts.tolist() == [[3, 3]] * 3
        assert not sample.values.flags.writeable

    def test_frozen_values_are_copied(self):
        frozen = np.ones((2, 3))
        frozen.setflags(write=False)
        view = frozen.T
        values = FieldSample((P(0, 0), P(1, 0)), view).values
        assert values is not view and not np.shares_memory(values, frozen)
        assert values.tolist() == view.tolist() and not values.flags.writeable

    @pytest.mark.parametrize("build, dtype", [
        (lambda a: FieldSample((P(0, 0), P(1, 0)), a).values, np.float64),
        (lambda a: StationDataset((Station("a"), Station("b")), (1, 2, 3), a).maxima,
         np.float64),
        (lambda a: scores_from_matrix(a, (P(0, 0), P(1, 0))).rank_counts, np.int64),
    ], ids=["FieldSample", "StationDataset", "scores_from_matrix"])
    def test_view_made_before_construction_cannot_change_values(self, build, dtype):
        owned = np.full((3, 2), 3, dtype=dtype)  # all tied: counts of some column too
        view = owned[:]
        kept = build(owned)
        assert kept is not owned and not kept.flags.writeable
        view[0, 0] = 5
        owned[1, 1] = 7  # the caller's array stays writable
        assert kept.tolist() == [[3, 3]] * 3

    def test_every_source_is_copied(self):
        single = np.ones((3, 2), dtype=np.float32)
        for source in ([[1.0, 2.0]] * 3, ((1, 2), (3, 4)), single, np.ones((3, 2)),
                       np.ones((2, 3)).T):
            sample = FieldSample((P(0, 0), P(1, 0)), source)
            rows = sample._rows  # one row per location, owned by the sample
            assert rows.base is None and rows.flags.c_contiguous and not rows.flags.writeable
            assert sample.values.base is rows and sample.values.flags.f_contiguous
            assert sample.values.tolist() == np.asarray(source, dtype=float).tolist()
            if isinstance(source, np.ndarray):
                assert source.flags.writeable  # the caller's array is not frozen
        single[0, 0] = 5.0
        assert sample.values.tolist() == [[1.0, 1.0]] * 3

    def test_read_rows_are_handed_over(self, one_pattern_spec, tmp_path):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 4, 1)
        path = tmp_path / "s.csv"
        simulate.write_sample_csv(sample, path)
        lines = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"  # not the writer's row order: read row by row
        shuffled.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        for csv_path in (path, shuffled):
            got = read_sample_csv(csv_path)
            rows = got._rows  # the reader's own array, one row per location
            assert rows.base is None and rows.shape == (2, 4), csv_path
            assert rows.flags.c_contiguous and not rows.flags.writeable
            assert got._row_of == (0, 1) and got.values.base is rows
            columns = [got.column_index(p) for p in sample.locations]
            assert np.array_equal(got.values[:, columns], sample.values)

    def test_simulated_rows_are_handed_over(self, one_pattern_spec):
        # simulate_m4's own buffer, one row per distinct weight matrix
        points = [P(3, 3), P(3, 4), P(4, 3)]  # (3, 3) and (3, 4) share a matrix
        sample = simulate_m4(one_pattern_spec, Region(points), 7, 1)
        rows = sample._rows
        assert rows.base is None and rows.shape == (2, 7)
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert sample._row_of == (0, 0, 1)


class TestRowIndex:
    """Each location reads its row of the sample; only simulation shares rows."""

    def test_simulated_rows_follow_shared_matrices(self, one_pattern_spec):
        points = [P(3, 3), P(4, 3), P(3, 4), P(2, 2), P(5, 3)]
        sample = simulate_m4(one_pattern_spec, Region(points), 50, 3)
        row_of = sample._row_of
        assert len(row_of) == len(points) and len(sample._rows) == len(set(row_of)) < len(points)
        assert list(dict.fromkeys(row_of)) == list(range(len(sample._rows)))  # first use
        for a in range(len(points)):
            for b in range(len(points)):
                same = np.array_equal(sample.values[:, a], sample.values[:, b])
                assert same == (row_of[a] == row_of[b])

    def test_hand_built_sample_has_a_row_per_location(self):
        sample = FieldSample((P(0, 0), P(1, 0)), np.ones((3, 2)))
        assert sample._row_of == (0, 1) and sample._rows.shape == (2, 3)
        with pytest.raises(TypeError):
            FieldSample((P(0, 0),), np.ones((3, 1)), _row_of=(0,))
        with pytest.raises(AttributeError, match="FieldSample is immutable"):
            sample.seed = 3

    def test_csv_read_sample_has_a_row_per_location(self, one_pattern_spec, tmp_path):
        sample = simulate_m4(one_pattern_spec, Region([P(3, 3), P(3, 5)]), 5, 9)
        assert sample._row_of == (0, 0)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        assert read_sample_csv(csv_path, meta_path)._row_of == (0, 1)

    def test_shared_values_are_built_on_each_read(self, one_pattern_spec):
        sample = simulate_m4(one_pattern_spec, Region([P(3, 3), P(3, 4), P(4, 3)]), 6, 2)
        first = sample.values
        assert sample.values is not first and np.array_equal(sample.values, first)
        assert not np.shares_memory(first, sample._rows)  # one gather
        assert first.flags.f_contiguous and not first.flags.writeable
        assert [first[:, c].tolist() for c in range(3)] == sample._rows[[0, 0, 1]].tolist()


def cube_simulation(spec, points, n, seed):
    """Reference simulation with one weight slice per location.

    Builds the (locations, patterns, lags) weight cube and takes every
    location's maximum directly, drawing all rows in one block.
    """
    weights = np.array(
        [[[float(w) for w in row] for row in spec.patterns_at(p)] for p in points]
    )
    _, n_patterns, lag_count = weights.shape
    z = frechet_block(seed & U64_MASK, 0, n * n_patterns * lag_count)
    z = z.reshape(n, 1, n_patterns, lag_count)
    return np.max(weights[None] * z, axis=(2, 3))


class TestSharedColumnOracle:
    """Sharing one column among equal-weight locations changes no bit."""

    ROWS_PER_CHUNK = 7
    N = 3 * ROWS_PER_CHUNK + 4  # three full chunks and a partial one

    def check(self, monkeypatch, spec, points, seed=2024):
        # a chunk allocates 2 * slots + 2 * distinct matrices floats per row
        slots, distinct = spec.n_patterns * spec.lag_count, len(set(map(spec.matrix_index, points)))
        per_row = 2 * slots + 2 * distinct
        monkeypatch.setattr(simulate, "_CACHE_ELEMENTS", self.ROWS_PER_CHUNK * per_row)
        chunks = []
        real_uniform_block = rng.uniform_block

        def counting_uniform_block(seed, start, count):
            chunks.append(count)
            return real_uniform_block(seed, start, count)

        monkeypatch.setattr(rng, "uniform_block", counting_uniform_block)
        got = simulate_m4(spec, Region(points), self.N, seed).values
        assert chunks == [self.ROWS_PER_CHUNK * slots] * 3 + [4 * slots]
        assert got.flags.f_contiguous and not got.flags.writeable  # column-major
        assert np.array_equal(got, cube_simulation(spec, points, self.N, seed))

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", ["one-pattern", "two-pattern"])
    def test_presets(self, monkeypatch, name, exact):
        spec = preset(name) if exact else preset(name).as_float()
        domain = spec.domain_points()
        ring = list(neighbors(P(3, 3)))
        self.check(monkeypatch, spec, ring)
        self.check(monkeypatch, spec, list(reversed(domain[:50])), seed=2**64 + 9)
        self.check(monkeypatch, spec, list(domain), seed=5)

    @pytest.mark.parametrize("exact", [True, False])
    def test_table_with_repeated_matrices(self, monkeypatch, exact):
        spec = table_spec(distinct_count=3)
        spec = spec if exact else spec.as_float()
        assert len(spec.matrices) == 3
        points = spec.domain_points()
        self.check(monkeypatch, spec, list(points))
        self.check(monkeypatch, spec, [points[5], points[0], points[3], points[4]])

    @pytest.mark.parametrize("exact", [True, False])
    def test_all_distinct_table(self, monkeypatch, exact):
        spec = table_spec(distinct_count=12)
        spec = spec if exact else spec.as_float()
        assert len(spec.matrices) == 12
        self.check(monkeypatch, spec, list(reversed(spec.domain_points())))

    def test_one_slot_spec(self, monkeypatch):
        # K = 1: the product of the only slot is the maximum
        spec = M4Spec.from_table(
            1, 1, 1, {P(0, 0): [[1]], P(1, 0): [[1.0]], P(0, 1): [[1]]}
        )
        assert (spec.n_patterns, spec.lag_count) == (1, 1)
        points = list(spec.domain_points())
        self.check(monkeypatch, spec, points)
        self.check(monkeypatch, spec, points[::-1], seed=-3)

    def test_zero_and_negative_zero_weights(self, monkeypatch):
        # K = 6; the running maximum starts from +-0 products in most columns
        z, nz = 0.0, -0.0
        matrices = [
            [[nz, 0.5], [z, 0.25], [0.25, nz]],
            [[z, nz], [nz, z], [nz, 1.0]],
            [[nz, nz], [0.5, nz], [nz, 0.5]],
            [[z, z], [z, 0.75], [0.25, z]],
            [[1 / 6] * 2] * 3,
        ]
        points = [P(x, 0) for x in range(7)]
        spec = M4Spec.from_table(
            3, 1, 2, {p: matrices[i % len(matrices)] for i, p in enumerate(points)}
        )
        assert len(spec.matrices) == len(matrices)
        assert (spec.n_patterns, spec.lag_count) == (3, 2)
        self.check(monkeypatch, spec, points)
        self.check(monkeypatch, spec, [points[6], points[1], points[2]], seed=77)


class TestSplitSimulation:
    """From `_SPLIT_CELLS` draws on, `simulate_m4` fills contiguous parts of its
    replicates, one per usable CPU and at most one per chunk of 4x the serial
    budget; the rows are those of the serial path, byte for byte.  These tests
    shrink the budget and the cut-off and run the other parts' threads on the
    calling thread."""

    ROWS_PER_CHUNK = 7  # a serial chunk; a part's chunk is 28 rows

    @pytest.fixture
    def split(self, monkeypatch):
        """Sets the usable CPUs for the next simulations; returns the threads they
        start and the draw count of each `uniform_block` call."""
        started, calls = [], []

        class SerialThread(threading.Thread):  # run in `join`, as `threads_for`'s stand-ins
            def start(self):
                started.append(self)

            def join(self, timeout=None):
                self.run()

        real_uniform_block = rng.uniform_block

        def counting_uniform_block(seed, start, count):
            calls.append(count)
            return real_uniform_block(seed, start, count)

        monkeypatch.setattr(simulate, "_SPLIT_CELLS", 1)
        monkeypatch.setattr(threading, "Thread", SerialThread)
        monkeypatch.setattr(rng, "uniform_block", counting_uniform_block)

        def set_cpus(cpus):
            use_cpus(monkeypatch, cpus)
            started.clear()
            calls.clear()
            return started, calls

        return set_cpus

    def check(self, monkeypatch, split, spec, points, n, cpus, seed=29):
        slots, distinct = spec.n_patterns * spec.lag_count, len(set(map(spec.matrix_index, points)))
        monkeypatch.setattr(simulate, "_CACHE_ELEMENTS",
                            self.ROWS_PER_CHUNK * (2 * slots + 2 * distinct))
        started, calls = split(1)
        one = simulate_m4(spec, Region(points), n, seed)._rows
        assert started == [] and calls == self.chunks(n, self.ROWS_PER_CHUNK, slots)
        started, calls = split(cpus)
        part_rows = 4 * self.ROWS_PER_CHUNK
        parts = min(-(-n // part_rows), cpus)
        split_rows = simulate_m4(spec, Region(points), n, seed)._rows
        assert len(started) == parts - 1
        # each part draws in chunks of its own, from its first replicate; one part
        # keeps the serial chunks
        cuts = [n * p // parts for p in range(parts + 1)]
        rows = part_rows if parts > 1 else self.ROWS_PER_CHUNK
        expected = [self.chunks(b - a, rows, slots) for a, b in zip(cuts, cuts[1:])]
        assert calls == list(itertools.chain(*expected))  # caller first, then the pool's
        assert split_rows.dtype == one.dtype and split_rows.tobytes() == one.tobytes()
        if cpus > 1 and n > part_rows:
            assert parts > 1 and any(a % part_rows for a in cuts[1:-1])  # seams inside chunks

    @staticmethod
    def chunks(n, rows, slots):
        return [min(rows, n - r0) * slots for r0 in range(0, n, rows)]

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("n", [1, 27, 29, 50, 101, 250])
    def test_ring_parts_match_one_part(self, monkeypatch, split, site, ring, exact, cpus, n):
        # 50 on 2 CPUs and 101 on 64 are fewer rows than parts x chunk; 101 and 250
        # put every seam inside a chunk
        spec = preset("one-pattern") if exact else preset("one-pattern").as_float()
        self.check(monkeypatch, split, spec, [site, *ring], n, cpus)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("cpus", [2, 3, 64])
    @pytest.mark.parametrize("n", [29, 101, 250])
    def test_domain_subset_parts_match_one_part(self, monkeypatch, split, exact, cpus, n):
        spec = preset("two-pattern") if exact else preset("two-pattern").as_float()
        points = list(reversed(spec.domain_points()[:40]))
        assert len(set(map(spec.matrix_index, points))) == 2
        self.check(monkeypatch, split, spec, points, n, cpus, seed=2**64 + 5)


class TestSimulationThreads:
    """At the real cut-off and budget: at most min(chunks, usable CPUs) - 1 threads,
    every one joined when `simulate_m4` returns or raises."""

    @pytest.mark.parametrize("cpus, threads", [(2, 1), (1, 0)])
    def test_ring_at_the_cut_off(self, started, monkeypatch, one_pattern_spec, site, ring,
                                 cpus, threads):
        use_cpus(monkeypatch, cpus)
        n = simulate._SPLIT_CELLS // 2  # the ring draws 2 per replicate
        locations = Region([site]).union(ring)
        sample = simulate_m4(one_pattern_spec, locations, n, 3)
        assert len(started) == threads
        assert not any(thread.is_alive() for thread in started)
        started.clear()
        below = simulate_m4(one_pattern_spec, locations, n - 1, 3)
        assert started == []
        assert below._rows.tobytes() == sample._rows[:, : n - 1].tobytes()  # prefix-stable

    def test_study_and_domain_start_no_thread(self, started, monkeypatch, two_pattern_spec):
        use_cpus(monkeypatch, 64)
        spec = table_spec(distinct_count=9, n_points=9)
        site, *region = spec.domain_points()
        monte_carlo_study(spec, Region(region), site, 2, 1000, 4)
        simulate_m4(two_pattern_spec, two_pattern_spec.domain_points(), 1000, 4)
        assert len(two_pattern_spec.domain_points()) == 441
        assert started == []

    @pytest.mark.parametrize("n", [1, 10**6, 2**16 + 3])
    def test_one_runner_call(self, monkeypatch, one_pattern_spec, site, ring, n):
        # at most one part per 2^18-float chunk: the ring allocates 2 * 2 + 2 * 2 floats
        # per replicate and draws 2
        calls, real = [], simulate._in_parts

        def spy(work, total, most, cells):
            calls.append((total, most, cells))
            real(work, total, most, cells)

        monkeypatch.setattr(simulate, "_in_parts", spy)
        use_cpus(monkeypatch, 2)
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), n, 6)
        assert calls == [(n, -(-n // 2**15), 2 * n)]
        assert sample._rows.shape == (2, n)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_each_part_holds_one_chunk(self, started, monkeypatch, one_pattern_spec, site,
                                       ring, cpus):
        # a part's chunk of 2^18 floats (draws, shift temporary and product) peaked
        # near 2.7 MB; a part that allocated its whole slice at once would take 32 MB
        # on 2 CPUs
        use_cpus(monkeypatch, cpus)
        threads_for(monkeypatch, started, cpus)
        n, locations = 10**6, Region([site]).union(ring)
        tracemalloc.start()
        try:
            sample = simulate_m4(one_pattern_spec, locations, n, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(started) == cpus - 1
        assert sample._rows.nbytes == n * 2 * 8
        assert peak - sample._rows.nbytes < cpus * 3_000_000


class TestInParts:
    """`_in_parts(work, total, most, cells)`, the one runner that splits work over the
    usable CPUs: `work(a, b)` over contiguous ranges that cover `range(total)`, one
    range below `_SPLIT_CELLS` cells and else at most min(`most`, CPUs), the first on
    the calling thread and the others on a thread pool.  It joins every thread it
    started, and raises a worker's exception in range order.  These tests run a toy
    `work`."""

    CUT = simulate._SPLIT_CELLS

    def ranges(self, total, most, cells=CUT, work=lambda a, b: None, running=(), hold=True):
        """The ranges that `work` was called with, in order, each with whether it ran on
        the calling thread, and not in a stand-in thread of `running` (`threads_for`);
        checks that no thread is left running.  With `hold`, the other ranges wait for
        the caller's to start, which the runner reaches once it has submitted them all:
        no worker of the pool is idle at a submit, so each range takes a thread."""
        ran, caller, before = [], threading.current_thread(), threading.active_count()
        caller_started = threading.Event()

        def recording_work(a, b):
            ran.append((a, b, threading.current_thread() is caller and not running))
            if not a:
                caller_started.set()
            elif hold:
                caller_started.wait()
            work(a, b)

        try:
            simulate._in_parts(recording_work, total, most, cells)
        finally:
            assert threading.active_count() == before
        return sorted(ran)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("total, most", [(2, 2), (7, 3), (10, 10), (1000, 5), (1000, 100)])
    def test_ranges_cover_the_total(self, started, monkeypatch, cpus, total, most):
        use_cpus(monkeypatch, cpus)
        parts = min(most, cpus)
        ran = self.ranges(total, most, running=threads_for(monkeypatch, started, parts))
        cuts = [total * p // parts for p in range(parts + 1)]
        assert ran == [(a, b, a == 0) for a, b in zip(cuts, cuts[1:])]
        assert all(a < b for a, b, _ in ran)
        assert len(started) == parts - 1
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("total, most, cells, cpus", [
        (1000, 100, CUT - 1, 64),  # below the cut-off
        (10**6, 1, 10**6, 64),  # one range at most
        (1, 1, CUT, 64),
        (1000, 100, CUT, 1),  # one CPU
    ])
    def test_a_lone_range_starts_no_thread(self, started, monkeypatch, total, most, cells,
                                           cpus):
        use_cpus(monkeypatch, cpus)
        assert self.ranges(total, most, cells) == [(0, total, True)]
        assert started == []

    def test_small_work_looks_up_no_cpus(self, monkeypatch):
        def no_lookup(*args):
            raise AssertionError("CPUs looked up")

        monkeypatch.setattr(os, "sched_getaffinity", no_lookup, raising=False)
        monkeypatch.setattr(os, "cpu_count", no_lookup)
        assert self.ranges(10, 10, self.CUT - 1) == [(0, 10, True)]
        assert self.ranges(10, 1) == [(0, 10, True)]

    @pytest.mark.parametrize("cpu_count, parts", [(64, 3), (2, 2), (1, 1), (None, 1)])
    def test_cpu_count_without_affinity(self, started, monkeypatch, cpu_count, parts):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        running = threads_for(monkeypatch, started, parts)
        assert len(self.ranges(9, 3, running=running)) == parts
        assert len(started) == parts - 1

    def test_a_worker_exception_is_raised_by_the_caller(self, started, monkeypatch):
        class WorkerError(Exception):
            pass

        def fails(a, b):
            if a:
                raise WorkerError("in a worker")

        use_cpus(monkeypatch, 3)
        threads_for(monkeypatch, started, 3)
        with raises_exactly(WorkerError, "in a worker"):
            self.ranges(3, 3, work=fails)
        assert len(started) == 2 and not any(thread.is_alive() for thread in started)

    def test_workers_are_joined_when_the_caller_raises(self, started, monkeypatch):
        class CallerError(Exception):
            pass

        finished = []

        def fails(a, b):
            if not a:
                raise CallerError
            time.sleep(0.05)
            finished.append(a)

        use_cpus(monkeypatch, 3)
        threads_for(monkeypatch, started, 3)
        with pytest.raises(CallerError):
            self.ranges(3, 3, work=fails)
        assert sorted(finished) == [1, 2]

    def test_started_threads_are_joined_when_a_start_fails(self, started, monkeypatch):
        counting_start, finished = threading.Thread.start, []

        def second_start_fails(thread):
            if started:
                raise RuntimeError("can't start new thread")
            counting_start(thread)

        def work(a, b):
            time.sleep(0.05)
            finished.append(a)

        monkeypatch.setattr(threading.Thread, "start", second_start_fails)
        use_cpus(monkeypatch, 3)
        with raises_exactly(RuntimeError, "can't start new thread"):
            self.ranges(3, 3, work=work, hold=False)  # the caller's range never starts
        assert len(started) == 1 and not started[0].is_alive()
        assert finished == [1, 2]  # the started thread ran both; the caller's never ran


def sha256_of(array, dtype):
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


class TestReferenceDigests:
    """Bits recorded from the row-major, argsort-ranking build: every numpy
    version must give them.  numpy 1.x's value-based casting would turn a
    `uint64` mixed with a Python or `int64` integer into `float64`."""

    def test_ring_sample_and_counts(self, one_pattern_spec, site, ring):
        sample = simulate_m4(one_pattern_spec, Region([site]).union(ring), 2**16 + 3, seed=1)
        assert sha256_of(sample.values, "<f8") == (
            "ee94db0b40f6056fdc05e339b657011e3e4eb8ad772bac4c4189e0dcb292dbbf"
        )
        assert sha256_of(rank_transform(sample).rank_counts, "<i8") == (
            "05796bf57a4e50210f17f2b26944facfc72fb7a109121c127a6b0e0574f03e1a"
        )

    def test_uniform_span_across_a_ring_chunk_boundary(self, one_pattern_spec, site, ring):
        # 466032 is a ring chunk boundary of an earlier budget (2^22 rows x
        # locations x slots); a draw's bits do not depend on the chunking
        assert sha256_of(uniform_block(1, 466032 - 2048, 4096), "<f8") == (
            "74f3f7b8e06d0e2a4dd3f8cae5a7fe2dc20cc802de4cfa25b510e8eeff959e51"
        )
        draws = one_pattern_spec.n_patterns * one_pattern_spec.lag_count
        distinct = len({one_pattern_spec.matrix_index(p) for p in [site, *ring]})
        boundary = simulate._CACHE_ELEMENTS // (2 * draws + 2 * distinct) * draws
        assert boundary == 16384
        assert sha256_of(uniform_block(1, boundary - 2048, 4096), "<f8") == (
            "b4dddd2f75110034b5ff2cf7fbabc358a8da25039a63b049aeee91111d2b82ac"
        )


class TestOracleArguments:
    @pytest.mark.parametrize("oracle", [empirical_contagion, empirical_stability])
    def test_scores_ranked_for_other_locations(self, oracle, one_pattern_spec):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 20, 1)
        other = simulate_m4(one_pattern_spec, Region([P(1, 0), P(0, 0)]), 20, 1)
        message = "scores were computed for different locations"
        with raises_exactly(ArgumentError, message):
            oracle(sample, Region([P(1, 0)]), P(0, 0), 0.5, rank_transform(other))

    @pytest.mark.parametrize("oracle", [empirical_contagion, empirical_stability])
    def test_scores_ranked_for_another_sample_size(self, oracle, one_pattern_spec):
        points = Region([P(0, 0), P(1, 0)])
        sample = simulate_m4(one_pattern_spec, points, 50, 1)
        for n in (60, 40):
            other = rank_transform(simulate_m4(one_pattern_spec, points, n, 2))
            message = f"scores were computed for {n} replicates, not 50"
            with raises_exactly(ArgumentError, message):
                oracle(sample, Region([P(1, 0)]), P(0, 0), 0.5, other)


class TestSidecarProvenance:
    """A sidecar's seed is a JSON integer or null, its fingerprint a string or
    null, and its `n` the CSV's replicate count."""

    @pytest.mark.parametrize("meta, problem", [
        ({"seed": "abc", "spec_fingerprint": 7}, "'seed' must be an integer, got 'abc'"),
        ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
        ({"seed": True}, "'seed' must be an integer, got True"),
        ({"seed": 1, "spec_fingerprint": 7}, "'spec_fingerprint' must be a string, got 7"),
        ({"spec_fingerprint": ["f"]}, "'spec_fingerprint' must be a string, got ['f']"),
        ({"n": 4}, "'n' is 4, but {csv} holds 5 replicates"),
        ({"n": None}, "'n' must be an integer, got None"),
        ({"n": 5.0}, "'n' must be an integer, got 5.0"),
    ])
    def test_bad_provenance_names_the_sidecar(self, one_pattern_spec, tmp_path, meta, problem):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 5, 1)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        meta_path.write_text(json.dumps(meta))
        message = f"metadata {meta_path}: {problem.format(csv=csv_path)}"
        with raises_exactly(ParseError, message):
            read_sample_csv(csv_path, meta_path)

    @pytest.mark.parametrize("seed", [None, 7, -3, 2**70])
    def test_written_and_plain_sidecars_read(self, one_pattern_spec, tmp_path, seed):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 5, 1)
        if seed is None:  # a hand-built sample has no provenance
            sample = FieldSample(sample.locations, sample.values)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        back = read_sample_csv(csv_path, meta_path)
        assert (back.seed, back.spec_fingerprint) == (sample.seed, sample.spec_fingerprint)
        meta_path.write_text(json.dumps({"seed": seed, "spec_fingerprint": None, "n": 5}))
        assert read_sample_csv(csv_path, meta_path).seed == seed
        meta_path.write_text("{}")
        back = read_sample_csv(csv_path, meta_path)
        assert (back.seed, back.spec_fingerprint) == (None, None)


class TestSidecarEncoding:
    def test_sidecar_not_utf8(self, one_pattern_spec, tmp_path):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 5, 1)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        meta_path.write_bytes(b'{"seed": "\xff"}')
        decode = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
        with raises_exactly(ParseError, f"cannot read metadata {meta_path}: {decode}"):
            read_sample_csv(csv_path, meta_path)
