import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from m4extremes import simulate
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
    estimate_stability,
    estimate_summary,
    export_sample,
    neighbors,
    preset,
    rank_transform,
    read_sample_csv,
    scores_from_matrix,
    simulate_m4,
)
from m4extremes.rng import U64_MASK, uniform_block
from m4extremes.stations import Station, StationDataset
from conftest import keeps, raises_exactly, table_spec

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
        for region in (ring, Region([P(4, 3)]), ring.with_point(site)):
            self.check(sample, region, site, us)
            self.check(sample, region, site, us, scores)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 301])
    def test_tie_heavy_samples(self, n):
        sample = tie_heavy_sample(n, seed=n)
        scores = rank_transform(sample)
        site, region = P(0, 0), Region([P(3, 0), P(1, 0), P(4, 0)])
        us = [u for u in u_grid(n) if n < 50 or u > 0.9] + [0.5]
        self.check(sample, region, site, us, scores)
        self.check(sample, region.with_point(site), site, us, scores)
        self.check(sample, Region([P(2, 0)]), site, [0.25, 0.5, 0.75])

    def test_doctored_scores(self):
        n = 9
        sample = tie_heavy_sample(n)
        rng = np.random.default_rng(5)
        site, region = P(1, 0), Region([P(0, 0), P(2, 0), P(4, 0)])
        for counts in (
            rng.integers(-3, n + 5, size=(n, 5)),
            np.full((n, 5), n),
            np.zeros((n, 5), dtype=np.int64),
            np.full((n, 5), n + 1),
            rng.integers(0, n + 2, size=(n, 5)).astype(np.uint8),
            rng.choice([-(2**62), 2**62, 3], size=(n, 5)),
        ):
            scores = UniformScores(sample.locations, counts)
            self.check(sample, region, site, u_grid(n), scores)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_every_score_and_its_neighbours(self, n):
        sample = tie_heavy_sample(n, seed=100 + n)
        scores = rank_transform(sample)
        self.check(sample, Region([P(1, 0), P(2, 0), P(3, 0)]), P(0, 0), u_grid(n), scores)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_integer_threshold(self, n):
        # column j holds the count j - 2 in every row: every count in -2..n+1;
        # grouped, every count fills two columns that share a representative
        for copies in (1, 2):
            locations = tuple(P(j, 0) for j in range(copies * (n + 4)))
            sample = FieldSample(locations, np.ones((n, len(locations))))
            counts = np.tile(np.repeat(np.arange(-2, n + 2), copies), (n, 1))
            scores = UniformScores(locations, counts)
            if copies == 2:
                object.__setattr__(scores, "_representatives",
                                   tuple(c - c % 2 for c in range(len(locations))))
            self.check_threshold(sample, scores, n)

    @staticmethod
    def check_threshold(sample, scores, n):
        """Every point's comparison, read through its representative column,
        is its float scores above `u`; each distinct column comes once, with
        the number of region points that it holds."""
        site, region = sample.locations[0], Region(sample.locations[1:])
        column = {p: scores._representative(sample.column_index(p)) for p in (site, *region)}
        distinct = list(dict.fromkeys(column[p] for p in region))
        for u in u_grid(n):
            if not 0.0 < u < 1.0:
                continue
            site_high, region_high = simulate._exceedances(sample, region, site, u, scores)
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
        assert "scores" not in vars(scores)
        first = scores.scores
        assert "scores" in vars(scores) and scores.scores is first
        assert np.array_equal(first, scores.rank_counts / 41)
        assert first.flags.f_contiguous and not first.flags.writeable

    def test_float_rank_counts_rejected(self):
        # compared with the integer threshold 1, these counts gave 1.0, though
        # no score (count / 3) is above u
        sample = FieldSample((P(0, 0), P(1, 0)), np.ones((2, 2)))
        counts = np.array([[1.5, 1.5], [0.5, 0.5]])
        with pytest.raises(ArgumentError, match=r"rank counts must be integers, got float64"):
            empirical_contagion(sample, Region([P(1, 0)]), P(0, 0), 0.55,
                                UniformScores(sample.locations, counts))
        for dtype in (np.float32, bool, complex, object):
            with pytest.raises(ArgumentError, match=r"rank counts must be integers"):
                UniformScores(sample.locations, np.ones((2, 2), dtype=dtype))
        for dtype in (np.int8, np.uint8, np.int32, np.uint64):
            assert UniformScores(sample.locations, np.ones((2, 2), dtype=dtype)).n == 2

    def test_scores_is_not_a_field(self):
        counts = np.array([[1, 2], [2, 1]])
        scores = UniformScores((P(0, 0), P(1, 0)), counts)
        assert "scores" not in repr(scores)
        with pytest.raises(TypeError):
            UniformScores((P(0, 0), P(1, 0)), counts, scores=counts / 3)


def grouped_tie_heavy_sample(n, seed=0):
    """Small integers (many ties) in three distinct columns, each repeated,
    with the column groups that simulation would record."""
    labels = (0, 1, 0, 2, 1, 0)
    values = np.random.default_rng(seed).integers(1, 4, size=(n, 3)).astype(float)
    sample = FieldSample(tuple(P(x, 0) for x in range(len(labels))), values[:, labels])
    object.__setattr__(sample, "_column_groups", labels)
    return sample


class TestGroupedOracles:
    """On a sample whose columns share weight matrices, the oracles read one
    column per group and return the floats and errors of the same values
    without groups."""

    @staticmethod
    def check(sample, region, site, us):
        plain = FieldSample(sample.locations, sample.values)
        scores, plain_scores = rank_transform(sample), scores_from_matrix(
            sample.values, sample.locations
        )
        assert scores._representatives is not None and plain._column_groups is None
        assert plain_scores._representatives is None
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
                       ring.with_point(site)):
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

    def test_read_only_values_are_shared(self):
        frozen = np.ones((2, 3))
        frozen.setflags(write=False)
        view = frozen.T
        assert FieldSample((P(0, 0), P(1, 0)), view).values is view

    @pytest.mark.parametrize("build, dtype", [
        (lambda a: FieldSample((P(0, 0), P(1, 0)), a).values, np.float64),
        (lambda a: StationDataset((Station("a"), Station("b")), (1, 2, 3), a).maxima,
         np.float64),
        (lambda a: UniformScores((P(0, 0), P(1, 0)), a).rank_counts, np.int64),
    ], ids=["FieldSample", "StationDataset", "UniformScores"])
    def test_view_made_before_construction_cannot_change_values(self, build, dtype):
        owned = np.ones((3, 2), dtype=dtype)
        view = owned[:]
        kept = build(owned)
        assert kept is not owned and not kept.flags.writeable
        view[0, 0] = 5
        owned[1, 1] = 7  # the caller's array stays writable
        assert kept.tolist() == [[1, 1]] * 3

    def test_fresh_values_are_frozen_not_copied(self, monkeypatch):
        kept = keeps(monkeypatch, simulate)
        single = np.ones((3, 2), dtype=np.float32)
        for source in ([[1.0, 2.0]] * 3, ((1, 2), (3, 4)), single):
            sample = FieldSample((P(0, 0), P(1, 0)), source)
            assert not sample.values.flags.writeable
        # np.asarray made each float64 array afresh: no one else holds it
        assert kept == [True, True, True]
        assert single.flags.writeable  # the caller's array is not frozen
        single[0, 0] = 5.0
        assert sample.values.tolist() == [[1.0, 1.0]] * 3
        kept.clear()
        FieldSample((P(0, 0), P(1, 0)), np.ones((3, 2)))  # float64: the caller's
        assert kept == [False]

    def test_read_values_are_not_copied(self, monkeypatch, one_pattern_spec, tmp_path):
        kept = keeps(monkeypatch, simulate)
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 4, 1)
        path = tmp_path / "s.csv"
        simulate.write_sample_csv(sample, path)
        lines = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"  # not the writer's row order: read row by row
        shuffled.write_text("\n".join(lines[:1] + lines[:0:-1]) + "\n")
        for csv_path in (path, shuffled):
            kept.clear()
            got = read_sample_csv(csv_path)
            columns = [got.column_index(p) for p in sample.locations]
            assert np.array_equal(got.values[:, columns], sample.values)
            assert kept == [True], csv_path

    def test_simulated_values_are_not_copied(self, one_pattern_spec):
        # the values are a view of simulate_m4's own buffer, one row per location
        points = [P(0, 0), P(1, 0), P(2, 0)]
        values = simulate_m4(one_pattern_spec, Region(points), 7, 1).values
        buffer = values.base
        assert buffer is not None and buffer.base is None and buffer.shape == (3, 7)
        assert values.flags.f_contiguous and not buffer.flags.writeable


class TestColumnGroups:
    """Only simulation records which columns hold equal values."""

    def test_simulated_groups_follow_shared_matrices(self, one_pattern_spec):
        points = [P(3, 3), P(4, 3), P(3, 4), P(2, 2), P(5, 3)]
        sample = simulate_m4(one_pattern_spec, Region(points), 50, 3)
        groups = sample._column_groups
        assert len(groups) == len(points) and len(set(groups)) < len(points)
        for a in range(len(points)):
            for b in range(len(points)):
                same = np.array_equal(sample.values[:, a], sample.values[:, b])
                assert same == (groups[a] == groups[b])

    def test_hand_built_sample_has_no_groups(self):
        sample = FieldSample((P(0, 0), P(1, 0)), np.ones((3, 2)))
        assert sample._column_groups is None
        with pytest.raises(TypeError):
            FieldSample((P(0, 0),), np.ones((3, 1)), _column_groups=(0,))

    def test_csv_read_sample_has_no_groups(self, one_pattern_spec, tmp_path):
        sample = simulate_m4(one_pattern_spec, Region([P(3, 3), P(3, 5)]), 5, 9)
        assert sample._column_groups == (0, 0)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        assert read_sample_csv(csv_path, meta_path)._column_groups is None


def cube_simulation(spec, points, n, seed):
    """Reference simulation with one weight slice per location.

    Builds the (locations, patterns, lags) weight cube and takes every
    location's maximum directly, drawing all rows in one block.
    """
    weights = np.array(
        [[[float(w) for w in row] for row in spec.patterns_at(p)] for p in points]
    )
    _, n_patterns, lag_count = weights.shape
    u = uniform_block(seed & U64_MASK, 0, n * n_patterns * lag_count)
    z = -1.0 / np.log(u.reshape(n, 1, n_patterns, lag_count))
    return np.max(weights[None] * z, axis=(2, 3))


class TestSharedColumnOracle:
    """Sharing one column among equal-weight locations changes no bit."""

    ROWS_PER_CHUNK = 7
    N = 3 * ROWS_PER_CHUNK + 4  # three full chunks and a partial one

    def check(self, monkeypatch, spec, points, seed=2024):
        cells = len(points) * spec.n_patterns * spec.lag_count
        monkeypatch.setattr(simulate, "_CHUNK_ELEMENTS", self.ROWS_PER_CHUNK * cells)
        got = simulate_m4(spec, Region(points), self.N, seed).values
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
        draws = one_pattern_spec.n_patterns * one_pattern_spec.lag_count
        boundary = simulate._CHUNK_ELEMENTS // ((len(ring) + 1) * draws) * draws
        assert boundary == 466032
        assert sha256_of(uniform_block(1, boundary - 2048, 4096), "<f8") == (
            "74f3f7b8e06d0e2a4dd3f8cae5a7fe2dc20cc802de4cfa25b510e8eeff959e51"
        )


class TestOracleArguments:
    @pytest.mark.parametrize("oracle", [empirical_contagion, empirical_stability])
    def test_scores_ranked_for_other_locations(self, oracle, one_pattern_spec):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 20, 1)
        other = simulate_m4(one_pattern_spec, Region([P(1, 0), P(0, 0)]), 20, 1)
        message = "scores were computed for different locations"
        with raises_exactly(ArgumentError, message):
            oracle(sample, Region([P(1, 0)]), P(0, 0), 0.5, rank_transform(other))


class TestSidecarEncoding:
    def test_sidecar_not_utf8(self, one_pattern_spec, tmp_path):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0), P(1, 0)]), 5, 1)
        csv_path, meta_path = export_sample(sample, tmp_path / "s.csv")
        meta_path.write_bytes(b'{"seed": "\xff"}')
        decode = "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"
        with raises_exactly(ParseError, f"cannot read metadata {meta_path}: {decode}"):
            read_sample_csv(csv_path, meta_path)
