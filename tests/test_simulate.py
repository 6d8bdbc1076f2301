import json
import math

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
    empirical_contagion,
    empirical_stability,
    export_sample,
    neighbors,
    preset,
    rank_transform,
    read_sample_csv,
    simulate_m4,
    unit_frechet_quantile,
)
from m4extremes.rng import U64_MASK, uniform_block
from conftest import table_spec

P = LatticePoint


class TestQuantile:
    def test_known_points(self):
        assert unit_frechet_quantile(math.exp(-1)) == pytest.approx(1.0, rel=1e-12)
        assert unit_frechet_quantile(math.exp(-0.5)) == pytest.approx(2.0, rel=1e-12)
        assert unit_frechet_quantile(0.5) == pytest.approx(
            1.4426950408889634, rel=1e-12
        )

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_out_of_range(self, u):
        with pytest.raises(ArgumentError):
            unit_frechet_quantile(u)


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
        with pytest.raises(ArgumentError):
            simulate_m4(one_pattern_spec, Region([]), 10, 1)

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

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ArgumentError):
            FieldSample((P(0, 0),), np.array([[1.0, 2.0]]))

    def test_values_read_only(self, one_pattern_spec):
        sample = simulate_m4(one_pattern_spec, Region([P(0, 0)]), 5, 1)
        with pytest.raises(ValueError):
            sample.values[0, 0] = 3.0


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
        assert np.array_equal(got, cube_simulation(spec, points, self.N, seed))

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("name", ["one-pattern", "two-pattern"])
    def test_presets(self, monkeypatch, name, exact):
        spec = preset(name, exact=exact)
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
