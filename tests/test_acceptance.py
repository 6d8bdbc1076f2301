"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are frozen here; stochastic checks run under the frozen seeds
from conftest and are fully deterministic.
"""

import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from m4extremes import (
    FieldSample,
    LatticePoint,
    Region,
    contagion_index,
    contagion_index_region,
    empirical_contagion,
    empirical_stability,
    estimate_contagion,
    estimate_stability,
    extremal_coefficient,
    extremal_coefficient_matrix,
    field_sample_to_station_csv,
    fragility_index,
    ingest_stations,
    monte_carlo_study,
    multivariate_tail_dependence,
    neighbors,
    pairwise_tail_dependence,
    preset_one_pattern,
    preset_two_pattern,
    rank_transform,
    scores_from_matrix,
    simulate_m4,
    stability_bounds,
    stability_index,
    station_indices,
    substream,
)
from m4extremes.patterns import M4Spec
from conftest import (
    DATA_DIR,
    ORACLE_SEED,
    STUDY_SEED,
    random_point,
    random_rational_spec,
    random_region,
)

P = LatticePoint
SITE = P(3, 3)
RING = neighbors(SITE)
ROW = Region([P(2, 4), P(3, 4), P(4, 4), P(5, 4)])

CI_ONE = F(47, 10)
SI_ONE = F(66, 31)
CI_TWO = F(49, 15)
SI_TWO = F(44, 71)


def report(criterion: int, label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion} {label}: PASS{suffix}")


@pytest.fixture(scope="module")
def one_exact():
    return preset_one_pattern()


@pytest.fixture(scope="module")
def two_exact():
    return preset_two_pattern()


@pytest.fixture(scope="module")
def big_ring_sample(one_exact):
    """10**6 replicates over the site and its ring (criteria 4 ordering
    diagnostics and criterion 6 oracles share this)."""
    locations = Region([SITE]).union(RING)
    sample = simulate_m4(one_exact, locations, 10**6, ORACLE_SEED)
    return sample, rank_transform(sample)


def test_criterion_1_exact_indices_one_pattern(one_exact):
    start = time.perf_counter()
    assert contagion_index(one_exact, RING, SITE) == CI_ONE
    assert stability_index(one_exact, RING, SITE) == SI_ONE
    e = F(31, 20)
    assert extremal_coefficient_matrix(one_exact, SITE) == (
        (e, 1, e),
        (e, 1, e),
        (e, 1, e),
    )
    spec_float = preset_one_pattern().as_float()
    assert contagion_index(spec_float, RING, SITE) == pytest.approx(
        float(CI_ONE), rel=1e-12
    )
    assert stability_index(spec_float, RING, SITE) == pytest.approx(
        float(SI_ONE), rel=1e-12
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "exact indices, one-pattern preset", f"{elapsed:.3f}s")


def test_criterion_2_exact_indices_two_pattern(two_exact):
    start = time.perf_counter()
    assert contagion_index(two_exact, ROW, SITE) == CI_TWO
    assert stability_index(two_exact, ROW, SITE) == SI_TWO
    spec_float = preset_two_pattern().as_float()
    assert contagion_index(spec_float, ROW, SITE) == pytest.approx(
        float(CI_TWO), rel=1e-12
    )
    assert stability_index(spec_float, ROW, SITE) == pytest.approx(
        float(SI_TWO), rel=1e-12
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, "exact indices, two-pattern preset", f"{elapsed:.3f}s")


def test_criterion_3_identity_suite():
    start = time.perf_counter()
    rng = random.Random(20240815)
    for trial in range(200):
        spec = random_rational_spec(rng)
        region = random_region(rng)
        site = random_point(rng)
        pair_eps = [extremal_coefficient(spec, Region([site, j])) for j in region]
        ci = contagion_index(spec, region, site)
        si = stability_index(spec, region, site)
        joint = extremal_coefficient(spec, Region([site]).union(region))
        lower, upper = stability_bounds(spec, region, site)
        # pairwise-sum identity, exact in rational arithmetic
        assert ci == sum(2 - e for e in pair_eps)
        assert ci == sum(pairwise_tail_dependence(spec, site, j) for j in region)
        # index identity: si * joint + ci = |region|
        assert si * joint + ci == len(region)
        # sandwich bounds
        assert lower <= si <= upper
        # coefficient monotonicity
        extra = random_point(rng)
        grown = extremal_coefficient(spec, region.union((extra,)))
        base = extremal_coefficient(spec, region)
        assert base <= grown <= base + 1
        assert 1 <= base <= len(region)
        # contagion monotonicity
        assert ci <= contagion_index(spec, region.union((extra,)), site)
    # float mode: identities within what the README's float-mode bounds allow, in units
    # of u = 2^-53 and with r = |R|: stability within 16r, the joint within 4(r + 1),
    # contagion within 10r, the lower bound 13 and the upper 16r, each plus u of its
    # value for the exact value's rounding
    u = F(1, 2**53)
    for trial in range(50):
        spec = random_rational_spec(rng).as_float()
        region = random_region(rng)
        site = random_point(rng)
        ci = contagion_index(spec, region, site)
        si = stability_index(spec, region, site)
        joint = extremal_coefficient(spec, Region([site]).union(region))
        lower, upper = stability_bounds(spec, region, site)
        r = len(region)
        assert abs(F(si) * F(joint) + F(ci) - r) <= (16 * r + 34) * r * u
        assert F(lower) <= F(si) + (17 * r + 14) * u and F(si) <= F(upper) + 34 * r * u
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "identity suite on 200 random specifications", f"{elapsed:.2f}s")


def test_criterion_4_oracle_equivalence(one_exact, two_exact):
    start = time.perf_counter()
    u, n = 0.99, 2 * 10**5
    sample1 = simulate_m4(one_exact, Region([SITE]).union(RING), n, ORACLE_SEED)
    scores1 = rank_transform(sample1)
    ci1 = empirical_contagion(sample1, RING, SITE, u, scores1)
    si1 = empirical_stability(sample1, RING, SITE, u, scores1)
    sample2 = simulate_m4(two_exact, Region([SITE]).union(ROW), n, ORACLE_SEED)
    scores2 = rank_transform(sample2)
    ci2 = empirical_contagion(sample2, ROW, SITE, u, scores2)
    si2 = empirical_stability(sample2, ROW, SITE, u, scores2)
    assert abs(ci1 - float(CI_ONE)) <= 0.1
    assert abs(si1 - float(SI_ONE)) <= 0.05
    assert abs(ci2 - float(CI_TWO)) <= 0.1
    assert abs(si2 - float(SI_TWO)) <= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(
        4,
        "simulation oracles agree with exact indices",
        f"dCI={abs(ci1 - float(CI_ONE)):.3f}/{abs(ci2 - float(CI_TWO)):.3f}, "
        f"dSI={abs(si1 - float(SI_ONE)):.3f}/{abs(si2 - float(SI_TWO)):.3f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_4b_oracle_error_shrinks(one_exact, big_ring_sample):
    # supporting check: oracle error decreases toward the threshold limit
    # and with more replicates
    sample, scores = big_ring_sample
    ci_err = {
        u: abs(empirical_contagion(sample, RING, SITE, u, scores) - float(CI_ONE))
        for u in (0.95, 0.99, 0.999)
    }
    si_err = {
        u: abs(empirical_stability(sample, RING, SITE, u, scores) - float(SI_ONE))
        for u in (0.95, 0.99, 0.999)
    }
    assert ci_err[0.95] > ci_err[0.99]
    assert ci_err[0.95] > ci_err[0.999]
    assert si_err[0.95] > si_err[0.99]
    assert si_err[0.95] > si_err[0.999]
    small = simulate_m4(one_exact, Region([SITE]).union(RING), 5000, ORACLE_SEED)
    err_small = abs(empirical_contagion(small, RING, SITE, 0.99) - float(CI_ONE))
    mid = simulate_m4(one_exact, Region([SITE]).union(RING), 2 * 10**5, ORACLE_SEED)
    err_mid = abs(empirical_contagion(mid, RING, SITE, 0.99) - float(CI_ONE))
    assert err_mid < err_small
    # the rank estimator recovers the pairwise coefficient at this scale
    from m4extremes import estimate_extremal_coefficient

    pair = Region([SITE, P(4, 3)])
    est = estimate_extremal_coefficient(scores, pair)
    assert abs(est.value - 31 / 20) <= 0.02
    report(4, "oracle error shrinks in threshold and replicates", "supporting")


def test_criterion_5_monte_carlo_tables(one_exact, two_exact):
    start = time.perf_counter()
    reps, n = 100, 1000
    ci1, si1 = monte_carlo_study(one_exact, RING, SITE, reps, n, STUDY_SEED)
    ci2, si2 = monte_carlo_study(two_exact, ROW, SITE, reps, n, STUDY_SEED)
    assert ci1.true_value == pytest.approx(4.7)
    assert abs(ci1.mean_estimate - 4.7) <= 0.05
    assert ci1.mse <= 0.05
    assert abs(si1.mean_estimate - 2.12903) <= 0.05
    assert si1.mse <= 0.01
    assert abs(ci2.mean_estimate - 3.2667) <= 0.03
    assert ci2.mse <= 0.005
    assert abs(si2.mean_estimate - 0.61972) <= 0.03
    assert si2.mse <= 0.002
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        5,
        "Monte Carlo regression of the estimator tables",
        f"CI {ci1.mean_estimate:.5f}/{ci1.mse:.5f} and {ci2.mean_estimate:.5f}/"
        f"{ci2.mse:.5f}; SI {si1.mean_estimate:.5f}/{si1.mse:.5f} and "
        f"{si2.mean_estimate:.5f}/{si2.mse:.5f}; {elapsed:.1f}s",
    )


def test_criterion_6_region_conditioning_consistency(one_exact, big_ring_sample):
    sample, scores = big_ring_sample
    s = scores.scores
    u = 0.999
    col = {p: sample.column_index(p) for p in sample.locations}
    high = {p: s[:, col[p]] > u for p in sample.locations}

    # config A: joint tail dependence of {(4,3),(2,3)} given {(3,3)}
    exact_a = multivariate_tail_dependence(
        one_exact, Region([P(4, 3), P(2, 3)]), Region([SITE])
    )
    assert exact_a == F(9, 20)
    oracle_a = float(
        (high[P(4, 3)] & high[P(2, 3)] & high[SITE]).sum() / high[SITE].sum()
    )
    assert abs(float(exact_a) - oracle_a) <= 0.02

    # config B: contagion toward (3,4) given the region {(4,3),(2,3)}
    exact_b = contagion_index_region(
        one_exact, Region([P(3, 4)]), Region([P(4, 3), P(2, 3)])
    )
    assert exact_b == F(9, 20)
    any_b = high[P(4, 3)] | high[P(2, 3)]
    oracle_b = float((high[P(3, 4)] & any_b).sum() / any_b.sum())
    assert abs(float(exact_b) - oracle_b) <= 0.02

    # config C: mixed-parity conditioning region {(4,3),(3,2)}
    exact_c = contagion_index_region(
        one_exact, Region([P(3, 4)]), Region([P(4, 3), P(3, 2)])
    )
    assert exact_c == F(20, 31)
    any_c = high[P(4, 3)] | high[P(3, 2)]
    oracle_c = float((high[P(3, 4)] & any_c).sum() / any_c.sum())
    assert abs(float(exact_c) - oracle_c) <= 0.02

    # fragility: exactly 1 for singletons and for an independent triple
    assert fragility_index(one_exact, Region([SITE])) == 1
    independent = M4Spec.from_table(
        3,
        1,
        1,
        {
            P(0, 0): [[1], [0], [0]],
            P(1, 0): [[0], [1], [0]],
            P(2, 0): [[0], [0], [1]],
        },
    )
    triple = Region([P(0, 0), P(1, 0), P(2, 0)])
    assert fragility_index(independent, triple) == 1
    report(
        6,
        "region-conditioned indices match simulation oracles",
        f"d={abs(float(exact_a)-oracle_a):.4f}/"
        f"{abs(float(exact_b)-oracle_b):.4f}/{abs(float(exact_c)-oracle_c):.4f}",
    )


def test_criterion_7_estimator_properties(one_exact):
    # (a) rank invariance: strictly increasing marginal transforms leave the
    # estimates exactly unchanged
    locations = Region([SITE]).union(RING)
    sample = simulate_m4(one_exact, locations, 500, STUDY_SEED)
    transforms = [np.log1p, lambda c: c**3, lambda c: 10.0 + c]
    columns = [
        transforms[i % 3](sample.values[:, i]) for i in range(len(sample.locations))
    ]
    warped = FieldSample(sample.locations, np.column_stack(columns))
    base_scores = rank_transform(sample)
    warped_scores = rank_transform(warped)
    assert estimate_contagion(base_scores, RING, SITE) == estimate_contagion(
        warped_scores, RING, SITE
    )
    assert estimate_stability(base_scores, RING, SITE) == estimate_stability(
        warped_scores, RING, SITE
    )

    # (b) identical columns degenerate exactly
    n = 64
    column = -1.0 / np.log((np.arange(1, n + 1)) / (n + 1.0))
    clones = FieldSample(
        (P(0, 0), P(1, 0), P(2, 0)), np.tile(column[:, None], (1, 3))
    )
    clone_scores = rank_transform(clones)
    region = Region([P(1, 0), P(2, 0)])
    assert estimate_contagion(clone_scores, region, P(0, 0)) == 2.0
    assert estimate_stability(clone_scores, region, P(0, 0)) == 0.0

    # (c) consistency trend: mean absolute error shrinks from n=250 to n=4000
    def mae(sample_size: int) -> float:
        errors = []
        for r in range(50):
            rep = simulate_m4(
                one_exact, locations, sample_size, substream(STUDY_SEED, r)
            )
            est = estimate_contagion(rank_transform(rep), RING, SITE)
            errors.append(abs(est - float(CI_ONE)))
        return float(np.mean(errors))

    mae_small, mae_large = mae(250), mae(4000)
    assert mae_large < mae_small
    report(
        7,
        "estimator properties (rank invariance, degeneracy, consistency)",
        f"MAE {mae_small:.4f} -> {mae_large:.4f}",
    )


def test_criterion_8_station_pipeline(one_exact, tmp_path):
    # Table-shaped report from the bundled synthetic 6-station, 32-year CSV
    dataset = ingest_stations(
        DATA_DIR / "stations_32y.csv", metadata_path=DATA_DIR / "stations_meta.csv"
    )
    assert dataset.n == 32
    assert len(dataset.stations) == 6
    rows = [
        station_indices(
            dataset, "serra_alta", ["vale_frio", "monte_claro", "ribeira_nova"]
        ),
        station_indices(dataset, "serra_alta", ["planalto", "costa_verde"]),
    ]
    for rep in rows:
        doc = rep.to_json_dict()
        assert set(doc) == {
            "conditioning",
            "region",
            "n",
            "contagion_index_estimate",
            "stability_index_estimate",
            "pairwise_extremal_estimates",
            "joint_extremal_estimate",
        }
        assert 0 <= doc["contagion_index_estimate"] <= len(rep.region)
        assert doc["stability_index_estimate"] >= 0

    # no I/O drift: ingestion + station_indices equals direct estimation
    points = tuple(P(i, 0) for i in range(3))
    cols = [dataset.column(n) for n in ("serra_alta", "planalto", "costa_verde")]
    direct_scores = scores_from_matrix(dataset.maxima[:, cols], points)
    assert float(rows[1].summary.contagion) == estimate_contagion(
        direct_scores, Region(points[1:]), points[0]
    )
    assert float(rows[1].summary.stability) == estimate_stability(
        direct_scores, Region(points[1:]), points[0]
    )

    # round trip: simulated fields exported to the station schema and
    # re-ingested give identical estimates to the direct pipeline
    locations = Region([SITE]).union(RING)
    sample = simulate_m4(one_exact, locations, 120, ORACLE_SEED)
    path = tmp_path / "stations.csv"
    names = field_sample_to_station_csv(sample, path)
    round_tripped = ingest_stations(path)
    rep = station_indices(round_tripped, names[0], names[1:])
    scores = rank_transform(sample)
    assert float(rep.summary.contagion) == estimate_contagion(scores, RING, SITE)
    assert float(rep.summary.stability) == estimate_stability(scores, RING, SITE)
    report(8, "station pipeline (synthetic data; measured-data table not reproducible)")
