"""Rank-based estimation of extremal coefficients and derived indices.

The rank transform uses the modified empirical CDF with denominator n+1 and
ties counted by "less than or equal", so every score is k/(n+1) for an
integer k.  All estimators are rational functions of those integer rank
counts and are computed in exact integer/Fraction arithmetic before being
floated, which makes degenerate cases (identical columns) and the index
identities exact rather than approximate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dependence import DependenceSummary, _contagion, _pairwise, _summary, summarize
from .errors import ArgumentError, EstimationError
from .lattice import LatticePoint, Region
from .rng import substream
from .simulate import FieldSample, simulate_m4


@dataclass(frozen=True, eq=False)
class UniformScores:
    """Rank scores of a sample: values k/(n+1) in (0,1), one column per location.

    `rank_counts` keeps the integer numerators k; estimators use them to
    stay exact.
    """

    locations: tuple[LatticePoint, ...]
    rank_counts: np.ndarray  # (n, k) int64: count of column values <= this one
    scores: np.ndarray = None  # type: ignore[assignment]  # filled in __post_init__

    def __post_init__(self) -> None:
        counts = np.asarray(self.rank_counts)
        if counts.ndim != 2 or counts.shape[1] != len(self.locations):
            raise ArgumentError("rank counts shape does not match locations")
        scores = counts / (counts.shape[0] + 1)
        scores.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "rank_counts", counts)
        object.__setattr__(self, "scores", scores)

    @property
    def n(self) -> int:
        return int(self.rank_counts.shape[0])

    @cached_property
    def _columns(self) -> dict[LatticePoint, int]:
        # the first column of a repeated location, as tuple.index gave
        return {point: c for c, point in reversed(list(enumerate(self.locations)))}

    def column_index(self, point: LatticePoint) -> int:
        try:
            return self._columns[point]
        except KeyError:
            raise ArgumentError(f"location {point} not in scores") from None


def scores_from_matrix(
    values: np.ndarray, locations: Sequence[LatticePoint]
) -> UniformScores:
    """Column-wise modified-ECDF rank transform of a replicates-by-locations matrix.

    Each column is ranked by one argsort of a contiguous copy and a linear
    pass over the sorted values: every element of a run of equal values gets
    the 1-based position of the run's last element.  The counts are stored
    column by column, so `rank_counts` and `scores` are F-contiguous.  NaN
    cells are rejected; infinities rank as ordinary values.
    """
    return _ranked(values, locations, None)


def rank_transform(sample: FieldSample) -> UniformScores:
    """Modified-ECDF scores of a field sample; ties share the maximal count.

    Columns that simulation filled from one weight matrix are ranked once
    and share the counts."""
    return _ranked(sample.values, sample.locations, sample._column_groups)


def _ranked(
    values: np.ndarray,
    locations: Sequence[LatticePoint],
    groups: Sequence[int] | None,
) -> UniformScores:
    """`scores_from_matrix`, ranking only the first column of each group of
    equal columns (`groups` labels the columns; None: every column alone)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ArgumentError("expected a 2-d matrix")
    n, k = values.shape
    if n < 1:
        raise ArgumentError("need at least one replicate")
    counts = np.empty((k, n), dtype=np.int64)
    col = np.empty(n)
    srt = np.empty(n)
    run_end = np.empty(n - 1, dtype=bool)
    last = np.empty(n, dtype=np.int64)
    positions = np.arange(1, n, dtype=np.int64)
    first_of_group: dict[int, int] = {}
    for c, group in enumerate(range(k) if groups is None else groups):
        first = first_of_group.setdefault(group, c)
        if first != c:
            counts[c] = counts[first]
            continue
        np.copyto(col, values[:, c])
        order = np.argsort(col)
        np.take(col, order, out=srt)
        if np.isnan(srt[-1]):  # argsort puts NaN last
            row, column = np.argwhere(np.isnan(values))[0]
            raise ArgumentError(f"NaN at row {row}, column {column}")
        # last[i]: 1-based position of the end of the run holding sorted i
        np.not_equal(srt[1:], srt[:-1], out=run_end)
        last.fill(n)
        np.copyto(last[:-1], positions, where=run_end)
        np.minimum.accumulate(last[::-1], out=last[::-1])
        counts[c, order] = last
    return UniformScores(tuple(locations), counts.T)


@dataclass(frozen=True)
class ExtremalCoefficientEstimate:
    """Max-mean ratio estimate of an extremal coefficient.

    `value` = numerator/denominator, unclamped; `out_of_range` flags values
    outside the feasible interval [1, region size].
    """

    value: float
    numerator: int
    denominator: int
    region_size: int

    @property
    def out_of_range(self) -> bool:
        frac = self.as_fraction()
        return not (1 <= frac <= self.region_size)

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def _epsilon_hat_fraction(scores: UniformScores, region: Region) -> Fraction:
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    cols = [scores.column_index(p) for p in region]
    n = scores.n
    if n < 2:
        raise ArgumentError("need at least two replicates to estimate")
    counts = scores.rank_counts
    max_counts = counts[:, cols[0]].copy()
    for c in cols[1:]:
        np.maximum(max_counts, counts[:, c], out=max_counts)
    numerator = int(max_counts.sum())  # sum of per-replicate max scores, times n+1
    total = n * (n + 1)
    if numerator >= total:
        raise EstimationError(
            "mean of maximal scores reached 1; impossible for modified-ECDF ranks"
        )
    return Fraction(numerator, total - numerator)


def estimate_extremal_coefficient(
    scores: UniformScores, region: Region
) -> ExtremalCoefficientEstimate:
    """Estimate the region's extremal coefficient as m/(1-m), where m is the
    sample mean of the per-replicate maximum rank score over the region."""
    return _as_estimate(_epsilon_hat_fraction(scores, region), len(region))


def _as_estimate(frac: Fraction, region_size: int) -> ExtremalCoefficientEstimate:
    return ExtremalCoefficientEstimate(
        float(frac), frac.numerator, frac.denominator, region_size
    )


def _pairwise_estimates(
    summary: DependenceSummary,
) -> dict[LatticePoint, ExtremalCoefficientEstimate]:
    """The pairwise estimates of an estimated summary, by region point; the
    pair of the site with itself is a region of size 1."""
    return {
        j: _as_estimate(v, len({summary.site, j})) for j, v in summary.pairwise_extremal
    }


def estimate_contagion(
    scores: UniformScores, region: Region, site: LatticePoint
) -> float:
    """Plug-in contagion index: 2|region| minus the summed pairwise estimates."""
    pairwise = _pairwise(partial(_epsilon_hat_fraction, scores), region, site)
    return float(_contagion(len(pairwise), sum(v for _, v in pairwise)))


def estimate_stability(
    scores: UniformScores, region: Region, site: LatticePoint
) -> float:
    """Plug-in stability index from pairwise and joint coefficient estimates."""
    return float(_estimate_summary(scores, region, site, stacklevel=3).stability)


def estimate_summary(
    scores: UniformScores, region: Region, site: LatticePoint
) -> DependenceSummary:
    """Plug-in counterpart of `summarize`: the exact `Fraction` estimates of
    the |R| pairwise and the joint coefficient, put through the same index
    formulas.  Warns when the joint estimate is below 1."""
    return _estimate_summary(scores, region, site, stacklevel=3)


def _estimate_summary(
    scores: UniformScores, region: Region, site: LatticePoint, stacklevel: int
) -> DependenceSummary:
    """`estimate_summary`; `stacklevel` makes the warning name its caller."""
    pairwise = _pairwise(partial(_epsilon_hat_fraction, scores), region, site)
    joint = _epsilon_hat_fraction(scores, Region((site,)).union(region))
    if joint < 1 - Fraction(1, 10**9):
        warnings.warn(
            f"joint coefficient estimate {float(joint):.6f} is below 1; "
            "the stability estimate may be unreliable",
            RuntimeWarning,
            stacklevel=stacklevel,
        )
    return _summary(site, region, pairwise, joint)


def estimate_contagion_region(
    scores: UniformScores, region: Region, given: Region
) -> float:
    """Plug-in region-to-region contagion index.

    Mirrors the exact reduction: the rate of "j and any of `given`" exceed
    is theta_j + theta_G - theta_(G+j), with the singleton estimate theta_j
    (not 1, which it differs from under ties).  No external benchmark exists
    for this quantity; it is provided for exploratory use.
    """
    if not len(region) or not len(given):
        raise ArgumentError("regions must be non-empty")
    theta_given = _epsilon_hat_fraction(scores, given)
    numerator = Fraction(0)
    for j in region:
        numerator += (
            _epsilon_hat_fraction(scores, Region((j,)))
            + theta_given
            - _epsilon_hat_fraction(scores, given.with_point(j))
        )
    return float(numerator / theta_given)


@dataclass(frozen=True)
class StudyResult:
    """Monte Carlo summary for one index."""

    index_name: str
    true_value: float
    mean_estimate: float
    mse: float
    replications: int
    sample_size: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "index": self.index_name,
            "true_value": self.true_value,
            "mean_estimate": self.mean_estimate,
            "mse": self.mse,
            "replications": self.replications,
            "sample_size": self.sample_size,
            "seed": self.seed,
        }

    def csv_row(self) -> list:
        return [
            self.index_name,
            repr(self.true_value),
            repr(self.mean_estimate),
            repr(self.mse),
            self.replications,
            self.sample_size,
            self.seed,
        ]


def monte_carlo_study(
    spec,
    region: Region,
    site: LatticePoint,
    replications: int,
    sample_size: int,
    seed: int,
) -> tuple[StudyResult, StudyResult]:
    """Repeatedly simulate, rank, and estimate both indices.

    Replication r simulates `sample_size` independent fields from substream
    (seed, r), so the study is reproducible and replications could run in
    parallel.  MSE is computed against the exact index values.
    """
    if replications < 2:
        raise ArgumentError("need at least two replications")
    locations = Region((site,)).union(region)
    true = summarize(spec, region, site)
    estimates = np.empty((2, replications))  # contagion row, stability row
    for r in range(replications):
        sample = simulate_m4(spec, locations, sample_size, substream(seed, r))
        summary = estimate_summary(rank_transform(sample), region, site)
        estimates[:, r] = float(summary.contagion), float(summary.stability)
    truths = float(true.contagion), float(true.stability)
    return tuple(
        StudyResult(name, truth, float(row.mean()), float(np.mean((row - truth) ** 2)),
                    replications, sample_size, seed)
        for name, truth, row in zip(("CI", "SI"), truths, estimates)
    )
