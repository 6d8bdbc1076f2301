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
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from ._numpy import np
from .dependence import DependenceSummary, _summary, summarize
from .errors import ArgumentError, EstimationError
from .lattice import LatticePoint, Region
from .rng import substream
from .simulate import FieldSample, _read_only, simulate_m4


@dataclass(frozen=True, eq=False)
class UniformScores:
    """Rank scores of a sample: values k/(n+1) in (0,1), one column per location.

    `rank_counts` keeps the integer numerators k (an integer dtype); estimators
    and oracles read only them, to stay exact, and one column per group of equal
    columns, so their cost scales with distinct weight matrices, not locations.
    """

    locations: tuple[LatticePoint, ...]
    rank_counts: np.ndarray  # (n, k) int64: count of column values <= this one
    # each column's first equal column, set by _ranked if any repeat; max-sum memo
    _representatives: tuple[int, ...] | None = field(default=None, init=False, repr=False)
    _numerators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.rank_counts)
        if counts.ndim != 2 or counts.shape[1] != len(self.locations):
            raise ArgumentError("rank counts shape does not match locations")
        if counts.dtype.kind not in "iu":
            raise ArgumentError(f"rank counts must be integers, got {counts.dtype}")
        object.__setattr__(self, "rank_counts", _read_only(counts, self.rank_counts))

    @cached_property
    def scores(self) -> np.ndarray:
        """`rank_counts / (n + 1)` as floats, read-only; computed on first access."""
        scores = self.rank_counts / (self.n + 1)
        scores.setflags(write=False)
        return scores

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

    def _representative(self, column: int) -> int:
        return column if self._representatives is None else self._representatives[column]


def scores_from_matrix(
    values: np.ndarray, locations: Sequence[LatticePoint]
) -> UniformScores:
    """Column-wise modified-ECDF rank transform of a replicates-by-locations matrix.

    All columns are ranked by one sort of packed `uint64` keys per call; every
    element of a run of equal values gets the 1-based position of the run's
    last element.  `rank_counts` and `scores` are F-contiguous.  NaN cells
    are rejected; infinities rank as ordinary values, and -0.0 ties with 0.0.
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
    first: dict[int, int] = {}  # each group's first column
    representatives = tuple(first.setdefault(g, c) for c, g in enumerate(groups or range(k)))
    firsts = list(first.values())
    block = values.T[firsts] if len(firsts) < k else values.T
    if np.isnan(block.min(initial=0.0)):  # NaN when any cell is
        row, column = np.argwhere(np.isnan(values))[0]
        raise ArgumentError(f"NaN at row {row}, column {column}")
    # C-contiguous, with -0.0 + 0.0 = 0.0 for equal bits; in place in a private copy
    counts = _rank_rows(np.add(block, 0.0, out=block if len(firsts) < k else None, order="C"))
    if len(firsts) < k:  # each column takes its group's row
        counts = counts[np.searchsorted(firsts, representatives)]
    counts.setflags(write=False)  # private, so UniformScores need not copy it
    scores = UniformScores(tuple(locations), counts.T)
    if len(firsts) < k:
        object.__setattr__(scores, "_representatives", representatives)
    return scores


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Modified-ECDF counts of each row of a float matrix without NaN, from one
    sort of keys that hold the top bits of an order-preserving image of the float
    above its flat position.  Where runs that tie in those bits are out of value
    order, one argsort per row puts them in order; counts depend only on the sorted
    values.  `rows` is C-contiguous without -0.0: equal values, equal bits."""
    m, n = rows.shape
    flat = rows.reshape(-1)
    mask = np.uint64((1 << (m * n - 1).bit_length()) - 1)  # the flat position
    positions = np.arange(m * n, dtype=np.int64)
    keys = (flat.view(np.int64) >> np.int64(63)).view(np.uint64)
    keys |= np.uint64(1 << 63)
    keys ^= flat.view(np.uint64)  # negatives flipped below the positives
    keys &= ~mask
    keys |= positions.view(np.uint64)
    keys.reshape(m, n).sort(axis=1)  # each row apart, so a key needs no row field
    order = (keys & mask).view(np.int64)
    keys &= ~mask
    run_end = keys[1:] != keys[:-1]
    run_end[n - 1 :: n] = True  # a row ends every run
    last = keys.view(np.int64)  # the count of each sorted element
    if run_end.all():  # every run one value long: each sorted row counts 1..n
        last.reshape(m, n)[:] = np.arange(1, n + 1)
    else:
        tied = np.flatnonzero(~run_end)
        if np.any(flat[order[tied + 1]] < flat[order[tied]]):  # sort each row's ties by value
            runs = np.flatnonzero(np.append(~run_end, False) | np.append(False, ~run_end))
            for part in np.split(runs, np.searchsorted(runs, positions[n::n])):
                order[part] = order[part[np.argsort(flat[order[part]])]]
        run_end[tied] = flat[order[tied + 1]] != flat[order[tied]]
        last.fill(m * n)  # the 1-based flat position ending each run
        np.copyto(last[:-1], positions[1:], where=run_end)
        np.minimum.accumulate(last[::-1], out=last[::-1])
        last.reshape(m, n)[1:] -= positions[n::n, None]  # counts within each row
    counts = np.empty((m, n), dtype=np.int64)
    counts.reshape(-1)[order] = last
    return counts


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


def _coefficients(
    scores: UniformScores, base: Sequence[LatticePoint], extras: Sequence[LatticePoint]
) -> list[Fraction]:
    """The estimates of `base`, of `base` + j for each j in `extras`, in order, and of
    `base` + `extras`.  Each point is looked up once, base then extras; an extra in the
    base adds nothing.  One pass fills the `_numerators` memo entry of the request."""
    columns = [scores._representative(scores.column_index(p)) for p in (*base, *extras)]
    n, memo = scores.n, scores._numerators  # sums of per-replicate max scores, times n+1
    if n < 2:
        raise ArgumentError("need at least two replicates to estimate")
    base_cols, extra_cols = tuple(sorted(set(columns[: len(base)]))), columns[len(base) :]
    key = base_cols, tuple(c for c in dict.fromkeys(extra_cols) if c not in base_cols)
    if key not in memo:
        memo[key] = _max_sums(scores.rank_counts, *key)
    base_sum, with_j, top = memo[key]
    total = n * (n + 1)
    if top >= total:  # no sum of the request exceeds the top's
        raise EstimationError(
            "mean of maximal scores reached 1; impossible for modified-ECDF ranks"
        )
    sums = (base_sum, *(with_j.get(c, base_sum) for c in extra_cols), top)
    return [Fraction(s, total - s) for s in sums]


def _max_sums(counts: np.ndarray, base: tuple, extras: tuple) -> tuple[int, dict, int]:
    """Over rows, the sums of the largest count in `base`, in `base` + j for each j in
    `extras` (by j), and in both, in one pass over chunks of about 2^18 cells (gathered,
    and two row maxima).  The base's row maxima raise the extras in place, if any."""
    b, step = len(base), max(1, 2**18 // (len(base) + len(extras) + 2))
    base_sum = sums = top = 0
    for start in range(0, len(counts), step):
        block = counts.T[[*base, *extras], start : start + step]  # (columns, rows)
        if b:
            row_max = block[:b].max(axis=0)
            base_sum += int(row_max.sum())
            np.maximum(block[b:], row_max, out=block[b:])
        sums += block[b:].sum(axis=1)
        top += int(block.max(axis=0).sum())
        del block  # before the next gather: one block at a time
    return base_sum, dict(zip(extras, sums.tolist())), top


def estimate_extremal_coefficient(
    scores: UniformScores, region: Region
) -> ExtremalCoefficientEstimate:
    """Estimate the region's extremal coefficient as m/(1-m), where m is the
    sample mean of the per-replicate maximum rank score over the region."""
    *_, frac = _coefficients(scores, region.points, ())
    return _as_estimate(frac, len(region))


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
    return float(_estimate_summary(scores, region, site).contagion)


def estimate_stability(
    scores: UniformScores, region: Region, site: LatticePoint
) -> float:
    """Plug-in stability index from pairwise and joint coefficient estimates."""
    return float(_estimate_summary(scores, region, site).stability)


def estimate_summary(
    scores: UniformScores, region: Region, site: LatticePoint
) -> DependenceSummary:
    """Plug-in counterpart of `summarize`: the exact `Fraction` estimates of
    the |R| pairwise and the joint coefficient, put through the same index
    formulas.  Warns when the joint estimate is below 1."""
    return _estimate_summary(scores, region, site)


def _estimate_summary(
    scores: UniformScores, region: Region, site: LatticePoint
) -> DependenceSummary:
    """`estimate_summary`, for the three public functions that call it."""
    _, *estimates, joint = _coefficients(scores, (site,), region.points)
    if joint < 1 - Fraction(1, 10**9):
        warnings.warn(
            f"joint coefficient estimate {float(joint):.6f} is below 1; "
            "the stability estimate may be unreliable",
            RuntimeWarning,
            stacklevel=3,  # the public function's caller
        )
    return _summary(site, region, tuple(zip(region, estimates)), joint)


def estimate_contagion_region(
    scores: UniformScores, region: Region, given: Region
) -> float:
    """Plug-in region-to-region contagion index.

    Mirrors the exact reduction: the rate of "j and any of `given`" exceed is
    theta_j + theta_G - theta_(G+j), with the singleton estimate theta_j (not 1,
    which it differs from under ties); two passes, linear in |G| + |R|, read them.
    No external benchmark exists for this quantity; it is for exploratory use.
    """
    theta_given, *with_given, _ = _coefficients(scores, given.points, region.points)
    _, *thetas, _ = _coefficients(scores, (), region.points)  # each singleton {j}
    return float((sum(thetas) + len(region) * theta_given - sum(with_given)) / theta_given)


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
