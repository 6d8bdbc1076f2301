"""Rank-based estimates of extremal coefficients and indices, and finite-threshold oracles.

The rank transform uses the modified empirical CDF with denominator n+1 and
ties counted by "less than or equal", so every score is k/(n+1) for an
integer k.  All estimators are rational functions of those integer rank
counts and are computed in exact integer/Fraction arithmetic before being
floated, which makes degenerate cases (identical columns) and the index
identities exact rather than approximate.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import asdict, astuple, dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from ._numpy import np
from .dependence import DependenceSummary, summarize
from .errors import ArgumentError, UndefinedConditionalError
from .lattice import LatticePoint, Region
from .rng import substream
from .simulate import _CACHE_ELEMENTS, FieldSample, _in_parts, _Rows, simulate_m4


class UniformScores(_Rows):
    """Rank scores of a sample: values k/(n+1) in (0,1), one column per location.

    The scores hold the integer numerators k in one row per distinct column of
    the sample; estimators and oracles read only those rows, to stay exact, so
    their cost scales with distinct weight matrices, not locations.  There is no
    public constructor: `rank_transform` and `scores_from_matrix` make scores, so
    each row holds the modified-ECDF counts of some column.  No location repeats.
    `rank_counts` and `scores` are built from the rows on each read, F-order and
    read-only.
    """

    _holder = "scores"  # in `column_index`'s error

    def _hold(self, locations, rows, row_of) -> None:  # `_numerators`: `_coefficients`' memo
        super()._hold(locations, rows, row_of, _numerators={})

    @property
    def rank_counts(self) -> np.ndarray:
        return self._matrix(self._rows)

    @property
    def scores(self) -> np.ndarray:
        return self._matrix(self._rows / (self.n + 1))


def scores_from_matrix(values: np.ndarray, locations: Sequence[LatticePoint]) -> UniformScores:
    """Column-wise modified-ECDF rank transform of a replicates-by-locations matrix.

    The columns are ranked by one sort of packed `uint64` keys per row group; every
    element of a run of equal values gets the 1-based position of the run's
    last element.  Every column is ranked as its own row of the scores.  NaN
    cells are rejected; infinities rank as ordinary values, and -0.0 ties with 0.0.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ArgumentError("expected a 2-d matrix")
    if values.shape[0] < 1:
        raise ArgumentError("need at least one replicate")
    if np.isnan(values.min(initial=0.0)):  # NaN when any cell is
        row, column = np.argwhere(np.isnan(values))[0]
        raise ArgumentError(f"NaN at row {row}, column {column}")
    counts = _rank_rows(np.ascontiguousarray(values.T))
    return UniformScores._of_rows(locations, counts, range(values.shape[1]))


def rank_transform(sample: FieldSample) -> UniformScores:
    """Modified-ECDF scores of a field sample; ties share the maximal count.

    Each of the sample's rows is ranked once, and the scores keep its rows:
    locations that share a weight matrix share the counts."""
    return UniformScores._of_rows(sample.locations, _rank_rows(sample._rows), sample._row_of)


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Modified-ECDF counts of each row of a C-contiguous float matrix without NaN.
    `_in_parts` splits the rows from `_SPLIT_CELLS` cells on, at most one group per row,
    as it splits `simulate_m4`'s replicates; each group is ranked in place in its rows
    of the buffers made here.  A smaller matrix is one group, on the calling thread."""
    m, n = rows.shape
    counts = np.empty((m, n), dtype=np.int64)  # the result first, below the temporaries
    keys, order = np.empty(m * n, dtype=np.uint64), np.empty(m * n, dtype=np.int64)
    steps = np.arange(1, n + 1)  # each sorted row counts 1..n
    _in_parts(lambda a, b: _rank_group(rows[a:b], steps, counts[a:b], keys[a * n : b * n],
                                       order[a * n : b * n]), m, m, m * n)
    return counts


def _rank_group(rows, steps, counts, keys, order) -> None:
    """Writes the counts of `rows` into `counts`, from one sort of keys that hold the top
    bits of an order-preserving image of the float above its flat position in `rows`,
    built and split in cache-sized blocks in `keys`.  One argsort per row puts runs that
    tie in those bits in value order if they are not.  Each sorted row counts `steps`;
    only elements that tie by value take their run's last count, in one pass over them.
    Keys read `x + 0.0`, so -0.0 ties with 0.0."""
    m, n = rows.shape
    flat, size, step = rows.reshape(-1), m * n, _CACHE_ELEMENTS
    mask = np.uint64((1 << (size - 1).bit_length()) - 1)  # the flat position
    for start in range(0, size, step):
        x, key = flat[start : start + step] + 0.0, keys[start : start + step]
        np.right_shift(x.view(np.int64), np.int64(63), out=key.view(np.int64))
        key |= np.uint64(1 << 63)
        key ^= x.view(np.uint64)  # negatives flipped below the positives
        key &= ~mask
        key |= np.arange(start, start + len(key), dtype=np.uint64)
    keys.reshape(m, n).sort(axis=1)  # each row apart, so a key needs no row field
    for start in range(0, size, step):
        key = keys[start : start + step]
        np.bitwise_and(key, mask, out=order[start : start + step].view(np.uint64))
        key &= ~mask
    run_end = keys[1:] != keys[:-1]
    run_end[n - 1 :: n] = True  # a row ends every run
    tied = (~run_end).nonzero()[0]  # each element whose key ties with the next
    if len(tied):
        if np.any(flat[order[tied + 1]] < flat[order[tied]]):  # sort each row's ties by value
            runs = np.column_stack([tied, tied + 1]).reshape(-1)  # sorted, with repeats
            runs = runs[np.append(True, runs[1:] != runs[:-1])]
            for part in np.split(runs, np.searchsorted(runs, np.arange(n, size, n))):
                order[part] = order[part[np.argsort(flat[order[part]])]]
        tied = tied[flat[order[tied + 1]] == flat[order[tied]]]  # those that tie by value
    last = keys.view(np.int64).reshape(m, n)  # the count of each sorted element
    last[:] = steps
    if len(tied):  # a run's ties take the count of the element after the run's last tie
        stops = np.flatnonzero(np.diff(tied, append=size) > 1)  # the last tie of each run
        last.reshape(-1)[tied] = np.repeat((tied[stops] + 1) % n + 1, np.diff(stops, prepend=-1))
    counts.reshape(-1)[order] = last.reshape(-1)


def _exceedances(
    sample: FieldSample, region: Region, site: LatticePoint, u: float, scores
) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, int]]]:
    """Which replicates score above `u` at the site, then at each distinct row of the
    region's scores with its number of region points: counts `k > t`, for the largest
    `t` in 0..n with `t / (n + 1) <= u` (exact, as correctly rounded division is monotone)."""
    if not 0.0 < u < 1.0:
        raise ArgumentError(f"threshold must be in (0,1), got {u}")
    if scores is None:
        scores = rank_transform(sample)
    if scores.locations != sample.locations:
        raise ArgumentError("scores were computed for different locations")
    rows, n = scores._rows, scores.n
    if n != sample.n:
        raise ArgumentError(f"scores were computed for {n} replicates, not {sample.n}")
    row_of = [scores._row_of[sample.column_index(p)] for p in (site, *region)]
    t = bisect.bisect_right(range(n + 1), u, key=lambda k: k / (n + 1)) - 1
    site_high = rows[row_of[0]] > t
    return site_high, ((site_high if g == row_of[0] else rows[g] > t, mult)
                       for g, mult in Counter(row_of[1:]).items())


def empirical_contagion(
    sample: FieldSample,
    region: Region,
    site: LatticePoint,
    u: float,
    scores=None,
) -> float:
    """Mean number of region rank-scores above `u` among replicates where the
    site's rank-score is above `u`; finite-threshold check value for the
    contagion index.

    Pass precomputed `scores` (from rank_transform) to amortize ranking
    across repeated calls.  Region points that share a row of the scores (a
    weight matrix) share one comparison: the cost scales with distinct
    matrices, not locations.
    """
    site_high, region_high = _exceedances(sample, region, site, u, scores)
    m = int(np.count_nonzero(site_high))  # a Python int: the result is a Python float
    if m == 0:
        raise UndefinedConditionalError(f"no replicate has a site score above u={u}")
    exceed = sum(mult * np.count_nonzero(high & site_high) for high, mult in region_high)
    return float(exceed) / m


def empirical_stability(
    sample: FieldSample,
    region: Region,
    site: LatticePoint,
    u: float,
    scores=None,
) -> float:
    """Mean number of crossings (site score <= u < region score), normalized
    by the number of replicates where any score among {site} and the region
    is above `u`; finite-threshold check value for the stability index.

    Raises :class:`UndefinedConditionalError` when no crossing occurs at all
    (e.g. totally dependent columns, or `u` above every score).  Points that
    share a weight matrix share one comparison, as in `empirical_contagion`.
    """
    site_high, region_high = _exceedances(sample, region, site, u, scores)
    site_low, any_high = ~site_high, site_high.copy()
    crossings = 0
    for high, mult in region_high:
        crossings += mult * np.count_nonzero(high & site_low)
        any_high |= high
    if crossings == 0:
        raise UndefinedConditionalError(f"no replicate has a crossing at u={u}")
    return int(crossings) / int(np.count_nonzero(any_high))


@dataclass(frozen=True)
class ExtremalCoefficientEstimate:
    """Max-mean ratio estimate of an extremal coefficient.

    `value` = numerator/denominator, unclamped; `out_of_range` flags values
    outside the feasible interval [1, region size].
    """

    numerator: int
    denominator: int
    region_size: int

    @property
    def value(self) -> float:
        return float(self.as_fraction())

    @property
    def out_of_range(self) -> bool:
        return not 1 <= self.as_fraction() <= self.region_size

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


def _coefficients(
    scores: UniformScores, base: Sequence[LatticePoint], extras: Sequence[LatticePoint]
) -> list[Fraction]:
    """The estimates of `base`, of `base` + j for each j in `extras`, in order, and of
    `base` + `extras`.  Each point is looked up once, base then extras; an extra in the
    base adds nothing.  One pass over their rows fills the request's `_numerators` entry."""
    row_of = [scores._row_of[scores.column_index(p)] for p in (*base, *extras)]
    n, memo = scores.n, scores._numerators  # sums of per-replicate max scores, times n+1
    if n < 2:
        raise ArgumentError("need at least two replicates to estimate")
    base_rows, extra_rows = tuple(sorted(set(row_of[: len(base)]))), row_of[len(base) :]
    key = base_rows, tuple(g for g in dict.fromkeys(extra_rows) if g not in base_rows)
    if key not in memo:
        memo[key] = _max_sums(scores._rows, *key)
    base_sum, with_j, top = memo[key]
    total = n * (n + 1)
    sums = (base_sum, *(with_j.get(g, base_sum) for g in extra_rows), top)
    return [Fraction(s, total - s) for s in sums]


def _max_sums(rows: np.ndarray, base: tuple, extras: tuple) -> tuple[int, dict, int]:
    """Over replicates, the sums of the largest count in the `base` rows, in `base` + j
    for each row j in `extras` (by j), and in both, in one pass over chunks of about
    2^18 cells (gathered, and two maxima).  The base's maxima raise the extras in place."""
    b, step = len(base), max(1, (_CACHE_ELEMENTS << 2) // (len(base) + len(extras) + 2))
    base_sum = sums = top = 0
    for start in range(0, rows.shape[1], step):
        block = rows[[*base, *extras], start : start + step]  # (rows, replicates)
        row_max = block[:b].max(axis=0, initial=0)  # no count is below 1
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
    return ExtremalCoefficientEstimate(frac.numerator, frac.denominator, len(region))


def _estimates_json(summary: DependenceSummary, key: str, names: Iterable[str]) -> dict:
    """The estimate fields of `estimate` and `report`, each pair labelled from `names`
    under `key`; the pair of the site with itself is a region of size 1."""
    pairwise = []
    for name, (j, v) in zip(names, summary.pairwise_extremal):
        est = ExtremalCoefficientEstimate(v.numerator, v.denominator, len({summary.site, j}))
        pairwise.append({key: name, "value": est.value, "out_of_range": est.out_of_range})
    return {
        "contagion_index_estimate": float(summary.contagion),
        "stability_index_estimate": float(summary.stability),
        "pairwise_extremal_estimates": pairwise,
        "joint_extremal_estimate": float(summary.joint_extremal),
    }


def estimate_contagion(scores: UniformScores, region: Region, site: LatticePoint) -> float:
    """Plug-in contagion index: 2|region| minus the summed pairwise estimates."""
    return float(estimate_summary(scores, region, site).contagion)


def estimate_stability(scores: UniformScores, region: Region, site: LatticePoint) -> float:
    """Plug-in stability index from pairwise and joint coefficient estimates."""
    return float(estimate_summary(scores, region, site).stability)


def estimate_summary(
    scores: UniformScores, region: Region, site: LatticePoint
) -> DependenceSummary:
    """Plug-in counterpart of `summarize`: the summary of the exact `Fraction`
    estimates of the |R| pairwise and the joint coefficient, which derives the
    indices.  Every coefficient is at least 1, as the scores hold rank counts."""
    _, *estimates, joint = _coefficients(scores, (site,), region.points)
    return DependenceSummary(site, region, tuple(zip(region, estimates)), joint)


def estimate_contagion_region(scores: UniformScores, region: Region, given: Region) -> float:
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
        doc = asdict(self)  # in field order
        return {"index": doc.pop("index_name"), **doc}

    def csv_row(self) -> list:
        return [repr(v) if isinstance(v, float) else v for v in astuple(self)]


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
