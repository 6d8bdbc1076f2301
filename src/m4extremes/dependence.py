"""Closed-form extremal dependence indices for moving-pattern fields.

Every index here reduces to extremal coefficients of finite point sets,
which for these fields are lag-wise maxima of per-location weights.  Joint
exceedance rates follow from the max-min identity as sums of per-slot
minima, so region conditioning costs O(|region| x slots) with no subset
enumeration.  An exact spec (every weight a :class:`fractions.Fraction`) compiles
once to integer weights over D, the lcm of its denominators, so its sums are
integer sums and its results exact `Fraction`s.  Float and mixed specs sum in slot
order with compensated (Kahan) accumulation, so results are deterministic; a mixed
spec's result is a `Fraction` when every weight it reads is one.

Float mode: with u = 2^-53, a float or mixed spec's value is within 4u·θ of the
correctly rounded exact one for an extremal coefficient θ (and each matrix entry), 6u for
pairwise tail dependence, 6u·value for `exponent_value` at rational scales, 8u·value for
multivariate tail dependence, 10u·value for region contagion and fragility, 10u|R| for
contagion, 16u|R| for stability and its upper bound, 13u for its lower one: first order
in u, for any K, while nonzero weights are normal floats.  Below that the modes can part:
a weight that rounds to 0.0 makes a positive exact rate 0.0, which raises.

Site-to-region indices have one derivation: a `DependenceSummary` holds the |R|
pairwise coefficients and the joint one, and derives contagion, stability and
its bounds from them when they are read.  `summarize` fills it with closed forms,
`estimate.estimate_summary` with max-mean ratio estimates; `contagion_index`,
`stability_index` and `stability_bounds` read `summarize`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ArgumentError, DegenerateConditioningError
from .lattice import LatticePoint, Region, neighbors
from .patterns import M4Spec, Weight

_Pairwise = tuple[tuple[LatticePoint, Weight], ...]


def _ksum(terms: Iterable[Weight]) -> Weight:
    """Exact sum of rational terms; compensated (Kahan) sum otherwise.

    Compensation in rational arithmetic is always exactly 0: rational terms are
    summed plainly, in integers over the lcm of their denominators."""
    terms = list(terms)
    if all(isinstance(term, (Fraction, int)) for term in terms):
        scale = math.lcm(*(term.denominator for term in terms))
        return Fraction(sum(t.numerator * (scale // t.denominator) for t in terms), scale)
    total: Weight = Fraction(0)
    comp: Weight = Fraction(0)
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _slots(spec: M4Spec, points: Iterable[LatticePoint]):
    """The rows of `M4Spec._compiled` at `points`, their sum and D: integers summed
    by `sum` for an exact spec, weights summed by `_ksum` (and D None) otherwise."""
    scale, rows, _ = spec._compiled
    return [rows[spec.matrix_index(p)] for p in points], _ksum if scale is None else sum, scale


def _ratio(numerator, rate, scale: int | None, rate_name: str, index_name: str) -> Weight:
    """`numerator` over the conditioning `rate`, both sums of `_slots` rows, in which
    D cancels.  A rate that is not positive raises, printed as a weight."""
    if rate <= 0:
        shown = rate if scale is None else Fraction(rate, scale)
        raise DegenerateConditioningError(
            f"{rate_name} of the conditioning region is {shown}; the {index_name} is undefined"
        )
    return numerator / rate if scale is None else Fraction(numerator, rate)


def exponent_value(spec: M4Spec, region: Region, scales: Sequence[Weight]) -> Weight:
    """Exponent function of the field restricted to `region`, at `scales`.

    Equals the sum over (pattern, lag) of the largest weight-to-scale ratio
    across the region; homogeneous of degree -1 in the scales.
    """
    if len(scales) != len(region):
        raise ArgumentError(f"got {len(scales)} scales for {len(region)} region points")
    if any(s <= 0 for s in scales):
        raise ArgumentError("scales must be strictly positive")
    slots = zip(*(sum(spec.patterns_at(p), ()) for p in region))
    return _ksum(max(w / s for w, s in zip(ws, scales)) for ws in slots)


def extremal_coefficient(spec: M4Spec, region: Region) -> Weight:
    """Effective number of independent sites in `region` (in [1, |region|])."""
    rows, add, scale = _slots(spec, region)
    total = add(map(max, zip(*rows)))
    return total if scale is None else Fraction(total, scale)


def extremal_coefficient_matrix(spec: M4Spec, site: LatticePoint) -> tuple[tuple[Weight, ...], ...]:
    """Pairwise extremal coefficients of `site` with its eight neighbors.

    Returned in compass layout (north up, east right); the center entry is
    the singleton coefficient of `site` itself.
    """
    by_offset = {
        (p.x - site.x, p.y - site.y): extremal_coefficient(spec, Region((site, p)))
        for p in neighbors(site)
    }
    by_offset[0, 0] = extremal_coefficient(spec, Region((site,)))
    return tuple(tuple(by_offset[dx, dy] for dx in (-1, 0, 1)) for dy in (1, 0, -1))


def pairwise_tail_dependence(spec: M4Spec, i: LatticePoint, j: LatticePoint) -> Weight:
    """Limiting conditional probability that j exceeds a high quantile given i does."""
    return 2 - extremal_coefficient(spec, Region((i, j)))


def multivariate_tail_dependence(spec: M4Spec, target: Region, given: Region) -> Weight:
    """Limiting probability that all of `target` exceed a high quantile,
    conditional on all of `given` exceeding it.

    The joint exceedance rate of a set is the sum over slots of its smallest
    weight; a conditioning set whose rate vanishes (e.g. independent sites)
    raises :class:`DegenerateConditioningError`.
    """
    union, add, scale = _slots(spec, target.union(given))
    rows, _, _ = _slots(spec, given)
    return _ratio(add(map(min, zip(*union))), add(map(min, zip(*rows))), scale,
                  "joint exceedance rate", "conditional tail dependence")


def contagion_index(spec: M4Spec, region: Region, site: LatticePoint) -> Weight:
    """Limiting expected number of region exceedances given `site` exceeds.

    Ranges from 0 (independence) to |region| (total dependence); `site`
    need not belong to the region.
    """
    return summarize(spec, region, site).contagion


def contagion_index_region(spec: M4Spec, region: Region, given: Region) -> Weight:
    """Limiting expected number of region exceedances given at least one
    exceedance in the conditioning region `given`.

    The rate of "j and any of `given`" exceed is the sum over slots of
    min(w_j, max over `given`), so no subset of `given` is enumerated.  A rate
    of `given` that is not positive raises :class:`DegenerateConditioningError`.
    """
    rows, add, scale = _slots(spec, given)
    given_max = tuple(map(max, zip(*rows)))
    numerator = add(add(map(min, row, given_max)) for row in _slots(spec, region)[0])
    return _ratio(numerator, add(given_max), scale, "exceedance rate", "region contagion index")


def fragility_index(spec: M4Spec, region: Region) -> Weight:
    """Expected number of exceedances in `region` given at least one; 1 means
    the system of sites is stable, larger values mean fragile."""
    return contagion_index_region(spec, region, region)


def stability_index(spec: M4Spec, region: Region, site: LatticePoint) -> Weight:
    """Limiting expected number of threshold crossings in `region` relative
    to `site` (site below, region site above), normalized by the rate of
    any exceedance among {site} and the region."""
    return summarize(spec, region, site).stability


def stability_bounds(spec: M4Spec, region: Region, site: LatticePoint) -> tuple[Weight, Weight]:
    """Sharp sandwich for the stability index.  The bounds depend on the
    pairwise coefficients only, but are read from `summarize`."""
    summary = summarize(spec, region, site)
    return summary.stability_lower, summary.stability_upper


@dataclass(frozen=True)
class DependenceSummary:
    """All dependence indices of one (region, site) configuration, derived when read
    from its |R| pairwise coefficients, in region order, and its joint one.  Contagion
    is 2|R| less the pair sum, which is taken once; stability is the pair sum less |R|,
    over the joint, and its bounds are the same over |R| + 1 and over the largest pair."""

    site: LatticePoint
    region: Region
    pairwise_extremal: _Pairwise
    joint_extremal: Weight

    @cached_property
    def _pair_sum(self) -> Weight:
        return _ksum(v for _, v in self.pairwise_extremal)

    @property
    def contagion(self) -> Weight:
        return 2 * len(self.pairwise_extremal) - self._pair_sum

    @property
    def stability(self) -> Weight:
        return (self._pair_sum - len(self.pairwise_extremal)) / self.joint_extremal

    @property
    def stability_lower(self) -> Weight:
        return (self._pair_sum - len(self.pairwise_extremal)) / (len(self.pairwise_extremal) + 1)

    @property
    def stability_upper(self) -> Weight:
        pair_max = max(v for _, v in self.pairwise_extremal)
        return (self._pair_sum - len(self.pairwise_extremal)) / pair_max

    def to_json_dict(self) -> dict:
        def entry(value: Weight, **fields: str) -> dict:
            exact = str(value) if isinstance(value, Fraction) else None
            return {**fields, "value": float(value), "exact": exact}

        return {
            "site": str(self.site),
            "region": [str(p) for p in self.region],
            "pairwise_extremal_coefficients": [
                entry(v, point=str(p)) for p, v in self.pairwise_extremal
            ],
            "joint_extremal_coefficient": entry(self.joint_extremal),
            "contagion_index": entry(self.contagion),
            "stability_index": entry(self.stability),
            "stability_bounds": {
                "lower": float(self.stability_lower),
                "upper": float(self.stability_upper),
            },
        }


def summarize(spec: M4Spec, region: Region, site: LatticePoint) -> DependenceSummary:
    """Bundle every index of the (region, site) configuration consistently.

    The contagion and stability values are derived from one set of pairwise
    coefficients, so the summary satisfies the exact index identities."""
    pairwise = tuple((j, extremal_coefficient(spec, Region((site, j)))) for j in region)
    joint = extremal_coefficient(spec, Region((site,)).union(region))
    return DependenceSummary(site, region, pairwise, joint)
