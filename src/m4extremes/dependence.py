"""Closed-form extremal dependence indices for moving-pattern fields.

Every index here reduces to extremal coefficients of finite point sets,
which for these fields are lag-wise maxima of per-location weights.  Joint
exceedance rates follow from the max-min identity as sums of per-slot
minima, so region conditioning costs O(|region| x slots) with no subset
enumeration.  With rational weights all results are exact
:class:`fractions.Fraction` values, and sums are plain `Fraction` sums; with
float weights, sums run in slot order with compensated (Kahan) accumulation
so results are deterministic.

Site-to-region indices have one derivation: `_summary` puts the |R| pairwise
coefficients and the joint one into the contagion and stability formulas.
`summarize` feeds it closed forms, `estimate.estimate_summary` max-mean ratio
estimates; `contagion_index` needs only the pairwise coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Sequence

from .errors import ArgumentError, DegenerateConditioningError
from .lattice import LatticePoint, Region, neighbors
from .patterns import M4Spec, Weight

_Pairwise = tuple[tuple[LatticePoint, Weight], ...]


def _ksum(terms: Iterable[Weight]) -> Weight:
    """Exact sum of rational terms; compensated (Kahan) sum otherwise.

    Compensation in rational arithmetic is always exactly 0, so the plain
    `Fraction` sum is the same value at a quarter of the operations."""
    terms = list(terms)
    if all(isinstance(term, (Fraction, int)) for term in terms):
        return sum(terms, Fraction(0))
    total: Weight = Fraction(0)
    comp: Weight = Fraction(0)
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _slot_weights(spec: M4Spec, point: LatticePoint) -> tuple[Weight, ...]:
    """Weights at `point` flattened over (pattern, lag) slots, pattern-major."""
    return tuple(w for row in spec.patterns_at(point) for w in row)


def exponent_value(spec: M4Spec, region: Region, scales: Sequence[Weight]) -> Weight:
    """Exponent function of the field restricted to `region`, at `scales`.

    Equals the sum over (pattern, lag) of the largest weight-to-scale ratio
    across the region; homogeneous of degree -1 in the scales.
    """
    points = region.points
    if not points:
        raise ArgumentError("region must contain at least one point")
    if len(scales) != len(points):
        raise ArgumentError(
            f"got {len(scales)} scales for {len(points)} region points"
        )
    if any(s <= 0 for s in scales):
        raise ArgumentError("scales must be strictly positive")
    slots = zip(*(_slot_weights(spec, p) for p in points))
    return _ksum(max(w / s for w, s in zip(ws, scales)) for ws in slots)


def extremal_coefficient(spec: M4Spec, region: Region) -> Weight:
    """Effective number of independent sites in `region` (in [1, |region|])."""
    points = region.points
    if not points:
        raise ArgumentError("region must contain at least one point")
    return _ksum(map(max, zip(*(_slot_weights(spec, p) for p in points))))


def extremal_coefficient_matrix(
    spec: M4Spec, site: LatticePoint
) -> tuple[tuple[Weight, ...], ...]:
    """Pairwise extremal coefficients of `site` with its eight neighbors.

    Returned in compass layout (north up, east right); the center entry is
    the singleton coefficient of `site` itself.
    """
    ring = neighbors(site).points
    e = [extremal_coefficient(spec, Region((site, p))) for p in ring]
    center = extremal_coefficient(spec, Region((site,)))
    # ring order is E, NE, N, NW, W, SW, S, SE
    return (
        (e[3], e[2], e[1]),
        (e[4], center, e[0]),
        (e[5], e[6], e[7]),
    )


def pairwise_tail_dependence(
    spec: M4Spec, i: LatticePoint, j: LatticePoint
) -> Weight:
    """Limiting conditional probability that j exceeds a high quantile given i does."""
    return 2 - extremal_coefficient(spec, Region((i, j)))


def multivariate_tail_dependence(
    spec: M4Spec, target: Region, given: Region
) -> Weight:
    """Limiting probability that all of `target` exceed a high quantile,
    conditional on all of `given` exceeding it.

    The joint exceedance rate of a set is the sum over slots of its smallest
    weight; a conditioning set whose rate vanishes (e.g. independent sites)
    raises :class:`DegenerateConditioningError`.
    """
    if not len(target) or not len(given):
        raise ArgumentError("target and conditioning regions must be non-empty")
    union = target.union(given)
    numerator = _ksum(map(min, zip(*(_slot_weights(spec, p) for p in union))))
    denominator = _ksum(map(min, zip(*(_slot_weights(spec, p) for p in given))))
    if denominator <= 0:
        raise DegenerateConditioningError(
            f"joint exceedance rate of the conditioning region is {denominator}; "
            "the conditional tail dependence is undefined"
        )
    return numerator / denominator


def _pairwise(
    coefficient: Callable[[Region], Weight], region: Region, site: LatticePoint
) -> _Pairwise:
    """(j, coefficient of {site, j}) for each j of the region, in order."""
    if not len(region):
        raise ArgumentError("region must contain at least one point")
    return tuple((j, coefficient(Region((site, j)))) for j in region)


def _contagion(size: int, pair_sum: Weight) -> Weight:
    """The contagion formula: 2|R| minus the summed pairwise coefficients."""
    return 2 * size - pair_sum


def contagion_index(spec: M4Spec, region: Region, site: LatticePoint) -> Weight:
    """Limiting expected number of region exceedances given `site` exceeds.

    Ranges from 0 (independence) to |region| (total dependence); `site`
    need not belong to the region.
    """
    pairwise = _pairwise(partial(extremal_coefficient, spec), region, site)
    return _contagion(len(pairwise), _ksum(v for _, v in pairwise))


def contagion_index_region(spec: M4Spec, region: Region, given: Region) -> Weight:
    """Limiting expected number of region exceedances given at least one
    exceedance in the conditioning region `given`.

    The rate of "j and any of `given`" exceed is the sum over slots of
    min(w_j, max over `given`), so no subset of `given` is enumerated.
    """
    if not len(region) or not len(given):
        raise ArgumentError("regions must be non-empty")
    given_max = tuple(map(max, zip(*(_slot_weights(spec, p) for p in given))))
    numerator = _ksum(
        _ksum(map(min, _slot_weights(spec, j), given_max)) for j in region
    )
    return numerator / _ksum(given_max)


def fragility_index(spec: M4Spec, region: Region) -> Weight:
    """Expected number of exceedances in `region` given at least one; 1 means
    the system of sites is stable, larger values mean fragile."""
    return contagion_index_region(spec, region, region)


def stability_index(spec: M4Spec, region: Region, site: LatticePoint) -> Weight:
    """Limiting expected number of threshold crossings in `region` relative
    to `site` (site below, region site above), normalized by the rate of
    any exceedance among {site} and the region."""
    return summarize(spec, region, site).stability


def stability_bounds(
    spec: M4Spec, region: Region, site: LatticePoint
) -> tuple[Weight, Weight]:
    """Sharp sandwich for the stability index from pairwise coefficients only."""
    summary = summarize(spec, region, site)
    return summary.stability_lower, summary.stability_upper


@dataclass(frozen=True)
class DependenceSummary:
    """All dependence indices of one (region, site) configuration."""

    site: LatticePoint
    region: Region
    pairwise_extremal: _Pairwise
    joint_extremal: Weight
    contagion: Weight
    stability: Weight
    stability_lower: Weight
    stability_upper: Weight

    def to_json_dict(self) -> dict:
        def exact(value: Weight) -> str | None:
            return str(value) if isinstance(value, Fraction) else None

        return {
            "site": str(self.site),
            "region": [str(p) for p in self.region],
            "pairwise_extremal_coefficients": [
                {"point": str(p), "value": float(v), "exact": exact(v)}
                for p, v in self.pairwise_extremal
            ],
            "joint_extremal_coefficient": {
                "value": float(self.joint_extremal),
                "exact": exact(self.joint_extremal),
            },
            "contagion_index": {
                "value": float(self.contagion),
                "exact": exact(self.contagion),
            },
            "stability_index": {
                "value": float(self.stability),
                "exact": exact(self.stability),
            },
            "stability_bounds": {
                "lower": float(self.stability_lower),
                "upper": float(self.stability_upper),
            },
        }


def summarize(spec: M4Spec, region: Region, site: LatticePoint) -> DependenceSummary:
    """Bundle every index of the (region, site) configuration consistently.

    The contagion and stability values are derived from one set of pairwise
    coefficients, so the summary satisfies the exact index identities."""
    pairwise = _pairwise(partial(extremal_coefficient, spec), region, site)
    joint = extremal_coefficient(spec, Region((site,)).union(region))
    return _summary(site, region, pairwise, joint)


def _summary(
    site: LatticePoint, region: Region, pairwise: _Pairwise, joint: Weight
) -> DependenceSummary:
    """The indices of (region, site) from its |R| pairwise coefficients, in
    region order, and its joint one; closed forms and plug-in estimates
    both put their coefficients through here."""
    pair_sum = _ksum(v for _, v in pairwise)
    numerator = pair_sum - len(pairwise)
    return DependenceSummary(
        site=site,
        region=region,
        pairwise_extremal=pairwise,
        joint_extremal=joint,
        contagion=_contagion(len(pairwise), pair_sum),
        stability=numerator / joint,
        stability_lower=numerator / (len(pairwise) + 1),
        stability_upper=numerator / max(v for _, v in pairwise),
    )
