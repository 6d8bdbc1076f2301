"""Integer-lattice primitives: points, finite regions, rectangular windows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ArgumentError


@dataclass(frozen=True, order=True)
class LatticePoint:
    """A point of the two-dimensional integer lattice.

    Ordering is lexicographic in (x, y), which gives a total order and makes
    sorted iterations deterministic.
    """

    x: int
    y: int

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


class Region:
    """A finite, non-empty, duplicate-free, order-preserving set of lattice points.

    Iteration follows insertion order so downstream reductions are
    deterministic; equality and hashing ignore order (regions are sets).
    Every index is defined for a non-empty set of `LatticePoint`s, so
    construction rejects any other region and no index checks again.
    """

    __slots__ = ("_points", "_members")

    def __init__(self, points: Iterable[LatticePoint]):
        points = tuple(points)  # checked before a repeat is dropped
        if not points:
            raise ArgumentError("region must contain at least one point")
        for point in points:
            if not isinstance(point, LatticePoint):
                raise ArgumentError(f"region point {point!r} is not a LatticePoint")
        object.__setattr__(self, "_points", tuple(dict.fromkeys(points)))
        object.__setattr__(self, "_members", frozenset(points))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Region is immutable")

    @property
    def points(self) -> tuple[LatticePoint, ...]:
        return self._points

    def union(self, other: "Region | Iterable[LatticePoint]") -> "Region":
        return Region(self._points + tuple(other))

    def __iter__(self) -> Iterator[LatticePoint]:
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, point: object) -> bool:
        return point in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return self._members == other._members

    def __hash__(self) -> int:
        return hash(self._members)

    def __repr__(self) -> str:
        return f"Region({', '.join(map(str, self._points))})"


# Ring of the eight surrounding sites, counter-clockwise starting east.
_NEIGHBOR_OFFSETS = (
    (1, 0),
    (1, 1),
    (0, 1),
    (-1, 1),
    (-1, 0),
    (-1, -1),
    (0, -1),
    (1, -1),
)


def neighbors(site: LatticePoint) -> Region:
    """The eight sites surrounding `site`, counter-clockwise from the east."""
    return Region(LatticePoint(site.x + dx, site.y + dy) for dx, dy in _NEIGHBOR_OFFSETS)


@dataclass(frozen=True)
class LatticeRect:
    """A closed, axis-aligned rectangle of lattice points."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ArgumentError(
                f"degenerate rectangle [{self.x_min},{self.x_max}]x"
                f"[{self.y_min},{self.y_max}]"
            )

    def __contains__(self, point: object) -> bool:
        return (isinstance(point, LatticePoint) and self.x_min <= point.x <= self.x_max
                and self.y_min <= point.y <= self.y_max)

    def points(self) -> Iterator[LatticePoint]:
        """All points, row-major (y ascending, then x ascending)."""
        for y in range(self.y_min, self.y_max + 1):
            for x in range(self.x_min, self.x_max + 1):
                yield LatticePoint(x, y)
