from hypothesis import given, strategies as st

import pytest

from m4extremes import (
    ArgumentError,
    LatticePoint,
    LatticeRect,
    Region,
    contagion_index,
    neighbors,
    preset_one_pattern,
    simulate_m4,
)

from conftest import raises_exactly

coords = st.integers(min_value=-1000, max_value=1000)


def test_neighbor_ring_of_3_3():
    got = neighbors(LatticePoint(3, 3)).points
    assert got == (
        LatticePoint(4, 3),
        LatticePoint(4, 4),
        LatticePoint(3, 4),
        LatticePoint(2, 4),
        LatticePoint(2, 3),
        LatticePoint(2, 2),
        LatticePoint(3, 2),
        LatticePoint(4, 2),
    )


def test_neighbor_ring_of_origin():
    got = neighbors(LatticePoint(0, 0)).points
    assert got == (
        LatticePoint(1, 0),
        LatticePoint(1, 1),
        LatticePoint(0, 1),
        LatticePoint(-1, 1),
        LatticePoint(-1, 0),
        LatticePoint(-1, -1),
        LatticePoint(0, -1),
        LatticePoint(1, -1),
    )


@given(coords, coords)
def test_neighbor_ring_shape(x, y):
    p = LatticePoint(x, y)
    ring = neighbors(p)
    assert len(ring) == 8
    assert p not in ring


@given(coords, coords, coords, coords)
def test_neighbors_translation_equivariant(x, y, dx, dy):
    base = neighbors(LatticePoint(x, y)).points
    shifted = neighbors(LatticePoint(x + dx, y + dy)).points
    assert shifted == tuple(LatticePoint(p.x + dx, p.y + dy) for p in base)


def test_point_ordering_is_lexicographic():
    assert LatticePoint(0, 5) < LatticePoint(1, -5)
    assert LatticePoint(1, -5) < LatticePoint(1, 0)
    assert sorted([LatticePoint(1, 0), LatticePoint(0, 1)]) == [
        LatticePoint(0, 1),
        LatticePoint(1, 0),
    ]


def test_region_deduplicates_preserving_order():
    a, b = LatticePoint(0, 0), LatticePoint(1, 0)
    r = Region([b, a, b, a])
    assert r.points == (b, a)
    assert len(r) == 2
    assert a in r and LatticePoint(5, 5) not in r


def test_region_equality_ignores_order():
    a, b = LatticePoint(0, 0), LatticePoint(1, 0)
    assert Region([a, b]) == Region([b, a])
    assert hash(Region([a, b])) == hash(Region([b, a]))
    assert Region([a]) != Region([a, b])


def test_region_union():
    a, b, c = LatticePoint(0, 0), LatticePoint(1, 0), LatticePoint(2, 0)
    assert Region([a]).union(Region([b, a])).points == (a, b)
    assert Region([a]).union((c,)).points == (a, c)
    assert Region([a]).union((a,)).points == (a,)


def test_region_is_never_empty():
    for points in ([], (), iter(())):
        with raises_exactly(ArgumentError, "region must contain at least one point"):
            Region(points)
    with pytest.raises(TypeError):
        Region()


def test_region_holds_only_lattice_points():
    # a tuple inside the domain was once looked up as a location and missed,
    # which raised a DomainError naming the wrong fault
    spec = preset_one_pattern()
    with raises_exactly(ArgumentError, "region point (4, 3) is not a LatticePoint"):
        contagion_index(spec, Region([(4, 3)]), LatticePoint(3, 3))
    with raises_exactly(ArgumentError, "region point (0, 0) is not a LatticePoint"):
        simulate_m4(spec, [(0, 0)], 3, 1)
    # the first such member in iteration order is named
    for points, bad in [([LatticePoint(1, 2), (4, 3), "a"], "(4, 3)"),
                        (iter([LatticePoint(0, 0), None, (1, 1)]), "None"),
                        ([LatticePoint(4, 3), (4, 3)], "(4, 3)"),
                        ([LatticePoint(4, 3), [4, 3]], "[4, 3]"),
                        ([LatticePoint(0, 0), "a", LatticePoint(0, 0), (1, 1)], "'a'")]:
        with raises_exactly(ArgumentError, f"region point {bad} is not a LatticePoint"):
            Region(points)


def test_region_is_immutable():
    r = Region([LatticePoint(0, 0)])
    with pytest.raises(AttributeError):
        r.points = ()


def test_rect_membership_and_points():
    rect = LatticeRect(-1, 1, 0, 1)
    assert LatticePoint(0, 0) in rect
    assert LatticePoint(2, 0) not in rect
    assert LatticePoint(0, -1) not in rect
    pts = list(rect.points())
    assert len(set(pts)) == len(pts) == 6  # 3 x 2 distinct points
    assert all(p in rect for p in pts)
    assert pts[0] == LatticePoint(-1, 0)
    assert pts[-1] == LatticePoint(1, 1)


def test_rect_rejects_degenerate_bounds():
    with pytest.raises(ArgumentError):
        LatticeRect(1, 0, 0, 0)


def test_region_equality_with_other_types():
    region = Region([LatticePoint(1, 2)])
    assert region.__eq__((LatticePoint(1, 2),)) is NotImplemented
    assert region != (LatticePoint(1, 2),)


def test_region_repr():
    region = Region([LatticePoint(1, 2), LatticePoint(-3, 4)])
    assert repr(region) == "Region((1,2), (-3,4))"


def test_rect_contains_only_points():
    rect = LatticeRect(0, 1, 0, 1)
    assert LatticePoint(0, 0) in rect
    assert (0, 0) not in rect
    assert "a" not in rect
