"""Shared strategies and builders for the test suite."""

from fractions import Fraction

import hypothesis.strategies as st

from sumsetlab import ConvexPolygon, Point2, PointSet2D

small_coord = st.integers(min_value=-4, max_value=4)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=6),
)

points = st.builds(Point2, small_coord, small_coord)

point_sets = st.lists(points, min_size=1, max_size=8).map(PointSet2D)

nonempty_pairs = st.tuples(point_sets, point_sets)


def grid_subsets(width: int, height: int):
    cells = [(x, y) for x in range(width) for y in range(height)]
    return st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells)).map(PointSet2D)


def convex_hull(pts: list[Point2]) -> list[Point2]:
    """Monotone chain; returns CCW hull vertices (possibly 2 for collinear input)."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and (out[-1] - out[-2]).cross(p - out[-1]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    hull = lower[:-1] + upper[:-1]
    return hull if len(hull) >= 3 else pts[:1] + pts[-1:]


def random_convex_polygon(rng, max_coord=6, min_area=1) -> ConvexPolygon:
    """A random lattice convex polygon with positive area and width."""
    while True:
        pts = [Point2(rng.randint(0, max_coord), rng.randint(0, max_coord))
               for _ in range(rng.randint(3, 9))]
        hull = convex_hull(pts)
        if len(hull) < 3:
            continue
        poly = ConvexPolygon(hull)
        if poly.width() > 0 and Fraction(poly.area()) >= min_area:
            return poly


def random_rational_convex_polygon(rng, max_coord=6, min_area=1) -> ConvexPolygon:
    """random_convex_polygon under a seeded rational map (x and y scaled by
    separate positive factors, then translated), so that its vertices have
    denominators and its integer grid a scale above 1."""
    p = random_convex_polygon(rng, max_coord, min_area)
    ax, ay, tx, ty = (Fraction(rng.randint(lo, 9), rng.randint(2, 6)) for lo in (1, 1, -9, -9))
    return ConvexPolygon([(ax * v.x + tx, ay * v.y + ty) for v in p.vertices])
