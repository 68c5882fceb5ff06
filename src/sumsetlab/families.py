"""Generators for every extremal family: standard trapezoids, shifted
(epsilon) trapezoids, the double-slope wedge pairs, and the wild pair that
lives outside the characterized regime."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Point2, PointSet2D, Rational, _point, rat, rat_str
from .errors import InvalidSpec


@dataclass(frozen=True)
class TrapezoidSpec:
    """T(m, h, c, d): m columns, leftmost column of h points, top slope c,
    bottom slope d.  Column x carries h + (c-d)x points from y = dx upward.

    Requires c - d integral and h - 1 + (m-1)c >= (m-1)d so every column is
    nonempty; triangles and segments are the allowed degenerate cases.
    """

    m: int
    h: int
    c: Rational
    d: Rational

    def __post_init__(self):
        object.__setattr__(self, "c", rat(self.c))
        object.__setattr__(self, "d", rat(self.d))
        if not (isinstance(self.m, int) and self.m >= 1):
            raise InvalidSpec("m must be a positive integer")
        if not (isinstance(self.h, int) and self.h >= 1):
            raise InvalidSpec("h must be a positive integer")
        if not isinstance(rat(self.c - self.d), int):
            raise InvalidSpec("c - d must be an integer")
        if self.h - 1 + (self.m - 1) * self.c < (self.m - 1) * self.d:
            raise InvalidSpec("infeasible trapezoid: h-1+(m-1)c < (m-1)d")

    def to_json_dict(self) -> dict:
        return {"m": self.m, "h": self.h, "c": rat_str(self.c), "d": rat_str(self.d)}


def gen_trapezoid(spec: TrapezoidSpec) -> PointSet2D:
    """Materialize T(m, h, c, d) with column x at {dx, dx+1, ..., cx+h-1}."""
    pts = []
    for x in range(spec.m):
        base = spec.d * x
        pts.extend(_point(x, base + j) for j in range(spec.h + int(spec.c - spec.d) * x))
    return PointSet2D(pts)


@dataclass(frozen=True)
class EpsilonSpec:
    """A base trapezoid with integer slopes c, d >= 0 (not both zero) plus a
    0/1 row-shift sequence.

    ``ones`` holds the indices i with epsilon_i = 1.  They must lie inside
    [m*d, h-c-1], and every max{c, d} consecutive indices may contain at most
    one of them.
    """

    base: TrapezoidSpec
    ones: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "ones", frozenset(int(i) for i in self.ones))
        b = self.base
        if not (isinstance(b.c, int) and isinstance(b.d, int)):
            raise InvalidSpec("epsilon trapezoid needs integer slopes")
        if b.c < 0 or b.d < 0 or (b.c == 0 and b.d == 0):
            raise InvalidSpec("epsilon trapezoid needs c, d >= 0, not both zero")
        lo, hi = b.m * b.d, b.h - b.c - 1
        if any(i < lo or i > hi for i in self.ones):
            raise InvalidSpec(f"epsilon support must lie in [{lo}, {hi}]")
        window = max(b.c, b.d)
        run = sorted(self.ones)
        if any(j - i < window for i, j in zip(run, run[1:])):
            raise InvalidSpec(f"at most one shift per {window} consecutive indices")

    def to_json_dict(self) -> dict:
        return {"base": self.base.to_json_dict(), "ones": sorted(self.ones)}


def gen_eps_trapezoid(spec: EpsilonSpec) -> PointSet2D:
    """Apply the cumulative row shift (x, y) -> (x + sum_{i<=y} eps_i, y).

    The base trapezoid with c, d >= 0 already has min x = min y = 0, so no
    pre-translation is needed; cardinality equals the base's.
    """
    base = gen_trapezoid(spec.base)
    return PointSet2D(_point(x + sum(1 for i in spec.ones if i <= y), y) for x, y in base)


@dataclass(frozen=True)
class CaseCSpec:
    """Parameters of the third extremal family: wedges cut by slope-1 and
    slope-2 constraints, with an odd step count k."""

    m: int
    n: int
    k: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 2 and isinstance(self.n, int) and self.n >= 2):
            raise InvalidSpec("case-c needs m, n >= 2")
        if not (isinstance(self.k, int) and self.k >= 1 and self.k % 2 == 1):
            raise InvalidSpec("case-c needs odd k >= 1")

    def to_json_dict(self) -> dict:
        return {"m": self.m, "n": self.n, "k": self.k}


def gen_case_c(spec: CaseCSpec) -> tuple[PointSet2D, PointSet2D]:
    """The lattice pair
    A = {x >= 0, y >= 2x, y <= x + 2m + (k-5)/2, y <= 2x + 2m - 1},
    B = {x >= 0, y >= 2x, y <= x + 2n - 2}, anchored at the origin corner."""
    m, n, k = spec.m, spec.n, spec.k
    top = 2 * m + (k - 5) // 2  # k odd, so (k-5)/2 is exact
    a_pts = []
    x = 0
    while True:
        lo, hi = 2 * x, min(x + top, 2 * x + 2 * m - 1)
        if lo > hi:
            break
        a_pts.extend(_point(x, y) for y in range(lo, hi + 1))
        x += 1
    b_pts = []
    x = 0
    while True:
        lo, hi = 2 * x, x + 2 * n - 2
        if lo > hi:
            break
        b_pts.extend(_point(x, y) for y in range(lo, hi + 1))
        x += 1
    return PointSet2D(a_pts), PointSet2D(b_pts)


def gen_wild(x: Rational) -> tuple[PointSet2D, PointSet2D]:
    """The m = 1 pair that stays sections-extremal however far (x, 0) drifts.

    A has one point per row, so no characterization applies to it, yet the
    pair attains the sections bound exactly for every x >= 4.
    """
    x = rat(x)
    if x < 4:
        raise InvalidSpec("wild pair needs x >= 4")
    a = PointSet2D([Point2(0, 0), Point2(0, 1), Point2(1, -1)])
    b = PointSet2D([
        Point2(0, 2), Point2(0, 1), Point2(0, 0),
        Point2(1, 0), Point2(1, -1),
        Point2(2, 0), Point2(2, -1), Point2(2, -2),
        Point2(x, 0),
    ])
    return a, b
