"""Exact rational points, finite planar point sets, and their basic geometry.

Every coordinate is an exact rational: either a plain ``int`` or a
``fractions.Fraction`` (always reduced, positive denominator).  There is no
floating point anywhere; equalities tested downstream are exact, so none of
the usual epsilon machinery exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .errors import EmptySet, InvalidSpec, NotCollinear, ParseError

Rational = Union[int, Fraction]


def rat(value) -> Rational:
    """Normalize a number or string to an exact rational (int when integral).

    Floats are rejected: silently converting one would smuggle a binary
    approximation into computations whose whole point is exactness.
    """
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected; use an int, Fraction or 'p/q' string")
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def rat_str(value: Rational) -> str:
    """Render a rational as ``p`` or ``p/q`` (the file and JSON syntax)."""
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True, order=True)
class Point2:
    """A planar point with exact rational coordinates.

    Ordering is lexicographic by (x, y), which is the canonical iteration
    order used everywhere for deterministic output.
    """

    x: Rational
    y: Rational

    def __post_init__(self):
        object.__setattr__(self, "x", rat(self.x))
        object.__setattr__(self, "y", rat(self.y))

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Point2":
        return Point2(-self.x, -self.y)

    def scale(self, factor: Rational) -> "Point2":
        return Point2(self.x * factor, self.y * factor)

    def cross(self, other: "Point2") -> Rational:
        return self.x * other.y - self.y * other.x

    def __repr__(self) -> str:
        return f"({rat_str(self.x)}, {rat_str(self.y)})"


class Axis(Enum):
    HORIZONTAL = "horizontal"  # section at fixed y
    VERTICAL = "vertical"      # section at fixed x


class PointSet2D:
    """A finite, deduplicated set of points, iterated in canonical order."""

    __slots__ = ("_pts", "_set")

    def __init__(self, points: Iterable = ()):
        pts = set()
        for p in points:
            if not isinstance(p, Point2):
                p = Point2(p[0], p[1])
            pts.add(p)
        object.__setattr__(self, "_pts", tuple(sorted(pts)))
        object.__setattr__(self, "_set", frozenset(pts))

    @property
    def points(self) -> tuple[Point2, ...]:
        return self._pts

    def __len__(self) -> int:
        return len(self._pts)

    def __iter__(self) -> Iterator[Point2]:
        return iter(self._pts)

    def __contains__(self, p) -> bool:
        if not isinstance(p, Point2):
            p = Point2(p[0], p[1])
        return p in self._set

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet2D) and self._set == other._set

    def __hash__(self) -> int:
        return hash(self._set)

    def __repr__(self) -> str:
        return f"PointSet2D({list(self._pts)!r})"

    def __setattr__(self, *_):
        raise AttributeError("PointSet2D is immutable")

    def translate(self, delta: Point2) -> "PointSet2D":
        return PointSet2D(p + delta for p in self._pts)

    def xs(self) -> list[Rational]:
        """Distinct x-values, ascending."""
        return sorted({p.x for p in self._pts})

    def ys(self) -> list[Rational]:
        """Distinct y-values, ascending."""
        return sorted({p.y for p in self._pts})

    def columns(self) -> dict[Rational, list[Rational]]:
        """x-value -> ascending y-values on that vertical line."""
        out: dict[Rational, list[Rational]] = {}
        for p in self._pts:
            out.setdefault(p.x, []).append(p.y)
        return out

    def rows(self) -> dict[Rational, list[Rational]]:
        """y-value -> ascending x-values on that horizontal line."""
        out: dict[Rational, list[Rational]] = {}
        for p in sorted(self._pts, key=lambda q: (q.y, q.x)):
            out.setdefault(p.y, []).append(p.x)
        return out


@dataclass(frozen=True)
class CoverStats:
    """Line-cover counts and section maxima of a point set.

    vertical_line_count is the number of distinct x-values (vertical lines
    needed to cover the set); max_horizontal_section is the size of the
    largest intersection with a horizontal line; and symmetrically for the
    other two fields.
    """

    vertical_line_count: int
    horizontal_line_count: int
    max_horizontal_section: int
    max_vertical_section: int
    is_two_dimensional: bool


@dataclass(frozen=True)
class AffineMap2D:
    """An invertible affine map (x, y) -> (a11 x + a12 y + tx, a21 x + a22 y + ty).

    The intended constructors are the restricted groups used by the
    normalizations: diagonal maps, upper-triangular maps (shears combined
    with axis scalings), and free translations.
    """

    a11: Rational = 1
    a12: Rational = 0
    a21: Rational = 0
    a22: Rational = 1
    tx: Rational = 0
    ty: Rational = 0

    def __post_init__(self):
        for name in ("a11", "a12", "a21", "a22", "tx", "ty"):
            object.__setattr__(self, name, rat(getattr(self, name)))
        if self.determinant() == 0:
            raise InvalidSpec("affine map must be invertible (determinant != 0)")

    @classmethod
    def identity(cls) -> "AffineMap2D":
        return cls()

    @classmethod
    def diagonal(cls, alpha: Rational, beta: Rational, tx: Rational = 0, ty: Rational = 0) -> "AffineMap2D":
        return cls(alpha, 0, 0, beta, tx, ty)

    @classmethod
    def upper_triangular(cls, a11: Rational, a12: Rational, a22: Rational,
                         tx: Rational = 0, ty: Rational = 0) -> "AffineMap2D":
        return cls(a11, a12, 0, a22, tx, ty)

    @classmethod
    def translation(cls, tx: Rational, ty: Rational) -> "AffineMap2D":
        return cls(1, 0, 0, 1, tx, ty)

    def determinant(self) -> Rational:
        return self.a11 * self.a22 - self.a12 * self.a21

    def __call__(self, p: Point2) -> Point2:
        return Point2(self.a11 * p.x + self.a12 * p.y + self.tx,
                      self.a21 * p.x + self.a22 * p.y + self.ty)

    def compose(self, inner: "AffineMap2D") -> "AffineMap2D":
        """self after inner: (self.compose(inner))(p) == self(inner(p))."""
        return AffineMap2D(
            self.a11 * inner.a11 + self.a12 * inner.a21,
            self.a11 * inner.a12 + self.a12 * inner.a22,
            self.a21 * inner.a11 + self.a22 * inner.a21,
            self.a21 * inner.a12 + self.a22 * inner.a22,
            self.a11 * inner.tx + self.a12 * inner.ty + self.tx,
            self.a21 * inner.tx + self.a22 * inner.ty + self.ty,
        )

    def linear_part(self) -> "AffineMap2D":
        return AffineMap2D(self.a11, self.a12, self.a21, self.a22, 0, 0)

    def to_json_dict(self) -> dict:
        return {k: rat_str(getattr(self, k)) for k in ("a11", "a12", "a21", "a22", "tx", "ty")}


def minkowski_sum(a: PointSet2D, b: PointSet2D) -> PointSet2D:
    """The sumset {p + q : p in a, q in b}."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("minkowski_sum needs nonempty sets")
    pts = {(p.x + q.x, p.y + q.y) for p in a for q in b}
    return PointSet2D(Point2(x, y) for x, y in pts)


def cover_stats(x: PointSet2D) -> CoverStats:
    if len(x) == 0:
        raise EmptySet("cover_stats needs a nonempty set")
    cols = x.columns()
    rows = x.rows()
    return CoverStats(
        vertical_line_count=len(cols),
        horizontal_line_count=len(rows),
        max_horizontal_section=max(len(v) for v in rows.values()),
        max_vertical_section=max(len(v) for v in cols.values()),
        is_two_dimensional=collinear_direction(x) is None,
    )


def collinear_direction(x: PointSet2D) -> Optional[Point2]:
    """Primitive direction of the line containing x, or None if x is not collinear.

    Singletons report direction (0, 0): they lie on every line through the
    point, so callers treat them as parallel to anything.
    """
    if len(x) == 0:
        raise EmptySet("collinear_direction needs a nonempty set")
    pts = x.points
    if len(pts) == 1:
        return Point2(0, 0)
    d = pts[1] - pts[0]
    for p in pts[2:]:
        if d.cross(p - pts[0]) != 0:
            return None
    return _primitive(d)


def _primitive(d: Point2) -> Point2:
    """Scale a nonzero rational vector to a canonical primitive integer vector."""
    fx, fy = Fraction(d.x), Fraction(d.y)
    from math import gcd
    den = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    nx, ny = fx.numerator * (den // fx.denominator), fy.numerator * (den // fy.denominator)
    g = gcd(abs(nx), abs(ny))
    nx, ny = nx // g, ny // g
    if ny < 0 or (ny == 0 and nx < 0):
        nx, ny = -nx, -ny
    return Point2(nx, ny)


def parallel_directions(d1: Point2, d2: Point2) -> bool:
    """True when either direction is the singleton wildcard (0,0) or both are parallel."""
    if (d1.x, d1.y) == (0, 0) or (d2.x, d2.y) == (0, 0):
        return True
    return d1.cross(d2) == 0


def section(x: PointSet2D, axis: Axis, level: Rational) -> PointSet2D:
    """The subset of x with y = level (HORIZONTAL) or x = level (VERTICAL)."""
    level = rat(level)
    if axis is Axis.HORIZONTAL:
        return PointSet2D(p for p in x if p.y == level)
    return PointSet2D(p for p in x if p.x == level)


def apply_map(x: PointSet2D, m: AffineMap2D) -> PointSet2D:
    """Image of x under an invertible affine map; cardinality is preserved."""
    return PointSet2D(m(p) for p in x)


def shared_difference(sequences: Iterable) -> tuple[bool, Optional[Rational]]:
    """(ok, d): ok when every sequence is an arithmetic progression and all
    those with two or more entries share one difference d; d is None when no
    sequence has two entries, and also when ok is False."""
    common = None
    for seq in sequences:
        if len(seq) < 2:
            continue
        d = seq[1] - seq[0]
        if common is None:
            common = d
        if d != common or any(seq[k + 1] - seq[k] != d for k in range(1, len(seq) - 1)):
            return False, None
    return True, common


def arithmetic_progression_of(x: PointSet2D) -> Optional[Point2]:
    """Common difference of a collinear set, or None if it is not a progression.

    Any set of size <= 2 qualifies; a singleton qualifies with the
    (unspecified) difference (0, 0).  Non-collinear input raises NotCollinear.
    """
    if len(x) == 0:
        raise EmptySet("arithmetic_progression_of needs a nonempty set")
    if collinear_direction(x) is None:
        raise NotCollinear("arithmetic_progression_of needs a collinear set")
    pts = x.points
    if len(pts) == 1:
        return Point2(0, 0)
    delta = pts[1] - pts[0]
    for prev, cur in zip(pts, pts[1:]):
        if cur - prev != delta:
            return None
    return delta


# ---------------------------------------------------------------------------
# point-set file format: one `x y` pair per line, rationals as `p` or `p/q`;
# blank lines and `#` comments ignored; writers emit canonical order.
# ---------------------------------------------------------------------------

def parse_rational(token: str, line: int | None = None) -> Rational:
    try:
        return rat(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational: {token!r}", line)


def parse_point_lines(text: str) -> list[Point2]:
    """The points of an `x y` file, in file order; ParseError names the line."""
    pts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"expected `x y`, got {raw!r}", lineno)
        pts.append(Point2(parse_rational(parts[0], lineno), parse_rational(parts[1], lineno)))
    return pts


def loads_points(text: str) -> PointSet2D:
    return PointSet2D(parse_point_lines(text))


def dumps_points(ps: PointSet2D) -> str:
    return "".join(f"{rat_str(p.x)} {rat_str(p.y)}\n" for p in ps)


def load_points(path: str) -> PointSet2D:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_points(fh.read())


def save_points(ps: PointSet2D, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_points(ps))
