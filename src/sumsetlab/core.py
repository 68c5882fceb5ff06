"""Exact rational points, finite planar point sets, and their basic geometry.

Every coordinate is an exact rational: either a plain ``int`` or a
``fractions.Fraction`` (always reduced, positive denominator).  There is no
floating point anywhere; equalities tested downstream are exact, so none of
the usual epsilon machinery exists.  Every PointSet2D, an affine image too, is
born on one integer grid, read by the line walk, grid_sections (a pair's sections
on ints) and the sumset kernel (whole column runs, inherited by translates).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, itemgetter
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
    if value.__class__ is Fraction:
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected; use an int, Fraction or 'p/q' string")
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def rat_str(value: Rational) -> str:
    """Render a rational as ``p`` or ``p/q`` (the file and JSON syntax)."""
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


class Point2(tuple):
    """A planar point with exact rational coordinates, backed by the tuple
    (x, y): it compares, sorts and hashes as that tuple, so Point2(1, 2) ==
    (1, 2).  Lexicographic (x, y) order is the canonical output order.

    rat() normalizes coordinates once, where they enter the library: here,
    in the parsers and in AffineMap2D.__call__.  Arithmetic results are
    built by _point and not normalized again.
    """

    __slots__ = ()

    def __new__(cls, x, y) -> "Point2":
        return tuple.__new__(cls, (rat(x), rat(y)))

    x = property(itemgetter(0), doc="The x-coordinate.")
    y = property(itemgetter(1), doc="The y-coordinate.")

    def __getnewargs__(self) -> tuple:
        return self[0], self[1]

    def __add__(self, other: "Point2") -> "Point2":
        dx, dy = other if other.__class__ is Point2 else _exact_pair(other, "point arithmetic")
        return _point(self[0] + dx, self[1] + dy)

    __radd__ = __add__  # runs before tuple.__add__: (1, 2) + p adds, not concatenates

    def __sub__(self, other: "Point2") -> "Point2":
        dx, dy = other if other.__class__ is Point2 else _exact_pair(other, "point arithmetic")
        return _point(self[0] - dx, self[1] - dy)

    def __neg__(self) -> "Point2":
        return tuple.__new__(Point2, (-self[0], -self[1]))

    def __mul__(self, other):
        return NotImplemented  # points do not repeat like tuples; see scale

    __rmul__ = __mul__

    def scale(self, factor: Rational) -> "Point2":
        factor = rat(factor)
        return _point(self[0] * factor, self[1] * factor)

    def cross(self, other: "Point2") -> Rational:
        return self[0] * other[1] - self[1] * other[0]

    def __repr__(self) -> str:
        return f"({rat_str(self[0])}, {rat_str(self[1])})"


def _point(x: Rational, y: Rational) -> Point2:
    """A Point2 from exact rationals without rat(), for arithmetic results:
    an int stays and a Fraction with denominator 1 becomes its numerator."""
    if x.__class__ is not int and x.denominator == 1:
        x = x.numerator
    if y.__class__ is not int and y.denominator == 1:
        y = y.numerator
    return tuple.__new__(Point2, (x, y))


def _exact_pair(pair, what: str) -> tuple:
    """(pair[0], pair[1]) if pair is two ints or Fractions; strings are not parsed."""
    if len(pair) != 2:
        raise TypeError(f"{what} takes a pair (x, y), got {pair!r}")
    for d in pair[0], pair[1]:
        if not isinstance(d, (int, Fraction)):
            raise TypeError(f"{type(d).__name__} {d!r} rejected; {what} takes ints and Fractions")
    return pair[0], pair[1]


def _turn(a: Point2, b: Point2, c: Point2) -> Rational:
    """(b - a).cross(c - b) without building the differences: > 0 for a
    counterclockwise turn at b, 0 when a, b, c are collinear."""
    return (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])


def _as_point(p) -> Point2:
    """p as a Point2; a pair (x, y) goes through rat() unless both are ints."""
    if p.__class__ is Point2:
        return p
    if len(p) != 2:  # indexed, not unpacked: an unordered set of two is no point
        raise TypeError(f"a point is a pair (x, y), got {p!r}")
    x, y = p[0], p[1]
    if x.__class__ is int and y.__class__ is int:
        return tuple.__new__(Point2, (x, y))
    return Point2(x, y)


class PointSet2D:
    """A finite, deduplicated set of points, iterated in canonical order.

    Every set is held on one integer grid: per-axis scales sx, sy and ints
    xs, ys in canonical order, point i being (xs[i]/sx, ys[i]/sy).  A sum
    decodes its grid from its keys; the Point2s, line_counts and column runs
    are built on first use.  A grid need not be reduced (a sum of
    half-integer sets may be integral), so == and hash compare points.
    """

    __slots__ = ("_len", "_pts", "_grid", "_counts", "_runs")

    def __init__(self, points: Iterable = ()):
        pts = {_as_point(p) for p in points}
        xs, ys = zip(*pts) if pts else ((), ())
        sx = sy = 1
        if not all(v.__class__ is int for v in xs + ys):  # scale each axis to ints
            (sx, (xs,)), (sy, (ys,)) = common_scale(xs), common_scale(ys)
            pts = zip(xs, ys)
        xs, ys = zip(*sorted(pts)) if xs else ((), ())
        self._fill(len(xs), (sx, sy, xs, ys))

    def _fill(self, size: int, grid) -> "PointSet2D":
        """Set every slot; grid is (sx, sy, xs, ys), or a sum's decoder returning it."""
        put = object.__setattr__  # five calls, not a loop: __init__ runs on every small set
        put(self, "_len", size), put(self, "_pts", None)
        put(self, "_grid", grid), put(self, "_counts", None), put(self, "_runs", None)
        return self

    @classmethod
    def _on_grid(cls, sx: int, sy: int, xs, ys) -> "PointSet2D":
        """The set of the distinct points (xs[i]/sx, ys[i]/sy), in canonical order."""
        return object.__new__(cls)._fill(len(xs), (sx, sy, xs, ys))

    @classmethod
    def _of_sorted_ints(cls, pts) -> "PointSet2D":
        """The set of the nonempty, distinct int points pts, in canonical order."""
        return cls._on_grid(1, 1, *zip(*pts))

    @classmethod
    def _of_runs(cls, runs) -> "PointSet2D":
        """The int set of the column runs (x, y, k), points (x, y + i) for i < k,
        given one per x in ascending x; the kernel reads the runs, not the grid."""
        out = object.__new__(cls)._fill(sum(k for _, _, k in runs), lambda: (
            1, 1, [x for x, _, k in runs for _ in range(k)], [y + i for _, y, k in runs for i in range(k)]))
        object.__setattr__(out, "_runs", (runs, min(y for _, y, _ in runs),
                                          max(y + k for _, y, k in runs) - 1))
        return out

    def _ints(self) -> tuple:
        """(sx, sy, xs, ys): this set on its integer grid."""
        grid = self._grid
        if grid.__class__ is not tuple:  # a sum's keys or _of_runs' runs, decoded once
            grid = grid()
            object.__setattr__(self, "_grid", grid)
        return grid

    def _frame(self) -> tuple:
        """(sx, sy, first x, last x, lowest y, highest y) of a nonempty set, off its
        runs when it has them: with its grid not yet decoded, it is _of_runs' on 1, 1."""
        if self._runs is None:
            sx, sy, xs, ys = self._ints()
            return sx, sy, xs[0], xs[-1], min(ys), max(ys)
        (runs, lo, hi), grid = self._runs, self._grid
        return (*(grid[:2] if grid.__class__ is tuple else (1, 1)), runs[0][0], runs[-1][0], lo, hi)

    def _column_runs(self, lo: int, hi: int) -> list:
        """The maximal column runs (x, y, k), grid points (x, y + i) for i < k; kept with lo, hi."""
        runs, px, ny, k = [], None, None, 0
        for x, y in zip(*self._ints()[2:]):
            if y != ny or x != px:  # a new run: close the last one
                if k:
                    runs.append((px, ny - k, k))
                px, k = x, 0
            k, ny = k + 1, y + 1
        runs.append((px, ny - k, k))
        object.__setattr__(self, "_runs", (runs, lo, hi))
        return runs

    def _line_counts(self) -> tuple:
        """line_counts of the nonempty grid, walked once per set."""
        if self._counts is None:
            object.__setattr__(self, "_counts", line_counts(*self._ints()[2:]))
        return self._counts

    def _split(self) -> tuple:
        """(m, lower, upper): the longest row's length m, and the points on and
        below, and on and above, the lowest row of m points."""
        sx, sy, xs, ys = self._ints()
        rows = Counter(ys)
        m = max(rows.values())
        t = min(y for y, k in rows.items() if k == m)
        return m, *(PointSet2D._on_grid(sx, sy, [x for x, y in zip(xs, ys) if keep(y)],
                                        [y for y in ys if keep(y)])
                    for keep in (t.__ge__, t.__le__))  # y <= t, then y >= t

    def _compressed(self) -> "PointSet2D":
        """C(self) with no sort: column i holds the levels of the rows longer than i."""
        _, sy, _, ys = self._ints()
        rows = sorted(Counter(ys).items())  # (level, row length), levels ascending
        cols = [[level for level, k in rows if k > i] for i in range(max(k for _, k in rows))]
        return PointSet2D._on_grid(1, sy, [i for i, col in enumerate(cols) for _ in col],
                                   [level for col in cols for level in col])

    @property
    def points(self) -> tuple[Point2, ...]:
        if self._pts is None:
            sx, sy, xs, ys = self._ints()
            object.__setattr__(self, "_pts", _points(zip(xs, ys), sx, sy))
        return self._pts

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Point2]:
        return iter(self.points)

    def __contains__(self, p) -> bool:
        p, pts = _as_point(p), self.points
        i = bisect_left(pts, p)
        return i < self._len and pts[i] == p

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet2D) and self._len == other._len \
            and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"PointSet2D({list(self.points)!r})"

    def __setattr__(self, *_):
        raise AttributeError("PointSet2D is immutable")

    def translate(self, delta: Point2) -> "PointSet2D":
        """The set moved by delta, a pair of ints or Fractions (strings are not parsed
        here), on a grid made finer only where delta needs it, else with the runs moved."""
        dx, dy = _exact_pair(delta, "translate")
        sx, sy, xs, ys = self._ints()
        nx, ny = lcm(sx, dx.denominator), lcm(sy, dy.denominator)
        moved = PointSet2D._on_grid(nx, ny, _regrid(xs, sx, nx, dx), _regrid(ys, sy, ny, dy))
        if self._runs is not None and nx == sx and ny == sy:
            runs, lo, hi = self._runs
            ix, iy = dx.numerator * (sx // dx.denominator), dy.numerator * (sy // dy.denominator)
            object.__setattr__(moved, "_runs", ([(x + ix, y + iy, k) for x, y, k in runs],
                                                lo + iy, hi + iy))
        return moved

    def columns(self) -> dict[Rational, list[Rational]]:
        """x-value -> ascending y-values on that vertical line."""
        sx, sy, xs, ys = self._ints()
        return _sections(xs, ys, sx, sy)

    def rows(self) -> dict[Rational, list[Rational]]:
        """y-value -> ascending x-values on that horizontal line."""
        sx, sy, xs, ys = self._ints()
        return _sections(ys, xs, sy, sx)  # canonical order: ascending x within each y


def _sections(keys, values, sk: int = 1, sv: int = 1) -> dict:
    """Grid key -> its values in their order, keys ascending, divided by sk and sv."""
    out: dict = {}
    for k, v in zip(keys, values if sv == 1 else [_unscale(v, sv) for v in values]):
        out.setdefault(k, []).append(v)
    return {k if sk == 1 else _unscale(k, sk): out[k] for k in sorted(out)}


def _regrid(vs, scale: int, new: int, d: Rational = 0):
    """vs/scale + d on the grid 1/new, new a multiple of scale and of d's denominator."""
    k, shift = new // scale, d.numerator * (new // d.denominator)
    return vs if k == 1 and shift == 0 else [v * k + shift for v in vs]


def _points(pts: Iterable, sx: int, sy: int) -> tuple[Point2, ...]:
    """Grid points (x, y) as the Point2s (x/sx, y/sy), int where integral."""
    new = tuple.__new__
    if sx == 1 and sy == 1:
        return tuple(new(Point2, p) for p in pts)
    return tuple(new(Point2, (_unscale(x, sx), _unscale(y, sy))) for x, y in pts)


@dataclass(frozen=True)
class CoverStats:
    """The cover counts of a point set that the bounds read.

    vertical_line_count is the number of distinct x-values (vertical lines
    needed to cover the set), the lines mode's m; max_horizontal_section is
    the size of the largest intersection with a horizontal line, the
    sections mode's m; is_two_dimensional is False for a collinear set.
    """

    vertical_line_count: int
    max_horizontal_section: int
    is_two_dimensional: bool


@dataclass(frozen=True)
class AffineMap2D:
    """An invertible affine map (x, y) -> (a11 x + a12 y + tx, a21 x + a22 y + ty).

    The intended constructors are the restricted groups used by the
    normalizations: diagonal maps and upper-triangular maps (shears combined
    with axis scalings), each with a free translation part.
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
        if self.a11 * self.a22 - self.a12 * self.a21 == 0:
            raise InvalidSpec("affine map must be invertible (determinant != 0)")

    @classmethod
    def diagonal(cls, alpha: Rational, beta: Rational, tx: Rational = 0, ty: Rational = 0) -> "AffineMap2D":
        return cls(alpha, 0, 0, beta, tx, ty)

    @classmethod
    def upper_triangular(cls, a11: Rational, a12: Rational, a22: Rational,
                         tx: Rational = 0, ty: Rational = 0) -> "AffineMap2D":
        return cls(a11, a12, 0, a22, tx, ty)

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

    def to_json_dict(self) -> dict:
        return {k: rat_str(getattr(self, k)) for k in ("a11", "a12", "a21", "a22", "tx", "ty")}


# ---------------------------------------------------------------------------
# the sumset kernel: sets of lattice keys as Python ints, one bit per key
# ---------------------------------------------------------------------------

# A sum whose bounding box has more cells than there are pairs (p, q) is
# summed as a set of keys instead of a bitset.  This is a fixed rule on the
# input's shape: it keeps far-apart or large-denominator points from
# allocating a huge mask.  The dense side costs about log2(k) shifts of a
# cells-bit mask per column run of k points of A, against |A|·|B| insertions.
DENSE_CELLS_PER_PAIR = 1


def bit_mask(keys: Iterable[int]) -> int:
    """The bitset with bit k set for each key k >= 0."""
    mask = 0
    for k in keys:
        mask |= 1 << k
    return mask


def _spread(mask: int, runs: Iterable, step_x: int, step_y: int, base: int) -> int:
    """mask(A + B) for mask = mask(B): mask shifted to the key x*step_x + (y + i)*step_y
    - base of each cell i < k of each run (x, y, k) of A and ORed, ceil(log2(k))
    doublings per run.  Callers (_packed_sum, _line_sum_size, search's sweep rows) space
    their keys so that no sum carries out of a column."""
    out = 0
    for x, y, k in runs:
        spread, done = mask, 1  # mask at steps 0, ..., k - 1
        while done < k:  # double, then add the rest
            step = min(done, k - done)
            spread |= spread << step * step_y
            done += step
        out |= spread << (x * step_x + y * step_y - base)
    return out


def is_sparse(cells: int, size_a: int, size_b: int) -> bool:
    """True when a sum spanning this many cells is summed as a key set."""
    return cells > DENSE_CELLS_PER_PAIR * size_a * size_b


def _set_bits(mask: int) -> list[int]:
    """The set bits of mask, ascending; each one-bit ends a run of zeros."""
    runs = bin(mask)[:1:-1].split("1")  # bit k at string index k
    ends = list(accumulate(map(add, map(len, runs), repeat(1)), initial=-1))
    return ends[1:-1]


def common_scale(*value_lists) -> tuple[int, list[list[int]]]:
    """(L, lists): L is the lcm of every value's denominator, and each list
    is multiplied by L into ints.  Lists of ints come back as they are."""
    scale = lcm(*[v.denominator for values in value_lists for v in values])
    if scale == 1:
        return 1, list(value_lists)
    return scale, [[v.numerator * (scale // v.denominator) for v in values]
                   for values in value_lists]


def _unscale(value: int, scale: int) -> Rational:
    q, r = divmod(value, scale)
    return q if r == 0 else Fraction(value, scale)


def _packed_sum(a: PointSet2D, b: PointSet2D, caller: str, dense_only: bool = False) -> Optional[PointSet2D]:
    """A + B of a nonempty pair, born on one grid: its size is the key count,
    and _unpack decodes its keys when its grid is first read; None, with
    dense_only, where it would be summed as a key set.

    Both sets go on the lcm of their x- and of their y-scales, each moved to
    its own minimum x and y, and (x, y) gets the key x*S + y for the stride
    S = height(A) + height(B) + 1, so no y of a sum carries into the next
    column.  A column run of k points is k bits q apart (q the set's y-refinement):
    mask(B) is one block per run of B, and mask(A + B) is mask(B) spread over
    A's runs by _spread, or, past DENSE_CELLS_PER_PAIR cells per pair (p, q),
    the keys are the set of pairwise sums, and no runs are walked."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySet(f"{caller} needs nonempty sets")
    (sxa, sya, xa, xa_end, lo_a, hi_a), (sxb, syb, xb, xb_end, lo_b, hi_b) = a._frame(), b._frame()
    sx, sy = lcm(sxa, sxb), lcm(sya, syb)
    pa, pb, qa, qb = sx // sxa, sx // sxb, sy // sya, sy // syb  # onto the common grid
    stride = (hi_a - lo_a) * qa + (hi_b - lo_b) * qb + 1
    ca, cb = pa * stride, pb * stride  # the key step of one x of a set's own grid
    base_a, base_b = xa * ca + lo_a * qa, xb * cb + lo_b * qb  # so keys start at 0
    if is_sparse((xa_end - xa) * ca + (xb_end - xb) * cb + stride, len(a), len(b)):
        if dense_only:
            return None
        keys_a = [x * ca + y * qa - base_a for x, y in zip(*a._ints()[2:])]
        keys_b = [x * cb + y * qb - base_b for x, y in zip(*b._ints()[2:])]
        keys = {u + w for u in keys_a for w in keys_b}
    else:
        mask_b = 0
        for x, y, k in b._runs[0] if b._runs else b._column_runs(lo_b, hi_b):
            block = 1 if k == 1 else ((1 << k * qb) - 1) // ((1 << qb) - 1)  # k bits, qb apart
            mask_b |= block << (x * cb + y * qb - base_b)
        runs_a = a._runs[0] if a._runs else a._column_runs(lo_a, hi_a)  # b's, if a is b
        keys = _spread(mask_b, runs_a, ca, qa, base_a)
    return object.__new__(PointSet2D)._fill(
        len(keys) if keys.__class__ is set else keys.bit_count(),
        partial(_unpack, keys, stride, xa * pa + xb * pb, lo_a * qa + lo_b * qb, sx, sy))


def _line_sum_size(va: list, vb: list) -> int:
    """|A + B| for two nonempty ascending lists of ints, by _packed_sum's rule:
    the set of pairwise sums where the sum's span is sparse, else mask(B - b0)
    spread over A's values as one-point runs."""
    if is_sparse(va[-1] - va[0] + vb[-1] - vb[0] + 1, len(va), len(vb)):
        return len({u + w for u in va for w in vb})
    return _spread(bit_mask(w - vb[0] for w in vb), [(v, 0, 1) for v in va], 1, 1, va[0]).bit_count()


def grid_sections(a: PointSet2D, b: PointSet2D, rows: bool) -> tuple[int, int, dict, dict]:
    """(level scale, value scale, sections of a, sections of b) on the pair's common
    grid, the lcms of their x- and y-scales: each row (level y) or column (level x)
    as grid level -> ascending grid values."""
    (sxa, sya, xs_a, ys_a), (sxb, syb, xs_b, ys_b) = a._ints(), b._ints()
    sx, sy = lcm(sxa, sxb), lcm(sya, syb)
    grid_a = _regrid(xs_a, sxa, sx), _regrid(ys_a, sya, sy)
    grid_b = _regrid(xs_b, sxb, sx), _regrid(ys_b, syb, sy)
    if rows:  # levels y, values x: ascending within each row in canonical order
        sx, sy, grid_a, grid_b = sy, sx, grid_a[::-1], grid_b[::-1]
    return sx, sy, _sections(*grid_a), _sections(*grid_b)


def sumset_size(a: PointSet2D, b: PointSet2D, *, _dense_only: bool = False) -> Optional[int]:
    """|A + B| by minkowski_sum's kernel, without building its points; with
    _dense_only, None where the kernel would sum the pair as a key set."""
    total = _packed_sum(a, b, "sumset_size", _dense_only)
    return None if total is None else len(total)


def minkowski_sum(a: PointSet2D, b: PointSet2D) -> PointSet2D:
    """The sumset {p + q : p in a, q in b}, by the exact kernel of _packed_sum."""
    return _packed_sum(a, b, "minkowski_sum")


def _unpack(keys, stride: int, x0: int, y0: int, sx: int, sy: int) -> tuple:
    """The grid (sx, sy, xs, ys) of _packed_sum's keys.  Ascending keys are
    ascending (x, y), the canonical order, so the set bits read low to high
    (or the sparse keys, sorted) give it with no sort of points."""
    keys = sorted(keys) if keys.__class__ is set else _set_bits(keys)
    return sx, sy, [k // stride + x0 for k in keys], [k % stride + y0 for k in keys]


def line_counts(xs, ys) -> tuple[int, int, Optional[tuple]]:
    """(columns, longest row, step) of the nonempty points (xs[i], ys[i]) in
    canonical order: the number of distinct xs, the most points sharing one
    y, and _line_step(xs, ys)."""
    rows = {}
    for y in ys:
        rows[y] = rows.get(y, 0) + 1
    return len(set(xs)), max(rows.values()), _line_step(xs, ys)


def _line_step(xs, ys) -> Optional[tuple]:
    """Point 1 minus point 0 when the nonempty points (xs[i], ys[i]) lie on one
    line, (0, 0) for a singleton, and None (at the first point off it) if not."""
    x0, y0 = xs[0], ys[0]
    if len(xs) == 1:
        return 0, 0
    dx, dy = xs[1] - x0, ys[1] - y0
    for x, y in zip(xs, ys):
        if dx * (y - y0) != dy * (x - x0):
            return None
    return dx, dy


def cover_stats(x: PointSet2D) -> CoverStats:
    if len(x) == 0:
        raise EmptySet("cover_stats needs a nonempty set")
    cols, longest_row, step = x._line_counts()
    return CoverStats(cols, longest_row, step is None)


def collinear_direction(x: PointSet2D) -> Optional[Point2]:
    """Primitive direction of the line containing x, or None if x is not collinear.

    Singletons report direction (0, 0): they lie on every line through the
    point, so callers treat them as parallel to anything.
    """
    if len(x) == 0:
        raise EmptySet("collinear_direction needs a nonempty set")
    step, (sx, sy) = x._line_counts()[2], x._ints()[:2]
    # the grid step (dx, dy) is (dx/sx, dy/sy), parallel to (dx*sy, dy*sx)
    return None if step is None else _primitive((step[0] * sy, step[1] * sx))


def _primitive(d: tuple) -> Point2:
    """An integer vector divided by the gcd of its entries and turned to
    point up, or right when horizontal; (0, 0) stays."""
    g = gcd(d[0], d[1]) or 1
    nx, ny = d[0] // g, d[1] // g
    if ny < 0 or (ny == 0 and nx < 0):
        nx, ny = -nx, -ny
    return tuple.__new__(Point2, (nx, ny))


def parallel_directions(d1, d2) -> bool:
    """True when the directions (pairs) are parallel; the singleton wildcard
    (0, 0) is parallel to every direction, as its cross product is 0."""
    return d1[0] * d2[1] == d1[1] * d2[0]


def apply_map(x: PointSet2D, m: AffineMap2D) -> PointSet2D:
    """Image of x under an invertible affine map (nothing to dedupe), born on
    its reduced grid: each image axis a*x + b*y + t on x's grid ints, over the
    lcm of the terms' denominators, divided by the gcd of it and the values."""
    sx, sy, xs, ys = x._ints()
    axes = []
    for a, b, t in ((m.a11, m.a12, m.tx), (m.a21, m.a22, m.ty)):
        den = lcm(a.denominator * sx, b.denominator * sy, t.denominator)
        ka, kb, kt = (c.numerator * den // (c.denominator * s) for c, s in ((a, sx), (b, sy), (t, 1)))
        vs = [ka * u + kb * v + kt for u, v in zip(xs, ys)]
        g = gcd(den, *vs)
        axes.append((den // g, [w // g for w in vs]))
    (nx, ixs), (ny, iys) = axes
    return PointSet2D._on_grid(nx, ny, *(zip(*sorted(zip(ixs, iys))) if xs else ((), ())))


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
    sx, sy, xs, ys = x._ints()
    ok_x, dx = shared_difference([xs])
    ok_y, dy = shared_difference([ys])
    if ok_x and ok_y:  # then the points lie on one line, one step apart
        return tuple.__new__(Point2, (_unscale(dx or 0, sx), _unscale(dy or 0, sy)))
    if x._line_counts()[2] is None:
        raise NotCollinear("arithmetic_progression_of needs a collinear set")
    return None


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
        pts.append(_point(parse_rational(parts[0], lineno), parse_rational(parts[1], lineno)))
    return pts


def loads_points(text: str) -> PointSet2D:
    return PointSet2D(parse_point_lines(text))


def dumps_points(ps: PointSet2D) -> str:
    return "".join(f"{rat_str(p.x)} {rat_str(p.y)}\n" for p in ps)


def save_points(ps: PointSet2D, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_points(ps))
