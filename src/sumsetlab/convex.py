"""Convex rational polygons: exact Minkowski sums, the projection-sharpened
area bound, vertical stretching/compression, homothety certificates, and the
companion lemma suite.

Convex rational polygons are the computational model of a convex body here:
the class is closed under Minkowski sum, clipping, stretching and maximal
vertical compression, and every quantity of interest (areas, projection
lengths, slopes) is an exact rational.  Degenerate segments are first-class
citizens; they arise as maximal compressions.

A polygon is held on one integer grid (scale, xs, ys): vertex i is
(xs[i]/scale, ys[i]/scale), scale the lcm of the vertex denominators.  All
predicates and constructions run on those ints (a sum on the lcm of both
scales) and divide once at the end; the Point2 vertices are built on first
use, so a sum that is only measured never builds them.  Vertices are checked
only where they come in, by the constructor: sums, stretches, compressions,
translates and scalings built here are stored as built, and tests check them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Optional

from .core import (Point2, Rational, _as_point, _exact_pair, _point, _points, _regrid, _turn,
                   _unscale, common_scale, parse_point_lines, rat, rat_str)
from .errors import (ConsistencyError, DegenerateProjection, EmptySet,
                     HypothesisViolated, InvalidAmount, InvalidSpec, ParseError)


class ConvexPolygon:
    """A strictly convex CCW polygon, or a 2-vertex segment.

    The vertex list starts at the lexicographically least vertex ordered by
    (y, x), so equal polygons have equal vertex lists and equal grids.
    """

    __slots__ = ("_scale", "_xs", "_ys", "_verts")

    def __init__(self, vertices: Iterable):
        verts = [_as_point(v) for v in vertices]
        scale, (xs, ys) = common_scale([v[0] for v in verts], [v[1] for v in verts])
        pts = list(zip(xs, ys))  # checked only here: _on_grid stores what the module builds
        if len(pts) < 2:
            raise InvalidSpec("a polygon needs at least 2 vertices")
        if len(set(pts)) != len(pts):
            raise InvalidSpec("duplicate vertices")
        if len(pts) > 2 and any(_turn(a, b, c) <= 0 for a, b, c in
                                zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2])):
            raise InvalidSpec("vertices must be strictly convex in CCW order")
        halves = [_angle_key(e) for e in self._set_grid(scale, pts)._edges()]
        winds = sum(h > k for h, k in zip(halves, halves[1:] + halves[:1]))  # edges past +x
        if winds != 1:  # strict left turns admit stars
            raise InvalidSpec(f"vertices must wind once around, not {winds} times")

    @classmethod
    def _on_grid(cls, scale: int, pts: list) -> "ConvexPolygon":
        """The polygon with vertices (x/scale, y/scale) for (x, y) in pts."""
        return object.__new__(cls)._set_grid(scale, pts)

    def _set_grid(self, scale: int, pts: list) -> "ConvexPolygon":
        """Store pts, unchecked, from the canonical start, on the reduced scale."""
        start = pts.index(min(pts, key=itemgetter(1, 0)))
        xs, ys = zip(*(pts[start:] + pts[:start]))
        g = gcd(scale, *xs, *ys) if scale > 1 else 1
        if g > 1:
            scale, xs, ys = scale // g, tuple(x // g for x in xs), tuple(y // g for y in ys)
        for name, value in (("_scale", scale), ("_xs", xs), ("_ys", ys), ("_verts", None)):
            object.__setattr__(self, name, value)
        return self

    @property
    def vertices(self) -> tuple[Point2, ...]:
        if self._verts is None:
            verts = _points(zip(self._xs, self._ys), self._scale, self._scale)
            object.__setattr__(self, "_verts", verts)
        return self._verts

    @property
    def is_degenerate(self) -> bool:
        return len(self._xs) == 2

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and \
            (self._scale, self._xs, self._ys) == (other._scale, other._xs, other._ys)

    def __hash__(self) -> int:
        return hash((self._scale, self._xs, self._ys))

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self.vertices)!r})"

    def __setattr__(self, *_):
        raise AttributeError("ConvexPolygon is immutable")

    def _edges(self, k: int = 1) -> list[tuple[int, int]]:
        """edge_vectors on the grid, times k."""
        xs, ys = self._xs, self._ys
        return [((x1 - x0) * k, (y1 - y0) * k)
                for x0, x1, y0, y1 in zip(xs, xs[1:] + xs[:1], ys, ys[1:] + ys[:1])]

    def edge_vectors(self) -> list[Point2]:
        """CCW edge vectors from the canonical start (two opposite vectors
        for a segment)."""
        return list(_points(self._edges(), self._scale, self._scale))

    def area(self) -> Rational:
        xs, ys = self._xs, self._ys
        twice = sum(map(mul, xs, ys[1:] + ys[:1])) - sum(map(mul, xs[1:] + xs[:1], ys))
        return _unscale(twice, 2 * self._scale ** 2)

    def width(self) -> Rational:
        return _unscale(max(self._xs) - min(self._xs), self._scale)

    def translate(self, delta: Point2) -> "ConvexPolygon":
        dx, dy = _exact_pair(delta, "point arithmetic")
        s = lcm(self._scale, dx.denominator, dy.denominator)
        return ConvexPolygon._on_grid(s, list(zip(_regrid(self._xs, self._scale, s, dx),
                                                  _regrid(self._ys, self._scale, s, dy))))

    def scale(self, factor: Rational) -> "ConvexPolygon":
        factor = rat(factor)
        if factor <= 0:
            raise InvalidSpec("scale factor must be positive")
        k = factor.numerator
        return ConvexPolygon._on_grid(self._scale * factor.denominator,
                                      [(x * k, y * k) for x, y in zip(self._xs, self._ys)])

    def _chains(self) -> tuple[list, list]:
        """The lower and upper boundary graphs as grid points, left to right."""
        xs, ys = self._xs, self._ys
        xmin, xmax = min(xs), max(xs)
        if xmin == xmax:
            raise DegenerateProjection("vertical segment has no boundary graphs")
        n, pts = len(xs), list(zip(xs, ys)) * 2  # twice round, so each walk is a slice
        if n == 2:
            return sorted(pts[:2]), sorted(pts[:2])
        y = ys.__getitem__
        left = [i for i, x in enumerate(xs) if x == xmin]  # one x, so at most 2
        right = [i for i, x in enumerate(xs) if x == xmax]
        (a, b), (c, d) = (min(left, key=y), min(right, key=y)), (max(right, key=y), max(left, key=y))
        return pts[a:b + 1 + n * (b < a)], pts[c:d + 1 + n * (d < c)][::-1]

    def chains(self) -> "BoundaryChains":
        """Lower/upper boundary graphs over [min x, max x]."""
        lower, upper = self._chains()
        return BoundaryChains(*(_points(c, self._scale, self._scale) for c in (lower, upper)))


@dataclass(frozen=True)
class BoundaryChains:
    """Breakpoint lists of the convex lower chain u and concave upper chain v."""

    lower: tuple[Point2, ...]
    upper: tuple[Point2, ...]


def _interp(chain: tuple[Point2, ...], x: Rational) -> Rational:
    x = rat(x)
    if x < chain[0].x or x > chain[-1].x:
        raise InvalidSpec(f"x = {rat_str(x)} outside chain domain")
    for a, b in zip(chain, chain[1:]):
        if a.x <= x <= b.x:
            if a.x == b.x:
                return a.y
            t = Fraction(x - a.x) / Fraction(b.x - a.x)
            return rat(a.y + t * (b.y - a.y))
    return chain[-1].y


def _merge_collinear(verts: list) -> list:
    out = [v for i, v in enumerate(verts) if i == 0 or v != verts[i - 1]]
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    i = 0
    while len(out) > 2 and i < len(out):  # drop the first collinear vertex, rescan
        if _turn(out[i - 1], out[i], out[(i + 1) % len(out)]) == 0:
            out.pop(i)
            i = 0
        else:
            i += 1
    return out


def from_chains(lower: Iterable[Point2], upper: Iterable[Point2]) -> ConvexPolygon:
    """Assemble a polygon from boundary graphs (shared endpoints deduplicated).

    Coinciding chains collapse to the 2-vertex segment they describe.
    """
    return ConvexPolygon(_chain_cycle([_as_point(v) for v in lower], [_as_point(v) for v in upper]))


def _chain_cycle(lower: list, upper: list) -> list:
    """The vertex cycle of two boundary graphs, or a segment's two ends."""
    pts = lower + upper
    base = pts[0]
    ref = next((p for p in pts if p != base), None)
    if ref is not None and all(_turn(base, ref, p) == 0 for p in pts):
        return [min(pts), max(pts)]
    return _merge_collinear(lower + upper[::-1])


# ---------------------------------------------------------------------------
# Minkowski sum by angle-sorted edge merge
# ---------------------------------------------------------------------------

def _angle_key(v: tuple) -> int:
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _edge_before(u: tuple, v: tuple) -> int:
    """-1 if u precedes v in CCW angle order from +x, 0 if parallel same
    direction, +1 if u follows v."""
    hu, hv = _angle_key(u), _angle_key(v)
    if hu != hv:
        return hu - hv
    c = u[1] * v[0] - u[0] * v[1]
    return (c > 0) - (c < 0)


def poly_minkowski_sum(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Edge multiset merge: the sum's boundary is both edge lists interleaved
    by angle, starting from the sum of the two bottom-most vertices.  Each
    list rises strictly in angle from its bottom-most vertex, so joining the
    equal directions of the two lists leaves no collinear vertex."""
    scale = lcm(p._scale, q._scale)
    kp, kq = scale // p._scale, scale // q._scale
    ep, eq = p._edges(kp), q._edges(kq)
    x, y = p._xs[0] * kp + q._xs[0] * kq, p._ys[0] * kp + q._ys[0] * kq
    verts = []
    i = j = 0
    while i < len(ep) or j < len(eq):  # the last edge returns to the start
        verts.append((x, y))
        order = 1 if i == len(ep) else -1 if j == len(eq) else _edge_before(ep[i], eq[j])
        if order <= 0:
            x, y, i = x + ep[i][0], y + ep[i][1], i + 1
        if order >= 0:
            x, y, j = x + eq[j][0], y + eq[j][1], j + 1
    return ConvexPolygon._on_grid(scale, verts)


# ---------------------------------------------------------------------------
# the projection-sharpened area bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousReport:
    """Both sides of the projection bound plus the certified comparison with
    the square-root (Brunn-Minkowski) value."""

    area_a: Rational
    area_b: Rational
    m: Rational
    n: Rational
    area_sum: Rational
    bonnesen_rhs: Rational
    extremal: bool
    bm_comparison: dict

    def to_json_dict(self) -> dict:
        out = {k: rat_str(getattr(self, k)) for k in ("area_a", "area_b", "m", "n", "area_sum",
                                                      "bonnesen_rhs")}
        bm = self.bm_comparison
        return {**out, "extremal": self.extremal, "bm_comparison": {
            "order": bm["order"], "lhs_squared": rat_str(bm["lhs_squared"]),
            "rhs_squared": rat_str(bm["rhs_squared"])}}


def bonnesen_report(p: ConvexPolygon, q: ConvexPolygon) -> ContinuousReport:
    """rhs = (|P|/m + |Q|/n)(m + n) with m, n the projection widths; the
    comparison against (sqrt|P| + sqrt|Q|)^2 is certified by comparing
    ((n/m)|P| + (m/n)|Q|)^2 with 4|P||Q| in exact arithmetic."""
    m, n = p.width(), q.width()
    if m == 0 or n == 0:
        raise DegenerateProjection("both polygons need positive horizontal projection")
    ap, aq = Fraction(p.area()), Fraction(q.area())
    rhs = (ap / m + aq / n) * (m + n)
    area_sum = Fraction(poly_minkowski_sum(p, q).area())
    cross_term = Fraction(n, 1) / m * ap + Fraction(m, 1) / n * aq
    lhs_sq, rhs_sq = cross_term ** 2, 4 * ap * aq
    order = "eq" if lhs_sq == rhs_sq else ("gt" if lhs_sq > rhs_sq else "lt")
    return ContinuousReport(
        area_a=rat(ap), area_b=rat(aq), m=rat(m), n=rat(n),
        area_sum=rat(area_sum), bonnesen_rhs=rat(rhs),
        extremal=area_sum == rhs,
        bm_comparison={"order": order, "lhs_squared": rat(lhs_sq), "rhs_squared": rat(rhs_sq)},
    )


# ---------------------------------------------------------------------------
# vertical stretching and maximal compression
# ---------------------------------------------------------------------------

def stretch_vertical(p: ConvexPolygon, h: Rational) -> ConvexPolygon:
    """Translate the upper chain up by h, inserting/extending vertical ends."""
    h = rat(h)
    if h < 0:
        raise InvalidAmount("stretch amount must be >= 0")
    if h == 0:
        return p
    scale = lcm(p._scale, h.denominator)
    k, lift = scale // p._scale, h.numerator * (scale // h.denominator)
    if p.is_degenerate and p._xs[0] == p._xs[1]:
        x, (lo, hi) = p._xs[0] * k, sorted(p._ys)
        return ConvexPolygon._on_grid(scale, [(x, lo * k), (x, hi * k + lift)])
    lower, upper = p._chains()
    return ConvexPolygon._on_grid(scale, _chain_cycle([(x * k, y * k) for x, y in lower],
                                                      [(x * k, y * k + lift) for x, y in upper]))


@dataclass(frozen=True)
class StretchDecomposition:
    """Maximal vertical compression: stretch_vertical(core, amount) rebuilds
    the input and no further compression is possible."""

    core: ConvexPolygon
    amount: Rational


def decompose_vertical(p: ConvexPolygon) -> StretchDecomposition:
    """Compress by the minimum of (upper - lower); the core touches somewhere
    and may degenerate to a segment (e.g. rectangles compress to segments).
    upper - lower is concave, so its minimum is the shorter vertical end edge."""
    lower, upper = p._chains()
    amount = min(upper[0][1] - lower[0][1], upper[-1][1] - lower[-1][1])
    if amount == 0:
        return StretchDecomposition(p, 0)
    dropped = [(x, y - amount) for x, y in upper]
    return StretchDecomposition(ConvexPolygon._on_grid(p._scale, _chain_cycle(lower, dropped)),
                                _unscale(amount, p._scale))


def homothety_certificate(p: ConvexPolygon, q: ConvexPolygon) -> Optional[tuple[Rational, Point2]]:
    """(ratio, translation) with p = ratio * q + translation, or None.

    The ratio must be positive (reflections are not homotheties); segments
    are homothetic exactly when parallel with same orientation class.
    Edge u of p is lam times edge v of q for one lam > 0: with the grid
    ratio a/b read off the first pair, u * b == a * v for every pair.
    """
    ep, eq = p._edges(), q._edges()
    if len(ep) != len(eq):
        return None
    (ux, uy), (vx, vy) = ep[0], eq[0]
    a, b = (ux, vx) if vx != 0 else (uy, vy)
    if a * b <= 0 or any(u[0] * b != a * v[0] or u[1] * b != a * v[1] for u, v in zip(ep, eq)):
        return None
    lam = Fraction(a * q._scale, b * p._scale)
    t = _point(Fraction(p._xs[0], p._scale) - lam * Fraction(q._xs[0], q._scale),
               Fraction(p._ys[0], p._scale) - lam * Fraction(q._ys[0], q._scale))
    return rat(lam), t


@dataclass(frozen=True)
class HomothetyCertificate:
    core_a: ConvexPolygon
    core_b: ConvexPolygon
    amount_a: Rational
    amount_b: Rational
    ratio: Rational
    translation: Point2

    def to_json_dict(self) -> dict:
        return {"core_a": dumps_polygon(self.core_a).splitlines(),
                "core_b": dumps_polygon(self.core_b).splitlines(),
                "amount_a": rat_str(self.amount_a), "amount_b": rat_str(self.amount_b),
                "ratio": rat_str(self.ratio),
                "translation": [rat_str(self.translation.x), rat_str(self.translation.y)]}


def decompose_and_classify(p: ConvexPolygon, q: ConvexPolygon) -> Optional[HomothetyCertificate]:
    """Certificate of the extremal structure: homothetic maximal compressions.

    Certificate existence must equal exact extremality of the pair; any
    mismatch is a hard failure, not a report.
    """
    return _classified(p, q)[1]


def _classified(p: ConvexPolygon, q: ConvexPolygon) -> tuple:
    """(bonnesen_report, certificate or None) of the pair, as checked above."""
    report = bonnesen_report(p, q)
    da, db = decompose_vertical(p), decompose_vertical(q)
    hom = homothety_certificate(da.core, db.core)
    if (hom is not None) != report.extremal:
        raise ConsistencyError(
            "homothety certificate disagrees with exact extremality: "
            f"certificate={hom is not None}, extremal={report.extremal}")
    if hom is None:
        return report, None
    lam, t = hom
    return report, HomothetyCertificate(da.core, db.core, da.amount, db.amount, lam, t)


# ---------------------------------------------------------------------------
# graph bodies: the two refined lower bounds
# ---------------------------------------------------------------------------

def _graph_chains(p: ConvexPolygon) -> BoundaryChains:
    ch = p.chains()
    if any(v.y != 0 for v in ch.lower):
        raise HypothesisViolated("graph body needs its lower chain at y = 0")
    if Fraction(p.area()) <= 0:
        raise HypothesisViolated("graph body needs positive area")
    return ch


def graph_body_bounds(p: ConvexPolygon, q: ConvexPolygon) -> tuple[Rational, Optional[Rational]]:
    """(delta, slope_gap_bound) for bodies {0 <= y <= f(x)}, {0 <= y <= g(x)}.

    delta = n(f(right) - |P|/m) + m(g(left) - |Q|/n) refines the projection
    bound additively; when every slope of f exceeds every slope of g by some
    exact gap eps >= 0, the bound rhs + (mn/2) eps also holds.  Both
    inequalities are asserted against the exact sum area.
    """
    chp, chq = _graph_chains(p), _graph_chains(q)
    report = bonnesen_report(p, q)
    m, n = Fraction(report.m), Fraction(report.n)
    ap, aq = Fraction(report.area_a), Fraction(report.area_b)
    rhs, area_sum = Fraction(report.bonnesen_rhs), Fraction(report.area_sum)
    f_right, g_left = Fraction(chp.upper[-1].y), Fraction(chq.upper[0].y)
    delta = n * (f_right - ap / m) + m * (g_left - aq / n)
    if area_sum < rhs + delta:
        raise ConsistencyError("additive refinement failed on concrete data")
    eps = (min(Fraction(b.y - a.y) / (b.x - a.x) for a, b in zip(chp.upper, chp.upper[1:]))
           - max(Fraction(b.y - a.y) / (b.x - a.x) for a, b in zip(chq.upper, chq.upper[1:])))
    slope_gap_bound = None
    if eps >= 0:
        slope_gap_bound = rhs + m * n / 2 * eps
        if area_sum < slope_gap_bound:
            raise ConsistencyError("slope-gap refinement failed on concrete data")
    return rat(delta), None if slope_gap_bound is None else rat(slope_gap_bound)


# ---------------------------------------------------------------------------
# clipping and the partition/stretch lemma checks
# ---------------------------------------------------------------------------

def clip_vertical_slab(p: ConvexPolygon, x0: Rational, x1: Rational) -> ConvexPolygon:
    """The part of p between the vertical lines x = x0 and x = x1, exactly."""
    x0, x1 = rat(x0), rat(x1)
    if not x0 < x1:
        raise InvalidSpec("need x0 < x1")
    return _clip(p.chains(), x0, x1)


def _clip(ch: BoundaryChains, x0: Rational, x1: Rational) -> ConvexPolygon:
    if x0 < ch.lower[0].x or x1 > ch.lower[-1].x:
        raise InvalidSpec("slab outside the polygon's projection")

    def restrict(chain: tuple[Point2, ...]) -> list[Point2]:
        pts = [_point(x0, _interp(chain, x0))]
        pts += [v for v in chain if x0 < v.x < x1]
        pts.append(_point(x1, _interp(chain, x1)))
        return pts

    return from_chains(restrict(ch.lower), restrict(ch.upper))


def partition_check(p: ConvexPolygon, q: ConvexPolygon, k: int) -> bool:
    """Clip both bodies into k equal-width slabs, pair them in order, and
    test that every slab pair is extremal (required for extremal input)."""
    if not (isinstance(k, int) and k >= 1):
        raise InvalidSpec("k must be a positive integer")
    report = bonnesen_report(p, q)
    if not report.extremal:
        raise HypothesisViolated("partition_check needs an extremal pair")
    if k == 1:
        return True
    chp, chq = p.chains(), q.chains()
    pa, qa = chp.lower[0].x, chq.lower[0].x
    m, n = Fraction(report.m), Fraction(report.n)
    for i in range(k):
        slab_p = _clip(chp, rat(pa + m * i / k), rat(pa + m * (i + 1) / k))
        slab_q = _clip(chq, rat(qa + n * i / k), rat(qa + n * (i + 1) / k))
        if not bonnesen_report(slab_p, slab_q).extremal:
            return False
    return True


def stretch_invariance_check(p: ConvexPolygon, q: ConvexPolygon, h: Rational) -> bool:
    """True iff stretching p by h does not change the pair's extremality
    (always true; false would witness a broken invariance lemma)."""
    return bonnesen_report(p, q).extremal == bonnesen_report(stretch_vertical(p, h), q).extremal


# ---------------------------------------------------------------------------
# polygon file format: vertex per line, CCW from the canonical start
# ---------------------------------------------------------------------------

def loads_polygon(text: str) -> ConvexPolygon:
    verts = parse_point_lines(text)
    if not verts:
        raise EmptySet("polygon file has no vertices")
    try:
        return ConvexPolygon(verts)
    except InvalidSpec as exc:
        raise ParseError(str(exc)) from exc


def dumps_polygon(p: ConvexPolygon) -> str:
    return "".join(f"{rat_str(v.x)} {rat_str(v.y)}\n" for v in p.vertices)
