"""Convex rational polygons: exact Minkowski sums, the projection-sharpened
area bound, vertical stretching/compression, homothety certificates, and the
companion lemma suite.

Convex rational polygons are the computational model of a convex body here:
the class is closed under Minkowski sum, clipping, stretching and maximal
vertical compression, and every quantity of interest (areas, projection
lengths, slopes) is an exact rational.  Degenerate segments are first-class
citizens; they arise as maximal compressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .core import Point2, Rational, _as_point, _point, _turn, parse_point_lines, rat, rat_str
from .errors import (ConsistencyError, DegenerateProjection, EmptySet,
                     HypothesisViolated, InvalidAmount, InvalidSpec, ParseError)


class ConvexPolygon:
    """A strictly convex CCW polygon, or a 2-vertex segment.

    The vertex list starts at the lexicographically least vertex ordered by
    (y, x), so equal polygons compare equal vertex-by-vertex.
    """

    __slots__ = ("_verts",)

    def __init__(self, vertices: Iterable):
        verts = [_as_point(v) for v in vertices]
        if len(verts) < 2:
            raise InvalidSpec("a polygon needs at least 2 vertices")
        if len(set(verts)) != len(verts):
            raise InvalidSpec("duplicate vertices")
        if len(verts) > 2 and any(_turn(a, b, c) <= 0 for a, b, c in
                                  zip(verts, verts[1:] + verts[:1], verts[2:] + verts[:2])):
            raise InvalidSpec("vertices must be strictly convex in CCW order")
        start = min(range(len(verts)), key=lambda i: (verts[i].y, verts[i].x))
        object.__setattr__(self, "_verts", tuple(verts[start:] + verts[:start]))

    @property
    def vertices(self) -> tuple[Point2, ...]:
        return self._verts

    @property
    def is_degenerate(self) -> bool:
        return len(self._verts) == 2

    def __eq__(self, other) -> bool:
        return isinstance(other, ConvexPolygon) and self._verts == other._verts

    def __hash__(self) -> int:
        return hash(self._verts)

    def __repr__(self) -> str:
        return f"ConvexPolygon({list(self._verts)!r})"

    def __setattr__(self, *_):
        raise AttributeError("ConvexPolygon is immutable")

    def edge_vectors(self) -> list[Point2]:
        """CCW edge vectors from the canonical start (two opposite vectors
        for a segment)."""
        vs = self._verts
        if len(vs) == 2:
            return [vs[1] - vs[0], vs[0] - vs[1]]
        return [vs[(i + 1) % len(vs)] - vs[i] for i in range(len(vs))]

    def area(self) -> Rational:
        vs = self._verts
        twice = sum(vs[i].cross(vs[(i + 1) % len(vs)]) for i in range(len(vs)))
        return rat(Fraction(twice) / 2)

    def width(self) -> Rational:
        xs = [v.x for v in self._verts]
        return max(xs) - min(xs)

    def translate(self, delta: Point2) -> "ConvexPolygon":
        return ConvexPolygon([v + delta for v in self._verts])

    def scale(self, factor: Rational) -> "ConvexPolygon":
        if factor <= 0:
            raise InvalidSpec("scale factor must be positive")
        return ConvexPolygon([v.scale(factor) for v in self._verts])

    def chains(self) -> "BoundaryChains":
        """Lower/upper boundary graphs over [min x, max x]."""
        vs = self._verts
        xs = [v.x for v in vs]
        xmin, xmax = min(xs), max(xs)
        if xmin == xmax:
            raise DegenerateProjection("vertical segment has no boundary graphs")
        if len(vs) == 2:
            return BoundaryChains(tuple(sorted(vs)), tuple(sorted(vs)))
        left = sorted(v for v in vs if v.x == xmin)  # one x, so sorted by y
        right = sorted(v for v in vs if v.x == xmax)
        lower = _walk(vs, left[0], right[0])
        upper = list(reversed(_walk(vs, right[-1], left[-1])))
        return BoundaryChains(tuple(lower), tuple(upper))


def _walk(verts: tuple[Point2, ...], start: Point2, stop: Point2) -> list[Point2]:
    i = verts.index(start)
    out = [verts[i]]
    while verts[i] != stop:
        i = (i + 1) % len(verts)
        out.append(verts[i])
    return out


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


def _merge_collinear(verts: list[Point2]) -> list[Point2]:
    out = [v for i, v in enumerate(verts) if i == 0 or v != verts[i - 1]]
    if len(out) > 1 and out[0] == out[-1]:
        out.pop()
    changed = True
    while changed and len(out) > 2:
        changed = False
        for i in range(len(out)):
            if _turn(out[i - 1], out[i], out[(i + 1) % len(out)]) == 0:
                out.pop(i)
                changed = True
                break
    return out


def from_chains(lower: Iterable[Point2], upper: Iterable[Point2]) -> ConvexPolygon:
    """Assemble a polygon from boundary graphs (shared endpoints deduplicated).

    Coinciding chains collapse to the 2-vertex segment they describe.
    """
    lower = list(lower)
    upper = list(upper)
    pts = lower + upper
    base = pts[0]
    ref = next((p for p in pts if p != base), None)
    if ref is not None and all(_turn(base, ref, p) == 0 for p in pts):
        ends = sorted(set(pts))
        return ConvexPolygon([ends[0], ends[-1]])
    verts = lower + list(reversed(upper))
    verts = _merge_collinear(verts)
    return ConvexPolygon(verts)


# ---------------------------------------------------------------------------
# Minkowski sum by angle-sorted edge merge
# ---------------------------------------------------------------------------

def _angle_key(v: Point2):
    return 0 if (v.y > 0 or (v.y == 0 and v.x > 0)) else 1


def _edge_before(u: Point2, v: Point2) -> int:
    """-1 if u precedes v in CCW angle order from +x, 0 if parallel same
    direction, +1 if u follows v."""
    hu, hv = _angle_key(u), _angle_key(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = u.cross(v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def poly_minkowski_sum(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Edge multiset merge: the sum's boundary is both edge lists interleaved
    by angle, starting from the sum of the two bottom-most vertices.  Each
    list rises strictly in angle from its bottom-most vertex, so joining the
    equal directions of the two lists leaves no collinear vertex."""
    ep, eq = p.edge_vectors(), q.edge_vectors()
    merged: list[Point2] = []
    i = j = 0
    while i < len(ep) or j < len(eq):
        if i == len(ep):
            take = eq[j]; j += 1
        elif j == len(eq):
            take = ep[i]; i += 1
        else:
            order = _edge_before(ep[i], eq[j])
            if order == 0:
                take = ep[i] + eq[j]; i += 1; j += 1
            elif order < 0:
                take = ep[i]; i += 1
            else:
                take = eq[j]; j += 1
        merged.append(take)
    start = p.vertices[0] + q.vertices[0]
    verts = [start]
    for e in merged[:-1]:
        verts.append(verts[-1] + e)
    return ConvexPolygon(verts)


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
        return {
            "area_a": rat_str(self.area_a),
            "area_b": rat_str(self.area_b),
            "m": rat_str(self.m),
            "n": rat_str(self.n),
            "area_sum": rat_str(self.area_sum),
            "bonnesen_rhs": rat_str(self.bonnesen_rhs),
            "extremal": self.extremal,
            "bm_comparison": {
                "order": self.bm_comparison["order"],
                "lhs_squared": rat_str(self.bm_comparison["lhs_squared"]),
                "rhs_squared": rat_str(self.bm_comparison["rhs_squared"]),
            },
        }


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
    if p.is_degenerate and p.vertices[0].x == p.vertices[1].x:
        lo, hi = sorted(p.vertices, key=lambda v: v.y)
        return ConvexPolygon([lo, _point(hi.x, hi.y + h)])
    ch = p.chains()
    lifted = tuple(_point(v.x, v.y + h) for v in ch.upper)
    return from_chains(ch.lower, lifted)


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
    ch = p.chains()
    amount = min(ch.upper[0].y - ch.lower[0].y, ch.upper[-1].y - ch.lower[-1].y)
    if amount == 0:
        return StretchDecomposition(p, rat(0))
    dropped = tuple(_point(v.x, v.y - amount) for v in ch.upper)
    return StretchDecomposition(from_chains(ch.lower, dropped), rat(amount))


def homothety_certificate(p: ConvexPolygon, q: ConvexPolygon) -> Optional[tuple[Rational, Point2]]:
    """(ratio, translation) with p = ratio * q + translation, or None.

    The ratio must be positive (reflections are not homotheties); segments
    are homothetic exactly when parallel with same orientation class.
    """
    ep, eq = p.edge_vectors(), q.edge_vectors()
    if len(ep) != len(eq):
        return None
    lam: Optional[Fraction] = None
    for u, v in zip(ep, eq):
        if _edge_before(u, v) != 0:
            return None
        ratio = Fraction(u.x) / Fraction(v.x) if v.x != 0 else Fraction(u.y) / Fraction(v.y)
        if lam is None:
            lam = ratio
        elif lam != ratio:
            return None
    if lam is None or lam <= 0:
        return None
    t = p.vertices[0] - q.vertices[0].scale(lam)
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
        return {
            "core_a": dumps_polygon(self.core_a).splitlines(),
            "core_b": dumps_polygon(self.core_b).splitlines(),
            "amount_a": rat_str(self.amount_a),
            "amount_b": rat_str(self.amount_b),
            "ratio": rat_str(self.ratio),
            "translation": [rat_str(self.translation.x), rat_str(self.translation.y)],
        }


def decompose_and_classify(p: ConvexPolygon, q: ConvexPolygon) -> Optional[HomothetyCertificate]:
    """Certificate of the extremal structure: homothetic maximal compressions.

    Certificate existence must equal exact extremality of the pair; any
    mismatch is a hard failure, not a report.
    """
    report = bonnesen_report(p, q)
    da, db = decompose_vertical(p), decompose_vertical(q)
    hom = homothety_certificate(da.core, db.core)
    if (hom is not None) != report.extremal:
        raise ConsistencyError(
            "homothety certificate disagrees with exact extremality: "
            f"certificate={hom is not None}, extremal={report.extremal}")
    if hom is None:
        return None
    lam, t = hom
    return HomothetyCertificate(da.core, db.core, da.amount, db.amount, lam, t)


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
    f_right = Fraction(chp.upper[-1].y)
    g_left = Fraction(chq.upper[0].y)
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
    ch = p.chains()
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
    pa, qa = min(v.x for v in p.vertices), min(v.x for v in q.vertices)
    m, n = Fraction(report.m), Fraction(report.n)
    for i in range(k):
        slab_p = clip_vertical_slab(p, pa + m * i / k, pa + m * (i + 1) / k)
        slab_q = clip_vertical_slab(q, qa + n * i / k, qa + n * (i + 1) / k)
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
