import importlib.util
import random
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest

from conftest import convex_hull, random_convex_polygon, random_rational_convex_polygon
from sumsetlab import (BoundaryChains, ConvexPolygon, DegenerateProjection,
                       StretchDecomposition, rat,
                       HypothesisViolated, InvalidAmount, InvalidSpec, ParseError, Point2,
                       bonnesen_report, clip_vertical_slab,
                       decompose_and_classify, decompose_vertical,
                       dumps_polygon, from_chains, graph_body_bounds,
                       homothety_certificate,
                       loads_polygon, partition_check, poly_minkowski_sum, rat_str,
                       stretch_invariance_check, stretch_vertical)
from sumsetlab import convex
from sumsetlab.convex import _interp
from sumsetlab.core import _as_point, _turn


def poly(*pts):
    return ConvexPolygon(pts)


UNIT_SQUARE = poly((0, 0), (1, 0), (1, 1), (0, 1))
TRI_BIG = poly((0, 0), (2, 0), (0, 2))
TRI_SMALL = poly((0, 0), (1, 0), (0, 1))


def stretched_homothetic_pair(rng, make=random_convex_polygon):
    core = make(rng, max_coord=5)
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    core_b = core.scale(lam).translate(Point2(rng.randint(0, 3), rng.randint(-2, 2)))
    a = stretch_vertical(core, Fraction(rng.randint(0, 5), rng.randint(1, 3)))
    b = stretch_vertical(core_b, Fraction(rng.randint(0, 5), rng.randint(1, 3)))
    return a, b


def perturbed_pair(rng, make=random_convex_polygon):
    """A pair that fails extremality: spoil one summand with an extra vertex."""
    while True:
        a, b = stretched_homothetic_pair(rng, make)
        far = Point2(max(v.x for v in b.vertices) + rng.randint(1, 3),
                     max(v.y for v in b.vertices) + rng.randint(2, 4))
        hull = convex_hull(list(b.vertices) + [far])
        if len(hull) < 3:
            continue
        b2 = ConvexPolygon(hull)
        if not bonnesen_report(a, b2).extremal:
            return a, b2


class TestPolyMinkowski:
    def test_square_dilation(self):
        s = poly_minkowski_sum(UNIT_SQUARE, UNIT_SQUARE)
        assert s == poly((0, 0), (2, 0), (2, 2), (0, 2))
        assert s.area() == 4

    def test_homothetic_triangles(self):
        s = poly_minkowski_sum(TRI_BIG, TRI_SMALL)
        assert s == poly((0, 0), (3, 0), (0, 3))
        assert s.area() == Fraction(9, 2)

    def test_trapezoid_plus_square_pentagon(self):
        t = poly((0, 0), (2, 0), (2, 1), (0, 2))
        s = poly_minkowski_sum(t, UNIT_SQUARE)
        assert s == poly((0, 0), (3, 0), (3, 2), (1, 3), (0, 3))
        assert s.area() == 8

    def test_segment_plus_segment(self):
        h = poly((0, 0), (2, 0))
        v = poly((0, 0), (0, 3))
        s = poly_minkowski_sum(h, v)
        assert s == poly((0, 0), (2, 0), (2, 3), (0, 3))

    def test_parallel_segments_collapse(self):
        s = poly_minkowski_sum(poly((0, 0), (1, 1)), poly((0, 0), (2, 2)))
        assert s.is_degenerate and s == poly((0, 0), (3, 3))


class TestAreaProjection:
    def test_unit_square(self):
        assert (UNIT_SQUARE.area(), UNIT_SQUARE.width()) == (1, 1)

    def test_triangle(self):
        assert (TRI_BIG.area(), TRI_BIG.width()) == (2, 2)

    def test_vertical_segment(self):
        seg = poly((0, 0), (0, 5))
        assert (seg.area(), seg.width()) == (0, 0)


class TestBonnesenReport:
    def test_homothetic_triangles_extremal(self):
        rep = bonnesen_report(TRI_BIG, TRI_SMALL)
        assert rep.bonnesen_rhs == Fraction(9, 2)
        assert rep.area_sum == Fraction(9, 2)
        assert rep.extremal
        assert rep.bm_comparison["order"] == "eq"

    def test_triangle_square_not_extremal(self):
        rep = bonnesen_report(TRI_SMALL, UNIT_SQUARE)
        assert rep.bonnesen_rhs == 3
        assert rep.area_sum == Fraction(7, 2)
        assert not rep.extremal

    def test_crossed_rectangles_extremal(self):
        r1 = poly((0, 0), (1, 0), (1, 2), (0, 2))
        r2 = poly((0, 0), (2, 0), (2, 1), (0, 1))
        rep = bonnesen_report(r1, r2)
        assert rep.bonnesen_rhs == 9 and rep.area_sum == 9 and rep.extremal
        assert rep.bm_comparison["order"] == "gt"  # areas 2, 2 but widths differ

    def test_vertical_segment_rejected(self):
        with pytest.raises(DegenerateProjection):
            bonnesen_report(poly((0, 0), (0, 1)), UNIT_SQUARE)


class TestStretch:
    def test_zero_amount_is_identity(self):
        assert stretch_vertical(TRI_BIG, 0) == TRI_BIG

    def test_triangle_becomes_quadrilateral(self):
        s = stretch_vertical(TRI_BIG, 1)
        assert s == poly((0, 0), (2, 0), (2, 1), (0, 3))
        assert s.area() == 4

    def test_horizontal_segment_becomes_rectangle(self):
        seg = poly((0, 0), (3, 0))
        assert stretch_vertical(seg, 2) == poly((0, 0), (3, 0), (3, 2), (0, 2))

    def test_negative_amount_rejected(self):
        with pytest.raises(InvalidAmount):
            stretch_vertical(TRI_BIG, -1)

    def test_round_trip_with_decomposition(self):
        rng = random.Random(5)
        for _ in range(25):
            p = random_convex_polygon(rng)
            d = decompose_vertical(p)
            assert stretch_vertical(d.core, d.amount) == p
            assert decompose_vertical(d.core).amount == 0


def reference_decompose_vertical(p):
    """decompose_vertical as it was before it read the two end gaps: the
    minimum of upper - lower over every breakpoint, each chain evaluated by
    a walk along it."""
    ch = p.chains()
    breakpoint_xs = sorted({v.x for v in ch.lower} | {v.x for v in ch.upper})
    amount = min(Fraction(_interp(ch.upper, x)) - Fraction(_interp(ch.lower, x))
                 for x in breakpoint_xs)
    if amount == 0:
        return StretchDecomposition(p, rat(0))
    dropped = tuple(Point2(v.x, v.y - amount) for v in ch.upper)
    return StretchDecomposition(from_chains(ch.lower, dropped), rat(amount))


def zonogon(rng, k, span=6):
    """A centrally symmetric 2k-gon with edges along k distinct primitive
    directions, (1, 0) and (0, 1) among the candidates, counterclockwise."""
    dirs = set()
    while len(dirs) < k:
        a, b = rng.randint(-span, span), rng.randint(0, span)
        if gcd(a, b) == 1 and (b > 0 or a == 1):
            dirs.add((a, b))
    order = sorted(dirs, key=lambda d: (d[1] > 0, Fraction(-d[0], d[1]) if d[1] else 0))
    steps = [(a * m, b * m) for (a, b), m in zip(order, (rng.randint(1, 3) for _ in order))]
    steps += [(-dx, -dy) for dx, dy in steps]
    verts, x, y = [], 0, 0
    for dx, dy in steps:
        verts.append((x, y))
        x, y = x + dx, y + dy
    return ConvexPolygon(verts)


def affine_image(p, lam, tx, ty):
    return ConvexPolygon([(lam * v.x + tx, lam * v.y + ty) for v in p.vertices])


def decomposition_inputs():
    rng = random.Random(11)

    def frac(lo, hi, den_hi):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den_hi))

    polys = [zonogon(rng, rng.randint(2, 9)) for _ in range(60)]  # int
    polys += [affine_image(zonogon(rng, rng.randint(2, 9)), frac(1, 9, 7), frac(-9, 9, 5), frac(-9, 9, 3))
              for _ in range(60)]  # rational
    for _ in range(40):  # homothetic pairs
        z = zonogon(rng, rng.randint(2, 9))
        polys += [z, affine_image(z, frac(1, 5, 3), rng.randint(-4, 4), 1)]
    polys += [random_convex_polygon(rng, max_coord=rng.randint(2, 8)) for _ in range(200)]  # hulls
    polys += [stretch_vertical(q, frac(1, 7, 3)) for q in polys[::5]]
    polys += [poly((0, 0), (3, 0), (3, 2), (0, 5)), poly((0, 0), (4, 1), (4, 3), (0, 2)),
              poly((0, -1), (2, 0), (0, 1)), UNIT_SQUARE, TRI_BIG]  # vertical ends
    polys += [poly((0, 0), (3, 1)), poly((0, 0), (Fraction(1, 2), -2)), poly((-1, 5), (7, 5))]  # segments
    return polys


class TestLinearDecomposition:
    def test_matches_breakpoint_minimum(self):
        polys = decomposition_inputs()
        assert sum(1 for p in polys if any(e.x == 0 for e in p.edge_vectors())) > 50  # vertical edges
        for p in polys:
            got, want = decompose_vertical(p), reference_decompose_vertical(p)
            assert got == want
            assert type(got.amount) is type(want.amount)
            assert [(type(v.x), type(v.y)) for v in got.core.vertices] == \
                [(type(v.x), type(v.y)) for v in want.core.vertices]

    def test_vertical_segment_still_rejected(self):
        for fn in (decompose_vertical, reference_decompose_vertical):
            with pytest.raises(DegenerateProjection):
                fn(poly((2, 0), (2, 3)))


class TestMinkowskiSumMatchesHull:
    def test_edge_merge_equals_hull_of_vertex_sums(self):
        """The edge merge needs no collinear-vertex pass afterwards: its sum
        is the hull of all vertex sums, vertex for vertex and type for type."""
        polys = decomposition_inputs()
        pairs = list(zip(polys, polys[1:])) + [(p, p) for p in polys]
        for p, q in pairs:
            got = poly_minkowski_sum(p, q)
            want = ConvexPolygon(convex_hull([u + v for u in p.vertices for v in q.vertices]))
            assert got == want, (p, q)
            assert [(type(v.x), type(v.y)) for v in got.vertices] == \
                [(type(v.x), type(v.y)) for v in want.vertices]


class TestDecomposeAndClassify:
    def test_crossed_rectangles_certificate(self):
        r1 = poly((0, 0), (1, 0), (1, 2), (0, 2))
        r2 = poly((0, 0), (2, 0), (2, 1), (0, 1))
        cert = decompose_and_classify(r1, r2)
        assert cert is not None
        assert cert.core_a == poly((0, 0), (1, 0))
        assert cert.core_b == poly((0, 0), (2, 0))
        assert (cert.amount_a, cert.amount_b) == (2, 1)
        assert cert.ratio == Fraction(1, 2)  # core_a = ratio * core_b

    def test_stretched_homothetic_triangles(self):
        a = stretch_vertical(TRI_BIG, 1)
        cert = decompose_and_classify(a, TRI_SMALL)
        assert cert is not None
        assert cert.ratio == 2 and (cert.amount_a, cert.amount_b) == (1, 0)

    def test_non_extremal_pair_has_no_certificate(self):
        assert decompose_and_classify(TRI_SMALL, UNIT_SQUARE) is None

    def test_homothety_rejects_reflection(self):
        q = poly((0, 0), (1, 0), (1, 1))
        p = poly((0, 0), (1, 0), (0, 1))  # reflected copy, not homothetic
        assert homothety_certificate(p, q) is None


class TestGraphBodyBounds:
    def test_rectangles_zero_delta(self):
        p = poly((0, 0), (2, 0), (2, 2), (0, 2))
        q = UNIT_SQUARE
        delta, gap = graph_body_bounds(p, q)
        assert delta == 0
        assert gap is not None  # both chains flat, eps = 0

    def test_sloped_rhs_refinement(self):
        p = poly((0, 0), (2, 0), (2, 1), (0, 2))  # upper chain 2 - x/2
        q = UNIT_SQUARE
        delta, gap = graph_body_bounds(p, q)
        assert delta == Fraction(-1, 2)
        assert gap is None  # slope of f below slope of g

    def test_slope_gap_attained_when_swapped(self):
        p = UNIT_SQUARE
        q = poly((0, 0), (2, 0), (2, 1), (0, 2))
        delta, gap = graph_body_bounds(p, q)
        assert gap == 8  # rhs 15/2 plus (mn/2) * 1/2, attained exactly

    def test_non_graph_body_rejected(self):
        tilted = poly((0, 1), (1, 0), (2, 1), (1, 2))
        with pytest.raises(HypothesisViolated):
            graph_body_bounds(tilted, UNIT_SQUARE)

    def test_containment_inequality_random(self):
        rng = random.Random(31)
        for _ in range(40):
            p = random_graph_body(rng)
            q = random_graph_body(rng)
            chp, chq = p.chains(), q.chains()
            area = Fraction(poly_minkowski_sum(p, q).area())
            bound = (Fraction(p.area()) + Fraction(q.area())
                     + Fraction(p.width()) * chq.upper[0].y
                     + Fraction(q.width()) * chp.upper[-1].y)
            assert area >= bound


def random_graph_body(rng) -> ConvexPolygon:
    width = rng.randint(1, 5)
    pts = [Point2(0, rng.randint(0, 3)), Point2(width, rng.randint(0, 3))]
    pts += [Point2(rng.randint(0, width), rng.randint(1, 4)) for _ in range(4)]
    hull = convex_hull(pts)
    top = max(p.y for p in pts)
    upper = [p for p in hull] if len(hull) == 2 else None
    if upper is None:
        # extract the upper chain of the hull
        chain = ConvexPolygon(hull).chains().upper if len(hull) >= 3 else None
        upper = list(chain)
    if all(p.y == 0 for p in upper):
        upper = [Point2(0, 1), Point2(width, 1)]
    return from_chains([Point2(0, 0), Point2(width, 0)], upper)


class TestPartition:
    def test_k_one_trivial(self):
        assert partition_check(TRI_BIG, TRI_SMALL, 1)

    def test_homothetic_triangles_k2(self):
        assert partition_check(TRI_BIG, TRI_SMALL, 2)

    def test_rectangles_k3(self):
        r1 = poly((0, 0), (1, 0), (1, 2), (0, 2))
        r2 = poly((0, 0), (2, 0), (2, 1), (0, 1))
        assert partition_check(r1, r2, 3)

    def test_needs_extremal_input(self):
        with pytest.raises(HypothesisViolated):
            partition_check(TRI_SMALL, UNIT_SQUARE, 2)

    def test_each_polygon_walked_once(self):
        """partition_check clips every slab from one chain walk per polygon,
        and each slab is the one clip_vertical_slab gives."""
        a = poly((0, 0), (3, 0), (3, Fraction(1, 3)), (Fraction(5, 2), Fraction(11, 6)),
                 (1, Fraction(7, 3)), (0, Fraction(1, 3)))
        b = poly((Fraction(1, 2), 0), (Fraction(5, 2), 0), (Fraction(5, 2), Fraction(1, 2)),
                 (Fraction(13, 6), Fraction(3, 2)), (Fraction(7, 6), Fraction(11, 6)),
                 (Fraction(1, 2), Fraction(1, 2)))
        clips, real_clip = [], convex._clip

        def clip(ch, x0, x1):
            slab = real_clip(ch, x0, x1)
            clips.append((ch, x0, x1, slab))
            return slab

        with mock.patch.object(ConvexPolygon, "_chains", autospec=True,
                               side_effect=ConvexPolygon._chains) as walk, \
                mock.patch.object(convex, "_clip", side_effect=clip):
            assert partition_check(a, b, 3)
        assert walk.call_count == 2 and len(clips) == 6
        for ch, x0, x1, slab in clips:
            assert slab == clip_vertical_slab(a if ch == a.chains() else b, x0, x1)


class TestStretchInvariance:
    def test_extremal_stays_extremal(self):
        assert stretch_invariance_check(TRI_BIG, TRI_SMALL, 1)

    def test_non_extremal_stays_non_extremal(self):
        assert stretch_invariance_check(TRI_SMALL, UNIT_SQUARE, 5)

    def test_zero_amount(self):
        assert stretch_invariance_check(TRI_BIG, TRI_SMALL, 0)

    def test_random_triples(self):
        rng = random.Random(17)
        for _ in range(30):
            p = random_convex_polygon(rng)
            q = random_convex_polygon(rng)
            h = Fraction(rng.randint(0, 9), rng.randint(1, 3))
            assert stretch_invariance_check(p, q, h)


class TestRandomizedExtremality:
    make = staticmethod(random_convex_polygon)

    def test_stretched_homothets_are_extremal_with_certificates(self):
        rng = random.Random(41)
        for _ in range(25):
            a, b = stretched_homothetic_pair(rng, self.make)
            rep = bonnesen_report(a, b)
            assert rep.extremal
            assert decompose_and_classify(a, b) is not None

    def test_perturbed_pairs_fail_with_no_certificate(self):
        rng = random.Random(43)
        for _ in range(25):
            a, b = perturbed_pair(rng, self.make)
            assert not bonnesen_report(a, b).extremal
            assert decompose_and_classify(a, b) is None

    def test_bm_comparison_certified(self):
        rng = random.Random(47)
        for _ in range(40):
            p = self.make(rng)
            q = self.make(rng)
            rep = bonnesen_report(p, q)
            ap, aq = Fraction(rep.area_a), Fraction(rep.area_b)
            m, n = Fraction(rep.m), Fraction(rep.n)
            assert rep.bm_comparison["order"] in ("eq", "gt")
            assert (rep.bm_comparison["order"] == "eq") == (ap / m ** 2 == aq / n ** 2)

    def test_partition_on_extremal_pairs(self):
        rng = random.Random(53)
        for _ in range(10):
            a, b = stretched_homothetic_pair(rng, self.make)
            for k in (2, 3, 5):
                assert partition_check(a, b, k)


class TestRandomizedExtremalityRational(TestRandomizedExtremality):
    """The same properties on polygons with rational vertices."""

    make = staticmethod(random_rational_convex_polygon)

    def test_polygons_leave_the_lattice(self):
        rng = random.Random(61)
        polys = [self.make(rng) for _ in range(40)]
        assert sum(any(type(c) is Fraction for v in p.vertices for c in v) for p in polys) >= 35


class TestPolygonValidationAndIO:
    def test_clockwise_rejected(self):
        with pytest.raises(InvalidSpec):
            ConvexPolygon([(0, 0), (0, 1), (1, 0)])

    def test_collinear_vertex_rejected(self):
        with pytest.raises(InvalidSpec):
            ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])

    # strict left turns at every vertex, but the edges wind twice around
    PENTAGRAM = [(0, 0), (5, 3), (-1, 3), (4, 0), (2, 5)]
    HEPTAGRAM = [(3, 1), (-2, 3), (-2, -2), (2, -2), (1, 3), (-3, 0), (0, -3)]  # {7/2}

    @pytest.mark.parametrize("star", [PENTAGRAM, HEPTAGRAM], ids=["pentagram", "heptagram"])
    def test_star_rejected(self, star):
        assert all(_turn(a, b, c) > 0 for a, b, c in
                   zip(star, star[1:] + star[:1], star[2:] + star[:2]))
        with pytest.raises(InvalidSpec) as exc:
            ConvexPolygon(star)
        assert str(exc.value) == "vertices must wind once around, not 2 times"
        text = "".join(f"{x} {y}\n" for x, y in star)
        with pytest.raises(ParseError, match="^vertices must wind once around, not 2 times$"):
            loads_polygon(text)

    def test_float_translation_rejected(self):
        with pytest.raises(TypeError, match="^float .* rejected"):
            UNIT_SQUARE.translate((0.5, 0))

    @pytest.mark.parametrize("delta,message", [
        ((0.5, 0), "float 0.5 rejected; point arithmetic takes ints and Fractions"),
        ((0, "1"), "str '1' rejected; point arithmetic takes ints and Fractions"),
        ("12", "str '1' rejected; point arithmetic takes ints and Fractions"),
        ((1, 2, 3), "point arithmetic takes a pair (x, y), got (1, 2, 3)"),
    ], ids=["float", "str-entry", "str", "3-tuple"])
    def test_translation_takes_a_pair_of_exact_numbers(self, delta, message):
        with pytest.raises(TypeError) as exc:
            UNIT_SQUARE.translate(delta)
        assert str(exc.value) == message

    def test_scale_parses_strings(self):
        assert TRI_BIG.scale("1/2") == TRI_BIG.scale(Fraction(1, 2)) == TRI_SMALL
        for factor in ("-1", 0, Fraction(-1, 2)):
            with pytest.raises(InvalidSpec, match="^scale factor must be positive$"):
                TRI_BIG.scale(factor)
        with pytest.raises(TypeError, match="^float .* rejected"):
            TRI_BIG.scale(0.5)

    def test_canonical_start(self):
        p = ConvexPolygon([(1, 1), (0, 1), (0, 0), (1, 0)])
        assert p.vertices[0] == Point2(0, 0)

    def test_file_round_trip(self):
        rng = random.Random(59)
        for _ in range(30):
            p = random_convex_polygon(rng)
            assert loads_polygon(dumps_polygon(p)) == p

    def test_segment_round_trip(self):
        seg = poly((0, 0), (2, 1))
        assert loads_polygon(dumps_polygon(seg)) == seg

    def test_clip_exact_boundaries(self):
        got = clip_vertical_slab(TRI_BIG, Fraction(1, 2), Fraction(3, 2))
        assert got == poly((Fraction(1, 2), 0), (Fraction(3, 2), 0),
                           (Fraction(3, 2), Fraction(1, 2)),
                           (Fraction(1, 2), Fraction(3, 2)))


def lattice_polygons(n: int) -> list:
    """One polygon per translation class of lattice polygon with positive
    width in the n x n box of points: the hulls of the box's point subsets,
    segments included, each moved to min x = min y = 0."""
    cells = [Point2(x, y) for x in range(n) for y in range(n)]
    classes = set()
    for mask in range(1, 1 << len(cells)):
        hull = convex_hull([c for i, c in enumerate(cells) if mask >> i & 1])
        x0, y0 = min(p.x for p in hull), min(p.y for p in hull)
        if max(p.x for p in hull) > x0:
            classes.add(tuple(p - (x0, y0) for p in hull))
    return [ConvexPolygon(c) for c in sorted(classes)]


class TestExhaustiveContinuousOracle:
    def test_every_pair_in_the_3x3_box(self):
        """convex._classified on every ordered pair raises ConsistencyError
        when the Bonnesen report and the homothety certificate disagree."""
        polys = lattice_polygons(3)
        extremal = [(p, q) for p in polys for q in polys if convex._classified(p, q)[0].extremal]
        assert (len(polys), len(extremal)) == (129, 231)


class TestBuiltPolygonsPassTheConstructor:
    """ConvexPolygon.__init__ is the only vertex check; what the module builds
    itself is stored as built, so these tests stand in for a runtime check."""

    @staticmethod
    def assert_valid(r):
        assert ConvexPolygon(r.vertices) == r

    def test_every_construction_on_the_reference_inputs(self):
        rng = random.Random(5)
        polys = reference_inputs()
        for p, q in list(zip(polys, polys[1:])) + [(p, p) for p in polys[::2]]:
            self.assert_valid(poly_minkowski_sum(p, q))
        for p in polys:
            self.assert_valid(stretch_vertical(p, Fraction(rng.randint(1, 9), rng.randint(1, 4))))
            if p.width() == 0:
                continue
            self.assert_valid(decompose_vertical(p).core)
            ch = p.chains()
            x0, x1 = ch.lower[0].x, ch.lower[-1].x
            self.assert_valid(clip_vertical_slab(p, x0, x0 + (x1 - x0) * Fraction(rng.randint(1, 4), 4)))
            self.assert_valid(from_chains(ch.lower, ch.upper))
            self.assert_valid(from_chains(ch.lower, ch.lower))

    def test_every_sum_in_the_3x3_box(self):
        polys = lattice_polygons(3)
        for p in polys:
            for q in polys:
                self.assert_valid(poly_minkowski_sum(p, q))
        assert len(polys) ** 2 == 16641

    @staticmethod
    def perfbench_zonogons():
        """The perfbench seed-1 zonogon pair, a 200-gon and a 150-gon."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        with mock.patch.dict(sys.modules, {spec.name: workloads}):  # its dataclasses look it up
            spec.loader.exec_module(workloads)
        rng = random.Random(1)
        return [ConvexPolygon(workloads.zonogon_vertices(workloads.zonogon_edges(rng, k)))
                for k in (100, 75)]

    def test_sum_makes_no_turn_test(self):
        """The 312 vertices of the zonogon pair's sum are stored as merged,
        with no convexity re-check."""
        p, q = self.perfbench_zonogons()
        with mock.patch.object(convex, "_turn", wraps=convex._turn) as turn:
            s = poly_minkowski_sum(p, q)
        assert (len(p.vertices), len(q.vertices), len(s.vertices)) == (200, 150, 312)
        assert turn.call_count == 0

    def test_translate_and_scale_make_no_turn_test(self):
        p = self.perfbench_zonogons()[0]
        with mock.patch.object(convex, "_turn", wraps=convex._turn) as turn:
            moved, scaled = p.translate((1, 2)), p.scale(Fraction(3, 2))
        assert turn.call_count == 0
        assert moved == ConvexPolygon([v + (1, 2) for v in p.vertices])
        assert scaled == ConvexPolygon([v.scale(Fraction(3, 2)) for v in p.vertices])

    def test_translates_and_scalings(self):
        """Seeded int and Fraction deltas and factors on the reference inputs
        and the 3x3-box polygons: each result is the polygon of the moved or
        scaled vertices, and passes the constructor."""
        rng = random.Random(17)
        for i, p in enumerate(reference_inputs() + lattice_polygons(3)):
            den = (lambda: rng.randint(1, 6)) if i % 2 else (lambda: 1)  # Fractions, or ints
            delta = (rat(Fraction(rng.randint(-9, 9), den())), rat(Fraction(rng.randint(-9, 9), den())))
            factor = rat(Fraction(rng.randint(1, 9), den()))
            for r, verts in ((p.translate(delta), [v + delta for v in p.vertices]),
                             (p.translate(Point2(*delta)), [v + delta for v in p.vertices]),
                             (p.scale(factor), [v.scale(factor) for v in p.vertices])):
                self.assert_valid(r)
                assert r == ConvexPolygon(verts) and r.vertices == ConvexPolygon(verts).vertices

    @pytest.mark.parametrize("lower,upper,message", [
        ([(0, 0), (2, 0)], [(0, 0), (1, Fraction(1, 4)), (2, 1)],
         "vertices must be strictly convex in CCW order"),
        ([(0, 0), (5, 3), (-1, 3)], [(2, 5), (4, 0)],  # the pentagram's cycle
         "vertices must wind once around, not 2 times"),
    ], ids=["convex-upper-chain", "star"])
    def test_outside_chains_are_still_checked(self, lower, upper, message):
        with pytest.raises(InvalidSpec) as exc:
            from_chains(lower, upper)
        assert str(exc.value) == message


# ---------------------------------------------------------------------------
# Frozen references: the Point2/Fraction polygon code that the integer grid
# replaced, kept as it was (renamed) so the grid is checked against it.
# ---------------------------------------------------------------------------

class RefPolygon:
    """ConvexPolygon on Point2 vertices with Fraction turn tests."""

    def __init__(self, vertices):
        verts = [_as_point(v) for v in vertices]
        if len(verts) < 2:
            raise InvalidSpec("a polygon needs at least 2 vertices")
        if len(set(verts)) != len(verts):
            raise InvalidSpec("duplicate vertices")
        if len(verts) > 2 and any(_turn(a, b, c) <= 0 for a, b, c in
                                  zip(verts, verts[1:] + verts[:1], verts[2:] + verts[:2])):
            raise InvalidSpec("vertices must be strictly convex in CCW order")
        start = min(range(len(verts)), key=lambda i: (verts[i].y, verts[i].x))
        self.vertices = tuple(verts[start:] + verts[:start])

    @property
    def is_degenerate(self):
        return len(self.vertices) == 2

    def edge_vectors(self):
        vs = self.vertices
        if len(vs) == 2:
            return [vs[1] - vs[0], vs[0] - vs[1]]
        return [vs[(i + 1) % len(vs)] - vs[i] for i in range(len(vs))]

    def area(self):
        vs = self.vertices
        twice = sum(vs[i].cross(vs[(i + 1) % len(vs)]) for i in range(len(vs)))
        return rat(Fraction(twice) / 2)

    def width(self):
        xs = [v.x for v in self.vertices]
        return max(xs) - min(xs)

    def chains(self):
        vs = self.vertices
        xs = [v.x for v in vs]
        xmin, xmax = min(xs), max(xs)
        if xmin == xmax:
            raise DegenerateProjection("vertical segment has no boundary graphs")
        if len(vs) == 2:
            return BoundaryChains(tuple(sorted(vs)), tuple(sorted(vs)))
        left = sorted(v for v in vs if v.x == xmin)
        right = sorted(v for v in vs if v.x == xmax)
        lower = ref_walk(vs, left[0], right[0])
        upper = list(reversed(ref_walk(vs, right[-1], left[-1])))
        return BoundaryChains(tuple(lower), tuple(upper))


def ref_walk(verts, start, stop):
    i = verts.index(start)
    out = [verts[i]]
    while verts[i] != stop:
        i = (i + 1) % len(verts)
        out.append(verts[i])
    return out


def ref_merge_collinear(verts):
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


def ref_from_chains(lower, upper):
    lower = list(lower)
    upper = list(upper)
    pts = lower + upper
    base = pts[0]
    ref = next((p for p in pts if p != base), None)
    if ref is not None and all(_turn(base, ref, p) == 0 for p in pts):
        ends = sorted(set(pts))
        return RefPolygon([ends[0], ends[-1]])
    return RefPolygon(ref_merge_collinear(lower + list(reversed(upper))))


def ref_angle_key(v):
    return 0 if (v.y > 0 or (v.y == 0 and v.x > 0)) else 1


def ref_edge_before(u, v):
    hu, hv = ref_angle_key(u), ref_angle_key(v)
    if hu != hv:
        return -1 if hu < hv else 1
    c = u.cross(v)
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def ref_poly_minkowski_sum(p, q):
    ep, eq = p.edge_vectors(), q.edge_vectors()
    merged = []
    i = j = 0
    while i < len(ep) or j < len(eq):
        if i == len(ep):
            take = eq[j]; j += 1
        elif j == len(eq):
            take = ep[i]; i += 1
        else:
            order = ref_edge_before(ep[i], eq[j])
            if order == 0:
                take = ep[i] + eq[j]; i += 1; j += 1
            elif order < 0:
                take = ep[i]; i += 1
            else:
                take = eq[j]; j += 1
        merged.append(take)
    verts = [p.vertices[0] + q.vertices[0]]
    for e in merged[:-1]:
        verts.append(verts[-1] + e)
    return RefPolygon(verts)


def ref_stretch_vertical(p, h):
    h = rat(h)
    if h == 0:
        return p
    if p.is_degenerate and p.vertices[0].x == p.vertices[1].x:
        lo, hi = sorted(p.vertices, key=lambda v: v.y)
        return RefPolygon([lo, Point2(hi.x, hi.y + h)])
    ch = p.chains()
    return ref_from_chains(ch.lower, tuple(Point2(v.x, v.y + h) for v in ch.upper))


def ref_decompose_vertical(p):
    """(core, amount), by the two end gaps."""
    ch = p.chains()
    amount = min(ch.upper[0].y - ch.lower[0].y, ch.upper[-1].y - ch.lower[-1].y)
    if amount == 0:
        return p, rat(0)
    dropped = tuple(Point2(v.x, v.y - amount) for v in ch.upper)
    return ref_from_chains(ch.lower, dropped), rat(amount)


def ref_homothety_certificate(p, q):
    ep, eq = p.edge_vectors(), q.edge_vectors()
    if len(ep) != len(eq):
        return None
    lam = None
    for u, v in zip(ep, eq):
        if ref_edge_before(u, v) != 0:
            return None
        ratio = Fraction(u.x) / Fraction(v.x) if v.x != 0 else Fraction(u.y) / Fraction(v.y)
        if lam is None:
            lam = ratio
        elif lam != ratio:
            return None
    if lam is None or lam <= 0:
        return None
    return rat(lam), p.vertices[0] - q.vertices[0].scale(lam)


def typed(*values):
    """Each value with its type, points taken coordinate by coordinate."""
    flat = [c for v in values for c in (v if isinstance(v, tuple) else (v,))]
    return [(type(c), c) for c in flat]


def reference_inputs():
    """decomposition_inputs (lattice zonogons and hulls, their rational
    scalings and translations, homothetic pairs, vertical ends, segments) plus
    hulls under rational diagonal maps and segments on both axes."""
    rng = random.Random(13)
    polys = decomposition_inputs()
    polys += [random_rational_convex_polygon(rng, max_coord=rng.randint(2, 8)) for _ in range(100)]
    polys += [poly((2, 0), (2, 3)), poly((Fraction(1, 2), Fraction(-1, 3)), (Fraction(1, 2), 2)),
              poly((Fraction(-7, 4), Fraction(2, 3)), (Fraction(5, 6), Fraction(2, 3)))]
    return polys


class TestGridMatchesReference:
    def test_construction_area_and_width(self):
        rng = random.Random(3)
        for p in reference_inputs():
            k = rng.randrange(len(p.vertices))
            raw = list(p.vertices[k:] + p.vertices[:k])
            if k % 2:
                raw = [(rat_str(v.x), rat_str(v.y)) for v in raw]
            got, want = ConvexPolygon(raw), RefPolygon(raw)
            assert typed(*got.vertices) == typed(*want.vertices)
            assert typed(got.area()) == typed(want.area())
            assert got.width() == want.width() and typed(got.width()) == typed(rat(want.width()))
            assert typed(*got.edge_vectors()) == typed(*want.edge_vectors())

    def test_sums(self):
        polys = reference_inputs()
        pairs = list(zip(polys, polys[1:])) + [(p, p) for p in polys[::2]]
        for p, q in pairs:
            got = poly_minkowski_sum(p, q)
            want = ref_poly_minkowski_sum(RefPolygon(p.vertices), RefPolygon(q.vertices))
            assert typed(*got.vertices) == typed(*want.vertices), (p, q)
            assert typed(got.area()) == typed(want.area())

    def test_chains_compression_and_stretch(self):
        rng = random.Random(7)
        for p in reference_inputs():
            ref = RefPolygon(p.vertices)
            h = Fraction(rng.randint(0, 9), rng.randint(1, 4))
            assert typed(*stretch_vertical(p, h).vertices) == typed(*ref_stretch_vertical(ref, h).vertices)
            if p.width() == 0:
                continue
            ch, want = p.chains(), ref.chains()
            assert (typed(*ch.lower), typed(*ch.upper)) == (typed(*want.lower), typed(*want.upper))
            for lower, upper in ((ch.lower, ch.upper), (ch.lower, ch.lower)):
                assert typed(*from_chains(lower, upper).vertices) == \
                    typed(*ref_from_chains(lower, upper).vertices)
            got = decompose_vertical(p)
            core, amount = ref_decompose_vertical(ref)
            assert typed(*got.core.vertices, got.amount) == typed(*core.vertices, amount)

    def test_homothety_certificates(self):
        rng = random.Random(17)
        polys = reference_inputs()
        pairs = list(zip(polys, polys[1:]))
        for p in polys[::2]:
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            t = Point2(Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.randint(-5, 5))
            pairs.append((p.scale(lam).translate(t), p))
        pairs.append((poly((0, 0), (1, 0), (0, 1)), poly((0, 0), (1, 0), (1, 1))))  # reflection
        found = 0
        for p, q in pairs:
            got = homothety_certificate(p, q)
            want = ref_homothety_certificate(RefPolygon(p.vertices), RefPolygon(q.vertices))
            assert (got is None) == (want is None)
            if got is not None:
                found += 1
                assert typed(got[0], got[1]) == typed(want[0], want[1])
        assert found > len(polys) // 2

    @pytest.mark.parametrize("verts", [
        [("1/2", 0), (1, 0), (1, 1), ("2/4", 0)],
        [(Fraction(1, 2), 0), (1, 0), (1, 1), (Fraction(2, 4), 0)],
        [(0, 0), (0, Fraction(1, 3)), (Fraction(1, 2), 0)],
        [(0, 0), (Fraction(1, 2), 0), (1, 0), (Fraction(1, 2), Fraction(1, 3))],
        [(Fraction(1, 2), 0)],
    ], ids=["duplicate-strings", "duplicate-fractions", "clockwise", "collinear", "one-vertex"])
    def test_invalid_input_same_message(self, verts):
        with pytest.raises(InvalidSpec) as want:
            RefPolygon(verts)
        with pytest.raises(InvalidSpec) as got:
            ConvexPolygon(verts)
        assert str(got.value) == str(want.value)
