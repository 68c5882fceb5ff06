import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import convex_hull, random_convex_polygon
from sumsetlab import (ConvexPolygon, DegenerateProjection,
                       StretchDecomposition, rat,
                       HypothesisViolated, InvalidAmount, InvalidSpec, Point2,
                       area_and_projection, bonnesen_report, clip_vertical_slab,
                       decompose_and_classify, decompose_vertical,
                       dumps_polygon, from_chains, graph_body_bounds,
                       homothety_certificate, is_bonnesen_extremal,
                       loads_polygon, partition_check, poly_minkowski_sum,
                       stretch_invariance_check, stretch_vertical)
from sumsetlab.convex import _interp


def poly(*pts):
    return ConvexPolygon(pts)


UNIT_SQUARE = poly((0, 0), (1, 0), (1, 1), (0, 1))
TRI_BIG = poly((0, 0), (2, 0), (0, 2))
TRI_SMALL = poly((0, 0), (1, 0), (0, 1))


def stretched_homothetic_pair(rng):
    core = random_convex_polygon(rng, max_coord=5)
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    core_b = core.scale(lam).translate(Point2(rng.randint(0, 3), rng.randint(-2, 2)))
    a = stretch_vertical(core, Fraction(rng.randint(0, 5), rng.randint(1, 3)))
    b = stretch_vertical(core_b, Fraction(rng.randint(0, 5), rng.randint(1, 3)))
    return a, b


def perturbed_pair(rng):
    """A pair that fails extremality: spoil one summand with an extra vertex."""
    while True:
        a, b = stretched_homothetic_pair(rng)
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
        assert area_and_projection(UNIT_SQUARE) == (1, 1)

    def test_triangle(self):
        assert area_and_projection(TRI_BIG) == (2, 2)

    def test_vertical_segment(self):
        assert area_and_projection(poly((0, 0), (0, 5))) == (0, 0)


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
    def test_stretched_homothets_are_extremal_with_certificates(self):
        rng = random.Random(41)
        for _ in range(25):
            a, b = stretched_homothetic_pair(rng)
            rep = bonnesen_report(a, b)
            assert rep.extremal
            assert decompose_and_classify(a, b) is not None

    def test_perturbed_pairs_fail_with_no_certificate(self):
        rng = random.Random(43)
        for _ in range(25):
            a, b = perturbed_pair(rng)
            assert not bonnesen_report(a, b).extremal
            assert decompose_and_classify(a, b) is None

    def test_bm_comparison_certified(self):
        rng = random.Random(47)
        for _ in range(40):
            p = random_convex_polygon(rng)
            q = random_convex_polygon(rng)
            rep = bonnesen_report(p, q)
            ap, aq = Fraction(rep.area_a), Fraction(rep.area_b)
            m, n = Fraction(rep.m), Fraction(rep.n)
            assert rep.bm_comparison["order"] in ("eq", "gt")
            assert (rep.bm_comparison["order"] == "eq") == (ap / m ** 2 == aq / n ** 2)

    def test_partition_on_extremal_pairs(self):
        rng = random.Random(53)
        for _ in range(10):
            a, b = stretched_homothetic_pair(rng)
            for k in (2, 3, 5):
                assert partition_check(a, b, k)


class TestPolygonValidationAndIO:
    def test_clockwise_rejected(self):
        with pytest.raises(InvalidSpec):
            ConvexPolygon([(0, 0), (0, 1), (1, 0)])

    def test_collinear_vertex_rejected(self):
        with pytest.raises(InvalidSpec):
            ConvexPolygon([(0, 0), (1, 0), (2, 0), (1, 1)])

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
