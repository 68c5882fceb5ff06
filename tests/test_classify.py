import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional
from unittest import mock

import pytest

import sumsetlab.classify as library
from sumsetlab import core
from sumsetlab import (AffineMap2D, BoundMode, EmptySet, HypothesisViolated,
                       NotCollinear, Point2, PointSet2D, SweepConfig, Verdict,
                       apply_map, classify_1d, classify_thm2, classify_thm3,
                       bound, collinear_direction, cover_stats, rat,
                       split_check, sweep)
from sumsetlab.classify import Classification
from sumsetlab.core import Rational, _point, grid_sections, shared_difference, sumset_size
from sumsetlab.errors import InvalidSpec
from sumsetlab.families import (CaseCSpec, EpsilonSpec, TrapezoidSpec,
                                gen_case_c, gen_eps_trapezoid, gen_trapezoid,
                                gen_wild)
from test_core import counting


def ps(*pairs):
    return PointSet2D(pairs)


def figure2_pair():
    a = gen_eps_trapezoid(EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({8, 12, 14})))
    b = gen_trapezoid(TrapezoidSpec(4, 7, 1, 2))
    return a, b


class TestIsExtremal:
    def test_wild_sections(self):
        assert bound(BoundMode.SECTIONS_GS, *gen_wild(4)).extremal

    def test_corner_triple_lines(self):
        t = ps((0, 0), (1, 0), (0, 1))
        assert bound(BoundMode.LINES_GS, t, t).extremal

    def test_far_point_breaks_extremality(self):
        t = ps((0, 0), (1, 0), (0, 1))
        b = ps((0, 0), (1, 0), (0, 1), (5, 5))
        assert not bound(BoundMode.LINES_GS, t, b).extremal


class TestClassifyThm2:
    def test_trapezoid_pair_recovered(self):
        a = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        b = gen_trapezoid(TrapezoidSpec(3, 2, 0, 0))
        cls = classify_thm2(a, b)
        assert cls.verdict is Verdict.TRAPEZOID_PAIR
        assert cls.details["spec_a"] == TrapezoidSpec(2, 2, 0, 0)
        assert cls.details["spec_b"] == TrapezoidSpec(3, 2, 0, 0)

    def test_corner_triple_slopes(self):
        t = ps((0, 0), (1, 0), (0, 1))
        cls = classify_thm2(t, t)
        assert cls.verdict is Verdict.TRAPEZOID_PAIR
        spec = cls.details["spec_a"]
        assert (spec.c, spec.d) == (-1, 0) and spec.h == 2

    def test_not_extremal(self):
        t = ps((0, 0), (1, 0), (0, 1))
        b = ps((0, 0), (1, 0), (0, 1), (5, 5))
        assert classify_thm2(t, b).verdict is Verdict.NOT_EXTREMAL

    def test_one_dimensional_dispatch(self):
        cls = classify_thm2(ps((0, 0), (1, 0)), ps((0, 5), (1, 5), (2, 5)))
        assert cls.verdict is Verdict.ONE_DIMENSIONAL
        assert cls.details["equality"]

    def test_fractional_scale_recovered(self):
        a = gen_trapezoid(TrapezoidSpec(2, 3, 1, 1))
        b = gen_trapezoid(TrapezoidSpec(3, 2, 1, 1))
        m = AffineMap2D.diagonal(Fraction(3, 2), Fraction(5, 3), 7, -2)
        cls = classify_thm2(apply_map(a, m), apply_map(b, m))
        assert cls.verdict is Verdict.TRAPEZOID_PAIR
        assert cls.details["spec_a"] == TrapezoidSpec(2, 3, 1, 1)
        assert cls.details["spec_b"] == TrapezoidSpec(3, 2, 1, 1)

    def test_group_invariance_random(self):
        rng = random.Random(11)
        samples = [
            (TrapezoidSpec(2, 2, 0, 0), TrapezoidSpec(3, 2, 0, 0)),
            (TrapezoidSpec(3, 5, -1, 1), TrapezoidSpec(2, 3, -1, 1)),
            (TrapezoidSpec(2, 5, 2, 0), TrapezoidSpec(4, 1, 2, 0)),
            (TrapezoidSpec(2, 2, Fraction(1, 2), Fraction(1, 2)),
             TrapezoidSpec(3, 3, Fraction(1, 2), Fraction(1, 2))),
        ]
        for sa, sb in samples:
            a, b = gen_trapezoid(sa), gen_trapezoid(sb)
            for _ in range(20):
                alpha = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                beta = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                m = AffineMap2D.diagonal(alpha, beta,
                                         Fraction(rng.randint(-9, 9), 3),
                                         rng.randint(-9, 9))
                cls = classify_thm2(apply_map(a, m), apply_map(b, m))
                assert cls.verdict is Verdict.TRAPEZOID_PAIR
                got_a, got_b = cls.details["spec_a"], cls.details["spec_b"]
                assert (got_a.m, got_a.h) == (sa.m, sa.h)
                assert (got_b.m, got_b.h) == (sb.m, sb.h)


class TestClassifyThm3:
    def test_figure_two(self):
        cls = classify_thm3(*figure2_pair())
        assert cls.verdict is Verdict.EPS_TRAPEZOID_PAIR
        assert cls.details["eps_spec"] == EpsilonSpec(TrapezoidSpec(4, 16, 1, 2),
                                                      frozenset({8, 12, 14}))
        assert cls.details["partner"] == TrapezoidSpec(4, 7, 1, 2)
        assert cls.details["roles_swapped"] is False

    def test_figure_two_swapped_roles(self):
        a, b = figure2_pair()
        cls = classify_thm3(b, a)
        assert cls.verdict is Verdict.EPS_TRAPEZOID_PAIR
        assert cls.details["roles_swapped"] is True

    def test_figure_three(self):
        a, b = gen_case_c(CaseCSpec(4, 4, 7))
        cls = classify_thm3(a, b)
        assert cls.verdict is Verdict.CASE_C_PAIR
        assert cls.details["spec"] == CaseCSpec(4, 4, 7)

    def test_rectangles(self):
        a = PointSet2D((x, y) for x in range(2) for y in range(3))
        b = PointSet2D((x, y) for x in range(4) for y in range(3))
        cls = classify_thm3(a, b)
        assert cls.verdict is Verdict.TRAPEZOID_PAIR

    def test_wild_regime_rejected(self):
        with pytest.raises(HypothesisViolated):
            classify_thm3(*gen_wild(4))

    def test_one_dimensional_rejected(self):
        with pytest.raises(HypothesisViolated):
            classify_thm3(ps((0, 0), (1, 0)), ps((0, 0), (1, 0), (0, 1), (1, 1)))

    def test_not_extremal(self):
        a = PointSet2D((x, y) for x in range(2) for y in range(3))
        b = ps((0, 0), (1, 0), (0, 1), (1, 1), (5, 5), (6, 5))
        assert classify_thm3(a, b).verdict is Verdict.NOT_EXTREMAL

    def test_group_invariance_random(self):
        rng = random.Random(23)
        a0, b0 = figure2_pair()
        c0, d0 = gen_case_c(CaseCSpec(2, 3, 3))
        t0 = (gen_trapezoid(TrapezoidSpec(3, 4, 0, 1)), gen_trapezoid(TrapezoidSpec(2, 2, 0, 1)))
        for a, b, want in [(a0, b0, Verdict.EPS_TRAPEZOID_PAIR),
                           (c0, d0, Verdict.CASE_C_PAIR),
                           (*t0, Verdict.TRAPEZOID_PAIR)]:
            for _ in range(12):
                alpha = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1])
                beta = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1])
                gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                m = AffineMap2D.upper_triangular(alpha, gamma, beta,
                                                 rng.randint(-5, 5), rng.randint(-5, 5))
                cls = classify_thm3(apply_map(a, m), apply_map(b, m))
                assert cls.verdict is want


def _ap_difference(values):
    if len(values) <= 1:
        return True, None
    d = values[1] - values[0]
    return all(values[k + 1] - values[k] == d for k in range(len(values) - 1)), d


def _shared_section_difference(sets, axis_rows):
    diffs = set()
    for s in sets:
        groups = s.rows() if axis_rows else s.columns()
        for vals in groups.values():
            ok, d = _ap_difference(vals)
            if not ok:
                return None
            if d is not None:
                diffs.add(d)
    if len(diffs) > 1:
        return None
    return diffs.pop() if diffs else rat(1)


# The point-set helpers as they stood before the classifiers moved to
# columns and row runs, kept verbatim.

def _trapezoid_spec_of(s: PointSet2D) -> Optional[tuple[TrapezoidSpec, Point2]]:
    """Recognize s as a translate of a materialized trapezoid.

    Returns (spec, anchor) with s == gen_trapezoid(spec) + anchor, requiring
    consecutive integer x-positions, difference-1 columns, and arithmetic
    column minima (difference d) and maxima (difference c).
    """
    cols = s.columns()
    xs = sorted(cols)
    x0 = xs[0]
    if any(x - x0 != k for k, x in enumerate(xs)):
        return None
    ok, step = shared_difference(cols.values())
    if not ok or step not in (None, 1):
        return None
    mins = [cols[x][0] for x in xs]
    maxs = [cols[x][-1] for x in xs]
    okd, d = shared_difference([mins])
    okc, c = shared_difference([maxs])
    if not (okd and okc):
        return None
    m = len(xs)
    h = int(maxs[0] - mins[0]) + 1
    d = rat(0) if d is None else d
    c = rat(0) if c is None else c
    try:
        spec = TrapezoidSpec(m, h, c, d)
    except InvalidSpec:
        return None
    return spec, _point(x0, mins[0])


def reference_classify_thm2(a: PointSet2D, b: PointSet2D) -> Classification:
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("classify_thm2 needs nonempty sets")
    if collinear_direction(a) is not None or collinear_direction(b) is not None:
        return classify_1d(a, b)
    if not bound(BoundMode.LINES_GS, a, b).extremal:
        return Classification(Verdict.NOT_EXTREMAL)

    # (1) x-projections: APs with one shared difference alpha
    ok, alpha = shared_difference([sorted({p.x for p in a}), sorted({p.x for p in b})])
    if not ok or alpha is None:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)

    inv_alpha = Fraction(1) / alpha
    a1 = PointSet2D(_point(x * inv_alpha, y) for x, y in a)
    b1 = PointSet2D(_point(x * inv_alpha, y) for x, y in b)

    # (2) vertical sections: APs with one shared positive difference beta
    ok, beta = shared_difference([*a1.columns().values(), *b1.columns().values()])
    if not ok:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)
    beta = beta or 1
    inv_beta = Fraction(1) / beta
    a2 = PointSet2D(_point(x, y * inv_beta) for x, y in a1)
    b2 = PointSet2D(_point(x, y * inv_beta) for x, y in b1)

    # (3) column extrema: shared slopes d (minima) and c (maxima)
    ra = _trapezoid_spec_of(a2)
    rb = _trapezoid_spec_of(b2)
    if ra is None or rb is None:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)
    spec_a, anchor_a = ra
    spec_b, anchor_b = rb
    if spec_a.c != spec_b.c or spec_a.d != spec_b.d:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)
    witness = AffineMap2D.diagonal(inv_alpha, inv_beta)
    return Classification(
        verdict=Verdict.TRAPEZOID_PAIR,
        details={"spec_a": spec_a, "spec_b": spec_b,
                 "anchor_a": anchor_a, "anchor_b": anchor_b},
        witness_map=witness,
    )


def _normalize_levels(s: PointSet2D, dy: Rational) -> PointSet2D:
    y0 = min(y for _, y in s)
    inv = Fraction(1) / dy
    return PointSet2D(_point(x, (y - y0) * inv) for x, y in s)


def _match_trapezoid(s: PointSet2D, mode_m: int) -> Optional[TrapezoidSpec]:
    r = _trapezoid_spec_of(s)
    if r is None:
        return None
    spec, _ = r
    if spec.m != mode_m:
        return None
    return spec


def _match_standard(a3: PointSet2D, b3: PointSet2D, m: int, n: int) -> Optional[dict]:
    ta = _match_trapezoid(a3, m)
    tb = _match_trapezoid(b3, n)
    if ta is not None and tb is not None and ta.c == tb.c and ta.d == tb.d:
        return {"spec_a": ta, "spec_b": tb}
    return None


# The sections-mode matchers as they stood before the eps slopes were read
# off the row counts and the shears ran on raw coordinates, kept verbatim:
# the reference classifier below uses only these.

def _integer_form(s: PointSet2D) -> Optional[PointSet2D]:
    """Translate so min x = min y = 0 and require integer coordinates."""
    x0 = min(p.x for p in s)
    y0 = min(p.y for p in s)
    pts = []
    for p in s:
        x, y = p.x - x0, p.y - y0
        if Fraction(x).denominator != 1 or Fraction(y).denominator != 1:
            return None
        pts.append(Point2(int(x), int(y)))
    return PointSet2D(pts)


# classify.RowProfile, deleted once the shear slopes were read off _row_runs.
@dataclass(frozen=True)
class RowProfile:
    """Per-level records: size and extreme x-values."""

    levels: tuple
    counts: tuple
    min_xs: tuple
    max_xs: tuple

    @classmethod
    def of(cls, s: PointSet2D) -> "RowProfile":
        rows = s.rows()
        levels = tuple(sorted(rows))
        return cls(
            levels=levels,
            counts=tuple(len(rows[v]) for v in levels),
            min_xs=tuple(rows[v][0] for v in levels),
            max_xs=tuple(rows[v][-1] for v in levels),
        )


def _reflect(s: PointSet2D, rx: bool, ry: bool) -> PointSet2D:
    return PointSet2D(Point2(-p.x if rx else p.x, -p.y if ry else p.y) for p in s)


def _match_eps(s: PointSet2D, mode_m: int) -> Optional[EpsilonSpec]:
    """Recognize s (integer form, min x = min y = 0) as a shifted trapezoid."""
    rows = s.rows()
    levels = sorted(rows)
    height = len(levels)
    if levels != list(range(height)):
        return None
    if mode_m < 2:
        return None
    counts = {v: len(rows[v]) for v in levels}
    c_max = (height - 1) // (mode_m - 1)
    for c in range(0, c_max + 1):
        h = height - (mode_m - 1) * c
        if h < 1:
            continue
        for d in range(0, height + 1):
            if c == 0 and d == 0:
                continue
            try:
                base_spec = TrapezoidSpec(mode_m, h, c, d)
            except InvalidSpec:
                continue
            base = gen_trapezoid(base_spec)
            if len(base) != len(s):
                continue
            base_rows = base.rows()
            if sorted(base_rows) != levels:
                continue
            if any(len(base_rows[v]) != counts[v] for v in levels):
                continue
            shifts = [rows[v][0] - base_rows[v][0] for v in levels]
            shifts = [sh - shifts[0] for sh in shifts]
            if any(sh < 0 for sh in shifts):
                continue
            if any(shifts[i + 1] - shifts[i] not in (0, 1) for i in range(height - 1)):
                continue
            ones = frozenset(i for i in range(1, height) if shifts[i] - shifts[i - 1] == 1)
            try:
                eps_spec = EpsilonSpec(base_spec, ones)
            except InvalidSpec:
                continue
            cand = _integer_form(gen_eps_trapezoid(eps_spec))
            if cand == s:
                return eps_spec
    return None


def _match_case_c(sa: PointSet2D, sb: PointSet2D, m: int, n: int) -> Optional[CaseCSpec]:
    height_a = int(max(p.y for p in sa)) + 1
    k = height_a - 4 * m + 4
    if k < 1 or k % 2 == 0:
        return None
    try:
        spec = CaseCSpec(m, n, k)
    except InvalidSpec:
        return None
    ga, gb = gen_case_c(spec)
    if _integer_form(ga) == sa and _integer_form(gb) == sb:
        return spec
    return None


def _normalized_candidates(a2: PointSet2D, b2: PointSet2D):
    """Yield (a3, b3, rx, ry, gamma) for every reflection and candidate shear
    that lands both sets on integer coordinates."""
    for rx, ry in ((False, False), (True, False), (False, True), (True, True)):
        ar = _reflect(a2, rx, ry)
        br = _reflect(b2, rx, ry)
        candidates = {rat(0)}
        for s in (ar, br):
            profile = RowProfile.of(s)
            for i in range(len(profile.levels) - 1):
                step = profile.levels[i + 1] - profile.levels[i]
                candidates.add(rat(Fraction(profile.min_xs[i + 1] - profile.min_xs[i]) / step))
                candidates.add(rat(Fraction(profile.max_xs[i + 1] - profile.max_xs[i]) / step))
        for gamma in sorted(candidates, key=lambda v: (abs(Fraction(v)), Fraction(v))):
            a3 = _integer_form(PointSet2D(Point2(p.x - gamma * p.y, p.y) for p in ar))
            b3 = _integer_form(PointSet2D(Point2(p.x - gamma * p.y, p.y) for p in br))
            if a3 is None or b3 is None:
                continue
            yield a3, b3, rx, ry, gamma


def _match_shifted(a3: PointSet2D, b3: PointSet2D, m: int, n: int) -> Optional[dict]:
    for sa, sb, mm, nn, swapped in ((a3, b3, m, n, False), (b3, a3, n, m, True)):
        eps = _match_eps(sa, mm)
        if eps is not None:
            partner = _match_trapezoid(sb, nn)
            want_h = (nn - 1) * int(eps.base.d) + 1
            if partner is not None and partner.h == want_h \
                    and partner.c == eps.base.c and partner.d == eps.base.d:
                return {"eps_spec": eps, "partner": partner, "roles_swapped": swapped}
    return None


def _match_wedge(a3: PointSet2D, b3: PointSet2D, m: int, n: int) -> Optional[dict]:
    for sa, sb, mm, nn, swapped in ((a3, b3, m, n, False), (b3, a3, n, m, True)):
        cc = _match_case_c(sa, sb, mm, nn)
        if cc is not None:
            return {"spec": cc, "roles_swapped": swapped}
    return None


def _match_family(tag, a3, b3, m, n):
    return {"a": _match_standard, "b": _match_shifted, "c": _match_wedge}[tag](a3, b3, m, n)


def reference_normalize(a, b):
    """Steps (1) and (2) of the reference: (a2, b2, inv_dx, dy), or None
    when the levels or the rows are not progressions with shared
    differences."""
    ok_a, dy_a = _ap_difference(sorted({p.y for p in a}))
    ok_b, dy_b = _ap_difference(sorted({p.y for p in b}))
    dys = {v for v in (dy_a, dy_b) if v is not None}
    if not (ok_a and ok_b) or len(dys) != 1:
        return None
    dy = dys.pop()
    a1 = _normalize_levels(a, dy)
    b1 = _normalize_levels(b, dy)
    dx = _shared_section_difference([a1, b1], axis_rows=True)
    if dx is None:
        return None
    inv_dx = Fraction(1) / dx
    a2 = PointSet2D(Point2(p.x * inv_dx, p.y) for p in a1)
    b2 = PointSet2D(Point2(p.x * inv_dx, p.y) for p in b1)
    return a2, b2, inv_dx, dy


def reference_classify_thm3(a, b):
    """classify_thm3 with its earlier two-scan family search: families in
    specificity order, each over every candidate, then a second full scan
    that fills also_matches.  Callers pass extremal pairs with m, n >= 2."""
    m = cover_stats(a).max_horizontal_section
    n = cover_stats(b).max_horizontal_section
    normalized = reference_normalize(a, b)
    if normalized is None:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)
    a2, b2, inv_dx, dy = normalized

    found_tag = None
    details: dict = {}
    transform = None
    for tag in ("a", "b", "c"):
        for a3, b3, rx, ry, gamma in _normalized_candidates(a2, b2):
            got = _match_family(tag, a3, b3, m, n)
            if got is not None:
                found_tag = tag
                details = dict(got)
                transform = (rx, ry, gamma)
                break
        if found_tag:
            break
    if not found_tag:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)

    extras = [t for t in ("a", "b", "c") if t != found_tag and any(
        _match_family(t, a3, b3, m, n) is not None
        for a3, b3, _, _, _ in _normalized_candidates(a2, b2))]
    if extras:
        details["also_matches"] = extras
    rx, ry, gamma = transform
    details["reflection"] = {"x": rx, "y": ry}
    refl = AffineMap2D.diagonal(-1 if rx else 1, -1 if ry else 1)
    shear = AffineMap2D.upper_triangular(1, -gamma, 1)
    witness = shear.compose(refl).compose(
        AffineMap2D.diagonal(inv_dx, Fraction(1) / dy))
    verdict = {"a": Verdict.TRAPEZOID_PAIR,
               "b": Verdict.EPS_TRAPEZOID_PAIR,
               "c": Verdict.CASE_C_PAIR}[found_tag]
    return Classification(verdict=verdict, details=details, witness_map=witness)


def two_dimensional_sweep_pairs(width, height, mode, **caps):
    """The extremal pairs of a grid sweep in which both sets are
    two-dimensional."""
    report = sweep(SweepConfig(width, height, mode, collect_extremal=True, **caps))
    pairs = [(PointSet2D(pa), PointSet2D(pb)) for pa, pb in report.extremal_pairs]
    return [(a, b) for a, b in pairs
            if cover_stats(a).is_two_dimensional and cover_stats(b).is_two_dimensional]


def sweep_pairs_for_thm3(width, height, **caps):
    """The sections-extremal pairs of a grid sweep that classify_thm3 accepts."""
    return two_dimensional_sweep_pairs(width, height, BoundMode.SECTIONS_GS, min_mn=2, **caps)


def runs_of(s: PointSet2D) -> Optional[list]:
    """The row runs (y, x, k) of s, one per level, for the row {x, ..., x+k-1}
    at level y; None unless the levels are 0, 1, ... and every row is a run
    of difference 1."""
    rows = s.rows()
    if list(rows) != list(range(len(rows))) \
            or any(xs[-1] - xs[0] != len(xs) - 1 for xs in rows.values()):
        return None
    return [(y, xs[0], len(xs)) for y, xs in rows.items()]


def points_of(runs) -> PointSet2D:
    return PointSet2D((x, y) for y, x0, k in runs for x in range(x0, x0 + k))


def scaled_runs(runs_a, runs_b):
    """([runs_a, runs_b], scale): the starts x of both sets' runs as the
    integers scale*x, scale the lcm of their denominators, as classify_thm3
    hands them to its candidate walk."""
    scale = lcm(*(Fraction(x).denominator for _, x, _ in runs_a + runs_b))
    return [[(y, int(x * scale), k) for y, x, k in runs] for runs in (runs_a, runs_b)], scale


class TestSingleScanMatchesTwoScans:
    def assert_same(self, pairs):
        """Both classifiers agree, and the integer candidate walk yields the
        frozen walk's candidates, each shear g/scale turned back into a
        rational; returns the scales seen."""
        scales = set()
        for a, b in pairs:
            assert classify_thm3(a, b).to_json_dict() == reference_classify_thm3(a, b).to_json_dict()
            normalized = reference_normalize(a, b)
            if normalized is not None:
                a2, b2 = normalized[:2]
                (runs_a, runs_b), scale = scaled_runs(runs_of(a2), runs_of(b2))
                scales.add(scale)
                got = [(points_of(a3), points_of(b3), rx, ry, Fraction(g, scale))
                       for a3, b3, rx, ry, g
                       in library._normalized_candidates(runs_a, runs_b, scale)]
                assert got == list(_normalized_candidates(a2, b2))
        return scales

    def test_grid_3x3(self):
        pairs = sweep_pairs_for_thm3(3, 3)
        assert len(pairs) == 150
        self.assert_same(pairs)

    def test_grid_3x4(self):
        pairs = sweep_pairs_for_thm3(3, 4, max_size_b=3)
        assert len(pairs) == 78
        verdicts = [classify_thm3(a, b).verdict for a, b in pairs]
        assert verdicts.count(Verdict.EPS_TRAPEZOID_PAIR) == 8
        self.assert_same(pairs)

    def test_seeded_upper_triangular_images(self):
        rng = random.Random(41)
        instances = [
            (gen_trapezoid(TrapezoidSpec(3, 4, 0, 1)), gen_trapezoid(TrapezoidSpec(2, 3, 0, 1))),
            gen_case_c(CaseCSpec(2, 3, 3)),
            figure2_pair(),
            gen_case_c(CaseCSpec(4, 4, 7)),
            gen_case_c(CaseCSpec(2, 2, 1)),
            gen_case_c(CaseCSpec(2, 3, 3))[::-1],
        ]
        pairs = []
        for a, b in instances:
            pairs.append((a, b))
            for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                alpha = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * signs[0]
                beta = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * signs[1]
                gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                m = AffineMap2D.upper_triangular(alpha, gamma, beta,
                                                 rng.randint(-5, 5), rng.randint(-5, 5))
                pairs.append((apply_map(a, m), apply_map(b, m)))
        assert self.assert_same(pairs) > {1}

    def test_start_denominators_two_and_three_scale_by_six(self):
        """A's run starts have denominator 2 and B's denominator 3 after
        normalization, so the walk scales by 6; the verdicts stay those of
        the unshifted pairs."""
        shear = AffineMap2D.upper_triangular(1, -2, 1)
        pairs = []
        for (a, b), verdict in ((figure2_pair(), Verdict.EPS_TRAPEZOID_PAIR),
                                (gen_case_c(CaseCSpec(2, 3, 3)), Verdict.CASE_C_PAIR)):
            a, b = apply_map(a, shear), apply_map(b, shear)
            pair = (apply_map(a, AffineMap2D.diagonal(1, 1, Fraction(1, 2), 0)),
                    apply_map(b, AffineMap2D.diagonal(1, 1, Fraction(-4, 3), 3)))
            assert classify_thm3(*pair).verdict is verdict
            pairs.append(pair)
        for a, b in pairs:
            runs_a, runs_b = (runs_of(s) for s in reference_normalize(a, b)[:2])
            assert {Fraction(x).denominator for _, x, _ in runs_a} == {2}
            assert {Fraction(x).denominator for _, x, _ in runs_b} == {3}
        assert self.assert_same(pairs) == {6}


def test_verdict_only_scan_agrees_with_full_scan():
    """The verdict-only scan gives the full scan's verdict, details and witness
    on every sweep pair and seeded image; only also_matches is left out."""
    rng = random.Random(41)
    pairs = sweep_pairs_for_thm3(3, 3) + sweep_pairs_for_thm3(3, 4, max_size_b=3)
    for a, b in [(gen_trapezoid(TrapezoidSpec(3, 4, 0, 1)), gen_trapezoid(TrapezoidSpec(2, 3, 0, 1))),
                 gen_case_c(CaseCSpec(2, 3, 3)), figure2_pair(), gen_case_c(CaseCSpec(4, 4, 7))]:
        for _ in range(4):
            m = AffineMap2D.upper_triangular(Fraction(rng.randint(1, 4), rng.randint(1, 3)),
                                             Fraction(rng.randint(-6, 6), rng.randint(1, 3)),
                                             Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
            pairs.append((apply_map(a, m), apply_map(b, m)))
    also = 0
    for a, b in pairs:
        full = classify_thm3(a, b).to_json_dict()
        also += full.pop("also_matches", None) is not None
        assert classify_thm3(a, b, verdict_only=True).to_json_dict() == full
    verdicts = Counter(classify_thm3(a, b).verdict for a, b in pairs)
    assert len(verdicts) == 3 and also > 0


def test_verdict_only_scan_stops_at_the_first_standard_match():
    """A standard pair that matches at its first candidate costs the
    verdict-only scan no shifted or wedge match, where the full scan tries
    both families at every candidate."""
    a, b = gen_trapezoid(TrapezoidSpec(3, 4, 0, 1)), gen_trapezoid(TrapezoidSpec(2, 3, 0, 1))
    with mock.patch.object(library, "_match_shifted", wraps=library._match_shifted) as shifted, \
            mock.patch.object(library, "_match_wedge", wraps=library._match_wedge) as wedge:
        cls = classify_thm3(a, b, verdict_only=True)
        assert cls.verdict is Verdict.TRAPEZOID_PAIR
        assert cls.details["reflection"] == {"x": False, "y": False}
        assert cls.witness_map == AffineMap2D()
        assert (shifted.call_count, wedge.call_count) == (0, 0)
        assert classify_thm3(a, b).to_json_dict()["verdict"] == cls.verdict.value
        assert shifted.call_count > 1 and wedge.call_count > 1


def integer_form_subsets(width, height):
    """Every subset of the width x height grid with min x = min y = 0 and a
    row of at least 2 points."""
    cells = [(x, y) for x in range(width) for y in range(height)]
    for mask in range(1, 1 << len(cells)):
        pts = [cell for i, cell in enumerate(cells) if mask >> i & 1]
        if min(x for x, _ in pts) == 0 and min(y for _, y in pts) == 0 \
                and max(Counter(y for _, y in pts).values()) >= 2:
            yield PointSet2D(pts)


def test_eps_matcher_agrees_with_frozen_search_on_small_grids():
    sets = matches = 0
    for width, height in ((3, 4), (4, 3), (2, 6), (6, 2)):
        for s in integer_form_subsets(width, height):
            sets += 1
            max_row = max(len(xs) for xs in s.rows().values())
            want = _match_eps(s, max_row)
            runs = runs_of(s)
            if runs is None:  # the candidate walk yields runs only
                assert want is None, s
                continue
            got = library._match_eps(runs, max_row)
            assert (got and got.to_json_dict()) == (want and want.to_json_dict()), s
            if got is not None:
                assert gen_eps_trapezoid(got) == s
                matches += 1
    assert (sets, matches) == (12208, 86)


def frozen_trapezoid_spec_of(cols: dict) -> Optional[tuple[TrapezoidSpec, Point2]]:
    """Recognize the set with these columns (x -> ascending y-values) as a
    translate of a materialized trapezoid.

    Returns (spec, anchor) with the set == gen_trapezoid(spec) + anchor,
    requiring consecutive integer x-positions, difference-1 columns, and
    arithmetic column minima (difference d) and maxima (difference c).
    """
    xs = sorted(cols)
    x0 = xs[0]
    if any(x - x0 != k for k, x in enumerate(xs)):
        return None
    ok, step = shared_difference(cols.values())
    if not ok or step not in (None, 1):
        return None
    mins = [cols[x][0] for x in xs]
    maxs = [cols[x][-1] for x in xs]
    okd, d = shared_difference([mins])
    okc, c = shared_difference([maxs])
    if not (okd and okc):
        return None
    try:  # a one-column set has no slopes: c = d = 0
        spec = TrapezoidSpec(len(xs), int(maxs[0] - mins[0]) + 1, c or 0, d or 0)
    except InvalidSpec:
        return None
    return spec, _point(x0, mins[0])


def frozen_match_trapezoid(runs, mode_m: int) -> Optional[TrapezoidSpec]:
    """classify._match_trapezoid before its width exit, verbatim but for its
    name and that of the column recognizer it called, frozen above as
    frozen_trapezoid_spec_of (classify's own before it moved to grid ints)."""
    cols: dict = {}
    for y, x, k in runs:
        for col in range(x, x + k):
            cols.setdefault(col, []).append(y)
    r = frozen_trapezoid_spec_of(cols)
    return r[0] if r is not None and r[0].m == mode_m else None


def test_trapezoid_width_exit_agrees_with_frozen_matcher():
    """_match_trapezoid returns None early when its runs do not span mode_m
    columns, and answers as before on every input: each small-grid set of
    the eps matcher's test, for its longest row and one either side, and
    every candidate of the walk on the 3x3 and 3x4 sweep pairs and on
    trapezoid, case-C, figure-2 and eps-range-edge pairs under seeded maps."""
    inputs = []
    for width, height in ((3, 4), (4, 3), (2, 6), (6, 2)):
        for s in integer_form_subsets(width, height):
            runs = runs_of(s)
            if runs is not None:
                top = max(k for _, _, k in runs)
                inputs += [(runs, mode_m) for mode_m in (top - 1, top, top + 1)]
    rng = random.Random(22)
    shifted = gen_trapezoid(TrapezoidSpec(4, 16, 1, 2))
    instances = [
        (gen_trapezoid(TrapezoidSpec(3, 4, 0, 1)), gen_trapezoid(TrapezoidSpec(2, 3, 0, 1))),
        gen_case_c(CaseCSpec(2, 3, 3)), gen_case_c(CaseCSpec(4, 4, 7)), figure2_pair(),
        (gen_trapezoid(TrapezoidSpec(2, 3, 1, 2)), gen_trapezoid(TrapezoidSpec(3, 4, 1, 2))),
        (PointSet2D((x + (y >= 15), y) for x, y in shifted), gen_trapezoid(TrapezoidSpec(2, 3, 1, 2))),
    ]
    pairs = sweep_pairs_for_thm3(3, 3) + sweep_pairs_for_thm3(3, 4, max_size_b=3)
    for a, b in instances:
        maps = [seeded_map(rng, upper_triangular=True) for _ in range(4)]
        pairs += [(a, b)] + [(apply_map(a, m), apply_map(b, m)) for m in maps]
    for a, b in pairs:
        normalized = reference_normalize(a, b)
        if normalized is None:
            continue
        (runs_a, runs_b), scale = scaled_runs(runs_of(normalized[0]), runs_of(normalized[1]))
        m, n = (max(k for _, _, k in runs) for runs in (runs_a, runs_b))
        for a3, b3, *_ in library._normalized_candidates(runs_a, runs_b, scale):
            inputs += [(a3, m), (b3, n)]
    outcomes = Counter()
    for runs, mode_m in inputs:
        want = frozen_match_trapezoid(runs, mode_m)
        assert library._match_trapezoid(runs, mode_m) == want, (runs, mode_m)
        width = max(x + k for _, x, k in runs) - min(x for _, x, _ in runs)
        outcomes[want is not None, width == mode_m] += 1
    assert outcomes[True, False] == 0
    assert outcomes[True, True] > 0 and outcomes[False, True] > 0 and outcomes[False, False] > 0


def test_case_c_forms_are_built_once_per_spec():
    """classify_thm3 generates each case-C instance it compares with once:
    two calls on case-C(4,4,7) and one on a sheared image of it make at most
    one gen_case_c call per CaseCSpec, and answer as the first call did."""
    a, b = gen_case_c(CaseCSpec(4, 4, 7))
    shear = AffineMap2D.upper_triangular(Fraction(1, 2), Fraction(-3, 2), 2, 1, 0)
    library._case_c_runs.cache_clear()
    with counting(library, "gen_case_c") as generated:
        first = classify_thm3(a, b)
        again = classify_thm3(a, b)
        image = classify_thm3(apply_map(a, shear), apply_map(b, shear))
    specs = [call.args[0] for call in generated.call_args_list]
    assert specs and len(specs) == len(set(specs))
    assert first.verdict is Verdict.CASE_C_PAIR and again.to_json_dict() == first.to_json_dict()
    assert image.verdict is first.verdict and image.details["spec"] == first.details["spec"]
    assert library._case_c_runs.cache_info().maxsize is not None


class TestThm2MatchesReference:
    def assert_same(self, pairs):
        for a, b in pairs:
            assert classify_thm2(a, b).to_json_dict() == reference_classify_thm2(a, b).to_json_dict()

    def test_sweep_grids(self):
        small = two_dimensional_sweep_pairs(3, 3, BoundMode.LINES_GS)
        tall = two_dimensional_sweep_pairs(3, 4, BoundMode.LINES_GS, max_size_b=3)
        assert (len(small), len(tall)) == (113, 92)
        self.assert_same(small + tall)

    def test_seeded_diagonal_images(self):
        rng = random.Random(43)
        instances = [
            (gen_trapezoid(TrapezoidSpec(2, 3, 1, 1)), gen_trapezoid(TrapezoidSpec(3, 2, 1, 1))),
            (gen_trapezoid(TrapezoidSpec(3, 5, -1, 1)), gen_trapezoid(TrapezoidSpec(2, 3, -1, 1))),
            (gen_trapezoid(TrapezoidSpec(2, 2, Fraction(1, 2), Fraction(1, 2))),
             gen_trapezoid(TrapezoidSpec(3, 3, Fraction(1, 2), Fraction(1, 2)))),
            figure2_pair(),
            gen_case_c(CaseCSpec(2, 3, 3)),
        ]
        pairs = []
        for a, b in instances:
            pairs.append((a, b))
            for signs in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
                alpha = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * signs[0]
                beta = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * signs[1]
                m = AffineMap2D.diagonal(alpha, beta, Fraction(rng.randint(-9, 9), 3),
                                         rng.randint(-5, 5))
                pairs.append((apply_map(a, m), apply_map(b, m)))
        self.assert_same(pairs)


class TestThm2UnclassifiedExits:
    """The three ExtremalUnclassified exits of classify_thm2 after the
    extremality test, reached on hand-made pairs that only pass it because
    classify._extremal is patched to say so: no lines-extremal pair reaches
    them."""

    def classify_as_extremal(self, a, b):
        with mock.patch.object(library, "_extremal", return_value=True):
            return classify_thm2(a, b).to_json_dict()

    def test_axis_steps_fail(self):
        a = ps((0, 0), (0, 1), (0, 3), (1, 0))  # the column 0, 1, 3 is no AP
        b = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        assert self.classify_as_extremal(a, b) == {"verdict": "ExtremalUnclassified"}

    def test_column_starts_are_no_trapezoid(self):
        a = ps((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3))  # starts 0, 0, 2
        b = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        assert self.classify_as_extremal(a, b) == {"verdict": "ExtremalUnclassified"}
        assert self.classify_as_extremal(b, a) == {"verdict": "ExtremalUnclassified"}

    def test_slopes_differ(self):
        a = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        b = gen_trapezoid(TrapezoidSpec(2, 2, 1, 0))
        assert self.classify_as_extremal(a, b) == {"verdict": "ExtremalUnclassified"}


def test_thm2_unscales_only_its_slopes_and_anchors():
    """classify_thm2 reads a pair's columns as grid ints: on T(10,61,0,1) and
    T(3,5,0,1) under a rational diagonal map, 577 points, it turns at most
    six grid values into rationals (each set's d and anchor)."""
    m = AffineMap2D.diagonal(Fraction(3, 2), Fraction(5, 3), Fraction(1, 3), -2)
    a = apply_map(gen_trapezoid(TrapezoidSpec(10, 61, 0, 1)), m)
    b = apply_map(gen_trapezoid(TrapezoidSpec(3, 5, 0, 1)), m)
    assert len(a) + len(b) == 577
    with mock.patch.object(library, "_unscale", wraps=library._unscale) as unscale:
        cls = classify_thm2(a, b)
    assert cls.to_json_dict() == reference_classify_thm2(a, b).to_json_dict()
    assert cls.verdict is Verdict.TRAPEZOID_PAIR
    assert cls.details["spec_a"] == TrapezoidSpec(10, 61, 0, 1)
    assert unscale.call_count <= 6


def test_thm3_candidate_walk_builds_no_point_set(monkeypatch):
    m = AffineMap2D.upper_triangular(Fraction(2, 3), Fraction(5, 2), -2, 1, 4)
    a = apply_map(gen_trapezoid(TrapezoidSpec(3, 4, 0, 1)), m)
    b = apply_map(gen_trapezoid(TrapezoidSpec(2, 3, 0, 1)), m)
    builds = []
    init = PointSet2D.__init__

    def counting_init(self, points=()):
        builds.append(1)
        init(self, points)

    monkeypatch.setattr(PointSet2D, "__init__", counting_init)
    assert classify_thm3(a, b).verdict is Verdict.TRAPEZOID_PAIR
    assert builds == []


class TestClassify1D:
    def test_ap_case(self):
        cls = classify_1d(ps((0, 0), (1, 0), (2, 0)), ps((0, 0), (1, 0)))
        assert cls.verdict is Verdict.ONE_DIMENSIONAL
        assert cls.details["equality"] and cls.details["ap_case"]

    def test_non_ap_strict(self):
        cls = classify_1d(ps((0, 0), (1, 0), (3, 0)), ps((0, 0), (1, 0)))
        assert not cls.details["equality"]
        assert not cls.details["ap_case"]

    def test_singleton_always_tight(self):
        cls = classify_1d(ps((3, 3)), ps((0, 0), (1, 0), (7, 0)))
        assert cls.details["equality"] and cls.details["min_case"]

    def test_non_collinear_rejected(self):
        with pytest.raises(NotCollinear):
            classify_1d(ps((0, 0), (1, 0), (0, 1)), ps((0, 0)))

    def test_different_common_difference_is_strict(self):
        cls = classify_1d(ps((0, 0), (2, 0)), ps((0, 5), (3, 5)))
        assert not cls.details["equality"]
        assert not cls.details["ap_case"]


class TestSplitCheck:
    def test_figure_two(self):
        assert split_check(*figure2_pair())

    def test_figure_three(self):
        assert split_check(*gen_case_c(CaseCSpec(4, 4, 7)))

    def test_small_trapezoid_pair(self):
        t = gen_trapezoid(TrapezoidSpec(2, 3, 0, 1))
        assert split_check(t, t)

    def test_split_at_the_bottom_row(self):
        """The lower halves are the full bottom rows themselves."""
        assert split_check(gen_trapezoid(TrapezoidSpec(3, 2, 0, 0)),
                           gen_trapezoid(TrapezoidSpec(2, 4, 0, 0)))

    def test_needs_extremal_pair(self):
        a = PointSet2D((x, y) for x in range(2) for y in range(3))
        b = ps((0, 0), (1, 0), (0, 1), (1, 1), (5, 5), (6, 5))
        with pytest.raises(HypothesisViolated):
            split_check(a, b)

    def test_needs_wide_sections(self):
        with pytest.raises(HypothesisViolated):
            split_check(*gen_wild(4))


def round_trip_cases():
    """(A, B, verdict) for one pair of each family shape that TestRoundTrip covers."""
    cases = []
    for spec in [TrapezoidSpec(2, 3, 0, 1), TrapezoidSpec(3, 3, 1, 1),
                 TrapezoidSpec(4, 8, 0, 2)]:
        partner = TrapezoidSpec(2, 2 + int(spec.d), spec.c, spec.d)
        cases.append((gen_trapezoid(spec), gen_trapezoid(partner),
                      Verdict.TRAPEZOID_PAIR))
    eps = EpsilonSpec(TrapezoidSpec(2, 6, 1, 2), frozenset({4}))
    cases.append((gen_eps_trapezoid(eps),
                  gen_trapezoid(TrapezoidSpec(3, 5, 1, 2)),
                  Verdict.EPS_TRAPEZOID_PAIR))
    for mn in [(2, 2, 1), (3, 2, 5), (2, 4, 3)]:
        a, b = gen_case_c(CaseCSpec(*mn))
        cases.append((a, b, Verdict.CASE_C_PAIR))
    return cases


class TestRoundTrip:
    def test_every_family_classifies_to_itself(self):
        for a, b, want in round_trip_cases():
            assert classify_thm3(a, b).verdict is want


class TestCountOnTheNormalizedRuns:
    """classify_thm3 counts |A+B| once, after its scan: on the verdict's
    normalized runs when a family matched, else on the input pair."""

    @staticmethod
    def normalized_sizes(a, b, **kwargs):
        """(classification, the sizes of the sums classify_thm3 counted on
        other sets than its input), with no pair small enough, or dense
        enough, to be counted on its input."""
        with counting(library, "sumset_size") as counts, \
                mock.patch.object(library, "NORMALIZED_COUNT_PAIRS", 0), \
                mock.patch.object(library, "is_sparse", return_value=True):
            cls = classify_thm3(a, b, **kwargs)
        return cls, [sumset_size(x, y) for x, y in (c.args for c in counts.call_args_list)
                     if x is not a or y is not b]

    def test_equals_the_input_count(self):
        """On every pair of the 3x3 sections sweep that classify_thm3 accepts
        (the extremal pairs with m, n >= 2), on every round-trip case, and on
        seeded sheared images of both, a family verdict costs one count on the
        normalized runs, equal to sumset_size(a, b); the verdict and its JSON
        are the parent's (TestSingleScanMatchesTwoScans pins those)."""
        rng = random.Random(26)
        pairs = sweep_pairs_for_thm3(3, 3) + [(a, b) for a, b, _ in round_trip_cases()]
        pairs += [(apply_map(a, m), apply_map(b, m))
                  for a, b in pairs[-7:] for m in [seeded_map(rng, upper_triangular=True)]]
        verdicts = Counter()
        for a, b in pairs:
            for verdict_only in (False, True):
                cls, sizes = self.normalized_sizes(a, b, verdict_only=verdict_only)
                verdicts[cls.verdict] += 1
                assert sizes == [sumset_size(a, b)], (a, b)
        assert len(pairs) == 164 and set(verdicts) == {
            Verdict.TRAPEZOID_PAIR, Verdict.EPS_TRAPEZOID_PAIR, Verdict.CASE_C_PAIR}

    def test_unmatched_and_small_pairs_are_counted_on_their_input(self):
        """No family matches an extremal pair of ROADMAP item 1, a pair whose
        rows are no progressions, or a rectangle against a trapezoid, and a
        pair of at most NORMALIZED_COUNT_PAIRS pairs (p, q) costs less to
        count as it is: each is counted once, on its input pair, and the
        two that are not extremal are not scanned."""
        a, b = gen_trapezoid(TrapezoidSpec(2, 3, 1, 2)), gen_trapezoid(TrapezoidSpec(3, 4, 1, 2))
        gapped = ps((0, 0), (1, 0), (3, 0), (0, 1), (1, 1))
        tall = gen_trapezoid(TrapezoidSpec(2, 5, 0, 0))
        small = gen_case_c(CaseCSpec(2, 3, 3))
        assert len(small[0]) * len(small[1]) == library.NORMALIZED_COUNT_PAIRS
        for pair, verdict in (((a, b), Verdict.EXTREMAL_UNCLASSIFIED),
                              ((gapped, gapped), Verdict.NOT_EXTREMAL),
                              ((tall, a), Verdict.NOT_EXTREMAL),
                              (small, Verdict.CASE_C_PAIR)):
            with counting(library, "sumset_size") as counts, \
                    counting(library, "_normalized_candidates") as scan:
                cls = classify_thm3(*pair)
            assert cls.verdict is verdict and counts.call_args_list == [mock.call(*pair)]
            assert scan.called is (verdict is not Verdict.NOT_EXTREMAL)

    def test_sheared_large_pair_makes_no_sparse_count(self, monkeypatch):
        """T(10,61,0,1) twice under one shear: the input pair spans over a
        million grid cells and would be summed as a key set (565 x 565 pairs);
        the normalized runs take the kernel's dense path."""
        mp = AffineMap2D.upper_triangular(Fraction(3, 2), Fraction(-5, 3), Fraction(4, 3),
                                          1, Fraction(1, 7))
        big = gen_trapezoid(TrapezoidSpec(10, 61, 0, 1))
        a, b = apply_map(big, mp), apply_map(big, mp)
        sparse = []

        def recording(cells, size_a, size_b):
            sparse.append(is_sparse(cells, size_a, size_b))
            return sparse[-1]

        is_sparse = core.is_sparse
        monkeypatch.setattr(core, "is_sparse", recording)
        cls = classify_thm3(a, b)
        assert cls.verdict is Verdict.TRAPEZOID_PAIR and sparse == [False]
        assert sumset_size(a, b) == 2128 and sparse == [False, True]

    def test_large_dense_pair_is_counted_before_the_scan(self):
        """T(10,57,0,0) against T(10,61,0,1): 570 x 565 pairs, not extremal.
        Its sum's box has fewer cells than pairs, so the kernel sums it
        densely, and it is counted first, on its input, with no scan.  A
        sheared image of it is sparse: it is scanned, and counted after."""
        a, b = gen_trapezoid(TrapezoidSpec(10, 57, 0, 0)), gen_trapezoid(TrapezoidSpec(10, 61, 0, 1))
        mp = AffineMap2D.upper_triangular(Fraction(3, 2), Fraction(-5, 3), Fraction(4, 3), 1, 2)
        for pair, scanned in (((a, b), False), ((apply_map(a, mp), apply_map(b, mp)), True)):
            with counting(library, "sumset_size") as counts, \
                    counting(library, "_normalized_candidates") as scan:
                cls = classify_thm3(*pair)
            assert cls.verdict is Verdict.NOT_EXTREMAL
            assert (scan.call_count, counts.call_args_list) == (int(scanned), [mock.call(*pair)])
            with mock.patch.object(core, "is_sparse", wraps=core.is_sparse) as kernel_rule:
                sumset_size(*pair)
            cells = library._sum_cells(*grid_sections(*pair, rows=True)[2:])
            assert kernel_rule.call_args == mock.call(cells, *map(len, pair))  # the kernel's box
            assert core.is_sparse(cells, *map(len, pair)) is scanned


class TestWitnessMaps:
    def test_thm2_witness_lands_on_family(self):
        a = gen_trapezoid(TrapezoidSpec(2, 3, 1, 1))
        b = gen_trapezoid(TrapezoidSpec(3, 2, 1, 1))
        m = AffineMap2D.diagonal(Fraction(3, 2), Fraction(5, 3), 7, -2)
        cls = classify_thm2(apply_map(a, m), apply_map(b, m))
        w = cls.witness_map
        got_a = apply_map(apply_map(a, m), w)
        want_a = gen_trapezoid(cls.details["spec_a"]).translate(cls.details["anchor_a"])
        assert got_a == want_a
        got_b = apply_map(apply_map(b, m), w)
        want_b = gen_trapezoid(cls.details["spec_b"]).translate(cls.details["anchor_b"])
        assert got_b == want_b

    def test_thm3_witness_lands_on_family_up_to_translation(self):
        from sumsetlab.families import gen_eps_trapezoid as gen_eps

        a, b = figure2_pair()
        m = AffineMap2D.upper_triangular(Fraction(2, 3), Fraction(5, 2), -2, 1, 4)
        cls = classify_thm3(apply_map(a, m), apply_map(b, m))
        assert cls.verdict is Verdict.EPS_TRAPEZOID_PAIR
        w = cls.witness_map
        normalized_a = _integer_form(apply_map(apply_map(a, m), w))
        assert normalized_a == _integer_form(gen_eps(cls.details["eps_spec"]))
        normalized_b = _integer_form(apply_map(apply_map(b, m), w))
        assert normalized_b == _integer_form(gen_trapezoid(cls.details["partner"]))


def _origin_form(s: PointSet2D) -> PointSet2D:
    """s translated to min x = min y = 0."""
    return s.translate(Point2(-min(p.x for p in s), -min(p.y for p in s)))


def replay(a: PointSet2D, b: PointSet2D, cls: Classification) -> bool:
    """True when cls.witness_map carries a and b, each translated to
    min x = min y = 0, onto the family its verdict names, built from its
    details with the roles as given by roles_swapped; a thm2 verdict's anchors
    must place each family set exactly.  A 1d verdict has no witness: its
    common_difference must step through each set from its first point."""
    if cls.verdict is Verdict.ONE_DIMENSIONAL:
        d = cls.details["common_difference"]
        return d is not None and all(
            s == PointSet2D(s.points[0] + d.scale(k) for k in range(len(s))) for s in (a, b))
    got_a, got_b = (apply_map(s, cls.witness_map) for s in (a, b))
    details = cls.details
    if cls.verdict is Verdict.TRAPEZOID_PAIR:
        want_a, want_b = gen_trapezoid(details["spec_a"]), gen_trapezoid(details["spec_b"])
        if "anchor_a" in details and (got_a, got_b) != (want_a.translate(details["anchor_a"]),
                                                        want_b.translate(details["anchor_b"])):
            return False
    elif cls.verdict is Verdict.EPS_TRAPEZOID_PAIR:
        want_a, want_b = gen_eps_trapezoid(details["eps_spec"]), gen_trapezoid(details["partner"])
    elif cls.verdict is Verdict.CASE_C_PAIR:
        want_a, want_b = gen_case_c(details["spec"])
    else:
        raise AssertionError(f"{cls.verdict.value} names no family to replay")
    if details.get("roles_swapped"):
        want_a, want_b = want_b, want_a
    return [_origin_form(s) for s in (got_a, got_b)] == [_origin_form(s) for s in (want_a, want_b)]


def seeded_map(rng: random.Random, upper_triangular: bool) -> AffineMap2D:
    """A rational map of the theorem's group: upper-triangular for thm3,
    diagonal for thm2, each with a translation."""
    def r(lo=-9):
        value = Fraction(rng.randint(lo, 9), rng.randint(1, 6))
        return value or Fraction(1, 2)
    a11, a22, tx, ty = r(), r(), r(), r()
    return AffineMap2D.upper_triangular(a11, r(), a22, tx, ty) if upper_triangular \
        else AffineMap2D.diagonal(a11, a22, tx, ty)


# name -> (mode, classifier, map seed, grid, sweep caps, verdict tally): the
# sweeps whose extremal pairs replay, their two-dimensional pairs for the
# theorems and every pair of the 1d sweep.  The tally holds under the map.
REPLAY_SWEEPS = {
    "thm3 3x3": (BoundMode.SECTIONS_GS, classify_thm3, 3, (3, 3), {"min_mn": 2},
                 {Verdict.TRAPEZOID_PAIR: 150}),
    "thm3 3x4 b<=3": (BoundMode.SECTIONS_GS, classify_thm3, 4, (3, 4),
                      {"min_mn": 2, "max_size_b": 3},
                      {Verdict.TRAPEZOID_PAIR: 70, Verdict.EPS_TRAPEZOID_PAIR: 8}),
    "thm3 3x5 shard 0/20": (BoundMode.SECTIONS_GS, classify_thm3, 5, (3, 5),
                            {"min_mn": 2, "max_size_a": 6, "max_size_b": 6,
                             "shard_index": 0, "shard_count": 20},
                            {Verdict.TRAPEZOID_PAIR: 29, Verdict.CASE_C_PAIR: 1}),
    "thm2 3x3": (BoundMode.LINES_GS, classify_thm2, 2, (3, 3), {"min_mn": 2},
                 {Verdict.TRAPEZOID_PAIR: 113}),
    "1d 3x3": (BoundMode.ONE_DIMENSIONAL, classify_1d, 1, (3, 3), {},
               {Verdict.ONE_DIMENSIONAL: 57}),
}


def replay_cases(name: str, mapped: bool) -> list:
    """(a, b, classification) for every pair the sweep replays, both sets
    under one seeded map of its theorem's group if mapped (upper-triangular
    for thm3 and 1d, diagonal for thm2)."""
    mode, classifier, seed, grid, caps, _ = REPLAY_SWEEPS[name]
    if mode is BoundMode.ONE_DIMENSIONAL:
        report = sweep(SweepConfig(*grid, mode, collect_extremal=True, **caps))
        pairs = [(PointSet2D(pa), PointSet2D(pb)) for pa, pb in report.extremal_pairs]
    else:
        pairs = two_dimensional_sweep_pairs(*grid, mode, **caps)
    if mapped:
        m = seeded_map(random.Random(seed), upper_triangular=mode is not BoundMode.LINES_GS)
        pairs = [(apply_map(a, m), apply_map(b, m)) for a, b in pairs]
    return [(a, b, classifier(a, b)) for a, b in pairs]


class TestWitnessReplay:
    """Every verdict of the replay sweeps replays its own witness: an
    independent check of the classifiers, not a copy of their algorithm."""

    @pytest.mark.parametrize("mapped", [False, True], ids=["plain", "mapped"])
    @pytest.mark.parametrize("name", sorted(REPLAY_SWEEPS))
    def test_every_extremal_pair_replays(self, name, mapped):
        cases = replay_cases(name, mapped)
        assert Counter(cls.verdict for _, _, cls in cases) == REPLAY_SWEEPS[name][-1]
        assert [(a, b) for a, b, cls in cases if not replay(a, b, cls)] == []

    @pytest.mark.parametrize("mapped", [False, True], ids=["plain", "mapped"])
    def test_shifted_and_case_c_pairs_replay_in_both_roles(self, mapped):
        eps = gen_eps_trapezoid(EpsilonSpec(TrapezoidSpec(2, 6, 2, 1), frozenset({2})))
        partner = gen_trapezoid(TrapezoidSpec(2, 2, 2, 1))
        pairs = [figure2_pair(), (eps, partner), (partner, eps),
                 gen_case_c(CaseCSpec(2, 3, 3)), gen_case_c(CaseCSpec(4, 4, 7))[::-1]]
        if mapped:
            m = seeded_map(random.Random(5), upper_triangular=True)
            pairs = [(apply_map(a, m), apply_map(b, m)) for a, b in pairs]
        classes = [classify_thm3(a, b) for a, b in pairs]
        assert [cls.verdict for cls in classes] == [Verdict.EPS_TRAPEZOID_PAIR] * 3 \
            + [Verdict.CASE_C_PAIR] * 2
        assert [cls.details["roles_swapped"] for cls in classes] == [False, False, True, False, True]
        for (a, b), cls in zip(pairs, classes):
            assert replay(a, b, cls)
            swapped = dict(cls.details, roles_swapped=not cls.details["roles_swapped"])
            assert not replay(a, b, Classification(cls.verdict, swapped, cls.witness_map))

    def test_doubled_common_difference_fails(self):
        cases = [(a, b, cls) for a, b, cls in replay_cases("1d 3x3", mapped=True)
                 if max(len(a), len(b)) > 1]
        assert len(cases) > 20
        for a, b, cls in cases:
            doubled = dict(cls.details, common_difference=cls.details["common_difference"].scale(2))
            assert not replay(a, b, Classification(cls.verdict, doubled))

    def test_flipped_shear_sign_fails(self):
        cases = [(a, b, cls) for a, b, cls in replay_cases("thm3 3x3", mapped=True)
                 if cls.witness_map.a12 != 0]
        assert len(cases) > 50
        for a, b, cls in cases:
            w = cls.witness_map
            flipped = AffineMap2D.upper_triangular(w.a11, -w.a12, w.a22, w.tx, w.ty)
            assert not replay(a, b, Classification(cls.verdict, cls.details, flipped))


class TestShiftsPastTheEpsRange:
    """Sections-extremal pairs whose set is a base trapezoid shifted at row
    h - c, one past EpsilonSpec's range [md, h - c - 1].  Every grid an
    exhaustive sweep accepts is too small to hold them, so these inputs are
    pinned here."""

    def test_smallest_pair_is_left_unclassified(self):
        """Pins the classifier as it stands: A = T(2,3,1,2) and B = T(3,4,1,2)
        attain the sections bound, and no family matches under the sections
        group although thm2 calls the pair standard trapezoids.  Widening
        EpsilonSpec's range to h - c will flip the thm3 verdict."""
        a = gen_trapezoid(TrapezoidSpec(2, 3, 1, 2))
        b = gen_trapezoid(TrapezoidSpec(3, 4, 1, 2))
        rep = bound(BoundMode.SECTIONS_GS, a, b)
        assert (rep.m, rep.n, rep.lhs, rep.rhs, rep.extremal) == (2, 2, 18, 18, True)
        assert classify_thm2(a, b).verdict is Verdict.TRAPEZOID_PAIR
        assert classify_thm3(a, b).to_json_dict() == {"verdict": "ExtremalUnclassified"}

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: classify_thm3 matches no family "
                                           "for a shift at h - c (T(3,4,1,2) in row form)")
    def test_smallest_pair_is_a_family_pair(self):
        """The verdict the theorem asks for: some family, with a witness
        that replays.  It passes once item 1 is settled."""
        a = gen_trapezoid(TrapezoidSpec(2, 3, 1, 2))
        b = gen_trapezoid(TrapezoidSpec(3, 4, 1, 2))
        cls = classify_thm3(a, b)
        assert cls.verdict in (Verdict.TRAPEZOID_PAIR, Verdict.EPS_TRAPEZOID_PAIR,
                               Verdict.CASE_C_PAIR) and replay(a, b, cls)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_shift_at_h_minus_c_classifies_reflected(self, n):
        """T(4,16,1,2) with its rows y >= 15 moved right by 1, against the
        partner T(n, 2n - 1, 1, 2): the pair is extremal, and reflected in
        both axes it is the shifted trapezoid eps(T(4,13,2,1), {4}), a
        witness that replays."""
        t = gen_trapezoid(TrapezoidSpec(4, 16, 1, 2))
        a = PointSet2D((x + (y >= 15), y) for x, y in t)
        b = gen_trapezoid(TrapezoidSpec(n, 2 * n - 1, 1, 2))
        assert bound(BoundMode.SECTIONS_GS, a, b).extremal
        cls = classify_thm3(a, b)
        assert replay(a, b, cls)
        identity = {"a11": "1", "a12": "0", "a21": "0", "a22": "1", "tx": "0", "ty": "0"}
        assert cls.to_json_dict() == {
            "verdict": "EpsTrapezoidPair",
            "eps_spec": {"base": {"m": 4, "h": 13, "c": "2", "d": "1"}, "ones": [4]},
            "partner": {"m": n, "h": n, "c": "2", "d": "1"},
            "roles_swapped": False,
            "reflection": {"x": True, "y": True},
            "witness_map": {**identity, "a11": "-1", "a22": "-1"},
        }


class TestClassificationJson:
    def test_witness_and_params_serialize_as_rational_strings(self):
        a = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        b = gen_trapezoid(TrapezoidSpec(3, 2, 0, 0))
        payload = classify_thm2(a, b).to_json_dict()
        assert payload["verdict"] == "TrapezoidPair"
        assert set(payload["witness_map"]) == {"a11", "a12", "a21", "a22", "tx", "ty"}
        assert all(isinstance(v, str) for v in payload["witness_map"].values())
        assert payload["spec_a"] == {"m": 2, "h": 2, "c": "0", "d": "0"}


@dataclass(frozen=True)
class TrapezoidZones:
    """The three level intervals of a compression-normalized trapezoid
    (integer slopes c <= 0 <= d): the ramp governed by d, the full-width
    middle band, and the ramp governed by c."""

    i1: tuple[int, int]
    i2: tuple[int, int]
    i3: tuple[int, int]
    spec: TrapezoidSpec

    @classmethod
    def of(cls, spec: TrapezoidSpec) -> "TrapezoidZones":
        if not (isinstance(spec.c, int) and isinstance(spec.d, int)
                and spec.c <= 0 <= spec.d):
            raise HypothesisViolated("zones need integer slopes c <= 0 <= d")
        m, h, c, d = spec.m, spec.h, spec.c, spec.d
        return cls(
            i1=(0, (m - 1) * d),
            i2=((m - 1) * d, h - 1 + (m - 1) * c),
            i3=(h - 1 + (m - 1) * c, h - 1),
            spec=spec,
        )

    def expected_row_count(self, level: int) -> int:
        """The piecewise row-cardinality profile: a d-ramp, a flat band of
        width m, and a c-ramp."""
        m, h, c, d = self.spec.m, self.spec.h, self.spec.c, self.spec.d
        if not self.i1[0] <= level <= self.i3[1]:
            return 0
        if self.i2[0] <= level <= self.i2[1]:
            return m
        if level < self.i2[0]:
            return level // d + 1
        return (h - 1 - level) // (-c) + 1


class TestTrapezoidZones:
    def test_zone_row_counts_match_generated_rows(self):
        for spec in [TrapezoidSpec(6, 19, -1, 2), TrapezoidSpec(3, 4, 0, 1),
                     TrapezoidSpec(4, 12, -2, 1), TrapezoidSpec(2, 2, 0, 0)]:
            zones = TrapezoidZones.of(spec)
            rows = gen_trapezoid(spec).rows()
            top = spec.h - 1
            for level in range(0, top + 1):
                assert len(rows.get(level, [])) == zones.expected_row_count(level)

    def test_positive_slope_rejected(self):
        with pytest.raises(HypothesisViolated):
            TrapezoidZones.of(TrapezoidSpec(4, 16, 1, 2))
