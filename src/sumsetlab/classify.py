"""Decide extremality and match extremal pairs against the characterized
families, up to the allowed transformation groups.

Two normalization pipelines are implemented:

* lines mode (diagonal maps + translations): the x-projections must be
  arithmetic progressions with one shared difference, every vertical section
  an AP with one shared positive difference; after rescaling both axes the
  column minima/maxima must be APs with shared differences d and c.  Success
  means both sets are standard trapezoids with common slopes.

* sections mode (maps (x, y) -> (alpha x + gamma y, beta y), translations,
  and the four axis reflections): levels and rows are normalized the same
  way, then candidate shears are enumerated from the consecutive row-minimum
  and row-maximum differences observed in either set.  One scan over the
  reflections and candidate shears tries every family not yet matched at
  each candidate.  The verdict is the most specific family that matches at
  any candidate (standard, then shifted trapezoids, then case C), witnessed
  by its first matching candidate; the other matching families are listed
  in also_matches.  Shear candidates plus reflections are exhaustive here
  because every family's row-extreme sequences are piecewise arithmetic
  with a flat piece; the exhaustive sweep cross-validates this (an escape
  would surface as ExtremalUnclassified).  The sweep classifies one pair per
  orbit of the axis reflections; the raw reference sweeps in the tests still
  classify every image on small grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from .bounds import BoundMode, bound
from .core import (AffineMap2D, Point2, PointSet2D, Rational, _point,
                   arithmetic_progression_of, collinear_direction,
                   cover_stats, rat, rat_str, shared_difference)
from .errors import EmptySet, HypothesisViolated, InvalidSpec, NotCollinear
from .families import CaseCSpec, EpsilonSpec, TrapezoidSpec, gen_case_c


class Verdict(Enum):
    NOT_EXTREMAL = "NotExtremal"
    ONE_DIMENSIONAL = "OneDimensional"
    TRAPEZOID_PAIR = "TrapezoidPair"
    EPS_TRAPEZOID_PAIR = "EpsTrapezoidPair"
    CASE_C_PAIR = "CaseCPair"
    EXTREMAL_UNCLASSIFIED = "ExtremalUnclassified"


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


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    details: dict = field(default_factory=dict)
    witness_map: Optional[AffineMap2D] = None

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict.value}
        out.update(_jsonify(self.details))
        if self.witness_map is not None:
            out["witness_map"] = self.witness_map.to_json_dict()
        return out


def _jsonify(value):
    if isinstance(value, Point2):  # before tuple: a point is a tuple too
        return [rat_str(value.x), rat_str(value.y)]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (TrapezoidSpec, EpsilonSpec, CaseCSpec, AffineMap2D)):
        return value.to_json_dict()
    if isinstance(value, Fraction):
        return rat_str(value)
    return value


def is_extremal(a: PointSet2D, b: PointSet2D, mode: BoundMode) -> bool:
    """True exactly when the pair attains the mode's lower bound."""
    return bound(mode, a, b).extremal


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# one-dimensional characterization
# ---------------------------------------------------------------------------

def classify_1d(a: PointSet2D, b: PointSet2D) -> Classification:
    """The torsion-free one-dimensional case: |A+B| >= |A| + |B| - 1 with
    equality iff min(|A|, |B|) = 1 or both are APs with a common difference."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("classify_1d needs nonempty sets")
    da, db = collinear_direction(a), collinear_direction(b)
    if da is None or db is None:
        raise NotCollinear("classify_1d needs collinear inputs")
    rep = bound(BoundMode.ONE_DIMENSIONAL, a, b)  # raises ModeMismatch if not parallel
    min_case = min(len(a), len(b)) == 1
    delta_a = arithmetic_progression_of(a)
    delta_b = arithmetic_progression_of(b)
    ap_case = (
        delta_a is not None and delta_b is not None
        and (len(a) == 1 or len(b) == 1 or delta_a == delta_b)
    )
    return Classification(
        verdict=Verdict.ONE_DIMENSIONAL,
        details={
            "equality": rep.extremal,
            "min_case": min_case,
            "ap_case": ap_case,
            "common_difference": delta_a if (ap_case and len(a) > 1) else (delta_b if ap_case else None),
        },
    )


# ---------------------------------------------------------------------------
# lines-mode characterization (diagonal group)
# ---------------------------------------------------------------------------

def classify_thm2(a: PointSet2D, b: PointSet2D) -> Classification:
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("classify_thm2 needs nonempty sets")
    if collinear_direction(a) is not None or collinear_direction(b) is not None:
        return classify_1d(a, b)
    if not is_extremal(a, b, BoundMode.LINES_GS):
        return Classification(Verdict.NOT_EXTREMAL)

    # (1) x-projections: APs with one shared difference alpha
    ok, alpha = shared_difference([a.xs(), b.xs()])
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


# ---------------------------------------------------------------------------
# sections-mode characterization (upper-triangular group + reflections)
# ---------------------------------------------------------------------------

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


def _match_eps(s: PointSet2D, mode_m: int) -> Optional[EpsilonSpec]:
    """Recognize s (integer form, min x = min y = 0) as a shifted trapezoid.

    mode_m must be the size of the longest row of s, else None.  The base
    T(mode_m, h, c, d), c, d >= 0, has a full row, and its row y runs from
    x = max(0, ceil((y-h+1)/c)) to min(mode_m-1, floor(y/d)).  Shifts keep
    the row counts, so they fix the one candidate: d and c are the lengths
    of the bottom and top runs of one-point rows, h = height - (mode_m-1)c.
    s matches when each row is a run as long as the base row, starting at
    the base row's start plus a shift that climbs by 0 or 1 per row from 0;
    the rows where it climbs are the spec's ones.
    """
    rows = s.rows()
    height = len(rows)
    if list(rows) != list(range(height)):
        return None
    counts = [len(xs) for xs in rows.values()]
    if mode_m < 2 or max(counts) != mode_m:
        return None
    d = next(i for i, k in enumerate(counts) if k > 1)
    c = next(i for i, k in enumerate(reversed(counts)) if k > 1)
    h = height - (mode_m - 1) * c
    try:
        base = TrapezoidSpec(mode_m, h, c, d)
    except InvalidSpec:
        return None
    ones = []
    shift = 0
    for y, xs in rows.items():
        lo = 0 if c == 0 else max(0, -((h - 1 - y) // c))
        hi = mode_m - 1 if d == 0 else min(mode_m - 1, y // d)
        if len(xs) != hi - lo + 1 or xs[-1] - xs[0] != hi - lo:
            return None
        step = xs[0] - lo - shift
        if step == 1:
            ones.append(y)
            shift += 1
        elif step != 0:
            return None
    try:
        return EpsilonSpec(base, frozenset(ones))
    except InvalidSpec:
        return None


def _case_c_forms(a2: PointSet2D, b2: PointSet2D, m: int, n: int) -> list:
    """(spec, want_a, want_b, roles_swapped) per role in which the pair can
    be case C, want_a and want_b in (a3, b3) order.  k depends only on the
    height, which reflections and shears keep, so one instance per role
    serves the scan; gen_case_c's sets are in integer form already."""
    forms = []
    for s, mm, nn, swapped in ((a2, m, n, False), (b2, n, m, True)):
        height = max(p.y for p in s) + 1  # the levels start at 0
        try:
            spec = CaseCSpec(mm, nn, height - 4 * mm + 4)
        except InvalidSpec:
            continue
        ga, gb = gen_case_c(spec)
        if swapped:
            ga, gb = gb, ga
        forms.append((spec, ga, gb, swapped))
    return forms


def _row_runs(s: PointSet2D) -> list:
    """(y, r, ks) per level of s, whose rows are runs of difference 1: r is
    the row's first x and ks the integer offsets of its points from r."""
    return [(y, xs[0], [int(x - xs[0]) for x in xs]) for y, xs in s.rows().items()]


def _sheared_form(rows: list, gamma: Rational) -> Optional[PointSet2D]:
    """The set with these _row_runs under x -> x - gamma*y, translated to
    min x = min y = 0, as a PointSet2D of ints; a shear moves each row as a
    whole, so one integrality test per row finds None before any build."""
    y1, r1, _ = rows[0]
    pts = []
    for y, r, ks in rows:
        shift = r - r1 - gamma * (y - y1)
        if shift.denominator != 1:
            return None
        pts.extend((int(shift) + k, y) for k in ks)
    x0 = min(x for x, _ in pts)
    y0 = min(y for _, y in pts)
    return PointSet2D((x - x0, y - y0) for x, y in pts)


def _normalized_candidates(a2: PointSet2D, b2: PointSet2D):
    """Yield (a3, b3, rx, ry, gamma) for every reflection and candidate shear
    that lands both sets on integer coordinates.

    The candidates are 0 and the slopes between consecutive row minima and
    between consecutive row maxima of either set, negated when one axis is
    reflected.  Each shear runs on raw coordinates and tests integrality
    before a point set is built; b is not sheared when a already fails."""
    slopes = {rat(0)}
    for s in (a2, b2):
        profile = RowProfile.of(s)
        for i in range(len(profile.levels) - 1):
            step = profile.levels[i + 1] - profile.levels[i]
            slopes.add(rat(Fraction(profile.min_xs[i + 1] - profile.min_xs[i]) / step))
            slopes.add(rat(Fraction(profile.max_xs[i + 1] - profile.max_xs[i]) / step))
    runs = [_row_runs(a2), _row_runs(b2)]
    for rx, ry in ((False, False), (True, False), (False, True), (True, True)):
        sx, sy = -1 if rx else 1, -1 if ry else 1
        ra, rb = ([(sy * y, sx * r, [sx * k for k in ks]) for y, r, ks in rows]
                  for rows in runs)
        for gamma in sorted({sx * sy * g for g in slopes},
                            key=lambda v: (abs(Fraction(v)), Fraction(v))):
            a3 = _sheared_form(ra, gamma)
            b3 = None if a3 is None else _sheared_form(rb, gamma)
            if b3 is not None:
                yield a3, b3, rx, ry, gamma


def _match_standard(a3: PointSet2D, b3: PointSet2D, m: int, n: int) -> Optional[dict]:
    ta = _match_trapezoid(a3, m)
    tb = _match_trapezoid(b3, n)
    if ta is not None and tb is not None and ta.c == tb.c and ta.d == tb.d:
        return {"spec_a": ta, "spec_b": tb}
    return None


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


def _match_wedge(a3: PointSet2D, b3: PointSet2D, forms: list) -> Optional[dict]:
    for spec, want_a, want_b, swapped in forms:
        if a3 == want_a and b3 == want_b:
            return {"spec": spec, "roles_swapped": swapped}
    return None


def classify_thm3(a: PointSet2D, b: PointSet2D) -> Classification:
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("classify_thm3 needs nonempty sets")
    sa, sb = cover_stats(a), cover_stats(b)
    m, n = sa.max_horizontal_section, sb.max_horizontal_section
    if m < 2 or n < 2:
        raise HypothesisViolated("sections-mode characterization needs m, n >= 2 "
                                 "(the m = 1 regime admits wild extremal pairs)")
    if not (sa.is_two_dimensional and sb.is_two_dimensional):
        raise HypothesisViolated("sections-mode characterization needs two-dimensional sets")
    if not is_extremal(a, b, BoundMode.SECTIONS_GS):
        return Classification(Verdict.NOT_EXTREMAL)

    # (1) level sets: APs with one shared difference
    ok, dy = shared_difference([a.ys(), b.ys()])
    if not ok or dy is None:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)
    a1 = _normalize_levels(a, dy)
    b1 = _normalize_levels(b, dy)

    # (2) rows: APs with one shared difference
    ok, dx = shared_difference([*a1.rows().values(), *b1.rows().values()])
    if not ok:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)
    dx = dx or 1
    inv_dx = Fraction(1) / dx
    a2 = PointSet2D(_point(x * inv_dx, y) for x, y in a1)
    b2 = PointSet2D(_point(x * inv_dx, y) for x, y in b1)

    # (3) one scan over every reflection and candidate shear, trying each
    # family that has not matched yet and keeping its first matching
    # candidate.  The families can overlap up to the group (a standard pair
    # may be a shifted pair in sheared coordinates), so the tie-break runs
    # at the orbit level to keep verdicts group-invariant: the verdict is
    # the first family in specificity order that matched at any candidate,
    # and the other families that matched are reported in also_matches.
    # families holds (tag, verdict, matcher) in specificity order.
    wedges = _case_c_forms(a2, b2, m, n)
    families = (("a", Verdict.TRAPEZOID_PAIR, lambda a3, b3: _match_standard(a3, b3, m, n)),
                ("b", Verdict.EPS_TRAPEZOID_PAIR, lambda a3, b3: _match_shifted(a3, b3, m, n)),
                ("c", Verdict.CASE_C_PAIR, lambda a3, b3: _match_wedge(a3, b3, wedges)))
    found: dict = {}  # tag -> (details, (rx, ry, gamma))
    for a3, b3, rx, ry, gamma in _normalized_candidates(a2, b2):
        for tag, _, match in families:
            if tag not in found:
                got = match(a3, b3)
                if got is not None:
                    found[tag] = (got, (rx, ry, gamma))
        if len(found) == len(families):
            break
    hits = [(tag, verdict) for tag, verdict, _ in families if tag in found]
    if not hits:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)

    tag, verdict = hits[0]
    got, (rx, ry, gamma) = found[tag]
    details = dict(got)
    if len(hits) > 1:
        details["also_matches"] = [t for t, _ in hits[1:]]
    details["reflection"] = {"x": rx, "y": ry}
    # witness: shear(gamma) . reflection . diag(1/dx, 1/dy), linear part
    refl = AffineMap2D.diagonal(-1 if rx else 1, -1 if ry else 1)
    shear = AffineMap2D.upper_triangular(1, -gamma, 1)
    witness = shear.compose(refl).compose(
        AffineMap2D.diagonal(inv_dx, Fraction(1) / dy))
    return Classification(verdict=verdict, details=details, witness_map=witness)


# ---------------------------------------------------------------------------
# split property of sections-extremal pairs
# ---------------------------------------------------------------------------

def split_check(a: PointSet2D, b: PointSet2D) -> bool:
    """Split both sets at their first full-width levels and test that both
    half-pairs are sections-extremal again (they must be)."""
    sa, sb = cover_stats(a), cover_stats(b)
    m, n = sa.max_horizontal_section, sb.max_horizontal_section
    if m < 2 or n < 2:
        raise HypothesisViolated("split_check needs m, n >= 2")
    if not is_extremal(a, b, BoundMode.SECTIONS_GS):
        raise HypothesisViolated("split_check needs a sections-extremal pair")
    rows_a, rows_b = a.rows(), b.rows()
    t = min(v for v, xs in rows_a.items() if len(xs) == m)
    t_prime = min(v for v, xs in rows_b.items() if len(xs) == n)
    a_minus = PointSet2D(p for p in a if p.y <= t)
    a_plus = PointSet2D(p for p in a if p.y >= t)
    b_minus = PointSet2D(p for p in b if p.y <= t_prime)
    b_plus = PointSet2D(p for p in b if p.y >= t_prime)
    return (is_extremal(a_minus, b_minus, BoundMode.SECTIONS_GS)
            and is_extremal(a_plus, b_plus, BoundMode.SECTIONS_GS))
