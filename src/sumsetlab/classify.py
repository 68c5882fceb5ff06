"""Decide extremality and match extremal pairs against the characterized
families, up to the allowed transformation groups.

Two normalization pipelines are implemented.  Both read a pair's sections
along parallel lines as grid ints (core.grid_sections), with grid-int axis
steps, and no point set is rebuilt on the way:

* lines mode (diagonal maps + translations): the x-projections must be
  arithmetic progressions with one shared difference, every vertical section
  an AP with one shared positive difference; then each set's column starts
  and lengths, read on the grid with no column rescaled, must be APs.
  Success means both sets are standard trapezoids with common slopes.

* sections mode (maps (x, y) -> (alpha x + gamma y, beta y), translations,
  and the four axis reflections): levels and rows are normalized the same
  way, after which each set is carried as its row runs (y, x, k), one per
  level, for the row {x, ..., x+k-1}.  The candidate walk runs on integers:
  the starts x are grid ints on the scale dx, the grid row step, a shear
  lands a run on integers when its scaled shift divides by dx, and only the
  reported shear turns back into a rational.  The candidate shears are the
  consecutive row-minimum and row-maximum differences of either set.  One
  scan over the reflections and candidate shears tries every family not yet
  matched at each candidate.  The verdict is the most specific family that
  matches at any candidate (standard, then shifted trapezoids, then case C),
  witnessed by its first matching candidate; the others that match are
  listed in also_matches.  A verdict-only scan, the sweep's, stops at the
  first standard match, which is the verdict.  Shear candidates plus
  reflections are exhaustive because every family's row-extreme sequences
  are piecewise arithmetic with a flat piece; the exhaustive sweep
  cross-validates this (an escape would surface as ExtremalUnclassified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .bounds import BoundMode, rhs_num_den
from .core import (AffineMap2D, Point2, PointSet2D, _point, _unscale,
                   arithmetic_progression_of, collinear_direction, grid_sections, is_sparse,
                   parallel_directions, rat_str, shared_difference, sumset_size)
from .errors import EmptySet, HypothesisViolated, InvalidSpec, ModeMismatch, NotCollinear
from .families import CaseCSpec, EpsilonSpec, TrapezoidSpec, gen_case_c


class Verdict(Enum):
    NOT_EXTREMAL = "NotExtremal"
    ONE_DIMENSIONAL = "OneDimensional"
    TRAPEZOID_PAIR = "TrapezoidPair"
    EPS_TRAPEZOID_PAIR = "EpsTrapezoidPair"
    CASE_C_PAIR = "CaseCPair"
    EXTREMAL_UNCLASSIFIED = "ExtremalUnclassified"


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


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _axis_steps(lines_a: dict, lines_b: dict, unit: int) -> Optional[tuple[int, int]]:
    """(level step, in-line step) of two sets given as grid level ->
    ascending grid values along parallel lines (core.grid_sections), or None.

    The levels of each set must be an arithmetic progression, and so must
    the values on each line, with one difference per axis shared by both
    sets; with one point per line the in-line step is unit, one unscaled step."""
    ok, level_step = shared_difference([list(lines_a), list(lines_b)])
    if not ok or level_step is None:
        return None
    ok, step = shared_difference([*lines_a.values(), *lines_b.values()])
    if not ok:
        return None
    return level_step, step or unit


def _trapezoid(starts, counts, unit: int = 1) -> Optional[TrapezoidSpec]:
    """T(m, h, c, d) that has a translate with the m consecutive columns j that
    start at starts[j]/unit and hold counts[j] points one apart, or None: the
    starts and the counts are APs, differences d and c - d (0 for one column)."""
    ok_starts, step = shared_difference([starts])
    ok_counts, widen = shared_difference([counts])
    if not (ok_starts and ok_counts):
        return None
    d = _unscale(step or 0, unit)
    return TrapezoidSpec(len(starts), counts[0], d + (widen or 0), d)


def _extremal(mode: BoundMode, a: PointSet2D, m: int, b: PointSet2D, n: int,
              size: Optional[int] = None) -> bool:
    """bound(mode, a, b).extremal for the mode's counts m, n and |A+B| = size,
    counting A+B only when size is None."""
    num, den = rhs_num_den(mode, len(a), m, len(b), n)
    return (sumset_size(a, b) if size is None else size) * den == num


# ---------------------------------------------------------------------------
# one-dimensional characterization
# ---------------------------------------------------------------------------

def classify_1d(a: PointSet2D, b: PointSet2D, *, _size=None) -> Classification:
    """The torsion-free one-dimensional case: |A+B| >= |A| + |B| - 1 with
    equality iff min(|A|, |B|) = 1 or both are APs with a common difference.

    equality is core's own count of A+B (or oracle_pair_check's, _size)
    against |A| + |B| - 1, independent of the AP test; b is not tested as an
    AP when a is not one."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("classify_1d needs nonempty sets")
    da, db = collinear_direction(a), collinear_direction(b)
    if da is None or db is None:
        raise NotCollinear("classify_1d needs collinear inputs")
    if not parallel_directions(da, db):
        raise ModeMismatch("1d mode requires the two lines to be parallel")
    min_case = min(len(a), len(b)) == 1
    delta_a = arithmetic_progression_of(a)
    delta_b = None if delta_a is None else arithmetic_progression_of(b)
    ap_case = (
        delta_a is not None and delta_b is not None
        and (len(a) == 1 or len(b) == 1 or delta_a == delta_b)
    )
    return Classification(
        verdict=Verdict.ONE_DIMENSIONAL,
        details={
            "equality": (sumset_size(a, b) if _size is None else _size) == len(a) + len(b) - 1,
            "min_case": min_case,
            "ap_case": ap_case,
            "common_difference": delta_a if (ap_case and len(a) > 1) else (delta_b if ap_case else None),
        },
    )


# ---------------------------------------------------------------------------
# lines-mode characterization (diagonal group)
# ---------------------------------------------------------------------------

def classify_thm2(a: PointSet2D, b: PointSet2D, *, _size=None, _sections=None) -> Classification:
    """oracle_pair_check hands over |A+B| and grid_sections(a, b, rows=False)."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("classify_thm2 needs nonempty sets")
    da, db = collinear_direction(a), collinear_direction(b)
    if da is not None or db is not None:
        if da is None or db is None or not parallel_directions(da, db):
            raise HypothesisViolated("thm2 needs two 2D sets or collinear sets on parallel lines")
        return classify_1d(a, b, _size=_size)
    sx, sy, cols_a, cols_b = _sections or grid_sections(a, b, rows=False)
    if not _extremal(BoundMode.LINES_GS, a, len(cols_a), b, len(cols_b), _size):
        return Classification(Verdict.NOT_EXTREMAL)

    # (1) x-projections and (2) vertical sections: APs with shared differences
    # alpha and beta; (3) the columns x/alpha -> y/beta share slopes d and c
    steps = _axis_steps(cols_a, cols_b, sy)
    if steps is None:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)
    alpha, beta = steps
    spec_a, spec_b = (_trapezoid([ys[0] for ys in cols.values()], [len(ys) for ys in cols.values()],
                                 beta) for cols in (cols_a, cols_b))
    if spec_a is None or spec_b is None or spec_a.c != spec_b.c or spec_a.d != spec_b.d:
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED)
    anchor_a, anchor_b = (_point(_unscale(x, alpha), _unscale(ys[0], beta))
                          for x, ys in (next(iter(cols.items())) for cols in (cols_a, cols_b)))
    details = {"spec_a": spec_a, "spec_b": spec_b, "anchor_a": anchor_a, "anchor_b": anchor_b}
    witness = AffineMap2D.diagonal(Fraction(sx, alpha), Fraction(sy, beta))
    return Classification(Verdict.TRAPEZOID_PAIR, details, witness)


# ---------------------------------------------------------------------------
# sections-mode characterization (upper-triangular group + reflections)
# ---------------------------------------------------------------------------

# From step (2) on a set is its row runs: (y, x, k) per level y = 0, 1, ...
# in ascending order, for the row {x, x+1, ..., x+k-1}.

def _match_trapezoid(runs, mode_m: int) -> Optional[TrapezoidSpec]:
    """T(mode_m, h, c, d) when these runs, mode_m the longest, are a translate
    of it, else None; past the width exit a longest run fills every column."""
    x0 = min(x for _, x, _ in runs)
    if max(x + k for _, x, k in runs) - x0 != mode_m:
        return None  # runs are intervals: not mode_m consecutive columns
    cols = [[] for _ in range(mode_m)]
    for y, x, k in runs:
        for col in range(x - x0, x - x0 + k):
            cols[col].append(y)
    if any(ys[-1] - ys[0] != len(ys) - 1 for ys in cols):
        return None  # a column with a gap
    return _trapezoid([ys[0] for ys in cols], [len(ys) for ys in cols])


def _eps_base(counts, mode_m: int) -> Optional[tuple]:
    """(base, starts) for a set whose rows, bottom up, hold these counts,
    mode_m the longest, when it can be a shifted trapezoid, else None.

    The base T(mode_m, h, c, d), c, d >= 0, has a full row, and its row y runs
    from x = max(0, ceil((y-h+1)/c)) to min(mode_m-1, floor(y/d)).  Shifts
    keep the row counts, so they fix the one candidate: d and c are the
    lengths of the bottom and top runs of one-point rows, h = height -
    (mode_m-1)c.  Every count must be its base row's; starts holds the base
    rows' first x.
    """
    if mode_m < 2 or max(counts) != mode_m:
        return None
    d = next(i for i, k in enumerate(counts) if k > 1)
    c = next(i for i, k in enumerate(reversed(counts)) if k > 1)
    h = len(counts) - (mode_m - 1) * c
    try:
        base = TrapezoidSpec(mode_m, h, c, d)
    except InvalidSpec:
        return None
    starts = []
    for y, k in enumerate(counts):
        lo = 0 if c == 0 else max(0, -((h - 1 - y) // c))
        hi = mode_m - 1 if d == 0 else min(mode_m - 1, y // d)
        if k != hi - lo + 1:
            return None
        starts.append(lo)
    return base, starts


def _match_eps(runs, mode_m: int, base: Optional[tuple] = None) -> Optional[EpsilonSpec]:
    """Recognize the set with these integer runs (min x = 0), mode_m the
    longest, as a shifted trapezoid on base, _eps_base of its row counts,
    read here unless the caller holds it.  The set matches when each run
    starts at the base row's start plus a shift that climbs by 0 or 1 per
    row from 0; the rows where it climbs are the spec's ones.
    """
    base = base or _eps_base([k for _, _, k in runs], mode_m)
    if base is None:
        return None
    ones = []
    shift = 0
    for (y, x, _), lo in zip(runs, base[1]):
        step = x - lo - shift
        if step == 1:
            ones.append(y)
            shift += 1
        elif step != 0:
            return None
    try:
        return EpsilonSpec(base[0], frozenset(ones))
    except InvalidSpec:
        return None


@lru_cache(maxsize=64)
def _case_c_runs(spec: CaseCSpec) -> tuple:
    """gen_case_c(spec)'s two sets as runs (each row is cut out by bounds on x)."""
    return tuple(tuple((y, xs[0], len(xs)) for y, xs in rows.items())
                 for rows in grid_sections(*gen_case_c(spec), rows=True)[2:])


def _case_c_forms(runs_a, runs_b, m: int, n: int) -> list:
    """(spec, want_a, want_b, roles_swapped) per role in which the pair can
    be case C, want_a and want_b as the runs of (a3, b3).  k depends only
    on the height, which reflections and shears keep, so one instance per
    role serves the scan."""
    forms = []
    for runs, mm, nn, swapped in ((runs_a, m, n, False), (runs_b, n, m, True)):
        try:
            spec = CaseCSpec(mm, nn, len(runs) - 4 * mm + 4)
        except InvalidSpec:
            continue
        ga, gb = _case_c_runs(spec)
        forms.append((spec, gb, ga, True) if swapped else (spec, ga, gb, False))
    return forms


def _sheared_form(runs, g: int, scale: int) -> Optional[tuple]:
    """These runs, their starts scaled by scale, under x -> x - (g/scale)*y and
    translated to min x = 0, or None when a run does not land on integers; a
    shear moves each row as a whole, so one divmod per row decides.  The
    image's starts are plain integers."""
    x0 = runs[0][1]
    starts = []
    for y, x, _ in runs:
        shift, rest = divmod(x - x0 - g * y, scale)
        if rest:
            return None
        starts.append(shift)
    lo = min(starts)
    return tuple((y, x - lo, k) for (y, _, k), x in zip(runs, starts))


def _reflect(runs, rx: bool, ry: bool, scale: int) -> list:
    """The runs (starts scaled by scale) of the set reflected in x (rx) and
    in y (ry), translated back to the levels 0, 1, ..."""
    if rx:
        runs = [(y, scale * (1 - k) - x, k) for y, x, k in runs]
    if ry:
        top = len(runs) - 1
        runs = [(top - y, x, k) for y, x, k in reversed(runs)]
    return runs


def _normalized_candidates(runs_a, runs_b, scale: int):
    """Yield (a3, b3, rx, ry, g), a3 and b3 as integer runs, for every
    reflection and candidate shear gamma = g/scale that lands both sets on
    integers; runs_a and runs_b carry their starts scaled by scale.

    The candidates are 0 and the slopes between consecutive row minima and
    between consecutive row maxima of either set, negated when one axis is
    reflected, in the order of (|gamma|, gamma).  b is not sheared when a
    already fails."""
    slopes = {0}
    for runs in (runs_a, runs_b):
        for (_, x0, k0), (_, x1, k1) in zip(runs, runs[1:]):
            slopes.add(x1 - x0)
            slopes.add(x1 - x0 + scale * (k1 - k0))
    for rx, ry in ((False, False), (True, False), (False, True), (True, True)):
        ra, rb = (_reflect(runs, rx, ry, scale) for runs in (runs_a, runs_b))
        sign = -1 if rx != ry else 1
        for g in sorted({sign * g for g in slopes}, key=lambda v: (abs(v), v)):
            a3 = _sheared_form(ra, g, scale)
            b3 = None if a3 is None else _sheared_form(rb, g, scale)
            if b3 is not None:
                yield a3, b3, rx, ry, g


def _match_standard(a3, b3, m: int, n: int) -> Optional[dict]:
    ta, tb = _match_trapezoid(a3, m), _match_trapezoid(b3, n)
    if ta is not None and tb is not None and ta.c == tb.c and ta.d == tb.d:
        return {"spec_a": ta, "spec_b": tb}
    return None


def _match_shifted(a3, b3, m: int, n: int, bases: dict, ry: bool) -> Optional[dict]:
    """bases[ry] holds the _eps_base of a3's and of b3's row counts, read at
    the first candidate of each y-reflection: shears and x-reflections keep them."""
    if ry not in bases:
        bases[ry] = [_eps_base([k for _, _, k in runs], mm) for runs, mm in ((a3, m), (b3, n))]
    for sa, sb, mm, nn, base, swapped in ((a3, b3, m, n, bases[ry][0], False),
                                          (b3, a3, n, m, bases[ry][1], True)):
        eps = base and _match_eps(sa, mm, base)
        if eps is not None:
            partner = _match_trapezoid(sb, nn)
            want_h = (nn - 1) * int(eps.base.d) + 1
            if partner is not None and partner.h == want_h \
                    and partner.c == eps.base.c and partner.d == eps.base.d:
                return {"eps_spec": eps, "partner": partner, "roles_swapped": swapped}
    return None


def _match_wedge(a3, b3, forms: list) -> Optional[dict]:
    for spec, want_a, want_b, swapped in forms:
        if a3 == want_a and b3 == want_b:
            return {"spec": spec, "roles_swapped": swapped}
    return None


# Up to this many pairs (p, q), the input pair's count, even as a key set of
# sheared sums, costs no more than building the normalized sets to count,
# and it lets a pair that is not extremal skip the scan
NORMALIZED_COUNT_PAIRS = 150


def _sum_cells(rows_a: dict, rows_b: dict) -> int:
    """The cells of A + B's bounding box, which is_sparse reads, from core.grid_sections' rows."""
    (wa, ha), (wb, hb) = ((max(vs[-1] for vs in rows.values()) - min(vs[0] for vs in rows.values()),
                           max(rows) - min(rows)) for rows in (rows_a, rows_b))
    return (wa + wb + 1) * (ha + hb + 1)


def classify_thm3(a: PointSet2D, b: PointSet2D, *, verdict_only: bool = False,
                  _size=None, _sections=None) -> Classification:
    """With verdict_only the scan stops at the first standard match and leaves
    out also_matches; the verdict, its details and witness are unchanged.

    |A+B| is counted once.  A pair of at most NORMALIZED_COUNT_PAIRS pairs
    (p, q), or one that the kernel sums densely, is counted first, as it is.
    Any other pair is counted after the hypothesis checks and steps (1)-(3):
    on the verdict's normalized runs, which are the pair's image under the
    witness map up to translations, so the count is the same and takes the
    kernel's run path however the pair is sheared; on the input pair only
    when nothing matched.  oracle_pair_check hands over its count and
    grid_sections(a, b, rows=True) as _size and _sections."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("classify_thm3 needs nonempty sets")
    sy, sx, rows_a, rows_b = _sections or grid_sections(a, b, rows=True)
    m, n = (max(map(len, rows.values())) for rows in (rows_a, rows_b))
    if m < 2 or n < 2:
        raise HypothesisViolated("sections-mode characterization needs m, n >= 2 "
                                 "(the m = 1 regime admits wild extremal pairs)")
    if len(rows_a) == 1 or len(rows_b) == 1:  # with m, n >= 2, one row is a line
        raise HypothesisViolated("sections-mode characterization needs two-dimensional sets")
    num, den = rhs_num_den(BoundMode.SECTIONS_GS, len(a), m, len(b), n)
    if _size is None and (len(a) * len(b) <= NORMALIZED_COUNT_PAIRS
                          or not is_sparse(_sum_cells(rows_a, rows_b), len(a), len(b))):
        _size = sumset_size(a, b)
    if _size is not None and _size * den != num:
        return Classification(Verdict.NOT_EXTREMAL)

    def unmatched() -> Classification:
        size = sumset_size(a, b) if _size is None else _size
        return Classification(Verdict.EXTREMAL_UNCLASSIFIED if size * den == num
                              else Verdict.NOT_EXTREMAL)

    # (1) level sets and (2) rows: APs with shared differences dy and dx;
    # rescaled, the levels are 0, 1, ... and every row is a run
    steps = _axis_steps(rows_a, rows_b, sx)
    if steps is None:
        return unmatched()
    dy, dx = steps  # grid steps; the runs keep their grid starts, on the scale dx
    runs_a, runs_b = ([(y, xs[0], len(xs)) for y, xs in enumerate(rows.values())]
                      for rows in (rows_a, rows_b))

    # (3) one scan over every reflection and candidate shear, keeping each
    # family's first matching candidate.  The families can overlap up to the
    # group (a standard pair may be a shifted pair in sheared coordinates),
    # so the verdict is the first family, in the specificity order of
    # families (tag, verdict, matcher), that matched at any candidate.
    wedges = _case_c_forms(runs_a, runs_b, m, n)
    bases: dict = {}  # _match_shifted's eps bases per y-reflection
    families = (("a", Verdict.TRAPEZOID_PAIR, lambda a3, b3, ry: _match_standard(a3, b3, m, n)),
                ("b", Verdict.EPS_TRAPEZOID_PAIR,
                 lambda a3, b3, ry: _match_shifted(a3, b3, m, n, bases, ry)),
                ("c", Verdict.CASE_C_PAIR, lambda a3, b3, ry: _match_wedge(a3, b3, wedges)))
    found: dict = {}  # tag -> (details, (rx, ry, g), a3, b3)
    tries = ((tag, match, cand) for cand in _normalized_candidates(runs_a, runs_b, dx)
             for tag, _, match in families)
    for tag, match, (a3, b3, rx, ry, g) in tries:
        got = None if tag in found else match(a3, b3, ry)
        if got is not None:
            found[tag] = (got, (rx, ry, g), a3, b3)
            if len(found) == len(families) or verdict_only and tag == "a":
                break
    hits = [(tag, verdict) for tag, verdict, _ in families if tag in found]
    if not hits:
        return unmatched()
    tag, verdict = hits[0]
    got, (rx, ry, g), a3, b3 = found[tag]
    if _size is None:  # as column runs, a3 and b3 are their transposes, whose sum is as large
        _size = sumset_size(PointSet2D._of_runs(a3), PointSet2D._of_runs(b3))
    if _size * den != num:
        return Classification(Verdict.NOT_EXTREMAL)

    details = dict(got)
    if len(hits) > 1 and not verdict_only:
        details["also_matches"] = [t for t, _ in hits[1:]]
    details["reflection"] = {"x": rx, "y": ry}
    # witness: shear(g/dx) . reflection . diag(sx/dx, sy/dy), linear part
    fx, fy = -sx if rx else sx, -sy if ry else sy
    witness = AffineMap2D.upper_triangular(Fraction(fx, dx), Fraction(-g * fy, dx * dy),
                                           Fraction(fy, dy))
    return Classification(verdict=verdict, details=details, witness_map=witness)


# ---------------------------------------------------------------------------
# split property of sections-extremal pairs
# ---------------------------------------------------------------------------

def split_check(a: PointSet2D, b: PointSet2D) -> bool:
    """Split both sets at their first full-width levels and test that both
    half-pairs are sections-extremal again (they must be).  Each half keeps
    its set's longest row, so m and n hold, and its points' order."""
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("split_check needs nonempty sets")
    (m, a_minus, a_plus), (n, b_minus, b_plus) = a._split(), b._split()
    if m < 2 or n < 2:
        raise HypothesisViolated("split_check needs m, n >= 2")
    if not _extremal(BoundMode.SECTIONS_GS, a, m, b, n):
        raise HypothesisViolated("split_check needs a sections-extremal pair")
    return (_extremal(BoundMode.SECTIONS_GS, a_minus, m, b_minus, n)
            and _extremal(BoundMode.SECTIONS_GS, a_plus, m, b_plus, n))
