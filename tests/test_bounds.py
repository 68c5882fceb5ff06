from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import nonempty_pairs, point_sets
from sumsetlab import (AffineMap2D, BoundMode, EmptySet, InvalidSpec, ModeMismatch,
                       PointSet2D, SupportedSequence, apply_map, averaging_report, bound,
                       chain_diagnostic, compress, compression_chain,
                       gen_trapezoid, gen_wild, u_values)
from sumsetlab import bounds
from sumsetlab.bounds import _pairwise_chain_sums, _section_chain_sums, rhs_num_den
from sumsetlab.core import grid_sections
from sumsetlab.families import TrapezoidSpec


def ps(*pairs):
    return PointSet2D(pairs)


def seq(**entries):
    return SupportedSequence({Fraction(k): v for k, v in entries.items()})


class TestBound:
    def test_mode_must_be_a_bound_mode(self):
        """A mode's string value is no mode: "sections" used to give the lines
        report (m = 3, n = 4) under the sections label."""
        a, b = ps((0, 0), (1, 0), (2, 1)), ps((0, 0), (1, 1), (2, 2), (3, 2))
        assert (bound(BoundMode.SECTIONS_GS, a, b).m, bound(BoundMode.LINES_GS, a, b).m) == (2, 3)
        for mode in ("sections", "lines", None):
            with pytest.raises(InvalidSpec, match="mode must be a BoundMode"):
                bound(mode, a, b)

    def test_sections_on_wild_pair(self):
        a, b = gen_wild(4)
        rep = bound(BoundMode.SECTIONS_GS, a, b)
        assert (rep.m, rep.n) == (1, 4)
        assert rep.lhs == rep.rhs == 17
        assert rep.extremal

    def test_lines_on_trapezoid_pair(self):
        a = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        b = gen_trapezoid(TrapezoidSpec(3, 2, 0, 0))
        rep = bound(BoundMode.LINES_GS, a, b)
        assert rep.rhs == 12 and rep.lhs == 12 and rep.extremal

    def test_doubling_on_square(self):
        a = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        rep = bound(BoundMode.DOUBLING, a, a)
        assert rep.rhs == 9 and rep.lhs == 9 and rep.extremal

    def test_doubling_requires_equal_sets(self):
        with pytest.raises(ModeMismatch):
            bound(BoundMode.DOUBLING, ps((0, 0)), ps((1, 1)))

    def test_one_dimensional_mode(self):
        a = ps((0, 0), (1, 0), (2, 0))
        b = ps((0, 5), (1, 5))
        rep = bound(BoundMode.ONE_DIMENSIONAL, a, b)
        assert rep.rhs == 4 and rep.lhs == 4 and rep.extremal

    def test_one_dimensional_needs_parallel_lines(self):
        with pytest.raises(ModeMismatch):
            bound(BoundMode.ONE_DIMENSIONAL, ps((0, 0), (1, 0)), ps((0, 0), (0, 1)))

    def test_one_dimensional_rejects_planar_set(self):
        with pytest.raises(ModeMismatch):
            bound(BoundMode.ONE_DIMENSIONAL, ps((0, 0), (1, 0), (0, 1)), ps((0, 0)))

    def test_json_fields(self):
        a, b = gen_wild(4)
        d = bound(BoundMode.SECTIONS_GS, a, b).to_json_dict()
        assert d == {"mode": "sections", "m": 1, "n": 4, "lhs": "17",
                     "rhs": "17", "gap": "0", "extremal": True}


def reference_rhs(mode, size_a, m, size_b, n):
    """bound's right-hand side as Fraction formulas, before rhs_num_den."""
    if mode is BoundMode.DOUBLING:
        return (2 * Fraction(size_a, m) - 1) * (2 * m - 1)
    if mode is BoundMode.ONE_DIMENSIONAL:
        return Fraction(size_a + size_b - 1)
    return (Fraction(size_a, m) + Fraction(size_b, n) - 1) * (m + n - 1)


@pytest.mark.parametrize("mode", list(BoundMode), ids=lambda m: m.value)
def test_rhs_num_den_matches_fraction_formulas(mode):
    # every size up to 16 with every count up to that size; doubling has B = A
    classes = [(size, m) for size in range(1, 17) for m in range(1, size + 1)]
    for size_a, m in classes:
        for size_b, n in [(size_a, m)] if mode is BoundMode.DOUBLING else classes:
            num, den = rhs_num_den(mode, size_a, m, size_b, n)
            assert den > 0
            assert Fraction(num, den) == reference_rhs(mode, size_a, m, size_b, n)


class TestUValues:
    def test_adjacent_squares(self):
        u = u_values(seq(**{"0": 1, "1": 2}), seq(**{"0": 3, "1": 4}))
        assert u == {0: 4, 1: 5, 2: 6}

    def test_non_ap_values(self):
        u = u_values(seq(**{"0": 1, "1": 2}), seq(**{"0": 3, "1": 5}))
        assert u == {0: 4, 1: 6, 2: 7}

    def test_single_summand(self):
        u = u_values(seq(**{"0": 2}), seq(**{"0": 1, "2": 7}))
        assert u == {0: 3, 2: 9}


class TestAveragingReport:
    def test_equality_case(self):
        rep = averaging_report(seq(**{"0": 1, "1": 2}), seq(**{"0": 3, "1": 4}))
        assert rep.full_mean == 5 and rep.rhs == 5
        assert rep.equality and rep.ap_condition

    def test_strict_case(self):
        rep = averaging_report(seq(**{"0": 1, "1": 2}), seq(**{"0": 3, "1": 5}))
        assert rep.full_mean == Fraction(17, 3)
        assert rep.rhs == Fraction(11, 2)
        assert not rep.equality

    def test_singleton_index_set_is_always_tight(self):
        rep = averaging_report(seq(**{"0": 2}), seq(**{"0": 1, "2": 7}))
        assert rep.full_mean == 6 and rep.rhs == 6 and rep.equality

    @given(st.dictionaries(st.integers(0, 4), st.integers(0, 5), min_size=1, max_size=4),
           st.dictionaries(st.integers(0, 4), st.integers(0, 5), min_size=1, max_size=4))
    @settings(max_examples=300)
    def test_chain_full_uplus_rhs(self, ea, eb):
        rep = averaging_report(SupportedSequence(ea), SupportedSequence(eb))
        assert rep.full_mean >= rep.u_plus_mean >= rep.rhs

    def test_rejects_negative_values(self):
        with pytest.raises(ModeMismatch):
            SupportedSequence({0: -1})

    def test_rejects_empty(self):
        with pytest.raises(EmptySet):
            SupportedSequence({})


class TestChainDiagnostic:
    def test_extremal_trapezoid_pair_all_equal(self):
        a = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        b = gen_trapezoid(TrapezoidSpec(3, 2, 0, 0))
        assert chain_diagnostic(a, b) == [12, 12, 12, 12]

    def test_corner_triple_all_equal(self):
        t = ps((0, 0), (1, 0), (0, 1))
        assert chain_diagnostic(t, t) == [6, 6, 6, 6]

    def test_strict_first_step(self):
        # |A+B| = 4 but every per-column sum is a singleton, so the chain
        # drops immediately: (4, 3, 3, 3).
        got = chain_diagnostic(ps((0, 0), (1, 1)), ps((0, 0), (1, 0)))
        assert got == [4, 3, 3, 3]

    @given(nonempty_pairs)
    @settings(max_examples=200)
    def test_monotone(self, pair):
        vals = chain_diagnostic(*pair)
        assert vals[0] >= vals[1] >= vals[2] >= vals[3]

    @given(nonempty_pairs)
    @settings(max_examples=150)
    def test_lines_extremality_forces_equality(self, pair):
        a, b = pair
        vals = chain_diagnostic(a, b)
        if bound(BoundMode.LINES_GS, a, b).extremal:
            assert vals[0] == vals[1] == vals[2] == vals[3]


def reference_section_chain_sums(sa: dict, sb: dict) -> tuple[int, int]:
    """bounds._section_chain_sums as it was before the bitset kernel."""
    v2 = v3 = 0
    for t in sorted({i + j for i in sa for j in sb}):
        best_sum = 0
        best_card = 0
        for i in sa:
            j = t - i
            if j in sb:
                best_sum = max(best_sum, len({u + w for u in sa[i] for w in sb[j]}))
                best_card = max(best_card, len(sa[i]) + len(sb[j]) - 1)
        v2 += best_sum
        v3 += best_card
    return v2, v3


chain_coord = st.integers(min_value=-5, max_value=5)
chain_rational = st.one_of(chain_coord, st.builds(Fraction, st.integers(-20, 20),
                                                  st.integers(1, 8)))
chain_nonzero = chain_rational.filter(bool)
far_coord = st.integers(min_value=-10**9, max_value=10**9)


def chain_sets(coords, **unique):
    return st.lists(st.tuples(coords, chain_coord), min_size=1, max_size=14,
                    **unique).map(PointSet2D)


def both(sets):
    return st.tuples(sets, sets)


BIG = gen_trapezoid(TrapezoidSpec(10, 61, 0, 1))

# trapezoids with integer slopes: every row and every column is a run
chain_trapezoids = st.builds(lambda m, h, d, k: gen_trapezoid(TrapezoidSpec(m, h, d + k, d)),
                             st.integers(1, 5), st.integers(1, 6), st.integers(-2, 2),
                             st.integers(0, 2))

# a set whose rows are runs (x0, k) on up to 6 distinct levels in [-6, 6]
gapped_runs = st.dictionaries(st.integers(-6, 6), st.tuples(chain_coord, st.integers(1, 4)),
                              min_size=1, max_size=6).map(
    lambda rows: PointSet2D((x0 + i, y) for y, (x0, k) in rows.items() for i in range(k)))

# two trapezoids with integer slopes, the second stacked on top of the first:
# every row a run, and the row sizes need not be concave
stacked_trapezoids = st.builds(
    lambda lower, upper, x: PointSet2D([*lower, *(p + (x, 1 + max(q.y for q in lower)) for p in upper)]),
    chain_trapezoids.filter(lambda t: len(t.rows()) > 1),
    chain_trapezoids.filter(lambda t: len(t.rows()) > 1), st.integers(-2, 2))

# pair kind -> pairs (A, B); "step" maps both sets by (x, y) -> (g x + 1, g y),
# so the offsets of every section share the step g > 1, "runs" puts two
# trapezoids under one diagonal map, in "singletons" every row and every
# column holds one point, "gapped" has run rows on gapped levels,
# "stacked" run rows whose sizes are not concave, and "translate" is
# T(10,61,0,1) against its (1/5, 0) translate, rows of step 5 on the grid
chain_pairs = {
    "int": both(chain_sets(chain_coord)),
    "rational": both(chain_sets(chain_rational)),
    "far": both(chain_sets(far_coord)),
    "step": st.builds(lambda g, a, b: tuple(PointSet2D((g * x + 1, g * y) for x, y in s)
                                            for s in (a, b)),
                      st.integers(2, 5), chain_sets(chain_coord), chain_sets(chain_coord)),
    "runs": st.builds(lambda a, b, mp: (apply_map(a, mp), apply_map(b, mp)),
                      chain_trapezoids, chain_trapezoids,
                      st.builds(AffineMap2D.diagonal, chain_nonzero, chain_nonzero,
                                chain_rational, chain_rational)),
    "singletons": both(chain_sets(chain_coord, unique_by=(itemgetter(0), itemgetter(1)))),
    "gapped": both(gapped_runs),
    "stacked": both(stacked_trapezoids),
    "translate": st.just((BIG, BIG.translate((Fraction(1, 5), 0)))),
}


class TestSectionChainSums:
    @pytest.mark.parametrize("kind", list(chain_pairs))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, kind, data):
        """On the grid sections that core hands over, the sums equal the
        reference's on the public sections; those grid sections, divided
        by their scales (the lcms of both sets' denominators per axis), are
        the public ones, keys and order included."""
        a, b = data.draw(chain_pairs[kind])
        for rows, sections in ((True, PointSet2D.rows), (False, PointSet2D.columns)):
            sa, sb = sections(a), sections(b)
            level_scale, value_scale, ga, gb = grid_sections(a, b, rows)
            levels = [Fraction(k) for s in (sa, sb) for k in s]
            values = [Fraction(v) for s in (sa, sb) for vs in s.values() for v in vs]
            assert (level_scale, value_scale) == (lcm(*(k.denominator for k in levels)),
                                                  lcm(*(v.denominator for v in values)))
            assert [[(Fraction(k, level_scale), [Fraction(v, value_scale) for v in vs])
                     for k, vs in g.items()] for g in (ga, gb)] == [list(sa.items()),
                                                                     list(sb.items())]
            assert _section_chain_sums(ga, gb) == _pairwise_chain_sums(ga, gb) \
                == reference_section_chain_sums(sa, sb)

    def test_matches_reference_on_a_large_trapezoid(self):
        t = BIG
        for rows, sections in ((True, PointSet2D.rows), (False, PointSet2D.columns)):
            s = sections(t)
            _, _, g, _ = grid_sections(t, t, rows)
            assert _section_chain_sums(g, g) == reference_section_chain_sums(s, s)

    @pytest.mark.parametrize("case, merged", [
        ("gapped", False), ("stacked", False), ("singletons", None), ("translate", True)])
    def test_each_progression_branch(self, case, merged):
        """Four pairs whose sections are all progressions of one shared step:
        run rows on gapped levels and run rows of non-concave sizes take the
        pairwise loop on sizes, a small singleton-only pair sums nothing, and
        T(10,61,0,1) against its (1/5, 0) translate, whose rows are
        progressions of step 5 on the grid, merges the size differences on
        both axes.  The first two are read on their rows, the last two on
        both axes; none goes to the counting loop, and each gets its answer."""
        low, partner = gen_trapezoid(TrapezoidSpec(3, 5, 0, 1)), gen_trapezoid(TrapezoidSpec(2, 8, 0, 1))
        pairs = {  # the first two have 9 x 8 and 10 x 8 pairs of rows, over MERGE_PAIRS
            "gapped": (PointSet2D((x, y + 3 * (y > 4)) for x, y in
                                  gen_trapezoid(TrapezoidSpec(3, 9, 0, 1))), partner),
            "stacked": (PointSet2D([*low, *(p + (0, 5) for p in low)]), partner),
            "singletons": (PointSet2D([(0, 0), (1, 2), (3, 1)]), PointSet2D([(2, 0), (-1, 5)])),
            "translate": (BIG, BIG.translate((Fraction(1, 5), 0))),
        }
        a, b = pairs[case]
        for rows in (True, False) if case in ("singletons", "translate") else (True,):
            _, _, ga, gb = grid_sections(a, b, rows)
            with mock.patch.object(bounds, "_pairwise_chain_sums") as loop, \
                    mock.patch.object(bounds, "accumulate", wraps=accumulate) as merge:
                got = _section_chain_sums(ga, gb)
            assert loop.call_count == 0
            assert merged is None or merge.called is merged
            assert got == _pairwise_chain_sums(ga, gb)

    def test_a_row_that_spans_like_a_progression_is_counted(self):
        """Row 1 of A, {0, 1, 4}, spans two steps of row 0's 2 but is no
        progression, so its sums with B's {0, 2} go to the counting loop:
        six points, not the four of two progressions."""
        a, b = ps((0, 0), (2, 0), (4, 0), (0, 1), (1, 1), (4, 1)), ps((0, 0), (2, 0))
        _, _, ga, gb = grid_sections(a, b, True)
        assert _section_chain_sums(ga, gb) == reference_section_chain_sums(a.rows(), b.rows()) \
            == (10, 8)

    def test_large_trapezoid_rows_make_no_kernel_call(self):
        """T(10,61,0,1)'s rows are runs: both chains on it against a translate
        and against its (1/5, 0) translate take no pair of rows through the
        counting loop or core's one-line count (bounds' binding of
        core._line_sum_size).  The loop itself, on the latter's rows, counts."""
        fifth = BIG.translate((Fraction(1, 5), 0))
        with mock.patch.object(bounds, "_line_sum_size", wraps=bounds._line_sum_size) as kernel, \
                mock.patch.object(bounds, "_pairwise_chain_sums") as loop:
            assert compression_chain(BIG.translate((3, -2)), BIG) == [2128] * 4
            assert chain_diagnostic(BIG.translate((3, -2)), BIG) == [2128] * 4
            assert compression_chain(BIG, fifth)[1:] == [2128, 2128, 2128]
            assert chain_diagnostic(BIG, fifth)[1:3] == [2128, 2128]
        assert (kernel.call_count, loop.call_count) == (0, 0)
        _, _, ga, gb = grid_sections(BIG, fifth, True)
        with mock.patch.object(bounds, "_line_sum_size", wraps=bounds._line_sum_size) as kernel:
            assert _pairwise_chain_sums(ga, gb) == (2128, 2128)
        assert kernel.call_count > 0


class TestModeRelations:
    @given(nonempty_pairs)
    @settings(max_examples=200)
    def test_sections_rhs_is_lines_rhs_of_compression(self, pair):
        a, b = pair
        sections = bound(BoundMode.SECTIONS_GS, a, b)
        lines = bound(BoundMode.LINES_GS, compress(a), compress(b))
        assert sections.rhs == lines.rhs

    @given(point_sets)
    @settings(max_examples=150)
    def test_doubling_equals_lines_with_self(self, a):
        assert bound(BoundMode.DOUBLING, a, a).rhs == bound(BoundMode.LINES_GS, a, a).rhs

    @given(nonempty_pairs)
    @settings(max_examples=300)
    def test_gap_nonnegative_lines_sections(self, pair):
        a, b = pair
        assert bound(BoundMode.LINES_GS, a, b).gap >= 0
        assert bound(BoundMode.SECTIONS_GS, a, b).gap >= 0


# input checks no other test reaches: name -> (call, exception type, message)
INPUT_CHECKS = {
    "bound": (lambda: bound(BoundMode.LINES_GS, PointSet2D(), ps((0, 0))),
              EmptySet, "bound needs nonempty sets"),
    "chain_diagnostic": (lambda: chain_diagnostic(ps((0, 0)), PointSet2D()),
                         EmptySet, "chain_diagnostic needs nonempty sets"),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_checks(name):
    call, error, message = INPUT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
