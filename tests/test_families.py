from fractions import Fraction
from itertools import combinations

import pytest

from sumsetlab import BoundMode, InvalidSpec, bound, cover_stats
from sumsetlab.families import (CaseCSpec, EpsilonSpec, TrapezoidSpec,
                                gen_case_c, gen_eps_trapezoid, gen_trapezoid,
                                gen_wild)


class TestTrapezoid:
    def test_single_column_is_segment(self):
        t = gen_trapezoid(TrapezoidSpec(1, 5, 0, 0))
        assert len(t) == 5
        assert {p.x for p in t} == {0}

    def test_figure_one_shape(self):
        t = gen_trapezoid(TrapezoidSpec(6, 19, -1, 2))
        assert len(t) == 69
        cols = t.columns()
        assert [len(cols[x]) for x in sorted(cols)] == [19, 16, 13, 10, 7, 4]

    def test_infeasible_spec_rejected(self):
        with pytest.raises(InvalidSpec):
            TrapezoidSpec(2, 1, 0, 2)

    def test_non_integer_slope_gap_rejected(self):
        with pytest.raises(InvalidSpec):
            TrapezoidSpec(3, 4, Fraction(1, 2), 0)

    def test_fractional_shared_slopes_allowed(self):
        t = gen_trapezoid(TrapezoidSpec(2, 2, Fraction(1, 2), Fraction(1, 2)))
        assert len(t) == 4
        assert t.columns()[1] == [Fraction(1, 2), Fraction(3, 2)]

    def test_columns_start_at_dx(self):
        t = gen_trapezoid(TrapezoidSpec(3, 2, 2, 1))
        cols = t.columns()
        assert [cols[x][0] for x in sorted(cols)] == [0, 1, 2]
        assert [len(cols[x]) for x in sorted(cols)] == [2, 3, 4]


class TestEpsTrapezoid:
    def test_figure_two_instance(self):
        spec = EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({8, 12, 14}))
        t = gen_eps_trapezoid(spec)
        assert len(t) == 58
        rows = t.rows()
        # rows at the shifted levels start one cell to the right of the level below
        assert rows[8][0] == rows[7][0] + 1

    def test_zero_shift_equals_standard(self):
        base = TrapezoidSpec(3, 7, 1, 2)
        assert gen_eps_trapezoid(EpsilonSpec(base, frozenset())) == gen_trapezoid(base)

    def test_window_constraint_rejected(self):
        with pytest.raises(InvalidSpec):
            EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({8, 9}))

    def test_support_interval_rejected(self):
        with pytest.raises(InvalidSpec):
            EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({7}))
        with pytest.raises(InvalidSpec):
            EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({15}))

    def test_slopes_both_zero_rejected(self):
        with pytest.raises(InvalidSpec):
            EpsilonSpec(TrapezoidSpec(3, 4, 0, 0), frozenset())

    def test_negative_slope_rejected(self):
        with pytest.raises(InvalidSpec):
            EpsilonSpec(TrapezoidSpec(3, 9, -1, 2), frozenset())

    @pytest.mark.parametrize("index", [8.7, Fraction(17, 2), "9"])
    def test_shift_index_must_be_an_int(self, index):
        """A float, a Fraction or a string is no shift index, even where its
        int() lies inside the support interval."""
        with pytest.raises(InvalidSpec, match="shift indices must be integers"):
            EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({index}))


class TestCaseC:
    def test_figure_three_sizes(self):
        a, b = gen_case_c(CaseCSpec(4, 4, 7))
        assert (len(a), len(b)) == (52, 28)

    def test_even_k_rejected(self):
        with pytest.raises(InvalidSpec):
            CaseCSpec(4, 4, 6)

    def test_b_max_horizontal_section(self):
        _, b = gen_case_c(CaseCSpec(2, 4, 7))
        assert cover_stats(b).max_horizontal_section == 4

    def test_mode_m_matches_spec(self):
        for m, n, k in [(2, 2, 1), (2, 3, 3), (3, 2, 5), (4, 4, 7), (2, 2, 9)]:
            a, b = gen_case_c(CaseCSpec(m, n, k))
            assert cover_stats(a).max_horizontal_section == m
            assert cover_stats(b).max_horizontal_section == n


class TestWild:
    def test_reference_instance(self):
        a, b = gen_wild(4)
        assert (len(a), len(b)) == (3, 9)
        assert cover_stats(a).max_horizontal_section == 1

    def test_larger_offsets_stay_extremal(self):
        for x in (5, 6, 7, 8, Fraction(9, 2)):
            a, b = gen_wild(x)
            assert bound(BoundMode.SECTIONS_GS, a, b).extremal

    def test_domain_constraint(self):
        with pytest.raises(InvalidSpec):
            gen_wild(3)

    def test_a_needs_three_horizontal_lines(self):
        a, _ = gen_wild(4)
        assert len(a.rows()) == 3


class TestFamilyExtremality:
    def test_shared_slope_trapezoid_pairs_small(self):
        for c in (-1, 0, 1):
            for d in (-1, 0, 1):
                for m, h in ((1, 3), (2, 2), (3, 2)):
                    for n, hp in ((2, 3), (3, 2)):
                        try:
                            sa = TrapezoidSpec(m, h, c, d)
                            sb = TrapezoidSpec(n, hp, c, d)
                        except InvalidSpec:
                            continue
                        assert bound(BoundMode.LINES_GS, gen_trapezoid(sa),
                                     gen_trapezoid(sb)).extremal

    def test_eps_pairs_sections_extremal(self):
        for (m, h, c, d) in [(2, 4, 0, 1), (2, 5, 1, 1), (3, 7, 1, 2), (2, 6, 2, 1)]:
            base = TrapezoidSpec(m, h, c, d)
            lo, hi = m * d, h - c - 1
            window = max(c, d)
            supports = [frozenset()]
            supports += [frozenset({i}) for i in range(lo, hi + 1)]
            supports += [frozenset(t) for t in combinations(range(lo, hi + 1), 2)
                         if abs(t[0] - t[1]) >= window]
            for n in (2, 3):
                partner = gen_trapezoid(TrapezoidSpec(n, (n - 1) * d + 1, c, d))
                for ones in supports:
                    a = gen_eps_trapezoid(EpsilonSpec(base, ones))
                    assert bound(BoundMode.SECTIONS_GS, a, partner).extremal

    def test_case_c_sections_extremal_for_odd_k(self):
        failures = []
        for m in (2, 3, 4):
            for n in (2, 3, 4):
                for k in (1, 3, 5, 7, 9):
                    a, b = gen_case_c(CaseCSpec(m, n, k))
                    if not bound(BoundMode.SECTIONS_GS, a, b).extremal:
                        failures.append((m, n, k))
        assert failures == []

    def test_figure_two_pair_extremal(self):
        a = gen_eps_trapezoid(EpsilonSpec(TrapezoidSpec(4, 16, 1, 2),
                                          frozenset({8, 12, 14})))
        b = gen_trapezoid(TrapezoidSpec(4, 7, 1, 2))
        rep = bound(BoundMode.SECTIONS_GS, a, b)
        assert rep.rhs == 133 and rep.extremal


# input checks no other test reaches: name -> (call, exception type, message)
INPUT_CHECKS = {
    "TrapezoidSpec m < 1": (lambda: TrapezoidSpec(0, 3, 0, 0), InvalidSpec,
                            "m must be a positive integer"),
    "TrapezoidSpec h < 1": (lambda: TrapezoidSpec(2, 0, 0, 0), InvalidSpec,
                            "h must be a positive integer"),
    "EpsilonSpec rational slopes": (
        lambda: EpsilonSpec(TrapezoidSpec(2, 4, Fraction(3, 2), Fraction(1, 2))),
        InvalidSpec, "epsilon trapezoid needs integer slopes"),
    "CaseCSpec m < 2": (lambda: CaseCSpec(1, 3, 3), InvalidSpec, "case-c needs m, n >= 2"),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_checks(name):
    call, error, message = INPUT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
