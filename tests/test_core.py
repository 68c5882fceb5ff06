import copy
import os
import pickle
import subprocess
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import nonempty_pairs, point_sets, points
from sumsetlab import (AffineMap2D, BoundMode, CaseCSpec, CoverStats, EmptySet, InvalidSpec,
                       NotCollinear, ParseError, Point2, PointSet2D, apply_map,
                       arithmetic_progression_of, bound, chain_diagnostic, classify_1d,
                       collinear_direction, compress, compression_chain, cover_stats, dumps_points,
                       gen_case_c, gen_trapezoid, gen_wild, loads_points, minkowski_sum,
                       oracle_pair_check, parallel_directions, split_check)
import sumsetlab
from sumsetlab import bounds, core
from sumsetlab.classify import _jsonify
from sumsetlab.core import Rational, rat, rat_str, shared_difference
from sumsetlab.families import TrapezoidSpec


def ps(*pairs):
    return PointSet2D(pairs)


class TestMinkowskiSum:
    def test_two_by_two_grid(self):
        a = ps((0, 0), (1, 0))
        b = ps((0, 0), (0, 1))
        assert minkowski_sum(a, b) == ps((0, 0), (1, 0), (0, 1), (1, 1))

    def test_singleton_identity(self):
        b = ps((2, 3), (5, -1), (0, 0))
        assert minkowski_sum(ps((0, 0)), b) == b

    def test_wild_pair_size(self):
        a, b = gen_wild(4)
        assert len(minkowski_sum(a, b)) == 17

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            minkowski_sum(PointSet2D(), ps((0, 0)))

    def test_sparse_guard(self):
        """Far-apart points and a large denominator take the key-set path;
        a bitset would need about 10**36 bits."""
        q = Fraction(1, 10**9 + 7)
        start = time.perf_counter()
        far = minkowski_sum(ps((0, 0), (10**18, 0)), ps((0, 0), (0, 10**18)))
        fine = minkowski_sum(ps((0, 0), (q, 0)), ps((0, 0), (0, 10**18 * q)))
        assert time.perf_counter() - start < 1.0
        assert far.points == tuple(Point2(x, y) for x in (0, 10**18) for y in (0, 10**18))
        assert fine.points == tuple(Point2(x, y) for x in (0, q) for y in (0, 10**18 * q))


def reference_minkowski_sum(a, b):
    """minkowski_sum as a set comprehension over all pairs, as it was before
    the bitset kernel."""
    pts = {(p.x + q.x, p.y + q.y) for p in a for q in b}
    return PointSet2D(Point2(x, y) for x, y in pts)


small_int = st.integers(min_value=-6, max_value=6)
mixed_rational = st.one_of(small_int, st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)))
far_int = st.integers(min_value=-10**12, max_value=10**12)


def sets_of(xs, ys, max_size=10):
    return st.lists(st.tuples(xs, ys), min_size=1, max_size=max_size).map(PointSet2D)


kernel_sets = st.one_of(
    sets_of(small_int, small_int),
    sets_of(mixed_rational, mixed_rational),
    st.builds(lambda x, ys: PointSet2D((x, y) for y in ys), mixed_rational,
              st.lists(mixed_rational, min_size=1, max_size=10)),  # 1 x N
    st.builds(lambda y, xs: PointSet2D((x, y) for x in xs), mixed_rational,
              st.lists(mixed_rational, min_size=1, max_size=10)),  # N x 1
    sets_of(mixed_rational, mixed_rational, max_size=1),  # singletons
)
# (0, 0) and (10**9, 0) make the sum at least 10**9 cells wide, far more
# than the at most 36 pairs, so these always take the key-set path
sparse_sets = st.lists(st.tuples(far_int, far_int), max_size=4).map(
    lambda pts: PointSet2D(pts + [(0, 0), (10**9, 0)]))


def assert_same_sumset(a, b):
    got, want = minkowski_sum(a, b), reference_minkowski_sum(a, b)
    assert got == want and hash(got) == hash(want)
    assert got.points == want.points
    assert [(type(p.x), type(p.y)) for p in got] == [(type(p.x), type(p.y)) for p in want]


class TestKernelMatchesReference:
    @given(kernel_sets, kernel_sets)
    @settings(max_examples=400, deadline=None)
    def test_same_points_in_same_order(self, a, b):
        assert_same_sumset(a, b)

    @given(sparse_sets, st.one_of(sparse_sets, kernel_sets))
    @settings(max_examples=150, deadline=None)
    def test_sparse_path(self, a, b):
        with mock.patch.object(core, "sumset_mask", side_effect=AssertionError("dense path")):
            assert_same_sumset(a, b)

    def test_dense_path_is_taken_on_a_full_grid(self):
        grid = ps(*[(x, y) for x in range(4) for y in range(3)])
        with mock.patch.object(core, "sumset_mask", wraps=core.sumset_mask) as kernel:
            assert_same_sumset(grid, grid)
        assert kernel.call_count == 1


class TestSumsetSize:
    """sumset_size counts the sum that minkowski_sum builds, on the same
    integer, rational, sparse (far apart) and singleton sets."""

    @given(st.one_of(kernel_sets, sparse_sets), st.one_of(kernel_sets, sparse_sets))
    @settings(max_examples=400, deadline=None)
    def test_counts_the_built_sum(self, a, b):
        assert core.sumset_size(a, b) == len(minkowski_sum(a, b))

    def test_empty_rejected(self):
        with pytest.raises(EmptySet, match="sumset_size needs nonempty sets"):
            core.sumset_size(PointSet2D(), ps((0, 0)))


# cover_stats, collinear_direction, _primitive, parallel_directions and
# arithmetic_progression_of as they were before core's one line walk, verbatim
# but for their names: cover_stats read columns(), rows() and a second walk.
def reference_cover_stats(x: PointSet2D) -> CoverStats:
    if len(x) == 0:
        raise EmptySet("cover_stats needs a nonempty set")
    cols = x.columns()
    rows = x.rows()
    return CoverStats(
        vertical_line_count=len(cols),
        horizontal_line_count=len(rows),
        max_horizontal_section=max(len(v) for v in rows.values()),
        max_vertical_section=max(len(v) for v in cols.values()),
        is_two_dimensional=reference_collinear_direction(x) is None,
    )


def reference_collinear_direction(x: PointSet2D):
    if len(x) == 0:
        raise EmptySet("collinear_direction needs a nonempty set")
    pts = x.points
    if len(pts) == 1:
        return core._point(0, 0)
    p0, p1 = pts[0], pts[1]
    for p in pts[2:]:
        if core._turn(p0, p1, p) != 0:
            return None
    return reference_primitive(p1 - p0)


def reference_primitive(d: Point2) -> Point2:
    fx, fy = Fraction(d.x), Fraction(d.y)
    den = fx.denominator * fy.denominator // gcd(fx.denominator, fy.denominator)
    nx, ny = fx.numerator * (den // fx.denominator), fy.numerator * (den // fy.denominator)
    g = gcd(abs(nx), abs(ny))
    nx, ny = nx // g, ny // g
    if ny < 0 or (ny == 0 and nx < 0):
        nx, ny = -nx, -ny
    return core._point(nx, ny)


def reference_parallel_directions(d1: Point2, d2: Point2) -> bool:
    if (d1.x, d1.y) == (0, 0) or (d2.x, d2.y) == (0, 0):
        return True
    return d1.cross(d2) == 0


def reference_arithmetic_progression_of(x: PointSet2D):
    if len(x) == 0:
        raise EmptySet("arithmetic_progression_of needs a nonempty set")
    if reference_collinear_direction(x) is None:
        raise NotCollinear("arithmetic_progression_of needs a collinear set")
    pts = x.points
    if len(pts) == 1:
        return core._point(0, 0)
    delta = pts[1] - pts[0]
    for prev, cur in zip(pts, pts[1:]):
        if cur - prev != delta:
            return None
    return delta


def typed_or_none(value):
    return None if value is None else (typed(value.x), typed(value.y))


def assert_walk_matches_reference(x: PointSet2D) -> None:
    """cover_stats, collinear_direction and arithmetic_progression_of equal
    the references on x, with the same coordinate types."""
    assert cover_stats(x) == reference_cover_stats(x)
    d, want = collinear_direction(x), reference_collinear_direction(x)
    assert typed_or_none(d) == typed_or_none(want)
    if want is None:
        with pytest.raises(NotCollinear):
            arithmetic_progression_of(x)
    else:
        got = arithmetic_progression_of(x)
        assert typed_or_none(got) == typed_or_none(reference_arithmetic_progression_of(x))


def grid_subset_sets(width, height):
    cells = [(x, y) for x in range(width) for y in range(height)]
    for mask in range(1, 1 << len(cells)):
        yield PointSet2D(cells[i] for i in range(len(cells)) if mask >> i & 1)


# points p + k*d on one slanted line, d != 0
slanted_lines = st.builds(
    lambda p, d, ks: PointSet2D(Point2(*p) + Point2(*d).scale(k) for k in ks),
    st.tuples(mixed_rational, mixed_rational),
    st.tuples(mixed_rational, mixed_rational).filter(lambda d: d != (0, 0)),
    st.lists(small_int, min_size=1, max_size=8))
walk_sets = st.one_of(kernel_sets, slanted_lines)


class TestLineWalkMatchesReference:
    @pytest.mark.parametrize("grid", [(3, 3), (3, 4), (4, 3)], ids=lambda g: "%dx%d" % g)
    def test_every_grid_subset(self, grid):
        directions = set()
        for x in grid_subset_sets(*grid):
            assert_walk_matches_reference(x)
            directions.add(collinear_direction(x))
        directions.discard(None)
        assert len(directions) > 5
        for d1 in directions:
            for d2 in directions:
                assert parallel_directions(d1, d2) == reference_parallel_directions(d1, d2)

    @given(walk_sets, walk_sets)
    @settings(max_examples=300, deadline=None)
    def test_int_negative_and_mixed_denominator_sets(self, a, b):
        assert_walk_matches_reference(a)
        assert_walk_matches_reference(b)
        da, db = reference_collinear_direction(a), reference_collinear_direction(b)
        if da is not None and db is not None:
            assert parallel_directions(da, db) == reference_parallel_directions(da, db)
            # the raw steps, as the sweep keeps them, are parallel just as often
            steps = [core._line_step(*zip(*x.points)) for x in (a, b)]
            assert parallel_directions(*steps) == reference_parallel_directions(da, db)

    def test_counts_read_neither_rows_nor_columns(self):
        shear = AffineMap2D.upper_triangular(Fraction(3, 2), Fraction(-5, 3), Fraction(4, 3))
        pairs = [gen_wild(4), (gen_trapezoid(TrapezoidSpec(6, 19, -1, 2)),
                               apply_map(gen_trapezoid(TrapezoidSpec(3, 5, 0, 1)), shear))]
        modes = (BoundMode.LINES_GS, BoundMode.SECTIONS_GS)

        def run(stats):
            return [(stats(a), stats(b), [bound(mode, a, b) for mode in modes])
                    for a, b in pairs]

        want = run(reference_cover_stats)
        no_lines = AssertionError("rows() or columns() called")
        with mock.patch.object(PointSet2D, "rows", side_effect=no_lines), \
                mock.patch.object(PointSet2D, "columns", side_effect=no_lines):
            assert run(cover_stats) == want


# arithmetic_progression_of as it was before it read the coordinate
# sequences with shared_difference, verbatim but for its name
def line_walk_arithmetic_progression_of(x: PointSet2D):
    if len(x) == 0:
        raise EmptySet("arithmetic_progression_of needs a nonempty set")
    pts = x.points
    step = core._line_step(*zip(*pts))
    if step is None:
        raise NotCollinear("arithmetic_progression_of needs a collinear set")
    delta = core._point(*step)
    for prev, cur in zip(pts, pts[1:]):
        if cur - prev != delta:
            return None
    return delta


@contextmanager
def counting(owner, name):
    """A Mock wrapping owner.name, put in its place in every sumsetlab module
    that binds it, so that calls through `from .core import name` count too."""
    original = getattr(owner, name)
    spy = mock.Mock(wraps=original)
    with ExitStack() as stack:
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").partition(".")[0] == "sumsetlab" \
                    and vars(module).get(name) is original:
                stack.enter_context(mock.patch.object(module, name, spy))
        yield spy


# two sets on parallel lines, p + k*d and q + j*r*d with r != 0
parallel_line_pairs = st.builds(
    lambda p, q, d, r, ks, js: (PointSet2D(Point2(*p) + Point2(*d).scale(k) for k in ks),
                                PointSet2D(Point2(*q) + Point2(*d).scale(r * j) for j in js)),
    st.tuples(mixed_rational, mixed_rational), st.tuples(mixed_rational, mixed_rational),
    st.tuples(mixed_rational, mixed_rational).filter(lambda d: d != (0, 0)),
    mixed_rational.filter(bool),
    st.lists(small_int, min_size=1, max_size=8), st.lists(small_int, min_size=1, max_size=8))


def assert_1d_matches_reference(a: PointSet2D, b: PointSet2D) -> bool:
    """classify_1d's equality is the 1d bound's, and arithmetic_progression_of
    is its line-walk version on both sets; returns the equality."""
    equality = classify_1d(a, b).details["equality"]
    assert equality == bound(BoundMode.ONE_DIMENSIONAL, a, b).extremal
    for x in (a, b):
        got, want = arithmetic_progression_of(x), line_walk_arithmetic_progression_of(x)
        assert typed_or_none(got) == typed_or_none(want)
    return equality


# parallel pairs, as the points of A and B; each test builds its sets, as a
# set keeps its one line walk
PARALLEL_PAIRS = {"ap": ([(0, 0), (1, 2), (2, 4)], [(5, 1), (6, 3)]),
                  "a_not_ap": ([(0, 0), (1, 2), (3, 6)], [(5, 1), (6, 3)]),
                  "neither_ap": ([(0, 0), (1, 2), (3, 6)], [(5, 1), (6, 3), (8, 7)])}


def parallel_pair(name):
    return tuple(PointSet2D(pts) for pts in PARALLEL_PAIRS[name])


class TestCountOnlyPaths:
    """classify_1d, split_check and both section chains count A+B without
    bound or minkowski_sum, 1d mode reads no cover counts, each set's line
    is walked at most once, and a bound on one set reads its cover counts
    once."""

    @pytest.mark.parametrize("name", sorted(PARALLEL_PAIRS))
    def test_classify_1d_neither_bounds_nor_builds(self, name):
        with counting(bounds, "bound") as bound_calls, \
                counting(core, "minkowski_sum") as sums, counting(core, "_line_step") as steps:
            classify_1d(*parallel_pair(name))
        assert bound_calls.call_count == 0 and sums.call_count == 0
        assert steps.call_count <= 2  # at most one walk per set

    def test_1d_bound_reads_no_cover_counts(self):
        with counting(core, "cover_stats") as stats, counting(core, "_line_step") as steps, \
                counting(core, "minkowski_sum") as sums:
            bound(BoundMode.ONE_DIMENSIONAL, *parallel_pair("ap"))
        assert (stats.call_count, sums.call_count) == (0, 1) and steps.call_count <= 2

    @pytest.mark.parametrize("name", sorted(PARALLEL_PAIRS) + ["wild", "case_c"])
    def test_oracle_record_walks_each_set_once(self, name):
        """A whole oracle_pair_check record: every bound, both chains and
        each classification that applies."""
        pairs = {"wild": gen_wild(4), "case_c": gen_case_c(CaseCSpec(2, 3, 3))}
        pair = pairs[name] if name in pairs else parallel_pair(name)
        with counting(core, "_line_step") as steps:
            record = oracle_pair_check(*pair)
        assert set(record["classifications"]) == ({"thm2", "thm3"} if name == "case_c" else
                                                 {"thm2"} if name == "wild" else {"1d"})
        assert steps.call_count <= 2

    @pytest.mark.parametrize("mode", [BoundMode.LINES_GS, BoundMode.SECTIONS_GS],
                             ids=lambda m: m.value)
    def test_2d_bound_builds_the_sum_once(self, mode):
        a, b = gen_wild(4)
        with counting(core, "cover_stats") as stats, counting(core, "minkowski_sum") as sums:
            bound(mode, a, b)
        assert (stats.call_count, sums.call_count) == (2, 1)

    @pytest.mark.parametrize("mode", [BoundMode.LINES_GS, BoundMode.SECTIONS_GS,
                                      BoundMode.DOUBLING], ids=lambda m: m.value)
    def test_bound_on_one_set_reads_cover_counts_once(self, mode):
        s = gen_trapezoid(TrapezoidSpec(3, 4, 0, 1))
        with counting(core, "cover_stats") as stats:
            bound(mode, s, s)
        assert stats.call_count == 1

    def test_chains_count_without_building(self):
        a, b = gen_wild(4)
        with counting(core, "minkowski_sum") as sums, counting(core, "sumset_size") as sizes:
            chain_diagnostic(a, b)
            compression_chain(a, b)
        assert (sums.call_count, sizes.call_count) == (0, 3)

    def test_split_check_counts_without_bounds(self):
        with counting(bounds, "bound") as bound_calls, counting(core, "cover_stats") as stats, \
                counting(core, "minkowski_sum") as sums, counting(core, "sumset_size") as sizes:
            assert split_check(*gen_case_c(CaseCSpec(4, 4, 7)))
        assert (bound_calls.call_count, stats.call_count, sums.call_count) == (0, 0, 0)
        assert sizes.call_count == 3

    def test_1d_equality_is_the_bound_on_3x3_pairs(self):
        lines = [x for x in grid_subset_sets(3, 3) if collinear_direction(x) is not None]
        seen = []
        for a in lines:
            for b in lines:
                if parallel_directions(collinear_direction(a), collinear_direction(b)):
                    seen.append(assert_1d_matches_reference(a, b))
        assert len(lines) == 53 and seen.count(True) > 0 and seen.count(False) > 0

    @given(parallel_line_pairs)
    @settings(max_examples=300, deadline=None)
    def test_1d_equality_is_the_bound_on_rational_lines(self, pair):
        assert_1d_matches_reference(*pair)


def test_import_and_sumset_do_not_load_numpy():
    """numpy is installed on some machines but is not a dependency."""
    code = ("import sys, sumsetlab\n"
            "a = sumsetlab.PointSet2D([(0, 0), (1, 2)])\n"
            "sumsetlab.minkowski_sum(a, a)\n"
            "print('numpy' in sys.modules)\n")
    src = str(Path(sumsetlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestCoverStats:
    def test_figure_one_trapezoid(self):
        t = gen_trapezoid(TrapezoidSpec(6, 19, -1, 2))
        assert cover_stats(t).vertical_line_count == 6

    def test_wild_b_max_horizontal_section(self):
        _, b = gen_wild(4)
        assert cover_stats(b).max_horizontal_section == 4

    def test_singleton(self):
        stats = cover_stats(ps((0, 0)))
        assert (stats.vertical_line_count, stats.horizontal_line_count) == (1, 1)
        assert (stats.max_horizontal_section, stats.max_vertical_section) == (1, 1)
        assert not stats.is_two_dimensional

    def test_two_dimensionality(self):
        assert not cover_stats(ps((0, 0), (1, 2), (2, 4))).is_two_dimensional
        assert cover_stats(ps((0, 0), (1, 2), (2, 5))).is_two_dimensional


class TestApplyMap:
    def test_identity(self):
        x = ps((0, 0), (3, 4), (1, 2))
        assert apply_map(x, AffineMap2D()) == x

    def test_shear(self):
        shear = AffineMap2D.upper_triangular(1, -1, 1)
        assert apply_map(ps((0, 0), (1, 1)), shear) == ps((0, 0), (0, 1))

    def test_reflection(self):
        refl = AffineMap2D.diagonal(-1, 1)
        assert apply_map(ps((0, 0), (1, 0)), refl) == ps((0, 0), (-1, 0))

    def test_singular_rejected(self):
        with pytest.raises(InvalidSpec):
            AffineMap2D.diagonal(0, 1)


class TestArithmeticProgression:
    def test_even_progression(self):
        assert arithmetic_progression_of(ps((0, 0), (0, 2), (0, 4))) == Point2(0, 2)

    def test_gap_breaks_progression(self):
        assert arithmetic_progression_of(ps((0, 0), (0, 1), (0, 3))) is None

    def test_singleton_qualifies(self):
        assert arithmetic_progression_of(ps((5, 7))) is not None

    def test_non_collinear_rejected(self):
        with pytest.raises(NotCollinear):
            arithmetic_progression_of(ps((0, 0), (1, 0), (0, 1)))


class TestSharedDifference:
    @pytest.mark.parametrize("sequences, want", [
        ([], (True, None)),
        ([[3], [Fraction(1, 2)], []], (True, None)),
        ([[5], [0, 2, 4], [1, 3]], (True, 2)),
        ([[0, Fraction(1, 3)], [7], [1, Fraction(4, 3), Fraction(5, 3)]], (True, Fraction(1, 3))),
        ([[0, 1, 2], [0, 2]], (False, None)),
        ([[0, 1, 3]], (False, None)),
        ([[2], [0, 1, 3], [4, 5]], (False, None)),
    ])
    def test_table(self, sequences, want):
        assert shared_difference(sequences) == want


class TestProperties:
    @given(nonempty_pairs)
    @settings(max_examples=150)
    def test_commutative(self, pair):
        a, b = pair
        assert minkowski_sum(a, b) == minkowski_sum(b, a)

    @given(point_sets, point_sets, point_sets)
    @settings(max_examples=100)
    def test_associative(self, a, b, c):
        left = minkowski_sum(minkowski_sum(a, b), c)
        right = minkowski_sum(a, minkowski_sum(b, c))
        assert left == right

    @given(point_sets, points)
    @settings(max_examples=150)
    def test_singleton_preserves_cardinality(self, a, p):
        assert len(minkowski_sum(a, PointSet2D([p]))) == len(a)

    @given(point_sets, points)
    @settings(max_examples=150)
    def test_cover_stats_translation_invariant(self, a, p):
        assert cover_stats(a) == cover_stats(a.translate(p))

    @given(nonempty_pairs)
    @settings(max_examples=100)
    def test_linear_map_distributes_over_sum(self, pair):
        a, b = pair
        m = AffineMap2D.upper_triangular(2, 1, Fraction(1, 2))
        assert apply_map(minkowski_sum(a, b), m) == \
            minkowski_sum(apply_map(a, m), apply_map(b, m))

    @given(point_sets)
    @settings(max_examples=200)
    def test_cover_bounds(self, a):
        s = cover_stats(a)
        assert s.vertical_line_count * s.max_vertical_section >= len(a)
        assert s.horizontal_line_count * s.max_horizontal_section >= len(a)

    @given(point_sets)
    @settings(max_examples=200)
    def test_file_round_trip(self, a):
        assert loads_points(dumps_points(a)) == a

    @given(point_sets)
    @settings(max_examples=150)
    def test_apply_map_preserves_cardinality(self, a):
        m = AffineMap2D.upper_triangular(Fraction(2, 3), 5, -2, 1, Fraction(1, 7))
        assert len(apply_map(a, m)) == len(a)


class TestFileFormat:
    def test_fractions_comments_blanks(self):
        text = "# a comment\n\n1/2 -3\n0 5/7\n"
        got = loads_points(text)
        assert got == ps((Fraction(1, 2), -3), (0, Fraction(5, 7)))

    def test_canonical_order(self):
        out = dumps_points(ps((1, 0), (0, 5), (0, 1)))
        assert out == "0 1\n0 5\n1 0\n"

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            loads_points("0 0\nbogus\n")
        assert "line 2" in str(err.value)

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            loads_points("1/0 2\n")


class TestPointSetBasics:
    def test_deduplication_and_order(self):
        a = PointSet2D([(1, 1), (0, 0), (1, 1), (Fraction(2, 2), 1)])
        assert len(a) == 2
        assert list(a) == [Point2(0, 0), Point2(1, 1)]

    def test_immutable(self):
        a = ps((0, 0))
        with pytest.raises(AttributeError):
            a.points = ()

    @given(st.lists(points, min_size=0, max_size=6))
    @settings(max_examples=100)
    def test_cardinality_equals_distinct_points(self, pts):
        assert len(PointSet2D(pts)) == len(set(pts))


@dataclass(frozen=True, order=True)
class ReferencePoint2:
    """Point2 as it was before it was backed by a tuple: a frozen, ordered
    dataclass that normalizes both coordinates on every construction."""

    x: Rational
    y: Rational

    def __post_init__(self):
        object.__setattr__(self, "x", rat(self.x))
        object.__setattr__(self, "y", rat(self.y))

    def __add__(self, other: "ReferencePoint2") -> "ReferencePoint2":
        return ReferencePoint2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "ReferencePoint2") -> "ReferencePoint2":
        return ReferencePoint2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "ReferencePoint2":
        return ReferencePoint2(-self.x, -self.y)

    def scale(self, factor: Rational) -> "ReferencePoint2":
        return ReferencePoint2(self.x * factor, self.y * factor)

    def cross(self, other: "ReferencePoint2") -> Rational:
        return self.x * other.y - self.y * other.x

    def __repr__(self) -> str:
        return f"({rat_str(self.x)}, {rat_str(self.y)})"


point_coord = st.one_of(st.integers(-10**6, 10**6), mixed_rational)
coord_pairs = st.tuples(point_coord, point_coord)


def typed(value):
    """A value with its exact type, so that 1 and Fraction(1) differ."""
    if isinstance(value, (Point2, ReferencePoint2)):
        return type(value).__name__, typed(value.x), typed(value.y)
    return type(value), value


def same_point(got, want):
    assert type(got) is Point2 and type(want) is ReferencePoint2
    assert typed(got.x) == typed(want.x) and typed(got.y) == typed(want.y)


class TestPointMatchesReference:
    @given(st.lists(coord_pairs, min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_order_equality_hash_and_repr(self, pairs):
        got = [Point2(x, y) for x, y in pairs]
        want = [ReferencePoint2(x, y) for x, y in pairs]
        for p, r in zip(got, want):
            same_point(p, r)
            assert hash(p) == hash(r) == hash((r.x, r.y))
            assert repr(p) == repr(r) == str(p)
        assert [(p.x, p.y) for p in sorted(got)] == [(r.x, r.y) for r in sorted(want)]
        assert [p == q for p in got for q in got] == [r == s for r in want for s in want]
        assert [p < q for p in got for q in got] == [r < s for r in want for s in want]
        # equal hashes and equality give equal set iteration order
        assert [(p.x, p.y) for p in set(got)] == [(r.x, r.y) for r in set(want)]

    @given(coord_pairs, coord_pairs, point_coord)
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_values_and_types(self, a, b, factor):
        p, q = Point2(*a), Point2(*b)
        r, s = ReferencePoint2(*a), ReferencePoint2(*b)
        same_point(p + q, r + s)
        same_point(p - q, r - s)
        same_point(-p, -r)
        same_point(p.scale(factor), r.scale(factor))
        assert typed(p.cross(q)) == typed(r.cross(s))

    @given(coord_pairs)
    @settings(max_examples=100, deadline=None)
    def test_jsonify_form(self, a):
        p, r = Point2(*a), ReferencePoint2(*a)
        want = [rat_str(r.x), rat_str(r.y)]
        assert _jsonify(p) == want
        assert _jsonify({"anchor": p, "points": [p, (p,)]}) == \
            {"anchor": want, "points": [want, [want]]}

    @pytest.mark.parametrize("p", [Point2(0, 0), Point2(-3, Fraction(5, 7)),
                                   Point2(Fraction(-1, 2), 10**20)])
    def test_pickle_and_copy_round_trips(self, p):
        copies = [pickle.loads(pickle.dumps(p, protocol)) for protocol in
                  range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(p), copy.deepcopy(p)]
        for c in copies:
            assert type(c) is Point2 and c == p and typed(c) == typed(p)

    def test_floats_rejected(self):
        for make in (lambda: Point2(0.5, 0), lambda: Point2(0, 1.0),
                     lambda: Point2(1, 2).scale(0.5), lambda: PointSet2D([(0.5, 0)]),
                     lambda: (0.5, 0) in ps((0, 0)), lambda: ps((0, 0), (1, 2)).translate((0.5, 0))):
            with pytest.raises(TypeError, match="^float .* rejected"):
                make()

    @given(sets_of(point_coord, point_coord), coord_pairs)
    @settings(max_examples=200, deadline=None)
    def test_translate_is_the_set_of_moved_points(self, s, delta):
        got, want = s.translate(delta), PointSet2D(p + Point2(*delta) for p in s)
        assert [typed(p) for p in got.points] == [typed(p) for p in want.points]
        assert got == want and hash(got) == hash(want)
        assert all(p in got for p in want) and all(p in want for p in got)

    @pytest.mark.parametrize("delta, error", [("12", TypeError), (("1/2", 0), TypeError),
                                              ((0, "x"), TypeError), ((1,), IndexError)])
    def test_translate_takes_no_strings(self, delta, error):
        with pytest.raises(error):
            ps((0, 0), (Fraction(1, 3), 2)).translate(delta)

    def test_no_tuple_repetition(self):
        p = Point2(1, 2)
        for make in (lambda: p * 2, lambda: 2 * p, lambda: p * Fraction(1, 2), lambda: p * p):
            with pytest.raises(TypeError):
                make()

    def test_no_instance_dict(self):
        assert not hasattr(Point2(0, 0), "__dict__")
        with pytest.raises(AttributeError):
            Point2(0, 0).x = 1

    def test_equals_its_plain_tuple(self):
        """Pinned: a point is the tuple (x, y), so it equals and hashes like it."""
        assert Point2(1, 2) == (1, 2) and hash(Point2(1, 2)) == hash((1, 2))
        assert Point2(Fraction(4, 2), 0) == (2, 0) and type(Point2(Fraction(4, 2), 0).x) is int
        assert (1, 2) in ps((1, 2)) and (Fraction(2, 2), 2) in ps((1, 2))


def old_compress(x: PointSet2D) -> PointSet2D:
    """compress as it was before it built its points on the grid."""
    return PointSet2D((i, level) for level, xs in x.rows().items() for i in range(len(xs)))


def old_split(x: PointSet2D) -> tuple:
    """split_check's halves as it built them from rows(): the points on and
    below, and on and above, the lowest of the longest rows."""
    rows = x.rows()
    m = max(map(len, rows.values()))
    t = min(level for level, xs in rows.items() if len(xs) == m)
    return m, PointSet2D(p for p in x if p.y <= t), PointSet2D(p for p in x if p.y >= t)


def typed_sections(sections: dict) -> list:
    return [(typed(k), [typed(v) for v in vs]) for k, vs in sections.items()]


# each read runs on a fresh set, so that no read finds what another built
GRID_READS = {
    "len": len, "rows": lambda s: typed_sections(s.rows()),
    "columns": lambda s: typed_sections(s.columns()),
    "cover_stats": lambda s: cover_stats(s) if len(s) else None,
    "collinear_direction": lambda s: typed_or_none(collinear_direction(s)) if len(s) else None,
    "points": lambda s: [typed(p) for p in s.points], "repr": repr, "hash": hash,
    "members": lambda s: sorted(p for p in s.points if p in s),
}


def assert_born_like(make, want: PointSet2D) -> None:
    """Every read of a set born on the grid, built by make(), equals that of
    want, the PointSet2D of the expected points; so do == both ways and the
    membership of want's points."""
    for name, read in GRID_READS.items():
        assert read(make()) == read(want), name
    assert make() == want and want == make() and all(p in make() for p in want)


class TestGridBornSets:
    """minkowski_sum, translate, compress and the split halves hold their
    sets on the integer grid and build points on first use; each behaves as
    PointSet2D(its points), on int, negative, rational and mixed-denominator
    sets."""

    @given(kernel_sets, kernel_sets, coord_pairs)
    @settings(max_examples=200, deadline=None)
    def test_sum_and_translate(self, a, b, delta):
        d = Point2(*delta)
        assert_born_like(lambda: minkowski_sum(a, b), reference_minkowski_sum(a, b))
        assert_born_like(lambda: a.translate(delta), PointSet2D(p + d for p in a))
        assert_born_like(lambda: a.translate((delta[0], 0)), PointSet2D(p + (d.x, 0) for p in a))
        assert_born_like(lambda: minkowski_sum(a, b).translate(delta),
                         PointSet2D(p + d for p in reference_minkowski_sum(a, b)))

    @given(kernel_sets)
    @settings(max_examples=200, deadline=None)
    def test_compress_and_split_halves(self, a):
        assert_born_like(lambda: compress(a), old_compress(a))
        m, lower, upper = old_split(a)
        assert a._split()[0] == m
        assert_born_like(lambda: a._split()[1], lower)
        assert_born_like(lambda: a._split()[2], upper)

    def test_integral_sum_of_half_integer_sets(self):
        """A sum's grid is that of its summands, here halves, and need not be
        reduced: == and hash still see the integer points."""
        half = Fraction(1, 2)
        a, b = ps((half, half), (3 * half, half)), ps((half, -half), (-half, 3 * half))
        want = ps((1, 0), (2, 0), (0, 2), (1, 2))
        assert_born_like(lambda: minkowski_sum(a, b), want)
        assert_born_like(lambda: a.translate((half, -half)), ps((1, 0), (2, 0)))
        assert {minkowski_sum(a, b): 1}[want] == 1

    @pytest.mark.parametrize("mode", list(BoundMode), ids=lambda m: m.value)
    def test_counts_build_no_points(self, mode):
        s = gen_trapezoid(TrapezoidSpec(10, 61, 0, 1)) if mode is not BoundMode.ONE_DIMENSIONAL \
            else ps(*[(x, 2 * x) for x in range(40)])
        a, b = s.translate((3, -2)), s.translate((Fraction(1, 3), 5))
        if mode is BoundMode.DOUBLING:
            b = a
        with mock.patch.object(core, "_points", side_effect=AssertionError("points built")), \
                mock.patch.object(PointSet2D, "__init__", side_effect=AssertionError("set built")):
            got = (bound(mode, a, b).lhs, core.sumset_size(a, b), len(minkowski_sum(a, b)))
        assert got == (len(reference_minkowski_sum(a, b)),) * 3
