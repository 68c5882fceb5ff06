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
from hypothesis import example, given, settings
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


# core.lattice_keys and core.sumset_mask as they were before core._spread
# took over every shift-OR: the per-key reference loop, verbatim
def lattice_keys(pts, stride: int) -> list[int]:
    """The key x*stride + y of each int point (x, y), for a stride above
    every y >= 0; ascending keys are ascending (x, y)."""
    return [x * stride + y for x, y in pts]


def sumset_mask(keys_a, mask_b: int) -> int:
    """mask(A + B) from A's keys and B's bitset: the OR of mask_b shifted by
    each key of A.  Keys add like the points they pack only when no sum
    carries out of its row, which the callers' strides guarantee."""
    mask = 0
    for k in keys_a:
        mask |= mask_b << k
    return mask


class TestSpread:
    """core._spread against the per-key loop on the keys of every cell of
    the runs: masks that overlap their own shifts, runs of one and of many
    cells, and key steps above 1."""

    @given(st.integers(1, 1 << 40),
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 12)),
                    max_size=6),
           st.integers(1, 40), st.integers(1, 5))
    @example(0b1011, [(0, 0, 1), (1, 3, 1), (4, 0, 1)], 9, 1)  # one-cell runs
    @example(0b111, [(0, 0, 7), (1, -2, 5)], 11, 1)  # mask wider than a step
    @example(1 << 9 | 1, [(0, 0, 4), (2, 1, 3)], 7, 3)  # steps above 1
    @settings(max_examples=300, deadline=None)
    def test_matches_per_key_reference(self, mask, runs, step_x, step_y):
        keys = [x * step_x + (y + i) * step_y for x, y, k in runs for i in range(k)]
        base = min(keys, default=0)  # so every key is >= 0
        assert core._spread(mask, runs, step_x, step_y, base) == \
            sumset_mask([k - base for k in keys], mask)


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


@st.composite
def run_sets(draw):
    """Columns of up to 40 consecutive points on a grid of per-axis scales
    1-6, a column sometimes split in two runs; each set's grid is its own."""
    sx, sy = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cols = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-20, 20), st.integers(1, 40)),
                         min_size=1, max_size=3))
    return PointSet2D((Fraction(x, sx), Fraction(y + i, sy)) for x, y, k in cols for i in range(k))


# deltas whose denominators refine a grid of scale up to 6
refining_pairs = st.tuples(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
                           st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))


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
        with mock.patch.object(core, "_spread", side_effect=AssertionError("dense path")), \
                mock.patch.object(PointSet2D, "_column_runs", side_effect=AssertionError("runs")):
            assert_same_sumset(a, b)
        assert a._runs is None and b._runs is None

    def test_dense_path_is_taken_on_a_full_grid(self):
        """The run path: the grid's runs are walked once, and each sum spreads
        mask(B) over A's 4 runs, not over the keys of its 12 points."""
        grid = ps(*[(x, y) for x in range(4) for y in range(3)])
        with mock.patch.object(PointSet2D, "_column_runs", autospec=True,
                               side_effect=PointSet2D._column_runs) as walk, \
                mock.patch.object(core, "_spread", wraps=core._spread) as spread:
            assert_same_sumset(grid, grid)
            assert core.sumset_size(grid, grid) == 35  # the 7x5 grid
        assert [c.args[0] for c in walk.call_args_list] == [grid]
        assert grid._runs == ([(x, 0, 3) for x in range(4)], 0, 2)
        assert [c.args[1] for c in spread.call_args_list] == [grid._runs[0]] * 2

    @given(run_sets(), run_sets(), st.one_of(st.tuples(far_int, small_int), refining_pairs))
    @settings(max_examples=150, deadline=None)
    def test_run_heavy_sets(self, a, b, delta):
        """Long column runs on different grids, translates of sets whose runs
        are known, sums fed back as inputs, and diagonal images, whose
        columns are progressions of a step above 1."""
        assert_same_sumset(a, b)
        assert core.sumset_size(a, b) == len(reference_minkowski_sum(a, b))
        t = a.translate(delta)
        assert (t._runs is not None) == (a._runs is not None and t._ints()[:2] == a._ints()[:2])
        assert_same_sumset(t, b)
        s = minkowski_sum(b, a)
        small = ps(*a.points[:3])
        assert_same_sumset(s, small)
        assert core.sumset_size(small, s) == len(reference_minkowski_sum(small, s))
        stretch = AffineMap2D.diagonal(2, 3)
        assert_same_sumset(apply_map(a, stretch), b)
        assert_same_sumset(apply_map(a, stretch), apply_map(b, stretch))

    def test_diagonal_image_has_one_point_runs(self):
        """Under diag(2, 3), T(10,61,0,1)'s columns are progressions of step 3
        on the image's grid: 565 runs of one point, summed by the run path."""
        big = gen_trapezoid(TrapezoidSpec(10, 61, 0, 1))
        image = apply_map(big, AffineMap2D.diagonal(2, 3))
        assert core.sumset_size(image, image) == 2128
        assert len(image._runs[0]) == 565 and {k for _, _, k in image._runs[0]} == {1}
        assert minkowski_sum(image, image) == apply_map(minkowski_sum(big, big),
                                                        AffineMap2D.diagonal(2, 3))

    def test_translate_inherits_runs(self):
        """Once big's runs are known, a translate on its grid inherits them:
        no walk, and the kernel spreads over the inherited runs."""
        big = gen_trapezoid(TrapezoidSpec(10, 61, 0, 1))
        assert core.sumset_size(big, big) == 2128
        with mock.patch.object(PointSet2D, "_column_runs", side_effect=AssertionError("walk")), \
                mock.patch.object(core, "_spread", wraps=core._spread) as spread:
            moved = big.translate((3, -2))
            assert core.sumset_size(moved, big) == 2128
        assert [c.args[1] for c in spread.call_args_list] == [moved._runs[0]]
        assert moved._runs == ([(x + 3, y - 2, k) for x, y, k in big._runs[0]],
                               big._runs[1] - 2, big._runs[2] - 2)
        assert minkowski_sum(moved, big) == minkowski_sum(big, big).translate((3, -2))


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
        max_horizontal_section=max(len(v) for v in rows.values()),
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
        a = ps((0, 0))
        stats = cover_stats(a)
        assert (stats.vertical_line_count, len(a.rows())) == (1, 1)
        assert (stats.max_horizontal_section, max(map(len, a.columns().values()))) == (1, 1)
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
        assert s.vertical_line_count * max(map(len, a.columns().values())) >= len(a)
        assert len(a.rows()) * s.max_horizontal_section >= len(a)

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
                     lambda: (0.5, 0) in ps((0, 0)), lambda: ps((0, 0), (1, 2)).translate((0.5, 0)),
                     lambda: Point2(1, 2) + (0.5, 0), lambda: Point2(1, 2) - (0.5, 0),
                     lambda: Point2(1, 2) + (Fraction(1, 2), 0.5),
                     lambda: sumsetlab.ConvexPolygon([(0, 0), (1, 0), (0, 1)]).translate((0.5, 0))):
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
                                              ((0, "x"), TypeError), ((1,), TypeError),
                                              ((1, 2, 3), TypeError)])
    def test_translate_takes_no_strings(self, delta, error):
        with pytest.raises(error):
            ps((0, 0), (Fraction(1, 3), 2)).translate(delta)

    def test_only_pairs_are_points(self):
        """A tuple of another length is the library's TypeError wherever a
        pair is taken, never cut down to its first two entries."""
        p = Point2(1, 2)
        for make in (lambda: p + (1, 2, 3), lambda: p - (1, 2, 3), lambda: (1, 2, 3) + p,
                     lambda: p + (1,), lambda: ps((0, 0)).translate((1, 2, 3)),
                     lambda: PointSet2D([(0, 0, 5), (1, 1)]), lambda: PointSet2D([(1,)]),
                     lambda: (0, 0, 5) in ps((0, 0))):
            with pytest.raises(TypeError, match=r"pair \(x, y\), got \("):
                make()
        for make in (lambda: p + {1, 5}, lambda: ps((0, 0)).translate({Fraction(1, 2), 3}),
                     lambda: PointSet2D([{Fraction(1, 3), 2}])):  # unordered, so no pair
            with pytest.raises(TypeError):
                make()

    def test_no_tuple_repetition(self):
        p = Point2(1, 2)
        for make in (lambda: p * 2, lambda: 2 * p, lambda: p * Fraction(1, 2), lambda: p * p):
            with pytest.raises(TypeError):
                make()

    def test_tuple_on_the_left_adds(self):
        """A pair on the left of + adds like a point on the right: Point2
        subclasses tuple, so its __radd__ runs before tuple concatenation."""
        p = Point2(3, 4)
        got = (1, 2) + p
        assert got == Point2(4, 6) and type(got) is Point2
        assert typed((Fraction(1, 2), 0) + p) == typed(Point2(Fraction(7, 2), 4))
        with pytest.raises(TypeError, match="^float .* rejected"):
            (0.5, 0) + p
        with pytest.raises(TypeError):
            (1, 2) - p

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


nonzero_rational = mixed_rational.filter(bool)
affine_maps = st.one_of(
    st.builds(AffineMap2D.diagonal, nonzero_rational, nonzero_rational, mixed_rational,
              mixed_rational),
    st.builds(AffineMap2D.upper_triangular, nonzero_rational, mixed_rational, nonzero_rational,
              mixed_rational, mixed_rational),
    st.tuples(*[mixed_rational] * 6).filter(lambda c: c[0] * c[3] != c[1] * c[2])
    .map(lambda c: AffineMap2D(*c)),
)


def inverse_map(m: AffineMap2D) -> AffineMap2D:
    det = m.a11 * m.a22 - m.a12 * m.a21
    a11, a12, a21, a22 = (Fraction(v) / det for v in (m.a22, -m.a12, -m.a21, m.a11))
    return AffineMap2D(a11, a12, a21, a22, -(a11 * m.tx + a12 * m.ty), -(a21 * m.tx + a22 * m.ty))


# a map that mixes both axes, and back
GENERAL_MAP = AffineMap2D(Fraction(2, 3), 1, Fraction(-1, 2), 3, Fraction(1, 5), -2)
GENERAL_INVERSE = inverse_map(GENERAL_MAP)


class TestGridBornSets:
    """minkowski_sum, translate, apply_map, compress and the split halves
    hold their sets on the integer grid and build points on first use; each
    behaves as PointSet2D(its points), on int, negative, rational and
    mixed-denominator sets."""

    @given(kernel_sets, kernel_sets, coord_pairs)
    @settings(max_examples=200, deadline=None)
    def test_sum_and_translate(self, a, b, delta):
        d = Point2(*delta)
        assert_born_like(lambda: minkowski_sum(a, b), reference_minkowski_sum(a, b))
        assert_born_like(lambda: a.translate(delta), PointSet2D(p + d for p in a))
        assert_born_like(lambda: a.translate((delta[0], 0)), PointSet2D(p + (d.x, 0) for p in a))
        assert_born_like(lambda: minkowski_sum(a, b).translate(delta),
                         PointSet2D(p + d for p in reference_minkowski_sum(a, b)))

    @given(kernel_sets, affine_maps)
    @settings(max_examples=300, deadline=None)
    def test_images(self, a, m):
        """apply_map(a, m) against the image built point by point, which finds
        the reduced grid: the lcm of each axis' denominators."""
        inverse = inverse_map(m)
        assert m.compose(inverse) == AffineMap2D()
        want = PointSet2D(m(p) for p in a)
        assert_born_like(lambda: apply_map(a, m), want)
        assert apply_map(a, m)._ints() == want._ints()
        back = PointSet2D(inverse(p) for p in want)
        assert_born_like(lambda: apply_map(apply_map(a, m), inverse), back)
        assert apply_map(apply_map(a, m), inverse)._ints() == back._ints()

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

    def test_images_build_no_points(self):
        t = gen_trapezoid(TrapezoidSpec(10, 61, 0, 1))
        m = AffineMap2D.upper_triangular(Fraction(3, 2), Fraction(-5, 3), Fraction(4, 3),
                                         Fraction(1, 7), 2)
        want = PointSet2D(m(p) for p in t)
        with mock.patch.object(core, "_points", side_effect=AssertionError("points built")), \
                mock.patch.object(PointSet2D, "__init__", side_effect=AssertionError("set built")):
            image = apply_map(t, m)
            got = (len(image), image._ints(), apply_map(image, inverse_map(m))._ints())
        assert got == (len(want), want._ints(), t._ints())
        assert want._ints()[:2] == (42, 3)


def births(x: PointSet2D) -> list:
    """x as each birth makes it: from its points in two orders, as sums, as
    translates, one of them back from a finer grid that it keeps, and as
    images, one of them back from a map that mixes both axes."""
    d = (Fraction(1, 2), Fraction(-1, 3))
    return [PointSet2D(x.points), PointSet2D(x.points[::-1]), minkowski_sum(x, ps((0, 0))),
            minkowski_sum(ps((1, -1)), x).translate((-1, 1)), x.translate((0, 0)),
            x.translate(d).translate((-d[0], -d[1])), apply_map(x, AffineMap2D()),
            apply_map(apply_map(x, GENERAL_MAP), GENERAL_INVERSE)]


def probes(x: PointSet2D) -> list:
    """x's points and points next to them, absent from x or off its grid."""
    shifts = [(0, 0), (1, 0), (0, -1), (Fraction(1, 3), 0), (0, Fraction(1, 2))]
    return [p + s for p in x.points for s in shifts]


def assert_same_set(sets: list, want: PointSet2D) -> None:
    """==, hash and `in` agree on every set in sets, each holding want's points."""
    members, near = set(want.points), probes(want)
    for s in sets:
        assert s == want and want == s and hash(s) == hash(want)
        assert [p in s for p in near] == [p in members for p in near]


class TestEqualityAcrossBirths:
    """== and hash compare the canonical points, and `in` bisects them, so a
    set answers alike whichever way it was born: from points, as a sum, a
    translate, an affine image, a compression or a split half."""

    @given(kernel_sets)
    @settings(max_examples=150, deadline=None)
    def test_every_birth_is_the_same_set(self, x):
        assert_same_set(births(x), x)
        assert_same_set([compress(x)] + births(compress(x)), old_compress(x))
        for got, want in zip(x._split()[1:], old_split(x)[1:]):
            assert_same_set([got] + births(got), want)
        if len(x) > 1:
            smaller = PointSet2D(x.points[1:])
            assert all(s != smaller and smaller != s for s in births(x))
            assert x.points[0] not in smaller

    def test_off_grid_points_are_absent_from_an_int_set(self):
        x = ps((0, 0), (1, 0), (2, 1))
        for s in [x] + births(x):
            assert (Fraction(1, 3), 0) not in s and (1, Fraction(1, 2)) not in s
            assert (Fraction(3, 3), 0) in s and (3, 0) not in s and (-1, 0) not in s

    def test_integral_sum_of_half_integer_sets(self):
        half = Fraction(1, 2)
        a, b = ps((half, half), (3 * half, half)), ps((half, -half), (-half, 3 * half))
        total = minkowski_sum(a, b)
        assert total._ints()[:2] == (2, 2)  # the summands' grid, not reduced
        assert_same_set([total] + births(total), ps((1, 0), (2, 0), (0, 2), (1, 2)))


# input checks no other test reaches: name -> (call, exception type, message)
INPUT_CHECKS = {
    "cover_stats": (lambda: cover_stats(PointSet2D()), EmptySet, "cover_stats needs a nonempty set"),
    "collinear_direction": (lambda: collinear_direction(PointSet2D()),
                            EmptySet, "collinear_direction needs a nonempty set"),
    "arithmetic_progression_of": (lambda: arithmetic_progression_of(PointSet2D()),
                                  EmptySet, "arithmetic_progression_of needs a nonempty set"),
}


@pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
def test_input_checks(name):
    call, error, message = INPUT_CHECKS[name]
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
