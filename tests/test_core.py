import copy
import os
import pickle
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import nonempty_pairs, point_sets, points
from sumsetlab import (AffineMap2D, Axis, EmptySet, InvalidSpec, NotCollinear,
                       ParseError, Point2, PointSet2D, apply_map,
                       arithmetic_progression_of,
                       cover_stats, dumps_points, gen_trapezoid, gen_wild,
                       loads_points, minkowski_sum, section)
import sumsetlab
from sumsetlab import core
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


class TestSection:
    def test_wild_b_level_zero(self):
        _, b = gen_wild(4)
        assert section(b, Axis.HORIZONTAL, 0) == ps((0, 0), (1, 0), (2, 0), (4, 0))

    def test_missing_level_is_empty(self):
        assert len(section(ps((0, 0), (1, 1)), Axis.HORIZONTAL, 7)) == 0

    def test_vertical_section_of_square(self):
        t = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        assert section(t, Axis.VERTICAL, 1) == ps((1, 0), (1, 1))


class TestApplyMap:
    def test_identity(self):
        x = ps((0, 0), (3, 4), (1, 2))
        assert apply_map(x, AffineMap2D.identity()) == x

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
                     lambda: (0.5, 0) in ps((0, 0))):
            with pytest.raises(TypeError):
                make()

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
