import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import nonempty_pairs, point_sets, rationals
from sumsetlab import (EmptySet, PointSet2D, compress, compression_chain,
                       cover_stats, gen_wild, minkowski_sum)


def ps(*pairs):
    return PointSet2D(pairs)


class TestCompress:
    def test_definition(self):
        assert compress(ps((0, 0), (5, 0), (2, 1))) == ps((0, 0), (1, 0), (0, 1))

    def test_wild_b_row_lengths(self):
        _, b = gen_wild(4)
        rows = compress(b).rows()
        assert {level: len(xs) for level, xs in rows.items()} == \
            {-2: 1, -1: 2, 0: 4, 1: 1, 2: 1}
        assert all(xs == list(range(len(xs))) for xs in rows.values())

    def test_fixed_point(self):
        c = compress(ps((0, 0), (3, 0), (1, 1), (0, 2), (4, 2)))
        assert compress(c) == c

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            compress(PointSet2D())

    @given(point_sets)
    @settings(max_examples=250)
    def test_conservation(self, x):
        c = compress(x)
        assert len(c) == len(x)
        assert {p.y for p in c} == {p.y for p in x}
        sx, sc = cover_stats(x), cover_stats(c)
        assert sc.max_horizontal_section == sx.max_horizontal_section

    @given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=12).map(PointSet2D))
    @settings(max_examples=250)
    def test_points_in_canonical_order(self, x):
        """compress as it was before it built its points in canonical order."""
        want = PointSet2D((i, level) for level, xs in x.rows().items() for i in range(len(xs)))
        got = compress(x)
        assert got.points == want.points and got == want and hash(got) == hash(want)
        assert [type(p.y) for p in got] == [type(p.y) for p in want]

    @given(point_sets)
    @settings(max_examples=150)
    def test_idempotent(self, x):
        assert compress(compress(x)) == compress(x)


class TestCompressionChain:
    def test_wild_pair_all_equal(self):
        assert compression_chain(*gen_wild(4)) == [17, 17, 17, 17]

    def test_gap_drops_after_compression(self):
        got = compression_chain(ps((0, 0), (2, 0)), ps((0, 0), (1, 0)))
        assert got == [4, 4, 3, 3]

    @given(nonempty_pairs)
    @settings(max_examples=250)
    def test_monotone_with_equal_tail(self, pair):
        v1, v2, v3, v4 = compression_chain(*pair)
        assert v1 >= v2 >= v3 >= v4
        assert v3 == v4

    @given(nonempty_pairs)
    @settings(max_examples=200)
    def test_compression_never_grows_sumsets(self, pair):
        a, b = pair
        assert len(minkowski_sum(compress(a), compress(b))) <= len(minkowski_sum(a, b))


def test_compression_never_grows_sumsets_exhaustive_3x3():
    """|c(A)+c(B)| <= |A+B| over every normalized pair of 3x3-grid subsets.

    compress() runs once per subset; the pairwise sumset sizes use an integer
    point encoding so the full quadratic sweep stays fast.
    """
    cells = [(x, y) for x in range(3) for y in range(3)]
    k = 16
    originals = []
    compressed = []
    for mask in range(1, 1 << 9):
        pts = [cells[i] for i in range(9) if mask >> i & 1]
        if min(x for x, _ in pts) != 0 or min(y for _, y in pts) != 0:
            continue
        c = compress(PointSet2D(pts))
        originals.append([x * k + y for x, y in pts])
        compressed.append([int(p.x) * k + int(p.y) for p in c])
    assert len(originals) == 400
    for ea, ca in zip(originals, compressed):
        for eb, cb in zip(originals, compressed):
            plain = len({p + q for p in ea for q in eb})
            squeezed = len({p + q for p in ca for q in cb})
            assert squeezed <= plain
