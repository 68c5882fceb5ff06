import json
import random
from dataclasses import replace
from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import nonempty_pairs, point_sets
from sumsetlab import (BoundMode, InvalidSpec, SweepConfig, bound, chain_diagnostic, compress,
                       compression_chain, encode_pair, figure_sets, gen_trapezoid, gen_wild,
                       merge_reports, oracle_pair_check, run_sharded, search, sweep)
from sumsetlab import core
from sumsetlab.classify import Verdict, classify_1d, classify_thm2, classify_thm3
from sumsetlab.core import (Point2, PointSet2D, _spread, bit_mask, collinear_direction,
                            cover_stats, parallel_directions, sumset_size)
from sumsetlab.errors import ConsistencyError
from sumsetlab.families import CaseCSpec, EpsilonSpec, TrapezoidSpec, gen_case_c, gen_eps_trapezoid
from test_core import counting, lattice_keys, sumset_mask


def cfg(**kw):
    base = dict(grid_width=2, grid_height=2, mode=BoundMode.LINES_GS)
    base.update(kw)
    return SweepConfig(**base)


class TestSweepSmall:
    def test_2x2_lines_clean_and_classified(self):
        rep = sweep(cfg())
        assert rep.violations == [] and rep.unclassified == []
        # every two-dimensional extremal pair lands in the trapezoid family
        assert rep.classified_tally.get("TrapezoidPair", 0) > 0
        assert "ExtremalUnclassified" not in rep.classified_tally

    def test_2x2_sections_clean(self):
        rep = sweep(cfg(mode=BoundMode.SECTIONS_GS))
        assert rep.ok
        assert rep.wild_regime_count > 0

    def test_3x3_sections_wild_regime_nonempty(self):
        rep = sweep(cfg(grid_width=3, grid_height=3, mode=BoundMode.SECTIONS_GS))
        assert rep.ok
        assert rep.wild_regime_count > 0

    def test_doubling_mode(self):
        rep = sweep(cfg(mode=BoundMode.DOUBLING, grid_width=3, grid_height=2))
        assert rep.ok and rep.violations == []
        assert rep.pairs_checked < 100  # single sets, not pairs

    def test_one_dimensional_mode(self):
        rep = sweep(cfg(mode=BoundMode.ONE_DIMENSIONAL, grid_width=3, grid_height=3))
        assert rep.ok
        assert rep.classified_tally.get("OneDimensional", 0) == rep.extremal_count

    def test_min_mn_filter(self):
        full = sweep(cfg(mode=BoundMode.SECTIONS_GS))
        filtered = sweep(cfg(mode=BoundMode.SECTIONS_GS, min_mn=2))
        assert filtered.pairs_checked < full.pairs_checked
        assert filtered.wild_regime_count == 0

    def test_size_caps(self):
        rep = sweep(cfg(max_size_a=2, max_size_b=2))
        assert rep.ok and rep.pairs_checked > 0

    @pytest.mark.parametrize("caps", [dict(max_size_a=0), dict(max_size_a=-1),
                                      dict(max_size_b=0), dict(max_size_a=1, max_size_b=-3)])
    def test_size_cap_below_one_rejected(self, caps):
        """A cap below 1 leaves no subset, so the sweep would check nothing."""
        with pytest.raises(InvalidSpec, match="max_size_a and max_size_b must be >= 1"):
            cfg(**caps)

    def test_require_two_dimensional(self):
        rep = sweep(cfg(grid_width=3, grid_height=2, require_two_dimensional=True))
        assert rep.ok
        assert rep.classified_tally.get("OneDimensional", 0) == 0
        assert rep.classified_tally.get("OutOfHypothesis", 0) == 0


class TestSharding:
    def test_merge_equals_single_run(self):
        base = cfg(grid_width=3, grid_height=2, mode=BoundMode.SECTIONS_GS)
        single = sweep(base)
        for count in (2, 3, 5):
            merged = run_sharded(cfg(grid_width=3, grid_height=2,
                                     mode=BoundMode.SECTIONS_GS, shard_count=count))
            assert merged == single

    def test_merge_is_order_independent(self):
        parts = [sweep(cfg(shard_index=i, shard_count=3)) for i in range(3)]
        assert merge_reports(parts) == merge_reports(list(reversed(parts)))

    def test_process_pool_matches_serial(self):
        config = cfg(grid_width=3, grid_height=2, shard_count=4)
        assert run_sharded(config, jobs=2) == run_sharded(config, jobs=1)

    def test_randomized_configs_shard_invariant(self):
        rng = random.Random(7)
        for _ in range(25):
            width, height = rng.choice([(2, 2), (3, 2), (2, 3)])
            mode = rng.choice([BoundMode.LINES_GS, BoundMode.SECTIONS_GS])
            count = rng.randint(2, 5)
            base = SweepConfig(grid_width=width, grid_height=height, mode=mode)
            sharded = run_sharded(SweepConfig(grid_width=width, grid_height=height,
                                              mode=mode, shard_count=count))
            assert sharded == sweep(base)

    def test_bad_shard_index(self):
        with pytest.raises(InvalidSpec):
            cfg(shard_index=3, shard_count=3)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(InvalidSpec, match="jobs must be >= 1"):
            run_sharded(cfg(), jobs=jobs)

    def test_mode_must_be_a_bound_mode(self):
        """A mode's string value used to run the lines sweep under any label."""
        with pytest.raises(InvalidSpec, match="mode must be a BoundMode"):
            SweepConfig(2, 2, "sections")


class TestHarvest:
    def test_generated_family_rediscovered(self):
        config = cfg(grid_width=3, grid_height=3, mode=BoundMode.LINES_GS,
                     collect_extremal=True)
        rep = sweep(config)
        a = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        b = gen_trapezoid(TrapezoidSpec(3, 2, 0, 0))
        enc = (tuple((int(p.x), int(p.y)) for p in a),
               tuple((int(p.x), int(p.y)) for p in b))
        assert enc in set(rep.extremal_pairs)

    def test_encode_pair_is_file_syntax(self):
        a, b = gen_wild(4)
        text = encode_pair(a, b)
        assert text.startswith("# set: A\n")
        from sumsetlab import loads_points
        chunk_a, chunk_b = text.split("# set: B\n")
        assert loads_points(chunk_a) == a
        assert loads_points(chunk_b) == b


class TestOraclePairCheck:
    def test_wild_pair(self):
        record = oracle_pair_check(*gen_wild(4))
        assert record["sumset_size"] == 17
        assert record["bounds"]["sections"]["lhs"] == "17"
        assert record["bounds"]["sections"]["extremal"] is True
        assert "1d" not in record["bounds"]

    def test_figure_two(self):
        a = gen_eps_trapezoid(EpsilonSpec(TrapezoidSpec(4, 16, 1, 2),
                                          frozenset({8, 12, 14})))
        b = gen_trapezoid(TrapezoidSpec(4, 7, 1, 2))
        record = oracle_pair_check(a, b)
        assert record["bounds"]["sections"]["rhs"] == "133"
        assert record["classifications"]["thm3"]["verdict"] == "EpsTrapezoidPair"

    def test_figure_three(self):
        a, b = gen_case_c(CaseCSpec(4, 4, 7))
        record = oracle_pair_check(a, b)
        assert record["bounds"]["sections"]["rhs"] == "133"
        assert record["bounds"]["sections"]["extremal"] is True
        assert record["classifications"]["thm3"]["verdict"] == "CaseCPair"

    def test_doubling_included_for_equal_sets(self):
        t = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        record = oracle_pair_check(t, t)
        assert record["bounds"]["doubling"]["extremal"] is True

    def test_chains_included(self):
        t = gen_trapezoid(TrapezoidSpec(2, 2, 0, 0))
        record = oracle_pair_check(t, t)
        assert record["chain_diagnostic"] == ["9", "9", "9", "9"]
        assert record["compression_chain"] == ["9", "9", "9", "9"]

    @pytest.mark.parametrize("name", ["figure 1 doubled", "figure 2", "figure 3 (case-C(4,4,7))",
                                      "T(10,61,0,1) and its (1/5, 0) translate"])
    def test_one_count_and_one_sections_pass_per_axis(self, name):
        """A record makes one count of (A, B) plus the compression chain's count
        of the compressed pair, and reads the pair's sections once per axis
        (grid_sections calls on other sets, such as the cached case-C forms,
        are not the record's); its JSON is the reference record's."""
        big = gen_trapezoid(TrapezoidSpec(10, 61, 0, 1))
        a, b = {"figure 1 doubled": [figure_sets(1)[0][1]] * 2,
                "figure 2": [s for _, s in figure_sets(2)],
                "figure 3 (case-C(4,4,7))": gen_case_c(CaseCSpec(4, 4, 7)),
                "T(10,61,0,1) and its (1/5, 0) translate":
                    (big, big.translate((Fraction(1, 5), 0)))}[name]
        a, b = a.translate((2, -3)), b.translate((2, -3))
        with counting(core, "_packed_sum") as counts, counting(core, "grid_sections") as sections:
            record = oracle_pair_check(a, b)
        assert [c.args[:2] for c in counts.call_args_list] == [(a, b), (compress(a), compress(b))]
        axes = [c.args[2] for c in sections.call_args_list if c.args[0] is a and c.args[1] is b]
        assert sorted(axes) == [False, True]
        assert json.dumps(record) == json.dumps(reference_oracle_pair_check(a, b))

    @given(pair=st.one_of(nonempty_pairs, point_sets.map(lambda s: (s, PointSet2D(s.points)))))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_record(self, pair):
        """Every record, equal sets included, is the reference's, byte for byte."""
        assert json.dumps(oracle_pair_check(*pair)) == json.dumps(reference_oracle_pair_check(*pair))


def reference_oracle_pair_check(a: PointSet2D, b: PointSet2D) -> dict:
    """search.oracle_pair_check before it counted once: each bound, chain and
    classifier counts |A+B| and reads the pair's sections itself."""
    record: dict = {
        "size_a": len(a),
        "size_b": len(b),
        "sumset_size": sumset_size(a, b),
        "bounds": {},
        "classifications": {},
    }
    da, db = collinear_direction(a), collinear_direction(b)
    applicable = [BoundMode.LINES_GS, BoundMode.SECTIONS_GS]
    if a == b:
        applicable.append(BoundMode.DOUBLING)
    if da is not None and db is not None and parallel_directions(da, db):
        applicable.append(BoundMode.ONE_DIMENSIONAL)
    for mode in applicable:
        record["bounds"][mode.value] = bound(mode, a, b).to_json_dict()
    record["chain_diagnostic"] = [str(v) for v in chain_diagnostic(a, b)]
    record["compression_chain"] = [str(v) for v in compression_chain(a, b)]
    stats_a, stats_b = cover_stats(a), cover_stats(b)
    if stats_a.is_two_dimensional and stats_b.is_two_dimensional:
        record["classifications"]["thm2"] = classify_thm2(a, b).to_json_dict()
        if stats_a.max_horizontal_section >= 2 and stats_b.max_horizontal_section >= 2:
            record["classifications"]["thm3"] = classify_thm3(a, b).to_json_dict()
    if BoundMode.ONE_DIMENSIONAL in applicable:
        record["classifications"]["1d"] = classify_1d(a, b).to_json_dict()
    return record


# ---------------------------------------------------------------------------
# the bitset kernel against the set-comprehension sweep it replaced
# ---------------------------------------------------------------------------

GRID_SHAPES = [(w, h) for w in range(1, 17) for h in range(1, 17) if w * h <= 16]


@st.composite
def grid_pair(draw):
    width, height = draw(st.sampled_from(GRID_SHAPES))
    cells = st.sampled_from([(x, y) for x in range(width) for y in range(height)])
    a = draw(st.lists(cells, min_size=1, max_size=width * height, unique=True))
    b = draw(st.lists(cells, min_size=1, max_size=width * height, unique=True))
    return height, a, b


FULL_1X16 = [(0, y) for y in range(16)]
FULL_16X1 = [(x, 0) for x in range(16)]


@settings(max_examples=300, deadline=None)
@given(grid_pair())
@example((16, FULL_1X16, FULL_1X16))
@example((1, FULL_16X1, FULL_16X1))
@example((16, [(0, 15)], FULL_1X16))
@example((1, [(15, 0)], [(0, 0), (15, 0)]))
def test_bitset_sumset_size_matches_set_comprehension(case):
    height, a, b = case
    stride = 2 * height - 1
    cells_a = [(x, y, 1) for x, y in a]  # A's cells as one-point runs, as _Lanes spreads
    lhs = _spread(bit_mask(lattice_keys(b, stride)), cells_a, stride, 1, 0).bit_count()
    assert lhs == len({(xa + xb, ya + yb) for xa, ya in a for xb, yb in b})


def _mode_m(sub, mode):
    """search._mode_m, copied as it was before _sweep read the field itself."""
    return sub.sections_m if mode is BoundMode.SECTIONS_GS else sub.lines_m


def _reference_bound_holds_tight(mode, a, b, lhs):
    """(violated, extremal) via exact integer cross-multiplication."""
    if mode is BoundMode.ONE_DIMENSIONAL:
        rhs = a.size + b.size - 1
        return lhs < rhs, lhs == rhs
    if mode is BoundMode.DOUBLING:
        m = a.lines_m
        lhs_m = lhs * m
        rhs_m = (2 * a.size - m) * (2 * m - 1)
        return lhs_m < rhs_m, lhs_m == rhs_m
    m, n = _mode_m(a, mode), _mode_m(b, mode)
    lhs_mn = lhs * m * n
    rhs_mn = (a.size * n + b.size * m - m * n) * (m + n - 1)
    return lhs_mn < rhs_mn, lhs_mn == rhs_mn


def _reference_classify_extremal(mode, a, b, report):
    ps_a, ps_b = PointSet2D(a.pts), PointSet2D(b.pts)
    both_2d = a.two_dimensional and b.two_dimensional
    both_1d_parallel = (
        a.direction is not None and b.direction is not None
        and parallel_directions(Point2(*a.direction), Point2(*b.direction))
    )
    if mode is BoundMode.SECTIONS_GS and (a.sections_m == 1 or b.sections_m == 1):
        report.wild_regime_count += 1
        return
    if both_2d:
        cls = classify_thm2(ps_a, ps_b) if mode in (BoundMode.LINES_GS, BoundMode.DOUBLING) \
            else classify_thm3(ps_a, ps_b)
        tag = cls.verdict.value
        report.classified_tally[tag] = report.classified_tally.get(tag, 0) + 1
        if cls.verdict is Verdict.EXTREMAL_UNCLASSIFIED:
            report.unclassified.append(encode_pair(ps_a, ps_b))
        elif cls.verdict is Verdict.NOT_EXTREMAL:
            raise ConsistencyError("sweep extremality disagrees with classifier")
        return
    if both_1d_parallel:
        cls = classify_1d(ps_a, ps_b)
        if not cls.details["equality"]:
            raise ConsistencyError("sweep extremality disagrees with 1d characterization")
        tag = cls.verdict.value
        report.classified_tally[tag] = report.classified_tally.get(tag, 0) + 1
        return
    report.classified_tally[search.OUT_OF_HYPOTHESIS] = \
        report.classified_tally.get(search.OUT_OF_HYPOTHESIS, 0) + 1


def reference_sweep(config):
    """The sweep as it was before the bitset kernel: one Python set of
    x*k + y encoded sums per pair, filters inside the pair loop."""
    subs_a = search.enumerate_subsets(config.grid_width, config.grid_height,
                                      config.max_size_a, config.require_two_dimensional)
    if config.mode is BoundMode.DOUBLING:
        subs_b = None
    else:
        subs_b = search.enumerate_subsets(config.grid_width, config.grid_height,
                                          config.max_size_b, config.require_two_dimensional)

    k = 2 * (config.grid_width + config.grid_height)
    report = search.SweepReport(extremal_pairs=[] if config.collect_extremal else None)

    for idx, a in enumerate(subs_a):
        if idx % config.shard_count != config.shard_index:
            continue
        enc_a = [x * k + y for x, y in a.pts]
        b_iter = [a] if config.mode is BoundMode.DOUBLING else subs_b
        for b in b_iter:
            if config.mode is BoundMode.ONE_DIMENSIONAL:
                if a.direction is None or b.direction is None:
                    continue
                da, db = a.direction, b.direction
                if da != (0, 0) and db != (0, 0) and da[0] * db[1] - da[1] * db[0] != 0:
                    continue
            if config.min_mn > 1 and (_mode_m(a, config.mode) < config.min_mn
                                      or _mode_m(b, config.mode) < config.min_mn):
                continue
            report.pairs_checked += 1
            lhs = len({p + x * k + y for p in enc_a for x, y in b.pts})
            violated, extremal = _reference_bound_holds_tight(config.mode, a, b, lhs)
            if violated:
                report.violations.append(encode_pair(PointSet2D(a.pts), PointSet2D(b.pts)))
                continue
            if extremal:
                report.extremal_count += 1
                if report.extremal_pairs is not None:
                    report.extremal_pairs.append((a.pts, b.pts))
                _reference_classify_extremal(config.mode, a, b, report)
    report.violations.sort()
    report.unclassified.sort()
    return report


# Together the variants cover min_mn=2, both size caps,
# require_two_dimensional and 1, 2 and 3 shards; every run collects its
# extremal pairs, so report equality compares their order too.
SWEEP_VARIANTS = [
    dict(),
    dict(min_mn=2, shard_count=2),
    dict(max_size_a=4, max_size_b=3, shard_count=3),
    dict(require_two_dimensional=True, max_size_a=5),
]


@pytest.mark.parametrize("mode", list(BoundMode), ids=lambda m: m.value)
@pytest.mark.parametrize("grid", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=lambda g: "%dx%d" % g)
def test_sweep_matches_reference_loop(grid, mode):
    for variant in SWEEP_VARIANTS:
        base = cfg(grid_width=grid[0], grid_height=grid[1], mode=mode,
                   collect_extremal=True, **variant)
        for index in range(base.shard_count):
            config = replace(base, shard_index=index)
            assert sweep(config) == reference_sweep(config), config


# ---------------------------------------------------------------------------
# the reflection-quotiented sweep against the bitset sweep it replaced
# ---------------------------------------------------------------------------

def _raw_rhs(mode, a, size_b, m_b):
    """Bound rhs num/den (den > 0) for A and a B of class (|B|, m_B); doubling is lines with B = A."""
    if mode is BoundMode.ONE_DIMENSIONAL:
        return a.size + size_b - 1, 1
    m = _mode_m(a, mode)
    return (a.size * m_b + size_b * m - m * m_b) * (m + m_b - 1), m * m_b


def _raw_classify_extremal(mode, a, b, report):
    if mode is BoundMode.SECTIONS_GS and (a.sections_m == 1 or b.sections_m == 1):
        report.wild_regime_count += 1
        return
    tag = search.OUT_OF_HYPOTHESIS  # needs no point sets, so none are built for it
    if a.two_dimensional and b.two_dimensional:
        ps_a, ps_b = PointSet2D(a.pts), PointSet2D(b.pts)
        cls = search.classify_thm2(ps_a, ps_b) if mode in (BoundMode.LINES_GS, BoundMode.DOUBLING) \
            else search.classify_thm3(ps_a, ps_b)
        if cls.verdict is Verdict.EXTREMAL_UNCLASSIFIED:
            report.unclassified.append(encode_pair(ps_a, ps_b))
        elif cls.verdict is Verdict.NOT_EXTREMAL:
            raise ConsistencyError("sweep extremality disagrees with classifier")
        tag = cls.verdict.value
    elif search._parallel(a.direction, b.direction):
        cls = search.classify_1d(PointSet2D(a.pts), PointSet2D(b.pts))
        if not cls.details["equality"]:
            raise ConsistencyError("sweep extremality disagrees with 1d characterization")
        tag = cls.verdict.value
    report.classified_tally[tag] = report.classified_tally.get(tag, 0) + 1


def raw_sweep(config):
    """The bitset sweep before the reflection quotient: every A's row is
    computed, and each side's list is enumerated on its own."""
    mode = config.mode
    subs_a = search.enumerate_subsets(config.grid_width, config.grid_height,
                                      config.max_size_a, config.require_two_dimensional)
    same_lists = mode is BoundMode.DOUBLING or config.max_size_b == config.max_size_a
    subs_b = subs_a if same_lists else search.enumerate_subsets(
        config.grid_width, config.grid_height, config.max_size_b, config.require_two_dimensional)
    # shards split the unfiltered A list, so every shard keeps its pairs
    chosen_a = [a for idx, a in enumerate(subs_a)
                if idx % config.shard_count == config.shard_index
                and _mode_m(a, mode) >= config.min_mn]

    stride = 2 * config.grid_height - 1
    classes = {}  # (|B|, m_B) -> index
    rows_b = []  # (B, mask(B), class index), in enumeration order
    for b in subs_b:
        m_b = _mode_m(b, mode)
        if m_b >= config.min_mn:
            cls = classes.setdefault((b.size, m_b), len(classes))
            rows_b.append((b, bit_mask(lattice_keys(b.pts, stride)), cls))

    report = search.SweepReport(extremal_pairs=[] if config.collect_extremal else None)
    for a in chosen_a:
        keys_a = lattice_keys(a.pts, stride)
        if mode is BoundMode.DOUBLING:
            rows = [(a, bit_mask(keys_a), classes[a.size, _mode_m(a, mode)])]
        elif mode is BoundMode.ONE_DIMENSIONAL:
            rows = [row for row in rows_b if search._parallel(a.direction, row[0].direction)]
        else:
            rows = rows_b
        report.pairs_checked += len(rows)
        rhs = [_raw_rhs(mode, a, size_b, m_b) for size_b, m_b in classes]
        lo = [num // den for num, den in rhs]
        for b, mask_b, cls in rows:
            lhs = sumset_mask(keys_a, mask_b).bit_count()
            if lhs > lo[cls]:
                continue
            num, den = rhs[cls]
            if lhs * den < num:
                report.violations.append(encode_pair(PointSet2D(a.pts), PointSet2D(b.pts)))
            elif lhs * den == num:
                report.extremal_count += 1
                if report.extremal_pairs is not None:
                    report.extremal_pairs.append((a.pts, b.pts))
                _raw_classify_extremal(mode, a, b, report)
    report.violations.sort()
    report.unclassified.sort()
    return report


def test_quotient_computes_one_row_per_orbit(monkeypatch):
    # 3x3 has 400 normalized subsets in 138 reflection orbits; the sweep
    # counts a row in one lane-packed spread, raw_sweep with one per-key
    # reference call per B
    rows, spreads, keys_seen = [], [], []
    counts, spread, kernel = search._Lanes.counts, search._spread, sumset_mask
    monkeypatch.setattr(search._Lanes, "counts",
                        lambda lanes, cells, stride: rows.append(1) or counts(lanes, cells, stride))
    monkeypatch.setattr(search, "_spread", lambda *args: spreads.append(1) or spread(*args))
    monkeypatch.setitem(globals(), "sumset_mask",  # raw_sweep's reference
                        lambda keys, mask: keys_seen.append(tuple(keys)) or kernel(keys, mask))
    config = cfg(grid_width=3, grid_height=3)
    rep = sweep(config)
    assert (len(rows), len(spreads), len(keys_seen)) == (138, 138, 0)
    want = raw_sweep(config)
    assert (len(set(keys_seen)), len(keys_seen)) == (400, 400 * 400)
    assert rep == want


def test_lane_width_covers_every_grid():
    # A+B spans (2W-1)(2H-1) bits, which must fit a 64-bit lane on every grid
    # SweepConfig accepts: at most 49, on 4x4; a 1x33 grid would need 65
    assert max((2 * w - 1) * (2 * h - 1) for w, h in GRID_SHAPES) == 49
    with pytest.raises(InvalidSpec):
        cfg(grid_width=1, grid_height=33)


@pytest.mark.parametrize("grid", [(1, 16), (16, 1), (2, 8), (3, 3), (3, 4), (3, 5), (4, 4)],
                         ids=lambda g: "%dx%d" % g)
def test_lane_counts_match_the_kernel(grid):
    # full grids reach the widest spans: 49 bits on 4x4 in 7-byte lanes, 31 on
    # 1x16 and 16x1 in 4-byte lanes, 25 and 35 on the sweep's 3x3 and 3x4
    width, height = grid
    rng = random.Random(width * 17 + height)
    cells = [(x, y) for x in range(width) for y in range(height)]
    stride = 2 * height - 1
    subsets = [cells, cells[:1], cells[-1:]]
    subsets += [rng.sample(cells, rng.randint(1, len(cells))) for _ in range(60)]
    masks = [bit_mask(lattice_keys(b, stride)) for b in subsets]
    lanes = search._Lanes(masks, (2 * width - 1) * stride)
    everyone = list(range(len(masks)))
    for a in subsets:
        keys_a = lattice_keys(a, stride)
        counts = lanes.counts([(x, y, 1) for x, y in a], stride)
        assert list(counts) == [sumset_mask(keys_a, m).bit_count() for m in masks]
        limits = bytes(rng.randint(0, 127) for _ in masks)
        assert lanes.at_most(counts, limits) == [t for t in everyone if counts[t] <= limits[t]]
        assert lanes.at_most(counts, counts) == everyone
        assert lanes.at_most(counts, bytes(c - 1 for c in counts)) == []
    assert lanes.counts([(x, y, 1) for x, y in cells], stride)[0] == \
        (2 * width - 1) * (2 * height - 1)


@pytest.mark.parametrize("grid,caps,want", [
    ((3, 3), dict(), (216, 73)),
    ((2, 8), dict(max_size_a=4, max_size_b=4, shard_count=2), (2100, 4141)),
], ids=["3x3", "2x8"])
def test_one_dimensional_lanes_match_raw_sweep(grid, caps, want):
    # a lane whose B is not parallel to A gets threshold 0 and must never hit;
    # want is (collinear pairs that cross, pairs checked)
    base = cfg(grid_width=grid[0], grid_height=grid[1], mode=BoundMode.ONE_DIMENSIONAL,
               collect_extremal=True, **caps)
    lines = [s for s in search.enumerate_subsets(grid[0], grid[1], base.max_size_a)
             if s.direction is not None]
    crossing = sum(1 for a in lines for b in lines if not search._parallel(a.direction, b.direction))
    checked = 0
    for index in range(base.shard_count):
        config = replace(base, shard_index=index)
        rep = sweep(config)
        assert rep == raw_sweep(config), config
        checked += rep.pairs_checked
    assert (crossing, checked) == want


def test_mirror_table_is_the_reflection_group():
    subs = search.enumerate_subsets(3, 4)
    flat = search._mirror_table(subs, 3, 4)
    table = [tuple(flat[4 * i:4 * i + 4]) for i in range(len(subs))]
    assert (len(table), len({min(images) for images in table})) == (3392, 951)
    kept = [images for images, s in zip(table, subs) if s.sections_m >= 2]
    assert (len(kept), len({min(images) for images in kept})) == (3254, 903)
    for i, images in enumerate(table):
        assert images[0] == i
        for g in (1, 2, 3):
            assert table[images[g]][g] == i  # each reflection is an involution
        assert table[images[1]][2] == images[3]  # x then y is xy
        assert len({subs[j].size for j in images}) == 1


def reference_enumerate_subsets(width, height, max_size=None, require_two_dimensional=False):
    """search.enumerate_subsets on point tuples, as it was before it read the
    cell mask: each subset's (pts, size, lines_m, sections_m, two_dimensional,
    direction)."""
    cells = [(x, y) for x in range(width) for y in range(height)]
    out = []
    for mask in range(1, 1 << len(cells)):
        if max_size is not None and mask.bit_count() > max_size:
            continue
        pts = tuple(cells[i] for i in range(len(cells)) if mask >> i & 1)
        if min(x for x, _ in pts) != 0 or min(y for _, y in pts) != 0:
            continue
        lines_m, sections_m, step = core.line_counts(*zip(*pts))
        if require_two_dimensional and step is not None:
            continue
        out.append((pts, len(pts), lines_m, sections_m, step is None, step))
    return out


def reference_mirror_table(subs, width, height):
    """search._mirror_table on point tuples, as it was before it read the
    cell mask; subs as reference_enumerate_subsets returns them."""
    def cell_mask(pts):
        return sum(1 << (x * height + y) for x, y in pts)

    index = [0] * (1 << (width * height))
    for i, s in enumerate(subs):
        index[cell_mask(s[0])] = i
    table = [-1] * (4 * len(subs))
    for i, s in enumerate(subs):
        if table[4 * i] >= 0:
            continue
        pts = s[0]
        wx, hy = pts[-1][0], max(y for _, y in pts)
        orbit = (i, index[cell_mask((wx - x, y) for x, y in pts)],
                 index[cell_mask((x, hy - y) for x, y in pts)],
                 index[cell_mask((wx - x, hy - y) for x, y in pts)])
        for g0, j in enumerate(orbit):
            for g in range(4):
                table[4 * j + g] = orbit[g ^ g0]
    return table


@pytest.mark.parametrize("grid,max_size,two_d", [
    ((3, 3), None, False), ((3, 4), None, False), ((4, 3), None, False),
    ((2, 8), None, False), ((4, 4), 4, False), ((3, 4), None, True),
], ids=["3x3", "3x4", "4x3", "2x8", "4x4-max4", "3x4-2d"])
def test_setup_matches_point_tuple_reference(grid, max_size, two_d):
    """The set-up read off cell masks lists the same subsets in the same order,
    with the same fields and mirror table, as the frozen point-tuple one."""
    subs = search.enumerate_subsets(*grid, max_size, two_d)
    want = reference_enumerate_subsets(*grid, max_size, two_d)
    assert [s[:6] for s in subs] == want
    assert [s.mask for s in subs] == [bit_mask(lattice_keys(s[0], grid[1])) for s in want]
    assert search._mirror_table(subs, *grid) == reference_mirror_table(want, *grid)


def reference_lane(sub, width, height):
    """B's lane mask as _sweep built it per B before enumerate_subsets emitted
    it: each column of the cell mask moved to bit x*(2H-1)."""
    stride, column = 2 * height - 1, (1 << height) - 1
    return sum((sub.mask >> x * height & column) << x * stride for x in range(width))


@pytest.mark.parametrize("grid", GRID_SHAPES, ids=lambda g: "%dx%d" % g)
def test_lane_mask_matches_the_per_b_reference(grid):
    width, height = grid
    for sub in search.enumerate_subsets(width, height):
        assert sub.lane == reference_lane(sub, width, height) \
            == bit_mask(lattice_keys(sub.pts, 2 * height - 1)), sub.pts


# perfbench's sweep configs and a doubling and a 2-D one, each with the
# (W, H, cap, 2-D) of its enumeration: the larger cap, or none if either is
@pytest.mark.parametrize("config,key", [
    (cfg(grid_width=3, grid_height=3, mode=BoundMode.LINES_GS), (3, 3, None, False)),
    (cfg(grid_width=3, grid_height=3, mode=BoundMode.SECTIONS_GS, shard_count=3),
     (3, 3, None, False)),
    (cfg(grid_width=3, grid_height=4, mode=BoundMode.SECTIONS_GS, min_mn=2, max_size_b=3),
     (3, 4, None, False)),
    (cfg(grid_width=3, grid_height=4, mode=BoundMode.SECTIONS_GS, min_mn=2,
         max_size_a=5, max_size_b=5), (3, 4, 5, False)),
    (cfg(grid_width=3, grid_height=3, mode=BoundMode.DOUBLING, max_size_a=4), (3, 3, 4, False)),
    (cfg(grid_width=3, grid_height=3, require_two_dimensional=True, max_size_a=4, max_size_b=2),
     (3, 3, 4, True)),
], ids=["3x3-lines", "3x3-3-shards", "3x4-max-b-3", "3x4-5-5", "doubling-max-4", "2d-4-2"])
def test_each_sweep_enumerates_its_grid_once(config, key):
    """run_sharded and every shard of sweep() enumerate the subsets once per
    call, and no table outlives the call: a second run enumerates again."""
    with mock.patch.object(search, "enumerate_subsets", wraps=search.enumerate_subsets) as spy:
        for _ in range(2):
            run_sharded(config)
        for index in range(config.shard_count):
            sweep(replace(config, shard_index=index))
    assert [call.args for call in spy.call_args_list] == [key] * (2 + config.shard_count)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("count", [1, 2, 3, 7])
def test_run_sharded_equals_single_shard(count, jobs):
    """One pass or an orbit split across workers merges to the single-shard
    report and to the merge of the raw shards, extremal pairs included."""
    base = cfg(grid_width=3, grid_height=3, mode=BoundMode.SECTIONS_GS, collect_extremal=True)
    single = run_sharded(base)
    assert single.extremal_pairs
    config = replace(base, shard_count=count)
    raw = merge_reports([sweep(replace(config, shard_index=i)) for i in range(count)])
    assert run_sharded(config, jobs=jobs) == single == raw


def test_jobs_without_shards_start_every_worker():
    """The workers split orbits, not shards, so jobs=2 on one shard starts two
    worker processes, and the report is the one-process report."""
    from concurrent.futures import ProcessPoolExecutor
    started = []

    class Recording(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    config = cfg(grid_width=3, grid_height=3, mode=BoundMode.SECTIONS_GS, collect_extremal=True)
    assert config.shard_count == 1
    with mock.patch("concurrent.futures.ProcessPoolExecutor", Recording):
        report = run_sharded(config, jobs=2)
    assert started == [2]
    assert report == run_sharded(config, jobs=1)


def test_run_sharded_computes_one_row_per_orbit():
    """In one process a 5-shard run counts each kept orbit's row once, where
    its 5 raw shards would repeat reps that several shards need."""
    config = cfg(grid_width=3, grid_height=3, mode=BoundMode.SECTIONS_GS, min_mn=2,
                 shard_count=5)
    subs = search.enumerate_subsets(3, 3)
    mirror = search._mirror_table(subs, 3, 3)
    orbits = {min(mirror[4 * i:4 * i + 4]) for i, s in enumerate(subs) if s.sections_m >= 2}
    with mock.patch.object(search._Lanes, "counts", autospec=True,
                           side_effect=search._Lanes.counts) as counts:
        rep = run_sharded(config)
        assert counts.call_count == len(orbits) == 124
        counts.reset_mock()
        parts = [sweep(replace(config, shard_index=i)) for i in range(5)]
        assert counts.call_count > len(orbits)
    assert rep == merge_reports(parts)


def _raw_shard_reports(base):
    """raw_sweep's report on every shard (index, count), assembled from one raw
    pass split into 6 shards: shard (k, c) is the union of the 6-shards j with
    j % c == k, its pairs in enumeration order."""
    parts = [raw_sweep(replace(base, shard_index=j, shard_count=6)) for j in range(6)]
    order = {s.pts: i for i, s in enumerate(search.enumerate_subsets(
        base.grid_width, base.grid_height, max(base.max_size_a, base.max_size_b)))}
    out = {}
    for count in (1, 2, 3):
        for index in range(count):
            mine = [p for j, p in enumerate(parts) if j % count == index]
            want = search.SweepReport(
                pairs_checked=sum(p.pairs_checked for p in mine),
                violations=sorted(v for p in mine for v in p.violations),
                extremal_count=sum(p.extremal_count for p in mine),
                unclassified=sorted(u for p in mine for u in p.unclassified),
                wild_regime_count=sum(p.wild_regime_count for p in mine),
                extremal_pairs=sorted((e for p in mine for e in p.extremal_pairs),
                                      key=lambda e: (order[e[0]], order[e[1]])))
            for p in mine:
                for tag, n in p.classified_tally.items():
                    want.classified_tally[tag] = want.classified_tally.get(tag, 0) + n
            out[index, count] = want
    return out


@pytest.mark.parametrize("mode", list(BoundMode), ids=lambda m: m.value)
def test_sweep_matches_raw_sweep_3x4(mode):
    base = cfg(grid_width=3, grid_height=4, mode=mode, max_size_a=5, max_size_b=5,
               collect_extremal=True)
    for (index, count), want in _raw_shard_reports(base).items():
        config = replace(base, shard_index=index, shard_count=count)
        assert sweep(config) == want, config


def test_unclassified_records_name_the_image_pairs(monkeypatch):
    from sumsetlab.classify import Classification
    monkeypatch.setattr(search, "classify_thm2",
                        lambda a, b: Classification(Verdict.EXTREMAL_UNCLASSIFIED))
    config = cfg(grid_width=3, grid_height=3)
    rep, want = sweep(config), raw_sweep(config)
    count = want.classified_tally["ExtremalUnclassified"]
    assert count > 100 and len(want.unclassified) == count
    assert rep.unclassified == want.unclassified
    assert rep == want


@pytest.mark.parametrize("mode,two_dimensional,checker", [
    pytest.param(BoundMode.LINES_GS, True, "classifier", id="lines"),
    pytest.param(BoundMode.SECTIONS_GS, True, "classifier", id="sections"),
    pytest.param(BoundMode.ONE_DIMENSIONAL, False, "1d characterization", id="1d")])
def test_classifier_recheck_catches_a_wrong_count(monkeypatch, mode, two_dimensional, checker):
    """The classifiers re-check each extremal pair the lanes find by core's own
    count of A+B; a count that is off by one must raise, not pass.  classify_1d
    counts too, and its re-check fires first on a grid with collinear pairs,
    so the thm2/thm3 cases sweep two-dimensional subsets only.  classify_thm3
    counts a pair the kernel sums densely before its scan (_dense_only) and
    any other after it: each shard of two stops at its first extremal pair,
    dense in shard 0 and sparse in shard 1, so the patch reaches both counts."""
    from sumsetlab import classify
    count, altered = classify.sumset_size, []

    def off_by_one(a, b, **dense_only):
        size = count(a, b, **dense_only)
        if size is None:  # the kernel declined a sparse pair: no count was made
            return None
        altered.append(bool(dense_only))
        return size + 1

    monkeypatch.setattr(classify, "sumset_size", off_by_one)
    for index in range(2):
        with pytest.raises(ConsistencyError, match=f"sweep extremality disagrees with {checker}$"):
            sweep(cfg(grid_width=3, grid_height=3, mode=mode, shard_index=index, shard_count=2,
                      require_two_dimensional=two_dimensional))
    assert altered == ([True, False] if mode is BoundMode.SECTIONS_GS else [False, False])


def test_sweep_reaches_eps_and_case_c_families():
    eps = sweep(cfg(grid_width=3, grid_height=4, mode=BoundMode.SECTIONS_GS,
                    min_mn=2, max_size_b=3))
    assert eps.classified_tally.get("EpsTrapezoidPair", 0) > 0 and eps.ok
    case_c = sweep(cfg(grid_width=3, grid_height=5, mode=BoundMode.SECTIONS_GS, min_mn=2,
                       max_size_a=6, max_size_b=6, shard_index=0, shard_count=20))
    assert case_c.classified_tally.get("CaseCPair", 0) > 0 and case_c.ok


def _all_subsets(width, height):
    cells = [(x, y) for x in range(width) for y in range(height)]
    for mask in range(1, 1 << len(cells)):
        yield tuple(cells[i] for i in range(len(cells)) if mask >> i & 1)


def reference_analyze(pts: tuple) -> SimpleNamespace:
    """search._analyze as it was before enumerate_subsets read core.line_counts,
    verbatim but for the record type: its own counts and a primitive direction
    by gcd."""
    xs = {x for x, _ in pts}
    row_counts: dict[int, int] = {}
    for _, y in pts:
        row_counts[y] = row_counts.get(y, 0) + 1
    (x0, y0), *rest = pts
    direction = (0, 0)
    if rest:
        dx, dy = rest[0][0] - x0, rest[0][1] - y0
        g = gcd(dx, dy) if dy > 0 or (dy == 0 and dx > 0) else -gcd(dx, dy)
        collinear = all(dx * (y - y0) == dy * (x - x0) for x, y in rest)
        direction = (dx // g, dy // g) if collinear else None
    return SimpleNamespace(
        pts=pts,
        size=len(pts),
        lines_m=len(xs),
        sections_m=max(row_counts.values()),
        two_dimensional=direction is None,
        direction=direction,
    )


def reference_parallel(da, db) -> bool:
    """search._parallel as it was, on primitive directions."""
    return da is not None and db is not None and da[0] * db[1] == da[1] * db[0]


@pytest.mark.parametrize("grid", [(3, 3), (3, 4), (4, 3)], ids=lambda g: "%dx%d" % g)
def test_analyze_matches_point_set_stats(grid):
    """enumerate_subsets fills each _Subset from core's walk: the counts of
    the frozen _analyze and of cover_stats, and a raw step whose primitive
    vector is the frozen direction, parallel to the same directions."""
    subs = search.enumerate_subsets(*grid)
    assert [s.pts for s in subs] == [pts for pts in _all_subsets(*grid)
                                     if min(pts)[0] == 0 and min(y for _, y in pts) == 0]
    pairs = {}  # raw step -> frozen direction
    for sub in subs:
        want = reference_analyze(sub.pts)
        ps = PointSet2D(sub.pts)
        d = collinear_direction(ps)
        stats = cover_stats(ps)
        assert (sub.size, sub.lines_m, sub.sections_m, sub.two_dimensional) == \
            (want.size, want.lines_m, want.sections_m, want.two_dimensional)
        assert sub.two_dimensional == stats.is_two_dimensional
        assert (sub.size, sub.lines_m, sub.sections_m) == \
            (len(ps), stats.vertical_line_count, stats.max_horizontal_section)
        if sub.direction is None:
            assert want.direction is None and d is None
        else:
            assert core._primitive(sub.direction) == want.direction == (d.x, d.y), sub.pts
        pairs[sub.direction] = want.direction
    assert len(pairs) > 5
    for sa, wa in pairs.items():
        for sb, wb in pairs.items():
            assert search._parallel(sa, sb) == reference_parallel(wa, wb), (sa, sb)
