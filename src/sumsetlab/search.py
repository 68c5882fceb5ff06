"""Brute-force oracle: enumerate small lattice pairs, assert the bounds
universally, harvest extremal pairs, and cross-check the classifiers.

Enumeration covers the translation-normalized subsets of a W x H grid
(min x = min y = 0), every checked quantity being translation-invariant.  A
subset is its cell mask, cell (x, y) at bit x*H + y, walked column by column
in ascending order; per-column tables give its points, size and row counts,
and a table of the grid's collinear masks its direction, the raw step
pts[1] - pts[0] (parallelism ignores its scale).

The sweep is quotiented by H = {id, x-reflection, y-reflection, both}, each
image re-translated to min x = min y = 0: one g in H applied to both sets is
an affine map of the pair, which changes no size, count m or n, |A+B|,
dimension, parallelism or family tag.  So the row of an A (its outcome
against every B) is computed once per orbit, for its member of lowest index
rep, and each A of the orbit adds rep's tallies; a pair the report lists maps
to (A, g.B) for A = g.rep.  A shard of sweep() computes every rep it needs,
so its report equals the raw enumeration's; run_sharded() makes one pass, or
its workers split the orbits.

A row counts |A+B| against every kept B at once: cell (x, y) is key x*S + y
with stride S = 2H - 1, so mask(A+B) spans at most (2W-1)(2H-1) <= 49 bits,
one 64-bit lane of _Lanes per B.  The right-hand side depends on the sets only
through the classes (|A|, m_A) and (|B|, m_B), in 1d mode also their
directions, so each A class gets one exact num/den and limit floor(num/den)
per B class; only lanes at or below their limit take the exact test, in lane
(enumeration) order.  Only verdicts are tallied, so classify_thm3 stops at its
first standard match; each classifier re-checks extremality by core's count.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import combinations, product
from operator import getitem
from typing import NamedTuple, Optional

from .bounds import BoundMode, bound, chain_diagnostic, rhs_num_den
from .classify import Verdict, classify_1d, classify_thm2, classify_thm3
from .compression import compression_chain
from .core import (PointSet2D, _primitive, bit_mask, collinear_direction, cover_stats,
                   dumps_points, lattice_keys, parallel_directions, sumset_mask, sumset_size)
from .errors import ConsistencyError, InvalidSpec

OUT_OF_HYPOTHESIS = "OutOfHypothesis"
# a hit's outcome: one of these two, or the family tag of an extremal pair
_VIOLATION = 0
_WILD = 1
_UNCLASSIFIED = Verdict.EXTREMAL_UNCLASSIFIED.value
_MARK = re.compile(rb"\x80")  # a marked lane's byte in _Lanes.at_most


@dataclass(frozen=True)
class SweepConfig:
    grid_width: int
    grid_height: int
    mode: BoundMode
    max_size_a: Optional[int] = None
    max_size_b: Optional[int] = None
    require_two_dimensional: bool = False
    min_mn: int = 1
    shard_index: int = 0
    shard_count: int = 1
    collect_extremal: bool = False

    def __post_init__(self):
        if self.mode.__class__ is not BoundMode:
            raise InvalidSpec(f"mode must be a BoundMode, got {self.mode!r}")
        if self.grid_width < 1 or self.grid_height < 1:
            raise InvalidSpec("grid dimensions must be positive")
        if self.grid_width * self.grid_height > 16:
            raise InvalidSpec("grid too large: subset enumeration is 2^(W*H) "
                              "per side; at most 16 cells are supported")
        if not (0 <= self.shard_index < self.shard_count):
            raise InvalidSpec("need 0 <= shard_index < shard_count")
        if self.min_mn < 1:
            raise InvalidSpec("min_mn must be >= 1")
        if any(cap is not None and cap < 1 for cap in (self.max_size_a, self.max_size_b)):
            raise InvalidSpec("max_size_a and max_size_b must be >= 1")


@dataclass
class SweepReport:
    pairs_checked: int = 0
    violations: list = field(default_factory=list)
    extremal_count: int = 0
    classified_tally: dict = field(default_factory=dict)
    unclassified: list = field(default_factory=list)
    wild_regime_count: int = 0
    extremal_pairs: Optional[list] = None

    def to_json_dict(self) -> dict:
        return {
            "pairs_checked": self.pairs_checked,
            "violations": list(self.violations),
            "extremal_count": self.extremal_count,
            "classified_tally": dict(sorted(self.classified_tally.items())),
            "unclassified": list(self.unclassified),
            "wild_regime_count": self.wild_regime_count,
        }

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unclassified


def encode_pair(a: PointSet2D, b: PointSet2D) -> str:
    """A reproducible two-set record in point-set file syntax."""
    return "# set: A\n" + dumps_points(a) + "# set: B\n" + dumps_points(b)


class _Subset(NamedTuple):
    pts: tuple
    size: int
    lines_m: int
    sections_m: int
    two_dimensional: bool
    direction: Optional[tuple]  # line step pts[1] - pts[0], (0, 0) wildcard, or None
    mask: int  # cell (x, y) at bit x*H + y of the W x H grid


def enumerate_subsets(width: int, height: int, max_size: Optional[int] = None,
                      require_two_dimensional: bool = False) -> list[_Subset]:
    """Translation-normalized nonempty subsets of the grid, by ascending mask."""
    cols = range(1 << height)  # column masks, cell y at bit y
    pts_of = [[tuple((x, y) for y in range(height) if c >> y & 1) for c in cols]
              for x in range(width)]  # pts_of[x][c]: the points of column mask c at x
    rows_of = [bit_mask(8 * y for _, y in pts) for pts in pts_of[0]]  # byte y: cell y in c
    cells = [(x, y) for x in range(width) for y in range(height)]  # by ascending bit
    steps = {1 << i: (0, 0) for i in range(len(cells))}  # collinear mask -> pts[1] - pts[0]
    for (i, (x0, y0)), (j, (x1, y1)) in combinations(enumerate(cells), 2):
        masks = [1 << i | 1 << j]  # the sets with lowest cells i < j: any cells of ij above j
        for k in range(j + 1, len(cells)):
            if (x1 - x0) * (cells[k][1] - y0) == (y1 - y0) * (cells[k][0] - x0):
                masks += [m | 1 << k for m in masks]
        steps.update(dict.fromkeys(masks, (x1 - x0, y1 - y0)))
    cap = width * height if max_size is None else max_size
    new, out = tuple.__new__, []  # new(_Subset, fields) skips the namedtuple's Python __new__
    # columns W-1 .. 1, the last fastest, then column 0: ascending masks.  c0 is
    # nonzero, and odd unless a high column holds y = 0
    for high in product(cols, repeat=width - 1):
        high = high[::-1]  # column x at high[x - 1]
        size = sum(map(int.bit_count, high))
        base = sum(c << x * height for x, c in enumerate(high, 1))
        pts = sum(map(getitem, pts_of[1:], high), ())
        rows = sum(map(rows_of.__getitem__, high)).to_bytes(height, "little")
        top = max(rows)  # the longest high row, which column 0 lengthens at most by 1
        full = bit_mask(y for y, k in enumerate(rows) if k == top)
        for c0 in range(1, len(cols), 1 if any(c & 1 for c in high) else 2):
            step = steps.get(base | c0)
            if size + c0.bit_count() > cap or require_two_dimensional and step is not None:
                continue
            out.append(new(_Subset, (pts_of[0][c0] + pts, size + c0.bit_count(),
                                     width - high.count(0), top + bool(c0 & full),
                                     step is None, step, base | c0)))
    return out


def _mirror_table(subs: list[_Subset], width: int, height: int) -> list[int]:
    """table[4*i + g]: index in subs of g.subs[i] for g = 0..3, the identity and the
    x-, y- and xy-reflection, each image re-translated to min x = min y = 0; g
    composes by XOR.  subs are subsets of the grid, closed under these maps."""
    column = (1 << height) - 1
    flip = [int(format(c, "0%db" % height)[::-1], 2) for c in range(column + 1)]
    index = {s.mask: i for i, s in enumerate(subs)}
    table = [-1] * (4 * len(subs))
    for i, s in enumerate(subs):
        if table[4 * i] >= 0:
            continue  # filled with the orbit of an earlier subset
        cols = [s.mask >> k & column for k in range(0, s.mask.bit_length(), height)]
        drop = height - max(cols).bit_length()  # flip[c] >> drop: c upside down in s's height
        mx = my = mxy = 0
        for col, back in zip(cols, reversed(cols)):  # the first column shifted in ends highest
            mx = mx << height | col
            my = my << height | flip[back] >> drop
            mxy = mxy << height | flip[col] >> drop
        orbit = i, index[mx], index[my], index[mxy]
        for g0, j in enumerate(orbit):  # g.(g0.i) = (g ^ g0).i
            table[4 * j:4 * j + 4] = orbit[g0], orbit[1 ^ g0], orbit[2 ^ g0], orbit[3 ^ g0]
    return table


def _mode_m(sub: _Subset, mode: BoundMode) -> int:
    return sub.sections_m if mode is BoundMode.SECTIONS_GS else sub.lines_m


def _parallel(da: Optional[tuple], db: Optional[tuple]) -> bool:
    """parallel_directions on analyzed directions (None: 2D; (0, 0): any)."""
    return da is not None and db is not None and parallel_directions(da, db)


def _classify_extremal(mode: BoundMode, a: _Subset, b: _Subset):
    """An extremal pair's outcome: _WILD, or the tag it is tallied under."""
    if mode is BoundMode.SECTIONS_GS and (a.sections_m == 1 or b.sections_m == 1):
        return _WILD
    if a.two_dimensional and b.two_dimensional:
        ps_a, ps_b = PointSet2D._of_sorted_ints(a.pts), PointSet2D._of_sorted_ints(b.pts)
        cls = classify_thm2(ps_a, ps_b) if mode in (BoundMode.LINES_GS, BoundMode.DOUBLING) \
            else classify_thm3(ps_a, ps_b, verdict_only=True)
        if cls.verdict is Verdict.NOT_EXTREMAL:
            raise ConsistencyError("sweep extremality disagrees with classifier")
        return cls.verdict.value
    if _parallel(a.direction, b.direction):
        cls = classify_1d(PointSet2D._of_sorted_ints(a.pts), PointSet2D._of_sorted_ints(b.pts))
        if not cls.details["equality"]:
            raise ConsistencyError("sweep extremality disagrees with 1d characterization")
        return cls.verdict.value
    return OUT_OF_HYPOTHESIS  # needs no point sets, so none are built for it


def _record(report: SweepReport, a: _Subset, b: _Subset, outcome) -> None:
    """List (A, B) as a violation, an unclassified or a collected extremal pair."""
    if outcome != _VIOLATION and report.extremal_pairs is not None:
        report.extremal_pairs.append((a.pts, b.pts))
    if outcome == _VIOLATION or outcome == _UNCLASSIFIED:
        records = report.violations if outcome == _VIOLATION else report.unclassified
        records.append(encode_pair(PointSet2D(a.pts), PointSet2D(b.pts)))


class _Lanes:
    """Bitsets packed one per 64-bit lane of one int, lane t at bits 64t and up."""

    def __init__(self, masks: list[int]):
        self.count = len(masks)
        self.packed = int.from_bytes(b"".join(m.to_bytes(8, "little") for m in masks), "little")
        self._m1, self._m2, self._m4 = (int.from_bytes(byte * (8 * self.count), "little")
                                        for byte in (b"\x55", b"\x33", b"\x0f"))
        self._guard = int.from_bytes(b"\x80" * self.count, "little")

    def counts(self, keys: list[int]) -> bytes:
        """Byte t is sumset_mask(keys, mask t).bit_count(), for keys whose sums
        with every mask stay below bit 64 (a lane's fold spills to bytes 0-6 only)."""
        x = 0
        for k in keys:
            x |= self.packed << k
        x -= (x >> 1) & self._m1
        x = (x & self._m2) + ((x >> 2) & self._m2)
        x = (x + (x >> 4)) & self._m4
        # bytes <= 8: x * 0x0101010101010101 sums each lane carry-free into its byte 7
        return (x * 0x0101010101010101).to_bytes(8 * self.count + 7, "little")[7::8]

    def at_most(self, counts: bytes, limits: bytes) -> list[int]:
        """The lanes t with counts[t] <= limits[t], ascending; every byte < 128, so
        (limit | 0x80) - count keeps bit 7 exactly when count <= limit, with no borrow."""
        mark = ((int.from_bytes(limits, "little") | self._guard)
                - int.from_bytes(counts, "little")) & self._guard
        return [m.start() for m in _MARK.finditer(mark.to_bytes(self.count, "little"))]


def sweep(config: SweepConfig) -> SweepReport:
    """Run this config's shard of the exhaustive pair enumeration."""
    return _sweep(config)


def _sweep(config: SweepConfig, orbits: Optional[tuple[int, int]] = None) -> SweepReport:
    """config's shard, or for orbits = (k, c) every A whose rep is k mod c."""
    mode, width, height = config.mode, config.grid_width, config.grid_height
    cap_a = config.max_size_a
    cap_b = cap_a if mode is BoundMode.DOUBLING else config.max_size_b
    # one enumeration; a list with a smaller cap filters it, in the same order
    subs = enumerate_subsets(width, height, None if cap_a is None or cap_b is None
                             else max(cap_a, cap_b), config.require_two_dimensional)
    mirror = _mirror_table(subs, width, height)
    ids_a = (i for i, s in enumerate(subs) if cap_a is None or s.size <= cap_a)

    stride, column = 2 * height - 1, (1 << height) - 1
    one_d = mode is BoundMode.ONE_DIMENSIONAL
    classes: dict[tuple, int] = {}  # (|B|, m_B), in 1d also B's direction -> index
    rows_b, masks_b = [], []  # lane t: (index of B, B, class index); mask(B), column x at x*stride
    for j, b in enumerate(() if mode is BoundMode.DOUBLING else subs):  # doubling's B is A
        m_b = _mode_m(b, mode)
        if m_b < config.min_mn or (cap_b is not None and b.size > cap_b) \
                or (one_d and b.direction is None):
            continue
        key = (b.size, m_b, _primitive(b.direction)) if one_d else (b.size, m_b)
        rows_b.append((j, b, classes.setdefault(key, len(classes))))
        masks_b.append(sum((b.mask >> x * height & column) << x * stride for x in range(width)))
    lanes = _Lanes(masks_b)
    lane_classes = bytes(cls for _, _, cls in rows_b)
    class_sizes = [lane_classes.count(cls) for cls in range(len(classes))]
    limits_of: dict[tuple, tuple] = {}  # A's class -> (num, den) per B class, limits, pairs

    def row(i: int) -> tuple[int, tuple]:
        """(pairs checked, hits) of A = subs[i]; a hit is (index of B, outcome)."""
        a = subs[i]
        keys_a = lattice_keys(a.pts, stride)
        m_a = _mode_m(a, mode)
        if mode is BoundMode.DOUBLING:
            num, den = rhs_num_den(mode, a.size, m_a, a.size, m_a)
            lhs = sumset_mask(keys_a, bit_mask(keys_a)).bit_count()
            if lhs * den > num:
                return 1, ()
            return 1, ((i, _VIOLATION if lhs * den < num else _classify_extremal(mode, a, a)),)
        key = (a.size, m_a, a.direction) if one_d else (a.size, m_a)
        if key not in limits_of:
            rhs = [rhs_num_den(mode, a.size, m_a, *cls[:2]) for cls in classes]
            lo, pairs = [num // den for num, den in rhs], lanes.count
            if one_d:
                parallel = [_parallel(a.direction, cls[2]) for cls in classes]
                lo = [t if p else 0 for t, p in zip(lo, parallel)]  # a count is at least 1
                pairs = sum(n for n, p in zip(class_sizes, parallel) if p)
            limits = lane_classes.translate(bytes(min(t, 127) for t in lo).ljust(256, b"\0"))
            limits_of[key] = rhs, limits, pairs
        rhs, limits, pairs = limits_of[key]
        if not pairs:
            return 0, ()
        counts = lanes.counts(keys_a)
        hits = []
        for t in lanes.at_most(counts, limits):  # so counts[t] * den <= num
            j, b, cls = rows_b[t]
            num, den = rhs[cls]
            hits.append((j, _VIOLATION if counts[t] * den < num else _classify_extremal(mode, a, b)))
        return pairs, tuple(hits)

    memo: dict[int, list] = {}  # rep -> [*row(rep), hits listed per A, A in the orbit]
    part, parts = orbits or (config.shard_index, config.shard_count)
    report = SweepReport(extremal_pairs=[] if config.collect_extremal else None)
    # shards split the unfiltered A list, so every shard keeps its pairs
    for pos, i in enumerate(ids_a):
        a = subs[i]
        if _mode_m(a, mode) < config.min_mn:
            continue
        images = mirror[4 * i:4 * i + 4]
        rep = min(images)
        if (rep if orbits else pos) % parts != part:
            continue
        if rep not in memo:
            pairs, hits = row(rep)
            memo[rep] = [pairs, hits, tuple(h for h in hits if config.collect_extremal
                                            or h[1] == _VIOLATION or h[1] == _UNCLASSIFIED), 0]
        memo[rep][3] += 1
        listed = memo[rep][2]
        if listed and rep != i:
            g = images.index(rep)  # g.A = rep, so A = g.rep
            listed = sorted((mirror[4 * j + g], outcome) for j, outcome in listed)
        for j, outcome in listed:
            _record(report, a, subs[j], outcome)
    tally: Counter = Counter()
    for pairs, hits, _, times in memo.values():  # every A of an orbit has its rep's outcomes
        report.pairs_checked += pairs * times
        for _, outcome in hits:
            tally[outcome] += times
    del tally[_VIOLATION]  # counted as listed
    report.extremal_count, report.wild_regime_count = tally.total(), tally.pop(_WILD, 0)
    report.classified_tally = dict(tally)
    report.violations.sort()
    report.unclassified.sort()
    return report


def merge_reports(parts: list[SweepReport]) -> SweepReport:
    """Order-independent merge of shard reports."""
    collect = any(p.extremal_pairs is not None for p in parts)
    merged = SweepReport(extremal_pairs=[] if collect else None)
    for p in parts:
        merged.pairs_checked += p.pairs_checked
        merged.extremal_count += p.extremal_count
        merged.wild_regime_count += p.wild_regime_count
        merged.violations.extend(p.violations)
        merged.unclassified.extend(p.unclassified)
        for tag, count in p.classified_tally.items():
            merged.classified_tally[tag] = merged.classified_tally.get(tag, 0) + count
        if p.extremal_pairs is not None:
            merged.extremal_pairs.extend(p.extremal_pairs)
    for records in (merged.violations, merged.unclassified, merged.extremal_pairs or []):
        records.sort()
    return merged


def run_sharded(config: SweepConfig, jobs: int = 1) -> SweepReport:
    """The merge of all config.shard_count shards, independent of the shard
    count and of jobs.  In one process that is one pass over every A; jobs > 1
    worker processes split the orbits, so each row is computed once."""
    if jobs < 1:
        raise InvalidSpec("jobs must be >= 1")
    whole = replace(config, shard_index=0, shard_count=1)
    if jobs == 1:
        return merge_reports([sweep(whole)])
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        orbits = [(k, jobs) for k in range(jobs)]
        return merge_reports(list(pool.map(_sweep, [whole] * jobs, orbits)))


def oracle_pair_check(a: PointSet2D, b: PointSet2D) -> dict:
    """One diagnostic record bundling everything computable about a pair.

    This is the reference oracle: sumset size, every applicable bound report,
    both inequality chains, and whichever classification verdicts apply.
    """
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
