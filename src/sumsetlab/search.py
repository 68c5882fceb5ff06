"""Brute-force oracle: enumerate small lattice pairs, assert the bounds
universally, harvest extremal pairs, and cross-check the classifiers.

Enumeration covers the translation-normalized subsets of a W x H grid
(min x = min y = 0); every checked quantity is translation-invariant.  A
subset's counts come from core.line_counts, the walk cover_stats reads, and
its direction is that walk's raw step pts[1] - pts[0], not the primitive
vector collinear_direction gives: the sweep only tests directions for
parallelism, which does not depend on their scale.

The sweep is quotiented by H = {id, x-reflection, y-reflection, both},
each image re-translated to min x = min y = 0.  One g in H applied to both
sets is an affine map of the pair, which changes no size, count m or n,
|A+B|, dimension, parallelism or family tag.  So the row of an A (its
outcome against every B) is computed once per orbit, for the member rep of
lowest index, and a memo local to the sweep keeps rep's pair count and
hits (B index, outcome).  Every A = g.rep (g is its own inverse) maps each
hit's B to g.B, sorted back into enumeration order, and records the actual
pair (A, g.B).  A shard computes every rep it needs, also reps of other
shards, so each shard's report equals the raw enumeration's.  The A<->B
swap is not used: it would move pairs between shards.

A row counts |A+B| with core's bitset sumset kernel: cell (x, y) is key
x*S + y (core.lattice_keys), the stride S = 2H - 1 exceeds every y of A+B,
and |A+B| is the bit count of core.sumset_mask(keys(A), mask(B)).  The
right-hand side depends on B only through its class (|B|, m_B), so each A
gets one exact num/den and one threshold lo = floor(num/den) per class.
A pair with |A+B| > lo neither violates nor attains the bound; only the
others take the exact test, and classifiers see only the extremal pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .bounds import BoundMode, bound, chain_diagnostic, rhs_num_den
from .classify import Verdict, classify_1d, classify_thm2, classify_thm3
from .compression import compression_chain
from .core import (PointSet2D, bit_mask, collinear_direction, cover_stats, dumps_points,
                   lattice_keys, line_counts, parallel_directions, sumset_mask)
from .errors import ConsistencyError, InvalidSpec

OUT_OF_HYPOTHESIS = "OutOfHypothesis"
# a hit's outcome: one of these two, or the family tag of an extremal pair
_VIOLATION = 0
_WILD = 1


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


@dataclass(frozen=True)
class _Subset:
    pts: tuple
    size: int
    lines_m: int
    sections_m: int
    two_dimensional: bool
    direction: Optional[tuple]  # line step pts[1] - pts[0], (0, 0) wildcard, or None


def enumerate_subsets(width: int, height: int, max_size: Optional[int] = None,
                      require_two_dimensional: bool = False) -> list[_Subset]:
    """Translation-normalized nonempty subsets of the grid, in a fixed order."""
    cells = [(x, y) for x in range(width) for y in range(height)]
    out = []
    for mask in range(1, 1 << len(cells)):
        if max_size is not None and mask.bit_count() > max_size:
            continue
        pts = tuple(cells[i] for i in range(len(cells)) if mask >> i & 1)
        if min(x for x, _ in pts) != 0 or min(y for _, y in pts) != 0:
            continue
        lines_m, _, sections_m, _, step = line_counts(pts)
        if require_two_dimensional and step is not None:
            continue
        out.append(_Subset(pts, len(pts), lines_m, sections_m, step is None, step))
    return out


def _mirror_table(subs: list[_Subset], width: int, height: int) -> list[int]:
    """table[4*i + g]: index in subs of g.subs[i] for g = 0..3, the identity and
    the x-, y- and xy-reflection, each image re-translated to min x = min y = 0;
    g composes by XOR.  subs are subsets of the width x height grid, closed
    under these maps."""
    def cell_mask(pts):
        return sum(1 << (x * height + y) for x, y in pts)

    index = [0] * (1 << (width * height))  # cell mask -> index in subs
    for i, s in enumerate(subs):
        index[cell_mask(s.pts)] = i
    table = [-1] * (4 * len(subs))
    for i, s in enumerate(subs):
        if table[4 * i] >= 0:
            continue  # filled with the orbit of an earlier subset
        wx, hy = s.pts[-1][0], max(y for _, y in s.pts)  # pts ascend in (x, y)
        orbit = (i, index[cell_mask((wx - x, y) for x, y in s.pts)],
                 index[cell_mask((x, hy - y) for x, y in s.pts)],
                 index[cell_mask((wx - x, hy - y) for x, y in s.pts)])
        for g0, j in enumerate(orbit):  # j = g0.i, so g.j = (g ^ g0).i
            for g in range(4):
                table[4 * j + g] = orbit[g ^ g0]
    return table


def _mode_m(sub: _Subset, mode: BoundMode) -> int:
    if mode is BoundMode.SECTIONS_GS:
        return sub.sections_m
    return sub.lines_m


def _parallel(da: Optional[tuple], db: Optional[tuple]) -> bool:
    """parallel_directions on analyzed directions (None: 2D; (0, 0): any)."""
    return da is not None and db is not None and parallel_directions(da, db)


def _classify_extremal(mode: BoundMode, a: _Subset, b: _Subset):
    """An extremal pair's outcome: _WILD, or the tag it is tallied under."""
    if mode is BoundMode.SECTIONS_GS and (a.sections_m == 1 or b.sections_m == 1):
        return _WILD
    if a.two_dimensional and b.two_dimensional:
        ps_a, ps_b = PointSet2D(a.pts), PointSet2D(b.pts)
        cls = classify_thm2(ps_a, ps_b) if mode in (BoundMode.LINES_GS, BoundMode.DOUBLING) \
            else classify_thm3(ps_a, ps_b)
        if cls.verdict is Verdict.NOT_EXTREMAL:
            raise ConsistencyError("sweep extremality disagrees with classifier")
        return cls.verdict.value
    if _parallel(a.direction, b.direction):
        cls = classify_1d(PointSet2D(a.pts), PointSet2D(b.pts))
        if not cls.details["equality"]:
            raise ConsistencyError("sweep extremality disagrees with 1d characterization")
        return cls.verdict.value
    return OUT_OF_HYPOTHESIS  # needs no point sets, so none are built for it


def _record(report: SweepReport, a: _Subset, b: _Subset, outcome) -> None:
    """Add the pair (A, B) with its outcome to the report."""
    if outcome == _VIOLATION:
        report.violations.append(encode_pair(PointSet2D(a.pts), PointSet2D(b.pts)))
        return
    report.extremal_count += 1
    if report.extremal_pairs is not None:
        report.extremal_pairs.append((a.pts, b.pts))
    if outcome == _WILD:
        report.wild_regime_count += 1
        return
    report.classified_tally[outcome] = report.classified_tally.get(outcome, 0) + 1
    if outcome == Verdict.EXTREMAL_UNCLASSIFIED.value:
        report.unclassified.append(encode_pair(PointSet2D(a.pts), PointSet2D(b.pts)))


def sweep(config: SweepConfig) -> SweepReport:
    """Run this config's shard of the exhaustive pair enumeration."""
    mode = config.mode
    cap_a = config.max_size_a
    cap_b = cap_a if mode is BoundMode.DOUBLING else config.max_size_b
    # one enumeration; a list with a smaller cap filters it, in the same order
    subs = enumerate_subsets(config.grid_width, config.grid_height,
                             None if cap_a is None or cap_b is None else max(cap_a, cap_b),
                             config.require_two_dimensional)
    mirror = _mirror_table(subs, config.grid_width, config.grid_height)
    ids_a = (i for i, s in enumerate(subs) if cap_a is None or s.size <= cap_a)

    stride = 2 * config.grid_height - 1
    classes: dict[tuple[int, int], int] = {}  # (|B|, m_B) -> index
    rows_b = []  # (index of B, B, mask(B), class index), in enumeration order
    for j, b in enumerate(subs):
        m_b = _mode_m(b, mode)
        if m_b >= config.min_mn and (cap_b is None or b.size <= cap_b):
            cls = classes.setdefault((b.size, m_b), len(classes))
            rows_b.append((j, b, bit_mask(lattice_keys(b.pts, stride)), cls))

    def row(i: int) -> tuple[int, tuple]:
        """(pairs checked, hits) of A = subs[i]; a hit is (index of B, outcome)."""
        a = subs[i]
        keys_a = lattice_keys(a.pts, stride)
        m_a = _mode_m(a, mode)
        if mode is BoundMode.DOUBLING:
            rows = [(i, a, bit_mask(keys_a), classes[a.size, m_a])]
        elif mode is BoundMode.ONE_DIMENSIONAL:
            rows = [r for r in rows_b if _parallel(a.direction, r[1].direction)]
        else:
            rows = rows_b
        rhs = [rhs_num_den(mode, a.size, m_a, size_b, m_b) for size_b, m_b in classes]
        lo = [num // den for num, den in rhs]
        hits = []
        for j, b, mask_b, cls in rows:
            lhs = sumset_mask(keys_a, mask_b).bit_count()
            if lhs > lo[cls]:
                continue
            num, den = rhs[cls]
            if lhs * den < num:
                hits.append((j, _VIOLATION))
            elif lhs * den == num:
                hits.append((j, _classify_extremal(mode, a, b)))
        return len(rows), tuple(hits)

    memo: dict[int, tuple[int, tuple]] = {}  # rep -> row(rep)
    report = SweepReport(extremal_pairs=[] if config.collect_extremal else None)
    # shards split the unfiltered A list, so every shard keeps its pairs
    for pos, i in enumerate(ids_a):
        a = subs[i]
        if pos % config.shard_count != config.shard_index or _mode_m(a, mode) < config.min_mn:
            continue
        images = mirror[4 * i:4 * i + 4]
        rep = min(images)
        g = images.index(rep)  # g.A = rep, so A = g.rep
        if rep not in memo:
            memo[rep] = row(rep)
        pairs, hits = memo[rep]
        report.pairs_checked += pairs
        if g:
            hits = sorted((mirror[4 * j + g], outcome) for j, outcome in hits)
        for j, outcome in hits:
            _record(report, a, subs[j], outcome)
    report.violations.sort()
    report.unclassified.sort()
    return report


def merge_reports(parts: list[SweepReport]) -> SweepReport:
    """Order-independent merge of shard reports."""
    merged = SweepReport()
    collect = any(p.extremal_pairs is not None for p in parts)
    if collect:
        merged.extremal_pairs = []
    for p in parts:
        merged.pairs_checked += p.pairs_checked
        merged.extremal_count += p.extremal_count
        merged.wild_regime_count += p.wild_regime_count
        merged.violations.extend(p.violations)
        merged.unclassified.extend(p.unclassified)
        for tag, count in p.classified_tally.items():
            merged.classified_tally[tag] = merged.classified_tally.get(tag, 0) + count
        if collect and p.extremal_pairs is not None:
            merged.extremal_pairs.extend(p.extremal_pairs)
    merged.violations.sort()
    merged.unclassified.sort()
    if collect:
        merged.extremal_pairs.sort()
    return merged


def run_sharded(config: SweepConfig, jobs: int = 1) -> SweepReport:
    """Run all config.shard_count shards (in-process or via worker processes)
    and merge; the result is independent of the shard count and of jobs."""
    shards = [replace(config, shard_index=i) for i in range(config.shard_count)]
    if jobs <= 1 or config.shard_count == 1:
        parts = [sweep(s) for s in shards]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, config.shard_count)) as pool:
            parts = list(pool.map(sweep, shards))
    return merge_reports(parts)


def oracle_pair_check(a: PointSet2D, b: PointSet2D) -> dict:
    """One diagnostic record bundling everything computable about a pair.

    This is the reference oracle: sumset size, every applicable bound report,
    both inequality chains, and whichever classification verdicts apply.
    """
    from .core import minkowski_sum

    record: dict = {
        "size_a": len(a),
        "size_b": len(b),
        "sumset_size": len(minkowski_sum(a, b)),
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
