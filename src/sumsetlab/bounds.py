"""Sumset lower bounds and the sequence-averaging inequality behind them.

Four bound modes are evaluated exactly:

* lines:      m, n are the vertical line-cover counts of A and B,
               rhs = (|A|/m + |B|/n - 1)(m + n - 1);
* sections:   same rhs, but m, n are the maximal horizontal sections;
* doubling:   B must equal A, rhs = (2|A|/m - 1)(2m - 1) with m the
               vertical line-cover count;
* 1d:         both sets collinear on parallel lines, rhs = |A| + |B| - 1;
               m = n = 1, and no cover counts are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .core import (PointSet2D, Rational, bit_mask, collinear_direction,
                   cover_stats, grid_sections, is_sparse, minkowski_sum,
                   parallel_directions, rat, rat_str, shared_difference,
                   sumset_mask, sumset_size)
from .errors import EmptySet, InvalidSpec, ModeMismatch


class BoundMode(Enum):
    LINES_GS = "lines"
    SECTIONS_GS = "sections"
    DOUBLING = "doubling"
    ONE_DIMENSIONAL = "1d"


@dataclass(frozen=True)
class BoundReport:
    """Both sides of a sumset lower bound, with the exact gap."""

    mode: BoundMode
    m: int
    n: int
    lhs: Rational
    rhs: Rational
    gap: Rational
    extremal: bool

    def to_json_dict(self) -> dict:
        return {"mode": self.mode.value, "m": self.m, "n": self.n,
                **{k: rat_str(getattr(self, k)) for k in ("lhs", "rhs", "gap")},
                "extremal": self.extremal}


def rhs_num_den(mode: BoundMode, size_a: int, m: int, size_b: int, n: int) -> tuple[int, int]:
    """The right-hand side as an exact num/den (den > 0) for sizes |A|, |B|
    and the mode's counts m, n; doubling is lines with B = A."""
    if mode is BoundMode.ONE_DIMENSIONAL:
        return size_a + size_b - 1, 1
    return (size_a * n + size_b * m - m * n) * (m + n - 1), m * n


def bound(mode: BoundMode, a: PointSet2D, b: PointSet2D) -> BoundReport:
    """Evaluate the chosen lower bound exactly; lhs is |A+B| by enumeration."""
    if mode.__class__ is not BoundMode:
        raise InvalidSpec(f"mode must be a BoundMode, got {mode!r}")
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("bound needs nonempty sets")
    if mode is BoundMode.DOUBLING and b is not a and a != b:
        raise ModeMismatch("doubling mode requires B = A")
    if mode is BoundMode.ONE_DIMENSIONAL:
        da, db = collinear_direction(a), collinear_direction(b)
        if da is None or db is None:
            raise ModeMismatch("1d mode requires both sets collinear")
        if not parallel_directions(da, db):
            raise ModeMismatch("1d mode requires the two lines to be parallel")
        m = n = 1  # each set lies on a single line
    else:
        sa = cover_stats(a)
        sb = sa if b is a else cover_stats(b)
        if mode is BoundMode.SECTIONS_GS:
            m, n = sa.max_horizontal_section, sb.max_horizontal_section
        else:  # lines, and doubling as lines with B = A
            m, n = sa.vertical_line_count, sb.vertical_line_count
    rhs = Fraction(*rhs_num_den(mode, len(a), m, len(b), n))
    lhs = Fraction(len(minkowski_sum(a, b)))
    gap = lhs - rhs
    return BoundReport(mode, m, n, rat(lhs), rat(rhs), rat(gap), gap == 0)


@dataclass(frozen=True)
class SupportedSequence:
    """Non-negative rational values supported on a finite rational index set."""

    entries: dict

    def __post_init__(self):
        if not self.entries:
            raise EmptySet("SupportedSequence needs a nonempty index set")
        norm = {rat(i): rat(v) for i, v in self.entries.items()}
        if any(v < 0 for v in norm.values()):
            raise ModeMismatch("SupportedSequence values must be non-negative")
        object.__setattr__(self, "entries", norm)

    def indices(self) -> list[Rational]:
        return sorted(self.entries)

    def mean(self) -> Fraction:
        return Fraction(sum(self.entries.values()), len(self.entries))


@dataclass(frozen=True)
class AveragingReport:
    """The averaging inequality's quantities for a pair of sequences.

    full_mean is the sum of the pairwise maxima u_t over the index sumset,
    divided by |I| + |J| - 1; u_plus_mean averages only the |I| + |J| - 1
    largest u-values.  full_mean >= u_plus_mean >= rhs always holds, and for
    strictly positive values with min(|I|, |J|) >= 2 equality in the outer
    inequality is equivalent to ap_condition.
    """

    u_values: dict
    u_plus_mean: Rational
    full_mean: Rational
    rhs: Rational
    equality: bool
    ap_condition: bool

    def to_json_dict(self) -> dict:
        return {"u_values": {rat_str(t): rat_str(v) for t, v in sorted(self.u_values.items())},
                **{k: rat_str(getattr(self, k)) for k in ("u_plus_mean", "full_mean", "rhs")},
                "equality": self.equality, "ap_condition": self.ap_condition}


def u_values(a: SupportedSequence, b: SupportedSequence) -> dict:
    """u_t = max{a_i + b_j : i + j = t}, defined exactly on the index sumset."""
    out: dict = {}
    for i, av in a.entries.items():
        for j, bv in b.entries.items():
            t = i + j
            s = av + bv
            if t not in out or s > out[t]:
                out[t] = s
    return out


def averaging_report(a: SupportedSequence, b: SupportedSequence) -> AveragingReport:
    u = u_values(a, b)
    k = len(a.entries) + len(b.entries) - 1
    full_mean = Fraction(sum(u.values()), k)
    largest = sorted(u.items(), key=lambda item: (item[1], item[0]), reverse=True)[:k]
    u_plus_mean = Fraction(sum(v for _, v in largest), k)
    rhs = a.mean() + b.mean()
    ap = shared_difference([a.indices(), b.indices()])[0] and \
        shared_difference([[s.entries[i] for i in s.indices()] for s in (a, b)])[0]
    return AveragingReport(u_values=u, u_plus_mean=rat(u_plus_mean), full_mean=rat(full_mean),
                           rhs=rat(rhs), equality=full_mean == rhs, ap_condition=ap)


def _section_chain_sums(sa: dict, sb: dict) -> tuple[int, int]:
    """The middle terms of a section chain, given both sets' sections as
    grid ints from core.grid_sections: the sums over t of max |A_i + B_j|
    and of max (|A_i| + |B_j| - 1), each maximum over the levels i + j = t.

    Each section is moved to start at 0, so A_i + B_j lies in [0, end_i +
    end_j] and has at most ub = min(|A_i|·|B_j|, end_i + end_j + 1) points.
    A pair whose ub cannot beat the best count at i + j is skipped; when ub
    is the Cauchy-Davenport bound |A_i| + |B_j| - 1 it is the count (runs,
    singletons).  Only the other pairs go through core's kernel or, under
    its sparse rule, a key set."""
    sections_b = [(j, len(vb), vb[-1] - vb[0], vb) for j, vb in sb.items()]
    masks: dict = {}  # level of B -> bitset of its section moved to 0
    best_sum: dict = {}
    best_card: dict = {}
    for i, va in sa.items():
        size_a, end_a = len(va), va[-1] - va[0]
        keys = None
        for j, size_b, end_b, vb in sections_b:
            t = i + j
            card = size_a + size_b - 1
            if card > best_card.get(t, 0):
                best_card[t] = card
            count, cells = size_a * size_b, end_a + end_b + 1
            if cells < count:
                count = cells
            have = best_sum.get(t, 0)
            if count <= have:
                continue
            if count > card:
                if is_sparse(cells, size_a, size_b):
                    count = len({u + w for u in va for w in vb})
                else:
                    if keys is None:
                        keys = [v - va[0] for v in va]
                    if j not in masks:
                        masks[j] = bit_mask(v - vb[0] for v in vb)
                    count = sumset_mask(keys, masks[j]).bit_count()
            if count > have:
                best_sum[t] = count
    return sum(best_sum.values()), sum(best_card.values())


def chain_diagnostic(a: PointSet2D, b: PointSet2D) -> list[Rational]:
    """The vertical-section inequality chain down to the lines-mode rhs.

    Returns [ |A+B|,
              sum over t of max |A_i + B_{t-i}| over vertical sections,
              sum over t of max (|A_i| + |B_{t-i}| - 1),
              lines-mode rhs ],
    each value >= the next.  A lines-mode extremal pair forces all four equal.
    |A+B| is counted with core.sumset_size, never built.
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("chain_diagnostic needs nonempty sets")
    _, _, ca, cb = grid_sections(a, b, rows=False)
    v1 = sumset_size(a, b)
    v2, v3 = _section_chain_sums(ca, cb)
    v4 = rat(Fraction(*rhs_num_den(BoundMode.LINES_GS, len(a), len(ca), len(b), len(cb))))
    return [v1, v2, v3, v4]
