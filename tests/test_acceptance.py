"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime and asserting the stated limit.  Run with `pytest -s
tests/test_acceptance.py` to see the lines."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations, product

from conftest import random_convex_polygon, random_rational_convex_polygon
from sumsetlab import (AffineMap2D, BoundMode, InvalidSpec,
                       PointSet2D, SupportedSequence, SweepConfig, Verdict,
                       apply_map, averaging_report, bonnesen_report, bound,
                       chain_diagnostic, classify_1d, classify_thm2,
                       classify_thm3, compress, compression_chain,
                       cover_stats, decompose_and_classify, dumps_points,
                       dumps_polygon, gen_trapezoid, gen_wild,
                       graph_body_bounds, loads_points, loads_polygon,
                       merge_reports, minkowski_sum, partition_check,
                       run_sharded, stretch_invariance_check, sweep)
from sumsetlab.convex import ConvexPolygon
from sumsetlab.families import (CaseCSpec, EpsilonSpec, TrapezoidSpec,
                                gen_case_c, gen_eps_trapezoid)
from test_cli import run_cli
from test_convex import perturbed_pair, stretched_homothetic_pair


def report(number: int, label: str, elapsed: float, limit: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s < {limit:.0f}s): {label}")
    assert elapsed < limit


def test_criterion_1_wild_example():
    t0 = time.time()
    for x in range(4, 9):
        code, gen_out = run_cli(["gen", "wild", "--x", str(x)])
        assert code == 0
        code, out = run_cli(["bound", "--mode", "sections"], stdin_text=gen_out)
        assert code == 0
        payload = json.loads(out)
        assert payload["lhs"] == payload["rhs"] == "17"
        assert payload["m"] == 1 and payload["n"] == 4
        a, b = gen_wild(x)
        assert (len(a), len(b)) == (3, 9)
    report(1, "wild pair attains the sections bound exactly for x in 4..8",
           time.time() - t0, 1.0)


def test_criterion_2_trapezoid_equality_sweep():
    t0 = time.time()
    pairs = 0
    for c in range(-2, 3):
        for d in range(-2, 3):
            instances = []
            for m in range(1, 5):
                for h in range(1, 7):
                    try:
                        instances.append(gen_trapezoid(TrapezoidSpec(m, h, c, d)))
                    except InvalidSpec:
                        continue
            for a in instances:
                for b in instances:
                    rep = bound(BoundMode.LINES_GS, a, b)
                    assert rep.gap == 0, (c, d, len(a), len(b))
                    pairs += 1
    assert pairs > 10000
    report(2, f"{pairs} shared-slope trapezoid pairs all lines-extremal",
           time.time() - t0, 60.0)


def test_criterion_3_figure_two_instance():
    t0 = time.time()
    a = gen_eps_trapezoid(EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({8, 12, 14})))
    b = gen_trapezoid(TrapezoidSpec(4, 7, 1, 2))
    m = cover_stats(a).max_horizontal_section
    n = cover_stats(b).max_horizontal_section
    rhs_direct = (Fraction(len(a), m) + Fraction(len(b), n) - 1) * (m + n - 1)
    assert rhs_direct == 133
    assert len(minkowski_sum(a, b)) == 133
    assert bound(BoundMode.SECTIONS_GS, a, b).extremal
    report(3, "shifted-trapezoid instance sections-extremal with rhs 133",
           time.time() - t0, 1.0)


def test_criterion_4_figure_three_instance():
    t0 = time.time()
    a, b = gen_case_c(CaseCSpec(4, 4, 7))
    assert (len(a), len(b)) == (52, 28)
    rep = bound(BoundMode.SECTIONS_GS, a, b)
    assert rep.rhs == 133 and rep.extremal
    report(4, "wedge-pair instance sections-extremal with rhs 133, sizes 52/28",
           time.time() - t0, 1.0)


def test_criterion_5_exhaustive_sweeps():
    t0 = time.time()
    # The enumeration covers translation-normalized subsets: all 511 nonempty
    # 3x3 subsets reduce to these 400 representatives, so the 400^2 checked
    # pairs cover all 511^2 = 261121 grid pairs up to translation (every
    # checked quantity is translation-invariant).
    from sumsetlab.search import enumerate_subsets
    reps = {s.pts for s in enumerate_subsets(3, 3)}
    assert len(reps) == 400
    cells = [(x, y) for x in range(3) for y in range(3)]
    for mask in range(1, 1 << 9):
        pts = [cells[i] for i in range(9) if mask >> i & 1]
        dx, dy = min(x for x, _ in pts), min(y for _, y in pts)
        assert tuple((x - dx, y - dy) for x, y in pts) in reps

    lines = sweep(SweepConfig(grid_width=3, grid_height=3, mode=BoundMode.LINES_GS))
    assert lines.pairs_checked == 160000
    assert lines.violations == [] and lines.unclassified == []
    assert "ExtremalUnclassified" not in lines.classified_tally
    assert lines.classified_tally.get("TrapezoidPair", 0) > 0

    sections = sweep(SweepConfig(grid_width=3, grid_height=3, mode=BoundMode.SECTIONS_GS))
    assert sections.pairs_checked == 160000
    assert sections.violations == [] and sections.unclassified == []
    assert "ExtremalUnclassified" not in sections.classified_tally
    family_keys = {"TrapezoidPair", "EpsTrapezoidPair", "CaseCPair"}
    classified_2d = sum(v for k, v in sections.classified_tally.items() if k in family_keys)
    assert classified_2d > 0

    # shard decomposition reproduces the single-threaded result exactly
    sharded = run_sharded(SweepConfig(grid_width=3, grid_height=3,
                                      mode=BoundMode.SECTIONS_GS, shard_count=8), jobs=4)
    assert sharded == sections
    report(5, f"3x3 sweeps clean in both modes "
              f"(lines: {lines.extremal_count} extremal, "
              f"sections: {sections.extremal_count} extremal, "
              f"covering all 261121 grid pairs up to translation)",
           time.time() - t0, 600.0)


def test_criterion_6_averaging_brute_force():
    t0 = time.time()
    index_sets = [c for r in range(1, 5) for c in combinations(range(4), r)]
    checked = 0
    for idx_i in index_sets:
        values_i = list(product(range(1, 5), repeat=len(idx_i)))
        for idx_j in index_sets:
            values_j = list(product(range(1, 5), repeat=len(idx_j)))
            both_wide = len(idx_i) >= 2 and len(idx_j) >= 2
            for va in values_i:
                sa = SupportedSequence(dict(zip(idx_i, va)))
                for vb in values_j:
                    rep = averaging_report(sa, SupportedSequence(dict(zip(idx_j, vb))))
                    assert rep.full_mean >= rep.rhs
                    if both_wide:
                        assert rep.equality == rep.ap_condition, (idx_i, va, idx_j, vb)
                    checked += 1
    assert checked == 389376
    report(6, f"averaging inequality and equality condition on {checked} sequence pairs",
           time.time() - t0, 300.0)


def test_criterion_7_one_dimensional_equality():
    t0 = time.time()
    subsets = []
    for mask in range(1, 1 << 7):
        xs = [i for i in range(7) if mask >> i & 1]
        subsets.append(xs)
    assert len(subsets) == 127
    for xs in subsets:
        set_a = PointSet2D((x, 0) for x in xs)
        diffs_a = {b - a for a, b in zip(xs, xs[1:])}
        for ys in subsets:
            set_b = PointSet2D((y, 0) for y in ys)
            rep = bound(BoundMode.ONE_DIMENSIONAL, set_a, set_b)
            assert rep.gap >= 0
            diffs_b = {b - a for a, b in zip(ys, ys[1:])}
            tight = min(len(xs), len(ys)) == 1 or (
                len(diffs_a) == 1 and len(diffs_b) == 1 and diffs_a == diffs_b)
            assert rep.extremal == tight
            assert classify_1d(set_a, set_b).details["equality"] == tight
    report(7, "1d bound tight exactly under the progression condition on 127^2 pairs",
           time.time() - t0, 60.0)


def continuous_suite(rng, make):
    """Criterion 8's randomized part on 20 extremal and 20 broken pairs whose
    polygons come from make."""
    extremal_pairs = [stretched_homothetic_pair(rng, make) for _ in range(20)]
    broken_pairs = [perturbed_pair(rng, make) for _ in range(20)]

    for a, b in extremal_pairs:
        rep = bonnesen_report(a, b)
        assert rep.extremal
        assert decompose_and_classify(a, b) is not None
    for a, b in broken_pairs:
        rep = bonnesen_report(a, b)
        assert not rep.extremal and rep.area_sum > rep.bonnesen_rhs
        assert decompose_and_classify(a, b) is None
    for a, b in extremal_pairs + broken_pairs:
        rep = bonnesen_report(a, b)
        ap, aq = Fraction(rep.area_a), Fraction(rep.area_b)
        m, n = Fraction(rep.m), Fraction(rep.n)
        assert rep.bm_comparison["order"] in ("eq", "gt")
        assert (rep.bm_comparison["order"] == "eq") == (ap / m ** 2 == aq / n ** 2)
    for a, b in extremal_pairs:
        h = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        assert stretch_invariance_check(a, b, h)
        for k in (2, 3, 5):
            assert partition_check(a, b, k)


def test_criterion_8_continuous_suite():
    t0 = time.time()
    continuous_suite(random.Random(2024), random_convex_polygon)
    p = ConvexPolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    q = ConvexPolygon([(0, 0), (2, 0), (2, 1), (0, 2)])
    delta, gap_bound = graph_body_bounds(p, q)
    assert gap_bound == 8
    assert Fraction(bonnesen_report(p, q).area_sum) == 8
    report(8, "40 randomized continuous pairs certified; slope-gap bound attained",
           time.time() - t0, 60.0)


def test_criterion_8_continuous_suite_rational():
    t0 = time.time()
    rng = random.Random(2025)
    continuous_suite(rng, random_rational_convex_polygon)
    for _ in range(500):
        p = random_rational_convex_polygon(rng)
        assert loads_polygon(dumps_polygon(p)) == p
    report(8, "40 randomized rational continuous pairs certified; 500 rational file round trips",
           time.time() - t0, 60.0)


def test_criterion_9_property_suites():
    t0 = time.time()
    rng = random.Random(90)

    def rand_set(max_pts=8, span=4):
        pts = {(rng.randint(-span, span), rng.randint(-span, span))
               for _ in range(rng.randint(1, max_pts))}
        return PointSet2D(pts)

    # compression conservation, 1000 cases
    for _ in range(1000):
        x = rand_set()
        c = compress(x)
        assert len(c) == len(x) and {p.y for p in c} == {p.y for p in x}
        assert cover_stats(c).max_horizontal_section == \
            cover_stats(x).max_horizontal_section

    # chain monotonicity (both chains), 1000 cases
    for _ in range(1000):
        a, b = rand_set(6), rand_set(6)
        v = chain_diagnostic(a, b)
        assert v[0] >= v[1] >= v[2] >= v[3]
        w = compression_chain(a, b)
        assert w[0] >= w[1] >= w[2] >= w[3] and w[2] == w[3]

    # sweep shard invariance, 1000 randomized configs
    single_cache = {}
    for _ in range(1000):
        width, height = rng.choice([(2, 2), (2, 2), (3, 2), (2, 3)])
        mode = rng.choice([BoundMode.LINES_GS, BoundMode.SECTIONS_GS])
        count = rng.randint(2, 6)
        key = (width, height, mode)
        if key not in single_cache:
            single_cache[key] = sweep(SweepConfig(grid_width=width, grid_height=height, mode=mode))
        sharded = merge_reports([
            sweep(SweepConfig(grid_width=width, grid_height=height, mode=mode,
                              shard_index=i, shard_count=count))
            for i in range(count)])
        assert sharded == single_cache[key]

    # classifier group invariance, 1000 cases (500 lines-mode, 500 sections-mode)
    lines_samples = [
        (gen_trapezoid(TrapezoidSpec(2, 2, 0, 0)), gen_trapezoid(TrapezoidSpec(3, 2, 0, 0))),
        (gen_trapezoid(TrapezoidSpec(3, 5, -1, 1)), gen_trapezoid(TrapezoidSpec(2, 3, -1, 1))),
        (gen_trapezoid(TrapezoidSpec(2, 5, 2, 0)), gen_trapezoid(TrapezoidSpec(4, 1, 2, 0))),
    ]
    for i in range(500):
        a, b = lines_samples[i % len(lines_samples)]
        mp = AffineMap2D.diagonal(Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                                  Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                                  rng.randint(-8, 8), Fraction(rng.randint(-8, 8), 2))
        cls = classify_thm2(apply_map(a, mp), apply_map(b, mp))
        assert cls.verdict is Verdict.TRAPEZOID_PAIR

    sections_samples = [
        (gen_eps_trapezoid(EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({8, 12, 14}))),
         gen_trapezoid(TrapezoidSpec(4, 7, 1, 2)), Verdict.EPS_TRAPEZOID_PAIR),
        (*gen_case_c(CaseCSpec(2, 3, 3)), Verdict.CASE_C_PAIR),
        (gen_trapezoid(TrapezoidSpec(3, 4, 0, 1)), gen_trapezoid(TrapezoidSpec(2, 3, 0, 1)),
         Verdict.TRAPEZOID_PAIR),
    ]
    for i in range(500):
        a, b, want = sections_samples[i % len(sections_samples)]
        alpha = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1])
        beta = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice([1, -1])
        gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        mp = AffineMap2D.upper_triangular(alpha, gamma, beta,
                                          rng.randint(-5, 5), rng.randint(-5, 5))
        cls = classify_thm3(apply_map(a, mp), apply_map(b, mp))
        assert cls.verdict is want

    # file round trips, 1000 cases (point sets and polygons)
    for i in range(1000):
        if i % 2 == 0:
            x = rand_set()
            assert loads_points(dumps_points(x)) == x
        else:
            p = random_convex_polygon(rng)
            assert loads_polygon(dumps_polygon(p)) == p

    report(9, "module property suites each pass 1000 randomized cases",
           time.time() - t0, 600.0)
