"""The four benchmark workloads.

Each workload is built once per set-up from the seed and yields its work in
cycles: one cycle is a fixed mix of operations, and the seed only varies the
inputs inside each operation (affine images, translations, sampled pairs),
never the mix, so every run measures the same kind of work.  The point
sets, sequences and polygons a cycle needs are built during set-up; a cycle
only picks among them and draws maps and translations, so no traced
library function runs between timed calls.

Every operation carries a check of its output against a golden value or an
independent reference computed here; a wrong output counts as a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path
from typing import Callable

GOLDEN = Path(__file__).resolve().parent / "golden.json"
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    work: int = 1  # units counted by ops_per_s: grid pairs for the sweep, else 1


@dataclass
class Workload:
    name: str
    cycle: Callable[[int, random.Random], list]
    stage_times: list = field(default_factory=list)  # CLI stage wall times, in s
    spawn: Callable | None = None  # set when the work runs in child processes


def load_golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sweep: the exhaustive oracle
# ---------------------------------------------------------------------------

SWEEP_CONFIGS = {
    "3x3 lines": dict(grid_width=3, grid_height=3, mode="lines"),
    "3x3 sections": dict(grid_width=3, grid_height=3, mode="sections"),
    "3x4 sections min-mn 2 max-b 3": dict(grid_width=3, grid_height=4, mode="sections",
                                          min_mn=2, max_size_b=3),
    "3x4 sections min-mn 2 max-a 5 max-b 5": dict(grid_width=3, grid_height=4, mode="sections",
                                                  min_mn=2, max_size_a=5, max_size_b=5),
}


def sweep_config(sl, spec: dict):
    return sl.SweepConfig(**{**spec, "mode": sl.BoundMode(spec["mode"])})


def setup_sweep(sl, seed: int, golden: dict, root: Path, tmp: Path) -> Workload:
    """Exhaustive, so the seed is unused."""
    configs = [(label, sweep_config(sl, spec), golden["sweep"][label])
               for label, spec in SWEEP_CONFIGS.items()]

    def cycle(i, rng):
        return [Op(label, lambda cfg=cfg: sl.run_sharded(cfg, jobs=1),
                   lambda rep, want=want: rep.to_json_dict() == want,
                   work=want["pairs_checked"])
                for label, cfg, want in configs]

    return Workload("sweep", cycle)


# ---------------------------------------------------------------------------
# scan: many tiny exact calls
# ---------------------------------------------------------------------------

def _line_tight(xs: list, ys: list) -> bool:
    """Equality in the 1d bound: a singleton, or APs with one common difference."""
    da = {b - a for a, b in zip(xs, xs[1:])}
    db = {b - a for a, b in zip(ys, ys[1:])}
    return min(len(xs), len(ys)) == 1 or (len(da) == 1 and da == db)


def _averaging_reference(a: tuple, b: tuple) -> tuple[Fraction, Fraction]:
    """(full mean of the u-values, mean(a) + mean(b)) for index/value pairs."""
    u: dict = {}
    for i, va in zip(*a):
        for j, vb in zip(*b):
            u[i + j] = max(u.get(i + j, 0), va + vb)
    full = Fraction(sum(u.values()), len(a[0]) + len(b[0]) - 1)
    return full, Fraction(sum(a[1]), len(a[1])) + Fraction(sum(b[1]), len(b[1]))


def _small_set(rng: random.Random, max_pts: int = 6, span: int = 4) -> frozenset:
    return frozenset((rng.randint(-span, span), rng.randint(-span, span))
                     for _ in range(rng.randint(1, max_pts)))


def _monotone(chain: list) -> bool:
    return all(x >= y for x, y in zip(chain, chain[1:]))


def setup_scan(sl, seed: int, golden: dict, root: Path, tmp: Path) -> Workload:
    """One cycle: one pair of the exhaustive 1d scan over subsets of a 6-point
    line, three averaging reports on seeded pairs of sequences supported on
    subsets of range(4) with values 1..3, and both inequality chains on one
    seeded pair of at most 6 points each.  The weights give each part about
    a third of the time."""
    line_xs = [[x for x in range(6) if mask >> x & 1] for mask in range(1, 1 << 6)]
    line_sets = [sl.PointSet2D((x, 0) for x in xs) for xs in line_xs]
    one_d = sl.BoundMode.ONE_DIMENSIONAL

    raw_seqs = [(idx, vals) for r in range(1, 5) for idx in combinations(range(4), r)
                for vals in product(range(1, 4), repeat=r)]
    seqs = [sl.SupportedSequence(dict(zip(idx, vals))) for idx, vals in raw_seqs]

    pool_rng = random.Random(seed)
    raw_pairs = [(_small_set(pool_rng), _small_set(pool_rng)) for _ in range(512)]
    chain_pairs = [(sl.PointSet2D(a), sl.PointSet2D(b)) for a, b in raw_pairs]

    def check_1d(out, xs, ys):
        rep, cls = out
        tight = _line_tight(xs, ys)
        return rep.gap >= 0 and rep.extremal == tight and cls.details["equality"] == tight

    def check_avg(rep, a, b):
        full, rhs = _averaging_reference(a, b)
        wide = len(a[0]) >= 2 and len(b[0]) >= 2
        return (rep.full_mean == full and rep.rhs == rhs and full >= rhs
                and (not wide or rep.equality == rep.ap_condition))

    def check_chains(out, a, b):
        v, w = out
        size = len({(xa + xb, ya + yb) for xa, ya in a for xb, yb in b})
        return (v[0] == w[0] == size and _monotone(v) and _monotone(w) and w[2] == w[3])

    def cycle(i, rng):
        k = i % len(line_sets) ** 2
        ia, ib = divmod(k, len(line_sets))
        a, b = line_sets[ia], line_sets[ib]
        ops = [Op("1d", lambda a=a, b=b: (sl.bound(one_d, a, b), sl.classify_1d(a, b)),
                  lambda out, xs=line_xs[ia], ys=line_xs[ib]: check_1d(out, xs, ys))]
        for _ in range(3):
            ja, jb = rng.randrange(len(seqs)), rng.randrange(len(seqs))
            ops.append(Op("averaging",
                          lambda a=seqs[ja], b=seqs[jb]: sl.averaging_report(a, b),
                          lambda rep, a=raw_seqs[ja], b=raw_seqs[jb]: check_avg(rep, a, b)))
        j = rng.randrange(len(chain_pairs))
        a, b = chain_pairs[j]
        ops.append(Op("chains",
                      lambda a=a, b=b: (sl.chain_diagnostic(a, b), sl.compression_chain(a, b)),
                      lambda out, raw=raw_pairs[j]: check_chains(out, *raw)))
        return ops

    return Workload("scan", cycle)


# ---------------------------------------------------------------------------
# analyze: interactive requests on larger sets
# ---------------------------------------------------------------------------

def zonogon_edges(rng: random.Random, k: int, span: int = 20) -> dict:
    """k distinct primitive directions of the upper half plane, each with a
    length multiplier: the edge set of a centrally symmetric 2k-gon."""
    edges: dict = {}
    while len(edges) < k:
        a, b = rng.randint(-span, span), rng.randint(1, span)
        if gcd(a, b) == 1 and (a, b) not in edges:
            edges[a, b] = rng.randint(1, 3)
    return edges


def zonogon_vertices(edges: dict) -> list[tuple]:
    """Counterclockwise vertices from the bottom vertex at the origin."""
    order = sorted(edges, key=lambda d: Fraction(-d[0], d[1]))  # by angle
    steps = [(a * edges[a, b], b * edges[a, b]) for a, b in order]
    steps += [(-dx, -dy) for dx, dy in steps]
    verts, x, y = [], 0, 0
    for dx, dy in steps:
        verts.append((x, y))
        x, y = x + dx, y + dy
    return verts


def _area(verts: list) -> Fraction:
    n = len(verts)
    twice = sum(verts[i][0] * verts[(i + 1) % n][1] - verts[(i + 1) % n][0] * verts[i][1]
                for i in range(n))
    return Fraction(twice, 2)


def _width(verts: list) -> Fraction:
    xs = [x for x, _ in verts]
    return Fraction(max(xs) - min(xs))


def _bonnesen_expected(p: list, q: list, s: list) -> dict:
    ap, aq, m, n = _area(p), _area(q), _width(p), _width(q)
    rhs = (ap / m + aq / n) * (m + n)
    return {"area_a": ap, "area_b": aq, "m": m, "n": n, "area_sum": _area(s),
            "bonnesen_rhs": rhs, "extremal": _area(s) == rhs}


REFLECTIONS = ((1, 1), (-1, 1), (1, -1), (-1, -1))


def _invariant_oracle_fields(record: dict) -> dict:
    """The translation-invariant part of an oracle record."""
    out = {k: v for k, v in record.items() if k != "classifications"}
    out["verdicts"] = {k: v["verdict"] for k, v in record["classifications"].items()}
    return out


def setup_analyze(sl, seed: int, golden: dict, root: Path, tmp: Path) -> Workload:
    """One cycle: 4 sections-mode classifications and one request of 3
    lines-mode classifications of seeded affine images, 2 oracle records,
    3 bounds and 2 chains on a 565-point trapezoid with itself, and 3 convex
    operations on each of two polygon pairs.  Requests on translation-
    invariant quantities translate their input by a seeded vector, inside
    the request."""
    want = golden["analyze"]
    fam = sl.families
    Verdict = sl.Verdict
    thm3_samples = [
        ("thm3 T(3,4,0,1)/T(2,3,0,1)", fam.gen_trapezoid(fam.TrapezoidSpec(3, 4, 0, 1)),
         fam.gen_trapezoid(fam.TrapezoidSpec(2, 3, 0, 1)), Verdict.TRAPEZOID_PAIR),
        ("thm3 case-c(2,3,3)", *fam.gen_case_c(fam.CaseCSpec(2, 3, 3)), Verdict.CASE_C_PAIR),
        ("thm3 figure-2 eps pair", *[s for _, s in sl.figure_sets(2)], Verdict.EPS_TRAPEZOID_PAIR),
        ("thm3 case-c(4,4,7)", *fam.gen_case_c(fam.CaseCSpec(4, 4, 7)), Verdict.CASE_C_PAIR),
    ]
    thm2_samples = [
        (fam.gen_trapezoid(fam.TrapezoidSpec(2, 2, 0, 0)), fam.gen_trapezoid(fam.TrapezoidSpec(3, 2, 0, 0))),
        (fam.gen_trapezoid(fam.TrapezoidSpec(3, 5, -1, 1)), fam.gen_trapezoid(fam.TrapezoidSpec(2, 3, -1, 1))),
        (fam.gen_trapezoid(fam.TrapezoidSpec(2, 5, 2, 0)), fam.gen_trapezoid(fam.TrapezoidSpec(4, 1, 2, 0))),
    ]
    figure1 = sl.figure_sets(1)[0][1]
    figure3 = [s for _, s in sl.figure_sets(3)]
    big = fam.gen_trapezoid(fam.TrapezoidSpec(10, 61, 0, 1))

    poly_rng = random.Random(seed)
    p_edges, q_edges = zonogon_edges(poly_rng, 100), zonogon_edges(poly_rng, 75)
    p_verts, q_verts = zonogon_vertices(p_edges), zonogon_vertices(q_edges)
    merged = dict(p_edges)
    for d, length in q_edges.items():
        merged[d] = merged.get(d, 0) + length
    lam = poly_rng.choice([Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 3)])
    shift = (poly_rng.randint(-9, 9), poly_rng.randint(-9, 9))
    h_verts = [(lam * x + shift[0], lam * y + shift[1]) for x, y in p_verts]
    polygon_pairs = []
    for label, a, b, s, ratio in (
            ("random", p_verts, q_verts, zonogon_vertices(merged), None),
            ("homothetic", p_verts, h_verts,
             [((1 + lam) * x + shift[0], (1 + lam) * y + shift[1]) for x, y in p_verts], 1 / lam)):
        polygon_pairs.append((label, sl.ConvexPolygon(a), sl.ConvexPolygon(b), s,
                              _bonnesen_expected(a, b, s), ratio))

    def upper_triangular(rng, signs):
        alpha = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * signs[0]
        beta = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * signs[1]
        gamma = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        return sl.AffineMap2D.upper_triangular(alpha, gamma, beta,
                                               rng.randint(-5, 5), rng.randint(-5, 5))

    def diagonal(rng):
        return sl.AffineMap2D.diagonal(Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                                       Fraction(rng.randint(1, 5), rng.randint(1, 5)),
                                       rng.randint(-8, 8), Fraction(rng.randint(-8, 8), 2))

    def thm3_image(a, b, mp):
        return sl.classify_thm3(sl.apply_map(a, mp), sl.apply_map(b, mp))

    def bound_doubled(mode, t):
        s = big.translate(t)
        return sl.bound(sl.BoundMode(mode), s, s)

    def check_oracle(record, key):
        return _invariant_oracle_fields(record) == want[key]

    def check_polygon(s, verts):
        return tuple((v.x, v.y) for v in s.vertices) == tuple(verts)

    def check_bonnesen(rep, exp):
        return all(getattr(rep, k) == v for k, v in exp.items())

    def check_certificate(cert, exp, ratio):
        if not exp["extremal"]:
            return cert is None
        return cert is not None and cert.ratio == ratio

    def cycle(i, rng):
        # The classifier's cost depends mostly on which axis reflections the
        # map contains, so the reflections rotate through the samples instead
        # of being drawn: each run then sees every sample under each of them.
        ops = [Op(name, lambda a=a, b=b, mp=upper_triangular(rng, REFLECTIONS[(i + j) % 4]):
                  thm3_image(a, b, mp), lambda cls, v=v: cls.verdict is v)
               for j, (name, a, b, v) in enumerate(thm3_samples)]
        maps = [diagonal(rng) for _ in thm2_samples]
        ops.append(Op("thm2 lines samples",
                      lambda maps=maps: [sl.classify_thm2(sl.apply_map(a, mp), sl.apply_map(b, mp))
                                         for (a, b), mp in zip(thm2_samples, maps)],
                      lambda out: all(cls.verdict is Verdict.TRAPEZOID_PAIR for cls in out)))
        ops += [Op("oracle figure 1 doubled", _oracle(sl, figure1, figure1, True, rng),
                   lambda rec: check_oracle(rec, "oracle figure 1 doubled")),
                Op("oracle figure 3", _oracle(sl, *figure3, False, rng),
                   lambda rec: check_oracle(rec, "oracle figure 3"))]
        big_want = want["T(10,61,0,1) twice"]
        for mode in ("lines", "sections", "doubling"):
            t = sl.Point2(rng.randint(-9, 9), rng.randint(-9, 9))
            ops.append(Op(f"bound {mode} T(10,61,0,1)",
                          lambda mode=mode, t=t: bound_doubled(mode, t),
                          lambda rep, mode=mode: rep.to_json_dict() == big_want[mode]))
        for name in ("chain_diagnostic", "compression_chain"):
            t = sl.Point2(rng.randint(-9, 9), rng.randint(-9, 9))
            ops.append(Op(f"{name} T(10,61,0,1)",
                          lambda name=name, t=t: getattr(sl, name)(big.translate(t), big),
                          lambda chain, name=name: [str(v) for v in chain] == big_want[name]))
        for label, p, q, s, exp, ratio in polygon_pairs:
            ops += [Op(f"poly sum {label}", lambda p=p, q=q: sl.poly_minkowski_sum(p, q),
                       lambda out, s=s: check_polygon(out, s)),
                    Op(f"bonnesen {label}", lambda p=p, q=q: sl.bonnesen_report(p, q),
                       lambda rep, exp=exp: check_bonnesen(rep, exp)),
                    Op(f"decompose {label}", lambda p=p, q=q: sl.decompose_and_classify(p, q),
                       lambda cert, exp=exp, ratio=ratio: check_certificate(cert, exp, ratio))]
        return ops

    return Workload("analyze", cycle)


def _oracle(sl, a, b, same: bool, rng: random.Random):
    """An oracle request on a translated pair; the same translation for both
    sets when the pair is one set doubled."""
    ta = sl.Point2(rng.randint(-9, 9), rng.randint(-9, 9))
    tb = ta if same else sl.Point2(rng.randint(-9, 9), rng.randint(-9, 9))
    return lambda: sl.oracle_pair_check(a.translate(ta), b.translate(tb))


# ---------------------------------------------------------------------------
# cli: subprocess pipelines through `python -m sumsetlab`
# ---------------------------------------------------------------------------

# A stage is (argv, appends): an appending stage reads nothing and adds its
# stdout to the carried stream; any other stage reads the carried stream and
# replaces it with its stdout.
PIPELINES = {
    "gen wild | bound sections": [(["gen", "wild", "--x", "{x}"], True),
                                  (["bound", "--mode", "sections"], False)],
    "gen case-c | check thm3": [(["gen", "case-c", "--m", "4", "--n", "4", "--k", "7"], True),
                                (["check", "thm3"], False)],
    "gen trapezoid x2 | compress | bound lines": [
        (["gen", "trapezoid", "--m", "4", "--h", "6", "--c", "1", "--d", "-1"], True),
        (["gen", "trapezoid", "--m", "3", "--h", "3", "--c", "1", "--d", "-1"], True),
        (["compress"], False),
        (["bound", "--mode", "lines"], False)],
    "lemma-avg": [(["lemma-avg", "--a", "0=1,1=3,2=5", "--b", "0=2,1=4,2=6,3=8"], True)],
    "poly sum --json": [(["poly", "sum", "--json"], False)],
    "sweep 2x3 lines": [(["sweep", "--grid", "2x3", "--mode", "lines"], True)],
    "figure 3": [(["figure", "3", "--out-dir", "{out_dir}"], True)],
}


def child_spawner(root: Path):
    """run(argv, stdin) -> CompletedProcess, for this checkout's interpreter and sources."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(argv: list, stdin: str = ""):
        return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                              text=True, cwd=root, env=env, timeout=CHILD_TIMEOUT_S)

    return run


def run_pipeline(spawn, stages: list, stdin: str, fill: dict) -> tuple[list, str, list]:
    """(exit codes, final stdout, stage wall times), stages run one at a time."""
    carry, codes, times = stdin, [], []
    for argv, appends in stages:
        t0 = time.perf_counter()
        proc = spawn(["-m", "sumsetlab", *(arg.format(**fill) for arg in argv)],
                     "" if appends else carry)
        times.append(time.perf_counter() - t0)
        codes.append(proc.returncode)
        carry = carry + proc.stdout if appends else proc.stdout
    return codes, carry, times


def normalize_cli_output(stdout: str, out_dir: Path) -> dict:
    """The report JSON, with written files replaced by name and content digest."""
    report = json.loads(stdout)
    if "files" in report:
        names = [Path(f).name for f in report["files"]]
        report["files"] = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                           for name in names}
    return report


def setup_cli(sl, seed: int, golden: dict, root: Path, tmp: Path) -> Workload:
    """One cycle runs every pipeline once; the seed draws the wild pair's x,
    which leaves its report unchanged."""
    spawn = child_spawner(root)
    want = golden["cli"]
    out_dir = tmp / "figures"
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_times: list = []

    def request(name, fill):
        codes, stdout, times = run_pipeline(spawn, PIPELINES[name], want["inputs"].get(name, ""), fill)
        stage_times.extend(times)
        return codes, stdout

    def check(out, name):
        codes, stdout = out
        return (codes == want["outputs"][name]["codes"]
                and normalize_cli_output(stdout, out_dir) == want["outputs"][name]["report"])

    def cycle(i, rng):
        fill = {"x": str(rng.randint(4, 40)), "out_dir": str(out_dir)}
        return [Op(name, lambda name=name: request(name, fill), lambda out, name=name: check(out, name))
                for name in PIPELINES]

    return Workload("cli", cycle, stage_times=stage_times, spawn=spawn)


SETUPS = {"sweep": setup_sweep, "scan": setup_scan, "analyze": setup_analyze, "cli": setup_cli}
