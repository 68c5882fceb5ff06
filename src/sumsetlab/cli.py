"""Command-line front end.

Analysis commands print one JSON report to stdout; transformer commands
(gen, compress, poly sum, poly stretch) print point/vertex streams so they
compose in pipelines, e.g.:

    sumsetlab gen wild --x 4 | sumsetlab bound --mode sections

Multi-set streams frame each set with a `# set: <name>` comment line, which
the file-format parsers ignore, so any single chunk is itself a valid file.

Exit codes: 0 verified/success, 1 verification failure (bound violated,
unclassified extremal pair, failed lemma assertion), 2 malformed input or invalid parameters.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .core import (dumps_points, loads_points, minkowski_sum, parse_rational, rat_str,
                   save_points)
from .errors import ConsistencyError, InvalidSpec, ParseError, SumsetError

# Each command imports the library modules it runs, so a process loads only
# those; the mode choices are BoundMode's values, spelled out for the parser.
_MODE_CHOICES = ("1d", "doubling", "lines", "sections")
_SET_MARKER = re.compile(r"^#\s*set:\s*(.*)$")
_RATIONAL = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def _emit_json(obj, approx: bool = False) -> None:
    if approx and isinstance(obj, dict):
        notes = {}
        for k, v in obj.items():
            if isinstance(v, str) and _RATIONAL.match(v):
                try:
                    notes[k] = float(Fraction(v))
                except OverflowError:
                    raise InvalidSpec(f"--approx: {k} is beyond float range") from None
        if notes:
            obj = {**obj, "approx": notes}
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _split_stream(text: str) -> list[tuple[str, str]]:
    """Split a multi-set stream on `# set:` markers; unmarked text is one chunk."""
    chunks: list[tuple[str, list[str]]] = []
    current: list[str] = []
    label = ""
    seen_marker = False
    for line in text.splitlines():
        m = _SET_MARKER.match(line.strip())
        if m:
            if seen_marker or any(ln.strip() and not ln.strip().startswith("#") for ln in current):
                chunks.append((label, current))
            current = []
            label = m.group(1).strip()
            seen_marker = True
        else:
            current.append(line)
    chunks.append((label, current))
    return [(lbl, "\n".join(lines) + "\n") for lbl, lines in chunks]


def _read_source(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_pair(args, loader, alone: bool = False):
    """Two inputs from --a/--b files or a two-chunk stdin stream; with alone,
    A alone (--a only, or a one-chunk stream) stands for both."""
    if args.a is not None and (args.b is not None or alone):
        a = loader(_read_source(args.a))
        return a, a if args.b is None else loader(_read_source(args.b))
    if args.a is not None or args.b is not None:
        raise ParseError("provide both --a and --b, or neither (stdin stream)")
    chunks = _split_stream(sys.stdin.read())
    if len(chunks) < 2 and not alone:
        raise ParseError("stdin stream must carry two sets (use `# set:` markers)")
    a = loader(chunks[0][1])
    return a, a if len(chunks) < 2 else loader(chunks[1][1])


def _load_single(args, loader):
    if args.input is not None:
        return loader(_read_source(args.input))
    chunks = _split_stream(sys.stdin.read())
    if len(chunks) != 1:
        raise ParseError("expected exactly one set on stdin")
    return loader(chunks[0][1])


def _write_stream(sets: list[tuple[str, str]]) -> None:
    for label, body in sets:
        sys.stdout.write(f"# set: {label}\n{body}")


def _pair_args(sub):
    sub.add_argument("--a", help="file with the first set (default: stdin stream)")
    sub.add_argument("--b", help="file with the second set")


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _cmd_sumset(args) -> int:
    a, b = _load_pair(args, loads_points)
    s = minkowski_sum(a, b)
    if args.out:
        save_points(s, args.out)
    _emit_json({"size": len(s), "points": dumps_points(s)})
    return 0


def _cmd_bound(args) -> int:
    from .bounds import BoundMode, bound
    mode = BoundMode(args.mode)
    rep = bound(mode, *_load_pair(args, loads_points, alone=mode is BoundMode.DOUBLING))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("mode,m,n,lhs,rhs,gap,extremal\n")
            fh.write(f"{rep.mode.value},{rep.m},{rep.n},{rat_str(rep.lhs)},"
                     f"{rat_str(rep.rhs)},{rat_str(rep.gap)},{rep.extremal}\n")
    _emit_json(rep.to_json_dict(), approx=args.approx)
    return 0 if rep.gap >= 0 else 1


def _cmd_compress(args) -> int:
    from .compression import compress
    text = _read_source(args.input)
    chunks = _split_stream(text)
    out = [(label or chr(ord("A") + i), dumps_points(compress(loads_points(body))))
           for i, (label, body) in enumerate(chunks)]
    if args.json:
        _emit_json({"sets": {label: body for label, body in out}})
    else:
        _write_stream(out)
    return 0


def _cmd_gen(args) -> int:
    from .families import (CaseCSpec, EpsilonSpec, TrapezoidSpec, gen_case_c,
                           gen_eps_trapezoid, gen_trapezoid, gen_wild)
    if args.family == "trapezoid":
        spec = TrapezoidSpec(args.m, args.h, parse_rational(args.c), parse_rational(args.d))
        sets = [("A", gen_trapezoid(spec))]
    elif args.family == "eps-trapezoid":
        try:
            ones = frozenset(int(tok) for tok in args.ones.split(",") if tok.strip())
        except ValueError:
            raise ParseError(f"--ones expects a comma list of integers, got {args.ones!r}")
        spec = EpsilonSpec(TrapezoidSpec(args.m, args.h, parse_rational(args.c),
                                         parse_rational(args.d)), ones)
        sets = [("A", gen_eps_trapezoid(spec))]
    elif args.family == "case-c":
        sets = list(zip("AB", gen_case_c(CaseCSpec(args.m, args.n, args.k))))
    else:
        sets = list(zip("AB", gen_wild(parse_rational(args.x))))
    paths = {"A": args.out_a or args.out, "B": args.out_b}
    for label, ps in sets:
        if paths.get(label):
            save_points(ps, paths[label])
    _write_stream([(label, dumps_points(ps)) for label, ps in sets])
    return 0


def _cmd_check(args) -> int:
    if args.kind == "continuous":
        from . import convex
        p, q = _load_pair(args, convex.loads_polygon)
        report, cert = convex._classified(p, q)
        _emit_json({"report": report.to_json_dict(),
                    "certificate": None if cert is None else cert.to_json_dict()})
        return 0
    from .classify import Verdict, classify_1d, classify_thm2, classify_thm3, split_check
    a, b = _load_pair(args, loads_points)
    if args.kind == "split":
        ok = split_check(a, b)
        _emit_json({"split_extremal": ok})
        return 0 if ok else 1
    cls = {"thm2": classify_thm2, "thm3": classify_thm3, "1d": classify_1d}[args.kind](a, b)
    _emit_json(cls.to_json_dict())
    return 1 if cls.verdict is Verdict.EXTREMAL_UNCLASSIFIED else 0


def _cmd_sweep(args) -> int:
    from .bounds import BoundMode
    from .search import SweepConfig, run_sharded, sweep
    try:
        width, height = (int(tok) for tok in args.grid.lower().split("x"))
    except ValueError:
        raise ParseError(f"--grid expects WxH, got {args.grid!r}")
    config = SweepConfig(
        grid_width=width, grid_height=height, mode=BoundMode(args.mode),
        max_size_a=args.max_size_a, max_size_b=args.max_size_b,
        require_two_dimensional=args.require_2d, min_mn=args.min_mn,
        shard_index=args.shard_index or 0, shard_count=args.shards,
    )
    if args.jobs < 1:  # run_sharded's own check, which a single shard does not reach
        raise InvalidSpec("jobs must be >= 1")
    report = sweep(config) if args.shard_index is not None else run_sharded(config, args.jobs)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("metric,value\n")
            fh.write(f"pairs_checked,{report.pairs_checked}\n")
            fh.write(f"extremal_count,{report.extremal_count}\n")
            fh.write(f"wild_regime_count,{report.wild_regime_count}\n")
            fh.write(f"violations,{len(report.violations)}\n")
            fh.write(f"unclassified,{len(report.unclassified)}\n")
            for tag, count in sorted(report.classified_tally.items()):
                fh.write(f"tally.{tag},{count}\n")
    _emit_json(report.to_json_dict())
    return 0 if report.ok else 1


def _cmd_poly(args) -> int:
    from . import convex
    if args.op == "stretch":
        p = _load_single(args, convex.loads_polygon)
        s = convex.stretch_vertical(p, parse_rational(args.amount))
        _write_stream([("A", convex.dumps_polygon(s))])
        return 0
    p, q = _load_pair(args, convex.loads_polygon)
    ok = True
    if args.op == "sum":
        s = convex.poly_minkowski_sum(p, q)
        if not args.json:
            _write_stream([("A+B", convex.dumps_polygon(s))])
            return 0
        out = {"area": rat_str(s.area()), "projection": rat_str(s.width()),
               "vertices": convex.dumps_polygon(s)}
    elif args.op == "report":
        out = convex.bonnesen_report(p, q).to_json_dict()
    elif args.op == "decompose":
        cert = convex.decompose_and_classify(p, q)
        out = {"certificate": None if cert is None else cert.to_json_dict()}
    elif args.op == "partition":
        ok = convex.partition_check(p, q, args.k)
        out = {"k": args.k, "all_extremal": ok}
    else:
        delta, gap_bound = convex.graph_body_bounds(p, q)
        out = {"delta": rat_str(delta),
               "slope_gap_bound": None if gap_bound is None else rat_str(gap_bound)}
    _emit_json(out, approx=args.approx and args.op == "report")
    return 0 if ok else 1


def _parse_sequence(text: str):
    from .bounds import SupportedSequence
    entries = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ParseError(f"sequence entries look like index=value, got {token!r}")
        idx, val = token.split("=", 1)
        idx = parse_rational(idx.strip())
        if idx in entries:
            raise ParseError(f"sequence index {rat_str(idx)} repeats")
        entries[idx] = parse_rational(val.strip())
    return SupportedSequence(entries)


def _cmd_lemma_avg(args) -> int:
    from .bounds import averaging_report
    rep = averaging_report(_parse_sequence(args.a), _parse_sequence(args.b))
    _emit_json(rep.to_json_dict(), approx=args.approx)
    return 0


def _cmd_figure(args) -> int:
    import os
    from .figures import emit_figure_svg, figure_sets, figure_verification
    sets = figure_sets(args.number)
    verification = figure_verification(args.number)
    os.makedirs(args.out_dir, exist_ok=True)
    svg_path = os.path.join(args.out_dir, f"figure{args.number}.svg")
    emit_figure_svg(sets, svg_path)
    files = [svg_path]
    for i, (label, ps) in enumerate(sets):
        name = os.path.join(args.out_dir, f"figure{args.number}_{'ab'[i]}.txt")
        save_points(ps, name)
        files.append(name)
    _emit_json({"files": files, **verification})
    return 0 if verification["verified"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsetlab",
        description="Exact sumset bounds, extremal families, classifiers and sweeps.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sumset", help="Minkowski sum of two point sets")
    _pair_args(p)
    p.add_argument("--out", help="also write the sum as a point-set file")
    p.set_defaults(func=_cmd_sumset)

    p = subs.add_parser("bound", help="evaluate a sumset lower bound exactly")
    _pair_args(p)
    p.add_argument("--mode", choices=_MODE_CHOICES, required=True)
    p.add_argument("--csv", help="also write the report as CSV")
    p.add_argument("--approx", action="store_true",
                   help="annotate the report with float approximations")
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("compress", help="horizontal compression of each input set")
    p.add_argument("--input", help="point-set file (default: stdin stream)")
    p.add_argument("--json", action="store_true", help="JSON report instead of a stream")
    p.set_defaults(func=_cmd_compress)

    p = subs.add_parser("gen", help="generate an extremal-family instance")
    gsubs = p.add_subparsers(dest="family", required=True)
    for family in ("trapezoid", "eps-trapezoid"):
        g = gsubs.add_parser(family)
        g.add_argument("--m", type=int, required=True)
        g.add_argument("--h", type=int, required=True)
        g.add_argument("--c", required=True)
        g.add_argument("--d", required=True)
    g.add_argument("--ones", required=True, help="comma list of shift indices")
    g = gsubs.add_parser("case-c")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g = gsubs.add_parser("wild")
    g.add_argument("--x", required=True)
    for g in gsubs.choices.values():
        g.add_argument("--out", help="write the (first) set to a file")
        g.add_argument("--out-a", help="write set A to a file")
        g.add_argument("--out-b", help="write set B to a file")
        g.set_defaults(func=_cmd_gen)

    p = subs.add_parser("check", help="run a characterization or lemma check")
    p.add_argument("kind", choices=["thm2", "thm3", "1d", "split", "continuous"])
    _pair_args(p)
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("sweep", help="exhaustive small-grid verification")
    p.add_argument("--grid", default="3x3", help="WxH (default 3x3)")
    p.add_argument("--mode", choices=_MODE_CHOICES, required=True)
    p.add_argument("--max-size-a", type=int)
    p.add_argument("--max-size-b", type=int)
    p.add_argument("--require-2d", action="store_true")
    p.add_argument("--min-mn", type=int, default=1)
    p.add_argument("--shards", type=int, default=1, help="number of shards, for --shard-index")
    p.add_argument("--shard-index", type=int, help="run a single shard only")
    p.add_argument("--jobs", type=int, default=1, help="worker processes that split the sweep")
    p.add_argument("--csv", help="also write summary CSV")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("poly", help="convex-polygon operations")
    p.add_argument("op", choices=["sum", "report", "stretch", "decompose",
                                  "partition", "graph-bounds"])
    _pair_args(p)
    p.add_argument("--input", help="single polygon input (stretch)")
    p.add_argument("--amount", default="0", help="stretch amount")
    p.add_argument("--k", type=int, default=2, help="number of slabs (partition)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--approx", action="store_true",
                   help="annotate reports with float approximations")
    p.set_defaults(func=_cmd_poly)

    p = subs.add_parser("lemma-avg", help="sequence averaging report")
    p.add_argument("--a", required=True, help="comma list of index=value")
    p.add_argument("--b", required=True)
    p.add_argument("--approx", action="store_true",
                   help="annotate the report with float approximations")
    p.set_defaults(func=_cmd_lemma_avg)

    p = subs.add_parser("figure", help="emit a built-in figure as SVG + point files")
    p.add_argument("number", type=int, choices=[1, 2, 3])
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (SumsetError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
