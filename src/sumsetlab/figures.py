"""Built-in illustration instances and deterministic SVG emission.

Each figure builder returns labelled point sets together with the
verification the CLI runs on them; emit_figure_svg renders lattice panels
whose bytes depend only on the inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .bounds import BoundMode, bound
from .convex import ConvexPolygon
from .core import Point2, PointSet2D, _turn
from .errors import EmptySet, InvalidSpec
from .families import CaseCSpec, EpsilonSpec, TrapezoidSpec, gen_case_c, gen_eps_trapezoid, gen_trapezoid

_SCALE = 18
_PAD = 1


def figure_sets(number: int) -> list[tuple[str, PointSet2D]]:
    """The labelled point sets of built-in figure 1, 2 or 3."""
    if number == 1:
        return [("T(6,19,-1,2)", gen_trapezoid(TrapezoidSpec(6, 19, -1, 2)))]
    if number == 2:
        eps = EpsilonSpec(TrapezoidSpec(4, 16, 1, 2), frozenset({8, 12, 14}))
        return [("T_eps(4,16,1,2)[8,12,14]", gen_eps_trapezoid(eps)),
                ("T(4,7,1,2)", gen_trapezoid(TrapezoidSpec(4, 7, 1, 2)))]
    if number == 3:
        a, b = gen_case_c(CaseCSpec(4, 4, 7))
        return [("case-c A(m=4,k=7)", a), ("case-c B(n=4)", b)]
    raise InvalidSpec(f"no built-in figure {number}")


def figure_verification(number: int) -> dict:
    """The exact check each figure instance is expected to pass."""
    sets = figure_sets(number)
    if number == 1:
        rep = bound(BoundMode.DOUBLING, sets[0][1], sets[0][1])
    else:
        rep = bound(BoundMode.SECTIONS_GS, sets[0][1], sets[1][1])
    return {
        "sizes": [len(s) for _, s in sets],
        "bound": rep.to_json_dict(),
        "verified": rep.extremal,
    }


def _fmt(v) -> str:
    f = Fraction(v)
    return str(f.numerator) if f.denominator == 1 else repr(float(f))


def _hull(points: list[Point2]) -> list[Point2]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def emit_figure_svg(sets: list[tuple[str, PointSet2D]], path: str) -> None:
    """One panel per set: faint lattice dots, emphasized member points, and
    the convex outline of the set as guide lines.  Byte-stable output.

    Polygons are accepted too; their panel shows the vertex cycle.
    """
    if not sets:
        raise EmptySet("emit_figure_svg needs at least one set")
    sets = [(label, PointSet2D(s.vertices) if isinstance(s, ConvexPolygon) else s)
            for label, s in sets]
    panels = []
    offset_x = 0
    total_h = 0
    for label, ps in sets:
        xs = [p.x for p in ps]
        ys = [p.y for p in ps]
        x0, x1 = int(min(xs)) - _PAD, int(max(xs)) + _PAD + 1
        y0, y1 = int(min(ys)) - _PAD, int(max(ys)) + _PAD + 1
        w = (x1 - x0 + 1) * _SCALE
        h = (y1 - y0 + 1) * _SCALE + _SCALE
        panels.append((label, ps, x0, x1, y0, y1, offset_x, h))
        offset_x += w + _SCALE
        total_h = max(total_h, h)

    def sx(panel, x):
        return panel[6] + (Fraction(x) - panel[2] + Fraction(1, 2)) * _SCALE

    def sy(panel, y):
        return (panel[5] - Fraction(y) + Fraction(1, 2)) * _SCALE

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{offset_x}" height="{total_h + _SCALE}" '
        f'viewBox="0 0 {offset_x} {total_h + _SCALE}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for panel in panels:
        label, ps = panel[0], panel[1]
        for gx in range(panel[2], panel[3] + 1):
            for gy in range(panel[4], panel[5] + 1):
                parts.append(f'<circle cx="{_fmt(sx(panel, gx))}" cy="{_fmt(sy(panel, gy))}" '
                             f'r="1.5" fill="#bbbbbb"/>')
        hull = _hull(list(ps))
        if len(hull) >= 2:
            coords = " ".join(f"{_fmt(sx(panel, p.x))},{_fmt(sy(panel, p.y))}" for p in hull)
            parts.append(f'<polygon points="{coords}" fill="none" stroke="#3465a4" '
                         f'stroke-width="1.2"/>')
        for p in ps:
            parts.append(f'<circle cx="{_fmt(sx(panel, p.x))}" cy="{_fmt(sy(panel, p.y))}" '
                         f'r="4" fill="#202020"/>')
        parts.append(f'<text x="{panel[6] + 4}" y="{total_h + _SCALE - 6}" '
                     f'font-family="monospace" font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
