"""Horizontal compression: rows become initial segments anchored at x = 0."""

from __future__ import annotations

from .bounds import _section_chain_sums
from .core import PointSet2D, Rational, grid_sections, sumset_size
from .errors import EmptySet


def compress(x: PointSet2D) -> PointSet2D:
    """Replace each row of x by {0, 1, ..., len-1} at the same level.

    Conserves cardinality, the level set, and every row length; idempotent.
    """
    if len(x) == 0:
        raise EmptySet("compress needs a nonempty set")
    return x._compressed()


def compression_chain(a: PointSet2D, b: PointSet2D, *, _size=None, _sections=None) -> list[Rational]:
    """The horizontal-section chain ending at the compressed sumset size.

    Returns [ |A+B|,
              sum over t of max |A_i + B_j| over rows with i + j = t,
              sum over t of max (|A_i| + |B_j| - 1),
              |compress(A) + compress(B)| ],
    monotone non-increasing, with the last two entries always equal.  Both
    sizes are counted with core.sumset_size, the last independently;
    oracle_pair_check hands over |A+B| and grid_sections(a, b, rows=True).
    """
    if len(a) == 0 or len(b) == 0:
        raise EmptySet("compression_chain needs nonempty sets")
    v1 = sumset_size(a, b) if _size is None else _size
    v2, v3 = _section_chain_sums(*(_sections or grid_sections(a, b, rows=True))[2:])
    v4 = sumset_size(compress(a), compress(b))
    return [v1, v2, v3, v4]
