"""sumsetlab: exact-arithmetic planar sumset bounds, extremal families,
classifiers, exhaustive verification sweeps, and the convex counterpart.

The namespace is lazy (PEP 562): ``sumsetlab.bound`` imports
``sumsetlab.bounds`` on first use and then binds the name here, so a
process imports only the modules it touches.
"""

from importlib import import_module

_EXPORTS = {
    "bounds": ("AveragingReport", "BoundMode", "BoundReport", "SupportedSequence",
               "averaging_report", "bound", "chain_diagnostic", "u_values"),
    "classify": ("Classification", "Verdict", "classify_1d", "classify_thm2",
                 "classify_thm3", "split_check"),
    "compression": ("compress", "compression_chain"),
    "convex": ("BoundaryChains", "ContinuousReport", "ConvexPolygon", "HomothetyCertificate",
               "StretchDecomposition", "bonnesen_report", "clip_vertical_slab",
               "decompose_and_classify", "decompose_vertical", "graph_body_bounds",
               "homothety_certificate", "loads_polygon", "dumps_polygon", "partition_check",
               "poly_minkowski_sum", "stretch_vertical", "stretch_invariance_check",
               "from_chains"),
    "core": ("AffineMap2D", "CoverStats", "Point2", "PointSet2D", "Rational",
             "apply_map", "arithmetic_progression_of", "collinear_direction", "cover_stats",
             "dumps_points", "loads_points", "minkowski_sum",
             "parallel_directions", "rat", "rat_str", "save_points"),
    "errors": ("ConsistencyError", "DegenerateProjection", "EmptySet", "HypothesisViolated",
               "InvalidAmount", "InvalidSpec", "ModeMismatch", "NotCollinear", "ParseError",
               "SumsetError"),
    "families": ("CaseCSpec", "EpsilonSpec", "TrapezoidSpec", "gen_case_c",
                 "gen_eps_trapezoid", "gen_trapezoid", "gen_wild"),
    "figures": ("emit_figure_svg", "figure_sets", "figure_verification"),
    "search": ("SweepConfig", "SweepReport", "encode_pair", "merge_reports",
               "oracle_pair_check", "run_sharded", "sweep"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals().get(module)  # this package's own submodule, once imported
    if value is None:
        if import_module(__name__).__dict__ is not globals():  # sys.modules holds another copy
            raise ImportError(f"{__name__}.{module} would come from another copy of {__name__}")
        value = import_module(f"{__name__}.{module}")
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *_OWNER})
