"""The package namespace: the same names and objects as the eager imports it
replaced, resolved on first use."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumsetlab

ROOT = Path(__file__).resolve().parent.parent

# The names the package imported eagerly, per submodule, before the namespace
# became lazy; classify.RowProfile, classify.TrapezoidZones, core.Axis,
# core.section, core.load_points, convex.area_and_projection,
# convex.is_bonnesen_extremal, convex.load_polygon and convex.save_polygon have
# been deleted since.
EAGER_EXPORTS = {
    "bounds": ["AveragingReport", "BoundMode", "BoundReport", "SupportedSequence",
               "averaging_report", "bound", "chain_diagnostic", "freiman_threshold_rhs",
               "u_values"],
    "classify": ["Classification", "Verdict", "classify_1d", "classify_thm2",
                 "classify_thm3", "is_extremal", "split_check"],
    "compression": ["compress", "compression_chain"],
    "convex": ["BoundaryChains", "ContinuousReport", "ConvexPolygon", "HomothetyCertificate",
               "StretchDecomposition", "bonnesen_report", "clip_vertical_slab",
               "decompose_and_classify", "decompose_vertical", "graph_body_bounds",
               "homothety_certificate", "loads_polygon", "dumps_polygon", "partition_check",
               "poly_minkowski_sum", "stretch_vertical", "stretch_invariance_check",
               "from_chains"],
    "core": ["AffineMap2D", "CoverStats", "Point2", "PointSet2D", "Rational",
             "apply_map", "arithmetic_progression_of", "collinear_direction", "cover_stats",
             "dumps_points", "loads_points", "minkowski_sum",
             "parallel_directions", "rat", "rat_str", "save_points"],
    "errors": ["ConsistencyError", "DegenerateProjection", "EmptySet", "HypothesisViolated",
               "InvalidAmount", "InvalidSpec", "ModeMismatch", "NotCollinear", "ParseError",
               "SumsetError"],
    "families": ["CaseCSpec", "EpsilonSpec", "TrapezoidSpec", "gen_case_c",
                 "gen_eps_trapezoid", "gen_trapezoid", "gen_wild"],
    "figures": ["emit_figure_svg", "figure_sets", "figure_verification"],
    "search": ["SweepConfig", "SweepReport", "encode_pair", "merge_reports",
               "oracle_pair_check", "run_sharded", "sweep"],
}
NAMES = sorted(name for names in EAGER_EXPORTS.values() for name in names)
OWNED = [(module, name) for module, names in EAGER_EXPORTS.items() for name in names]


def test_all_is_the_eager_export_list():
    assert len(NAMES) == 79
    assert sorted(sumsetlab.__all__) == NAMES


@pytest.mark.parametrize("module,name", OWNED)
def test_name_is_the_submodule_object(module, name):
    assert getattr(sumsetlab, name) is getattr(importlib.import_module(f"sumsetlab.{module}"), name)


def test_submodules_resolve_as_attributes():
    for module in EAGER_EXPORTS:
        assert getattr(sumsetlab, module) is sys.modules[f"sumsetlab.{module}"]


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from sumsetlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_dir_lists_every_name():
    assert set(NAMES) | set(EAGER_EXPORTS) <= set(dir(sumsetlab))


def test_unknown_attribute_names_the_module():
    with pytest.raises(AttributeError, match="module 'sumsetlab' has no attribute 'RowProfile'"):
        sumsetlab.RowProfile


def test_import_loads_no_submodule():
    probe = "import sys, sumsetlab; print(sorted(n for n in sys.modules if n.startswith('sumsetlab')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True).stdout
    assert out.strip() == "['sumsetlab']"


def test_patch_and_restore_through_the_package_binding():
    """The benchmark's tracer rebinds a wrapped function in every sumsetlab
    module that binds the original, the package included, and restores it."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = sumsetlab.bounds.bound
    assert sumsetlab.bound is original  # touched through the package first
    tracer = spans.Tracer()
    points = [("bounds.bound", sumsetlab.bounds, "bound", None)]
    with spans.installed(tracer, points, spans.package_modules("sumsetlab")):
        assert sumsetlab.bound is not original
        a = sumsetlab.PointSet2D([(0, 0), (1, 0)])
        sumsetlab.bound(sumsetlab.BoundMode.LINES_GS, a, a)
    assert tracer.calls["bounds.bound"] == 1
    assert sumsetlab.bound is original
    assert sumsetlab.bounds.bound is original
