"""Lint checks on the library's source.

No broad exception handler: a bare `except:`, an `except Exception` or an
`except BaseException` would turn a bug into an ordinary error or exit code
instead of a traceback.  No unused private code: a module-level `_name`
function or class that nothing in `src/` refers to is dead.  No third-party
import: the library has no runtime dependencies, and numpy in particular
must not become one.  No A+B built only to be counted: `len(minkowski_sum(...))`
builds every point of the sum, where sumset_size counts it.  No use of
PointSet2D's grid layout outside core: its slots, the (sx, sy, xs, ys) grid
that `_ints` returns and `_on_grid` takes, and the helpers that fill them
are core's, and other modules build and read sets through its methods.
"""

import ast
import sys
from pathlib import Path

import pytest

from sumsetlab.core import PointSet2D

SRC = Path(__file__).resolve().parent.parent / "src" / "sumsetlab"
BROAD = {"Exception", "BaseException"}


def broad_handlers(source: str) -> list[int]:
    """Line numbers of the broad handlers in a module's source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {c.id if isinstance(c, ast.Name) else getattr(c, "attr", None) for c in caught}
        if node.type is None or names & BROAD:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_broad_except(path):
    assert broad_handlers(path.read_text(encoding="utf-8")) == [], path.name


@pytest.mark.parametrize("handler", ["except:", "except Exception:",
                                     "except BaseException as exc:",
                                     "except (ValueError, Exception):",
                                     "except builtins.BaseException:"])
def test_each_broad_form_is_found(handler):
    assert broad_handlers(f"try:\n    pass\n{handler}\n    pass\n") == [3]


def test_narrow_handlers_pass():
    source = "try:\n    pass\nexcept (ValueError, ZeroDivisionError):\n    pass\n"
    assert broad_handlers(source) == []


def unused_private(sources: dict) -> list[str]:
    """`module._name` for each module-level private function or class that no
    code refers to outside its own definition; sources maps module -> text.
    A reference is any use of the name or of an attribute with that name, so
    an import alone does not count."""
    refs = []  # (module, top-level statement index, names it refers to)
    defs = []  # (module, statement index, name)
    for module, source in sources.items():
        for index, stmt in enumerate(ast.parse(source).body):
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            refs.append((module, index, names))
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and stmt.name.startswith("_") and not stmt.name.endswith("__")):
                defs.append((module, index, stmt.name))
    return [f"{module}.{name}" for module, index, name in defs
            if not any(name in names for m, i, names in refs if (m, i) != (module, index))]


def test_no_unused_private_code():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unused_private(sources) == []


def test_unused_helper_is_found():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _unused():\n    return _unused()\n\n\n"
             "class _Dead:\n    pass\n\n\ndef __getattr__(name):\n    pass\n",
        "b": "from . import a\nfrom .a import _Dead\n\n\ndef f():\n    return a._used()\n",
    }
    assert unused_private(sources) == ["a._unused", "a._Dead"]


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the modules a source imports that are neither in
    the standard library nor the package itself (relative or sumsetlab)."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names
            and name.split(".")[0] != "sumsetlab"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_foreign_import_is_found():
    source = ("import os, numpy as np\nfrom . import core\nfrom .core import rat\n"
              "from sumsetlab.core import rat\nfrom fractions import Fraction\n"
              "def f():\n    import scipy.sparse\n    from hypothesis import given\n")
    assert foreign_imports(source) == ["numpy", "scipy.sparse", "hypothesis"]


# bounds.bound keeps len(minkowski_sum(a, b)): perfbench's self-test
# (test_library_layers_cover_imported_names, run in tier-1 through
# tests/test_benchmark_selftest.py) counts that call through bounds' binding.
COUNTED_SUM_ALLOWED = {"bounds.bound"}


def counted_sums(sources: dict) -> list[str]:
    """`module.name` of each top-level function or class whose code takes
    len() of a minkowski_sum(...) call; sources maps module -> text."""
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id == "len" and node.args \
                        and isinstance(node.args[0], ast.Call):
                    inner = node.args[0].func
                    if getattr(inner, "id", getattr(inner, "attr", None)) == "minkowski_sum":
                        found.append(f"{module}.{getattr(stmt, 'name', '<module>')}")
    return found


def test_no_sum_built_only_to_be_counted():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert set(counted_sums(sources)) == COUNTED_SUM_ALLOWED


def test_counted_sum_is_found():
    sources = {
        "a": "def f(a, b):\n    return len(minkowski_sum(a, b))\n\n\n"
             "class C:\n    def g(self, a, b):\n        return len(core.minkowski_sum(a, b))\n",
        "b": "s = minkowski_sum(a, b)\nn = len(s) + len(poly_minkowski_sum(p, q).vertices)\n",
    }
    assert counted_sums(sources) == ["a.f", "a.C"]


# PointSet2D's layout, rejected outside core on any object; its grid constructor
# is rejected only on the class, as ConvexPolygon has an _on_grid of its own
LAYOUT = (*PointSet2D.__slots__, "_fill", "_ints", "_line_counts", "_members")
LAYOUT_CONSTRUCTORS = ("_on_grid",)


def layout_uses(sources: dict, names, constructors) -> list[str]:
    """`module:line` of each attribute named in names, or in constructors on
    the name PointSet2D, in a module other than core; sources maps module
    -> text."""
    return [f"{module}:{node.lineno}" for module, source in sources.items() if module != "core"
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)
            and (node.attr in names or node.attr in constructors
                 and isinstance(node.value, ast.Name) and node.value.id == "PointSet2D")]


def test_point_set_layout_is_used_only_in_core():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert layout_uses(sources, LAYOUT, LAYOUT_CONSTRUCTORS) == []


def test_layout_use_is_found():
    sources = {
        "core": "def f(s):\n    return s._grid, s._ints(), PointSet2D._on_grid(1, 1, [], [])\n",
        "a": "def g(s):\n    n = s._ints()\n    return s._pts[0], n\n",
        "b": "from .core import PointSet2D\nPointSet2D._grid = None\nx = [t._grid for t in ()]\n",
        "c": "y = PointSet2D._on_grid(1, 1, (0,), (0,))\nz = ConvexPolygon._on_grid(1, [])\n",
    }
    assert layout_uses(sources, ("_pts", "_grid", "_ints"), LAYOUT_CONSTRUCTORS) == \
        ["a:2", "a:3", "b:2", "b:3", "c:1"]
    assert all(name in dir(PointSet2D) for name in LAYOUT + LAYOUT_CONSTRUCTORS)
