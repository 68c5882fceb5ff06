"""Lint checks on the library's source.

No broad exception handler: a bare `except:`, an `except Exception` or an
`except BaseException` would turn a bug into an ordinary error or exit code
instead of a traceback.  No unused private code: a module-level `_name`
function or class, or a `_name` method of a module-level class, that nothing
in `src/` refers to is dead.  No third-party import: the library has no
runtime dependencies, and numpy in particular must not become one.  No A+B
built only to be counted: `len(minkowski_sum(...))` builds every point of the
sum, where sumset_size counts it.  No use of PointSet2D's grid layout outside
core: its slots, the (sx, sy, xs, ys) grid that `_ints` returns and
`_on_grid` takes, and the helpers that fill them are core's, and other
modules build and read sets through its methods.  No unchecked polygon
outside convex: `ConvexPolygon._on_grid` and `_set_grid` store vertices
without checking them, so other modules build polygons through the
constructor.  No section put on integers outside core: `common_scale` is
referenced only in core, which hands a pair's sections over as grid ints,
and in convex, which keeps its own polygon grid.  No shift-OR spread outside
the kernel: an augmented `|=` of a `<<` value, the loop that ORs a mask
shifted to each cell of a set, appears only in core's `_spread` and in the
named exceptions of SPREAD_ALLOWED, so every count of A+B goes through the
one spread routine.  No spread outside the kernel and the sweep: `_spread`
and the `bit_mask` it starts from are referenced only in core and in
search, whose lanes spread many sets at once.  No dense/sparse rule outside
the kernel: `is_sparse` and `DENSE_CELLS_PER_PAIR` are referenced only in
core, as SPARSE_RULE_ALLOWED is empty.  A caller that wants |A+B| only when
the kernel sums it densely asks core (`sumset_size(..., _dense_only=True)`),
and the section chains count a pair of sections by `core._line_sum_size`,
instead of copying the kernel's bounding box.  Every functools cache is an lru_cache
with an int-literal maxsize, at a site of CACHE_ALLOWED: a cache holds its
values for the life of the process, so its size is bounded and chosen where
it is declared.  CACHE_ALLOWED is empty, so no module keeps a cache.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

from sumsetlab import core
from sumsetlab.convex import ConvexPolygon
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


def referenced(node) -> Counter:
    """How often each name is used in node, as a name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def is_private(node) -> bool:
    """True for a function or class definition named `_name` (not `__name__`)."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__"))


def unused_private(sources: dict) -> list[str]:
    """`module._name` for each module-level private function or class, and
    `module.Class._name` for each private method of a module-level class,
    that no code refers to outside its own definition; sources maps module
    -> text.  A reference is any use of the name or of an attribute with
    that name, so an import alone does not count."""
    uses = Counter()
    defs = []  # (module, dotted name, definition)
    for module, source in sources.items():
        tree = ast.parse(source)
        uses += referenced(tree)
        for stmt in tree.body:
            defs += [(module, stmt.name, stmt)] if is_private(stmt) else []
            if isinstance(stmt, ast.ClassDef):
                defs += [(module, f"{stmt.name}.{node.name}", node) for node in stmt.body
                         if is_private(node) and not isinstance(node, ast.ClassDef)]
    return [f"{module}.{name}" for module, name, node in defs
            if uses[node.name] == referenced(node)[node.name]]


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


def test_unused_method_is_found():
    sources = {
        "a": "class Box:\n    def _kept(self):\n        return 1\n\n"
             "    def _dead(self):\n        return self._dead()\n\n"
             "    @classmethod\n    def _made(cls):\n        return cls()\n\n"
             "    def __len__(self):\n        return self._kept()\n",
        "b": "from .a import Box\nx = Box._made()\n",
    }
    assert unused_private(sources) == ["a.Box._dead"]


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
LAYOUT = (*PointSet2D.__slots__, "_fill", "_ints", "_line_counts", "_column_runs")
LAYOUT_CONSTRUCTORS = ("_on_grid",)


def layout_uses(sources: dict, names, constructors, home="core", owner="PointSet2D") -> list[str]:
    """`module:line` of each attribute named in names, or in constructors on
    the name owner, in a module other than home; sources maps module ->
    text."""
    return [f"{module}:{node.lineno}" for module, source in sources.items() if module != home
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)
            and (node.attr in names or node.attr in constructors
                 and isinstance(node.value, ast.Name) and node.value.id == owner)]


def test_point_set_layout_is_used_only_in_core():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert layout_uses(sources, LAYOUT, LAYOUT_CONSTRUCTORS) == []


def test_layout_use_is_found():
    sources = {
        "core": "def f(s):\n    return s._grid, s._ints(), PointSet2D._on_grid(1, 1, [], [])\n"
                "r = s._column_runs(0, 2)\n",
        "a": "def g(s):\n    n = s._ints()\n    return s._pts[0], n\n",
        "b": "from .core import PointSet2D\nPointSet2D._grid = None\nx = [t._grid for t in ()]\n",
        "c": "y = PointSet2D._on_grid(1, 1, (0,), (0,))\nz = ConvexPolygon._on_grid(1, [])\n",
        "d": "def h(s, lo, hi):\n    return len(s._column_runs(lo, hi))\n",
    }
    assert layout_uses(sources, ("_pts", "_grid", "_ints", "_column_runs"), LAYOUT_CONSTRUCTORS) == \
        ["a:2", "a:3", "b:2", "b:3", "c:1", "d:2"]
    assert all(name in dir(PointSet2D) for name in LAYOUT + LAYOUT_CONSTRUCTORS)


# ConvexPolygon's unchecked store: _on_grid and _set_grid keep what convex
# builds as built, so only convex may call them; vertices from anywhere else
# go through the constructor, which checks them
POLYGON_STORE = ("_set_grid",)


def test_unchecked_polygon_store_is_used_only_in_convex():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert layout_uses(sources, POLYGON_STORE, LAYOUT_CONSTRUCTORS, "convex", "ConvexPolygon") == []


def test_unchecked_polygon_store_use_is_found():
    sources = {
        "convex": "def f(p):\n    return p._set_grid(1, []), ConvexPolygon._on_grid(1, [])\n",
        "cli": "from .convex import ConvexPolygon\np = ConvexPolygon._on_grid(2, [(0, 0), (1, 0)])\n",
        "classify": "def g(p):\n    return object.__new__(ConvexPolygon)._set_grid(1, [])\n",
        "core": "s = PointSet2D._on_grid(1, 1, (0,), (0,))\n",
    }
    assert layout_uses(sources, POLYGON_STORE, LAYOUT_CONSTRUCTORS, "convex", "ConvexPolygon") == \
        ["cli:2", "classify:2"]
    assert all(name in dir(ConvexPolygon) for name in POLYGON_STORE + LAYOUT_CONSTRUCTORS)


SCALING_MODULES = {"core", "convex"}


def name_uses(sources: dict, names, homes) -> list[str]:
    """`module:line` of each reference to a name in names, as a name, an
    attribute or an import, in a module outside homes; sources maps module
    -> text."""
    return [f"{module}:{node.lineno}" for module, source in sources.items()
            if module not in homes for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.ImportFrom)
            and any(alias.name in names for alias in node.names)]


def test_sections_are_scaled_only_in_core():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert name_uses(sources, ("common_scale",), SCALING_MODULES) == []


def test_scaling_use_is_found():
    sources = {
        "core": "def common_scale(*v):\n    pass\nx = common_scale([1])\n",
        "convex": "from .core import common_scale\ny = common_scale([1])\n",
        "bounds": "from .core import (rat,\n    common_scale)\n\n\ndef f(v):\n"
                  "    return core.common_scale(v)\n",
        "classify": "from .core import common_scale as scale\n",
    }
    assert name_uses(sources, ("common_scale",), SCALING_MODULES) == \
        ["bounds:1", "bounds:6", "classify:1"]


# oracle_pair_check counts |A+B| and reads the pair's sections in one place
# each, and hands them to its bounds, chains and classifiers; a second call
# site would count or section the pair again
ONCE_PER_RECORD = ("sumset_size", "grid_sections")


def repeated_calls(source: str, function: str, names) -> list[str]:
    """Each of names that the top-level function's body calls from more than
    one place, as a name or as an attribute."""
    body = next(stmt for stmt in ast.parse(source).body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == function)
    calls = Counter(getattr(node.func, "id", getattr(node.func, "attr", None))
                    for node in ast.walk(body) if isinstance(node, ast.Call))
    return [name for name in names if calls[name] > 1]


def test_oracle_record_counts_and_sections_the_pair_once():
    source = (SRC / "search.py").read_text(encoding="utf-8")
    assert repeated_calls(source, "oracle_pair_check", ONCE_PER_RECORD) == []


def test_repeated_call_is_found():
    source = ("def oracle_pair_check(a, b):\n    n = sumset_size(a, b)\n"
              "    rows = [grid_sections(a, b, r) for r in (True, False)]\n"
              "    return n, rows, core.sumset_size(a, b)\n\n\n"
              "def other(a, b):\n    return sumset_size(a, b), grid_sections(a, b, True)\n")
    assert repeated_calls(source, "oracle_pair_check", ONCE_PER_RECORD) == ["sumset_size"]


# The shift-ORs that may stay outside core._spread, each with its reason
SPREAD_ALLOWED = {
    "core._spread": "the one spread routine",
    "core.bit_mask": "sets one bit per key: the mask a spread starts from, not a spread",
    "core._packed_sum": "mask(B) as one closed-form block per run of B, which measured "
                        "faster than spreading 1 over B's runs",
}


def shift_ors(sources: dict) -> list[str]:
    """`module.name` of each top-level function, `module.Class.name` of each
    method (`<class>` for other class-level code) and `module.<module>` for
    each other top-level statement that holds an augmented `|=` whose value
    is a `<<`; sources maps module -> text."""
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owners = [(getattr(stmt, "name", "<module>"), stmt)]
            if isinstance(stmt, ast.ClassDef):
                owners = [(f"{stmt.name}.{getattr(node, 'name', '<class>')}", node)
                          for node in stmt.body]
            found += [f"{module}.{name}" for name, node in owners
                      if any(isinstance(n, ast.AugAssign) and isinstance(n.op, ast.BitOr)
                             and isinstance(n.value, ast.BinOp)
                             and isinstance(n.value.op, ast.LShift) for n in ast.walk(node))]
    return found


def test_no_shift_or_spread_outside_the_kernel():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert set(shift_ors(sources)) == set(SPREAD_ALLOWED)


def test_shift_or_spread_is_found():
    sources = {
        "search": "class _Lanes:\n    def counts(self, keys):\n        x = 0\n"
                  "        for k in keys:\n            x |= self.packed << k\n        return x\n\n\n"
                  "def row(a):\n    def inner(m):\n        m |= m << 1\n        return m\n"
                  "    return inner(a)\n",
        "bounds": "m = 0\nfor k in (1, 2):\n    m |= 1 << k\nm |= 3\nm = m | 1 << 2\nm <<= 1\n",
        "core": "def _spread(mask, keys):\n    out = 0\n    for k in keys:\n"
                "        out |= mask << k\n    return out\n",
    }
    assert shift_ors(sources) == ["search._Lanes.counts", "search.row", "bounds.<module>",
                                  "core._spread"]


# The spread routine and the mask it starts from: core's kernel and the
# sweep's lanes in search are their only users
SPREAD_NAMES = ("_spread", "bit_mask")
SPREAD_MODULES = {"core", "search"}


def test_spread_is_used_only_in_core_and_search():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert name_uses(sources, SPREAD_NAMES, SPREAD_MODULES) == []
    assert all(hasattr(core, name) for name in SPREAD_NAMES)


def test_spread_use_is_found():
    sources = {
        "core": "def _spread(mask, runs):\n    return bit_mask(runs)\n",
        "search": "from .core import _spread, bit_mask\nx = _spread(bit_mask([1]), [])\n",
        "bounds": "from .core import (rat,\n    _spread)\n\n\ndef f(v):\n"
                  "    return core.bit_mask(v)\n",
        "classify": "from .core import bit_mask as mask\ny = mask\n",
    }
    assert name_uses(sources, SPREAD_NAMES, SPREAD_MODULES) == ["bounds:1", "bounds:6",
                                                               "classify:1"]


# The kernel's dense/sparse rule.  core owns it; outside core it may be read
# only at these sites, each with its reason
SPARSE_RULE = ("is_sparse", "DENSE_CELLS_PER_PAIR")
SPARSE_RULE_ALLOWED: dict[str, str] = {}


def sparse_rule_uses(sources: dict) -> list[str]:
    """`module.name` of each top-level function or class, and `module.<module>`
    of each other top-level statement, outside core that refers to a name in
    SPARSE_RULE, as a name, an attribute or an import; sources maps module ->
    text."""
    return [f"{module}.{getattr(stmt, 'name', '<module>')}"
            for module, source in sources.items() if module != "core"
            for stmt in ast.parse(source).body
            if any(isinstance(n, ast.Name) and n.id in SPARSE_RULE
                   or isinstance(n, ast.Attribute) and n.attr in SPARSE_RULE
                   or isinstance(n, ast.alias) and n.name in SPARSE_RULE for n in ast.walk(stmt))]


def test_dense_sparse_rule_is_used_only_in_the_kernel():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert set(sparse_rule_uses(sources)) == set(SPARSE_RULE_ALLOWED)
    assert all(hasattr(core, name) for name in SPARSE_RULE)


def test_dense_sparse_rule_use_is_found():
    sources = {
        "core": "DENSE_CELLS_PER_PAIR = 1\n\n\ndef is_sparse(cells, a, b):\n"
                "    return cells > DENSE_CELLS_PER_PAIR * a * b\n",
        "bounds": "from .core import is_sparse\n\n\ndef _pairwise_chain_sums(sa, sb):\n"
                  "    return is_sparse(3, 1, 2)\n",
        "classify": "from .core import (rat,\n    is_sparse as dense)\n\n\n"
                    "def _sum_cells(rows_a, rows_b):\n    return 9\n\n\n"
                    "def classify_thm3(a, b):\n"
                    "    return core.is_sparse(_sum_cells(a, b), len(a), len(b))\n\n\n"
                    "class Counts:\n    per_pair = core.DENSE_CELLS_PER_PAIR\n",
    }
    assert sparse_rule_uses(sources) == ["bounds.<module>", "bounds._pairwise_chain_sums",
                                         "classify.<module>", "classify.classify_thm3",
                                         "classify.Counts"]


# The functools caches, each with its reason
CACHE_ALLOWED: dict[str, str] = {}
CACHES = ("cache", "lru_cache")


def caches(sources: dict) -> list[tuple[str, bool]]:
    """(`module.name`, bounded) for each use of functools' cache or lru_cache,
    as `functools.X` or as a name imported from functools: name is the
    function it decorates, or `<call>` for a use outside a decorator list.
    Bounded when it is lru_cache called with an int-literal maxsize (first
    positional or keyword); sources maps module -> text."""
    found = []
    for module, source in sources.items():
        tree = ast.parse(source)
        imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module == "functools"
                    for alias in node.names}
        uses = [(f.name, d) for f in ast.walk(tree)
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) for d in f.decorator_list]
        decorators = {id(d) for _, d in uses}
        uses += [("<call>", n) for n in ast.walk(tree)
                 if isinstance(n, ast.Call) and id(n) not in decorators]
        for name, node in uses:
            ref = node.func if isinstance(node, ast.Call) else node
            label = (ref.attr if isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name)
                     and ref.value.id == "functools" else
                     imported.get(ref.id) if isinstance(ref, ast.Name) else None)
            if label not in CACHES:
                continue
            size = None if not isinstance(node, ast.Call) else (
                node.args[0] if node.args else
                next((k.value for k in node.keywords if k.arg == "maxsize"), None))
            found.append((f"{module}.{name}", label == "lru_cache"
                          and isinstance(size, ast.Constant) and type(size.value) is int))
    return found


def test_caches_are_bounded_and_listed():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = caches(sources)
    assert {site for site, _ in found} == set(CACHE_ALLOWED)
    assert [site for site, bounded in found if not bounded] == []


def test_unbounded_cache_is_found():
    sources = {
        "search": "import functools\nfrom functools import lru_cache, cache as memo\n\n\n"
                  "@lru_cache(maxsize=4)\ndef _a(w, h):\n    return w\n\n\n"
                  "@functools.lru_cache(8)\ndef _b():\n    return 1\n\n\n"
                  "@lru_cache\ndef _c():\n    return 1\n\n\n"
                  "@lru_cache(maxsize=None)\ndef _d():\n    return 1\n\n\n"
                  "@functools.cache\ndef _e():\n    return 1\n\n\n"
                  "class T:\n    @memo\n    def f(self):\n        return 1\n\n\n"
                  "g = lru_cache(maxsize=True)(len)\n"
                  "cache = {}\nobj = T()\nobj.cache = cache\nobj.lru_cache(1)\n",
    }
    assert caches(sources) == [("search._a", True), ("search._b", True), ("search._c", False),
                               ("search._d", False), ("search._e", False), ("search.f", False),
                               ("search.<call>", False)]
