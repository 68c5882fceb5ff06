"""Lint checks on the library's source.

No broad exception handler: a bare `except:`, an `except Exception` or an
`except BaseException` would turn a bug into an ordinary error or exit code
instead of a traceback.  No unused private code: a module-level `_name`
function or class that nothing in `src/` refers to is dead.  No third-party
import: the library has no runtime dependencies, and numpy in particular
must not become one.
"""

import ast
import sys
from pathlib import Path

import pytest

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
