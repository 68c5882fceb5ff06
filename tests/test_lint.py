"""No broad exception handler in the library: a bare `except:`, an
`except Exception` or an `except BaseException` would turn a bug into an
ordinary error or exit code instead of a traceback."""

import ast
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
