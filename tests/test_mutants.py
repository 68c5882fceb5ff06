"""The mutant table of tests/mutants.py against today's source, and its runner
end to end: a planted mutant that a test kills, a no-op that survives, and
one that breaks the import, which is no kill."""

import ast
import re
from dataclasses import replace

import pytest

import mutants
from mutants import MUTANTS, ROOT, Mutant


def slug(mutant):
    return re.sub(r"\W+", "-", mutant.name).strip("-")


@pytest.mark.parametrize("mutant", MUTANTS, ids=slug)
def test_each_snippet_occurs_once(mutant):
    source = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.origin.startswith("CHANGES.md")


@pytest.mark.parametrize("mutant", MUTANTS, ids=slug)
def test_each_named_test_exists(mutant):
    """Each node id is a test module and a chain of classes and functions
    defined in it, so a renamed test cannot leave a mutant unchecked."""
    assert mutant.tests
    for node_id in mutant.tests:
        path, *names = node_id.split("::")
        scope = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            found = [node for node in scope if getattr(node, "name", None) == name]
            assert found, node_id
            scope = found[0].body


LINE_COUNT_TEST = ("tests/test_core.py::TestLineSumSize"
                   "::test_matches_pairwise_sums_at_the_rule_boundary",)
PLANTED = {
    "killed": Mutant("planted: B's last value dropped", "src/sumsetlab/core.py",
                     "bit_mask(w - vb[0] for w in vb)", "bit_mask(w - vb[0] for w in vb[:-1])",
                     LINE_COUNT_TEST, "CHANGES.md: none, a self-test"),
    "survived": Mutant("planted: the terms of each sum swapped", "src/sumsetlab/core.py",
                       "len({u + w for u in va for w in vb})",
                       "len({w + u for u in va for w in vb})", LINE_COUNT_TEST,
                       "CHANGES.md: none, a self-test", survives=True),
    "error": Mutant("planted: core does not import", "src/sumsetlab/core.py",
                    "def _line_sum_size(", "def _line_sum_size(:", LINE_COUNT_TEST,
                    "CHANGES.md: none, a self-test"),
}


@pytest.mark.parametrize("outcome", sorted(PLANTED))
def test_runner_reports_each_outcome(outcome):
    assert mutants.run(PLANTED[outcome]) == outcome


def test_runner_rejects_a_snippet_that_is_not_unique():
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.run(replace(PLANTED["killed"], snippet="no such line"))
