"""Mutation checks kept with the tests: a table of mutants of the library's
source, and a runner that applies one mutant at a time to a copy.

Each mutant names a file, a snippet that occurs exactly once in it, the
snippet's replacement, the tests that must fail against it, and the
CHANGES.md entry it came from.  The runner copies `src/` and `tests/` to a
temporary directory, applies the mutant there and runs only its tests, with
the copy's `src/` first on the path.  A mutant is killed when one of its
tests fails; a collection error, or a selection that runs no test, is no
kill.  A mutant recorded as a survivor (equivalent, or costing only time)
is expected to survive.

    python tests/mutants.py              # every mutant, with a kill count
    python tests/mutants.py chain        # the mutants whose name holds "chain"

The exit code is 1 when any mutant's outcome is not the expected one.
`tests/test_mutants.py` checks every snippet against today's source, so a
change that rewrites a guarded line has to update or retire its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str  # occurs exactly once in path
    replacement: str
    tests: tuple  # pytest node ids; one of them must fail
    origin: str  # the CHANGES.md entry the mutant came from
    survives: bool = False  # a known survivor, recorded as such


KERNEL_ENTRY = "CHANGES.md: the exact bitset kernel's mutation checks (four in the chain loop)"
CHAIN_TESTS = ("tests/test_core.py::TestLineSumSize",
               "tests/test_bounds.py::TestSectionChainSums")

MUTANTS = (
    Mutant("chain: no 2-point sections", "src/sumsetlab/bounds.py",
           "            if count > card:\n",
           "            if count > card and min(size_a, size_b) > 2:\n",
           CHAIN_TESTS, KERNEL_ENTRY),
    Mutant("chain: keys off by one", "src/sumsetlab/core.py",
           "[(v, 0, 1) for v in va]", "[(v, 0, 2) for v in va]",
           CHAIN_TESTS, KERNEL_ENTRY),
    Mutant("chain: a separate scale per set", "src/sumsetlab/core.py",
           "    grid_b = _regrid(xs_b, sxb, sx), _regrid(ys_b, syb, sy)\n",
           "    grid_b = _regrid(xs_b, sxb, sxb), _regrid(ys_b, syb, syb)\n",
           CHAIN_TESTS, KERNEL_ENTRY),
    Mutant("chain: one value dropped from B's mask", "src/sumsetlab/core.py",
           "bit_mask(w - vb[0] for w in vb)", "bit_mask(w - vb[0] for w in vb[:-1])",
           CHAIN_TESTS, KERNEL_ENTRY),
    Mutant("chain: count < have in the pruning", "src/sumsetlab/bounds.py",
           "            if count <= have:\n", "            if count < have:\n",
           CHAIN_TESTS, KERNEL_ENTRY + "; the survivor, which only costs time", survives=True),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error' (pytest collected nothing to run, or
    stopped on a collection or usage error) for one mutant on a copy."""
    with tempfile.TemporaryDirectory(prefix="sumsetlab-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, Path(tmp) / tree, ignore=ignore)
        target = Path(tmp) / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise ValueError(f"{mutant.name}: the snippet occurs {text.count(mutant.snippet)} "
                             f"times in {mutant.path}")
        target.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.tests],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(word in m.name for word in argv)]
    outcomes = []
    for mutant in chosen:
        outcome = run(mutant)
        expected = "survived" if mutant.survives else "killed"
        outcomes.append((outcome, expected))
        print(f"{outcome:8}  {'' if outcome == expected else '(expected ' + expected + ')  '}"
              f"{mutant.name}", flush=True)
    kills = sum(outcome == "killed" for outcome, _ in outcomes)
    print(f"{kills} of {len(chosen)} mutants killed, "
          f"{sum(m.survives for m in chosen)} recorded as survivors")
    return int(any(outcome != expected for outcome, expected in outcomes))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
