"""Self-test of the benchmark: span bookkeeping, and golden checks that fail.

    python3 perfbench/test_perfbench.py
"""

import copy
import random
import sys
import tempfile
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTracer(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = spans.Tracer(clock=self.clock, watch=("outer",))

    def test_nested_self_time(self):
        def inner_body():
            self.clock.advance(3)

        inner = self.tracer.wrap("inner", inner_body)

        def outer_body():
            self.clock.advance(1)
            inner()
            self.clock.advance(2)
            inner()
            self.clock.advance(1)

        outer = self.tracer.wrap("outer", outer_body)
        outer()
        inner()  # outside outer: not counted under it
        t = self.tracer
        self.assertEqual((t.calls["outer"], t.calls["inner"]), (1, 3))
        self.assertEqual(t.total["outer"], 10)
        self.assertEqual(t.self_time["outer"], 4)
        self.assertEqual(t.self_time["inner"], 9)
        self.assertEqual(t.edge_time["outer", "inner"], 6)
        self.assertEqual(t.edge_time[None, "outer"], 10)
        self.assertEqual(t.edge_time[None, "inner"], 3)
        self.assertEqual(t.under["outer", "inner"], 2)
        self.assertEqual(sum(t.self_time.values()), 13)

    def test_recursion_counts_total_once(self):
        def body(n):
            self.clock.advance(1)
            if n:
                rec(n - 1)

        rec = self.tracer.wrap("rec", body)
        rec(2)
        self.assertEqual(self.tracer.calls["rec"], 3)
        self.assertEqual(self.tracer.total["rec"], 3)
        self.assertEqual(self.tracer.self_time["rec"], 3)

    def test_raising_call_closes_its_span(self):
        def body():
            self.clock.advance(2)
            raise ValueError

        boom = self.tracer.wrap("boom", body)
        with self.assertRaises(ValueError):
            boom()
        self.assertEqual(self.tracer.self_time["boom"], 2)
        self.assertEqual(self.tracer._stack, [])

    def test_count_hook(self):
        double = self.tracer.wrap("double", lambda x: 2 * x, lambda args, out: {"in": args[0], "out": out})
        double(3)
        double(4)
        self.assertEqual(self.tracer.counts, {"in": 7, "out": 14})


class TestInstalled(unittest.TestCase):
    def test_patches_every_binding_and_restores(self):
        home = types.ModuleType("pkg.home")
        user = types.ModuleType("pkg.user")
        other = types.ModuleType("pkg.other")

        def f():
            return "f"

        class K:
            def __init__(self):
                self.made = True

        home.f, user.f, other.f, home.K = f, f, (lambda: "not f"), K
        original_init = K.__init__
        tracer = spans.Tracer()
        points = [("f", home, "f", None), ("K", K, "__init__", None)]
        with spans.installed(tracer, points, [home, user, other]):
            home.f()
            user.f()
            other.f()
            self.assertTrue(K().made)
        self.assertEqual(tracer.calls, {"f": 2, "K": 1})
        self.assertIs(home.f, f)
        self.assertIs(user.f, f)
        self.assertIs(K.__init__, original_init)

    def test_library_layers_cover_imported_names(self):
        sl = run.import_library()
        original = sl.core.minkowski_sum
        tracer = spans.Tracer()
        with spans.installed(tracer, spans.layer_points(sl), spans.package_modules("sumsetlab")):
            self.assertIsNot(sl.bounds.minkowski_sum, original)
            a = sl.PointSet2D([(0, 0), (1, 0)])
            sl.bound(sl.BoundMode.LINES_GS, a, a)  # calls minkowski_sum through bounds' binding
        self.assertEqual(tracer.calls["core.minkowski_sum"], 1)
        self.assertEqual(tracer.counts["core.minkowski_sum_pairs"], 4)
        self.assertIs(sl.bounds.minkowski_sum, original)


class TestGoldenChecks(unittest.TestCase):
    """A wrong golden value must show up as a failure, not as a pass."""

    def setUp(self):
        self.sl = run.import_library()
        self.golden = workloads.load_golden()
        scratch = run.ROOT / ".perfbench-tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(dir=scratch)

    def tearDown(self):
        self.tmp.cleanup()

    def first_op(self, name, golden, op_name):
        wl = workloads.SETUPS[name](self.sl, 1, golden, run.ROOT, Path(self.tmp.name))
        return next(op for op in wl.cycle(0, random.Random(1)) if op.name == op_name)

    def outcomes(self, name, golden, op_name):
        runner = run.Runner()
        runner.run_op(self.first_op(name, golden, op_name))
        return runner.failures, len(runner.times)

    def test_sweep_golden(self):
        self.assertEqual(self.outcomes("sweep", self.golden, "3x3 lines"), (0, 1))
        wrong = copy.deepcopy(self.golden)
        wrong["sweep"]["3x3 lines"]["classified_tally"]["TrapezoidPair"] += 1
        self.assertEqual(self.outcomes("sweep", wrong, "3x3 lines"), (1, 1))

    def test_analyze_golden(self):
        op = "bound lines T(10,61,0,1)"
        self.assertEqual(self.outcomes("analyze", self.golden, op), (0, 1))
        wrong = copy.deepcopy(self.golden)
        wrong["analyze"]["T(10,61,0,1) twice"]["lines"]["lhs"] = "2129"
        self.assertEqual(self.outcomes("analyze", wrong, op), (1, 1))

    def test_cli_golden(self):
        self.assertEqual(self.outcomes("cli", self.golden, "lemma-avg"), (0, 1))
        wrong = copy.deepcopy(self.golden)
        wrong["cli"]["outputs"]["lemma-avg"]["report"]["equality"] = False
        self.assertEqual(self.outcomes("cli", wrong, "lemma-avg"), (1, 1))

    def test_raising_operation_is_a_failure(self):
        runner = run.Runner()
        runner.run_op(workloads.Op("raises", lambda: 1 / 0, lambda out: True))
        self.assertEqual((runner.failures, len(runner.times)), (1, 1))


if __name__ == "__main__":
    unittest.main()
