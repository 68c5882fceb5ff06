"""sumsetlab benchmark: four workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1 --out FILE

One run sets up its workload several times (import plus input generation)
and reports the median as setup_s.  It then runs whole cycles of the
workload's fixed operation mix in a closed loop, one operation in flight,
until --seconds have passed, and checks every output.  Times are scaled to
a reference machine speed measured by probes between operations (see
speed_probe).  With --trace 0 it reports the end-to-end metrics.  With
--trace 1 it replays the same cycles again with every layer's public
functions wrapped in spans, and reports the per-layer metrics plus the
tracing overhead (traced time of the replayed operations over their
untraced time).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--workload all runs each workload in its own process, one after another,
prints every metric by name and unit, and with --out writes the results
together with the git revision, Python version and CPU count.
"""

from __future__ import annotations

import argparse
from array import array
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "scan", "analyze", "cli")
SETUP_REPEATS = 5
CLI_PROBE_REPEATS = 9
MAX_REPORTED_FAILURES = 5
PROBE_ITEMS = 1500
PROBE_EVERY_S = 0.1
PROBE_SHARE = 0.25
PROBE_WINDOW = 10
REFERENCE_PROBE_S = 0.03
OP_UNITS = {"sweep": "config sweeps", "scan": "checks", "analyze": "requests", "cli": "pipelines"}


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def import_library():
    """A fresh import of the package from this checkout's sources."""
    for name in [n for n in sys.modules if n == "sumsetlab" or n.startswith("sumsetlab.")]:
        del sys.modules[name]
    sl = importlib.import_module("sumsetlab")
    if Path(sl.__file__).resolve().parent != SRC / "sumsetlab":
        raise ImportError(f"sumsetlab imported from {sl.__file__}, not from {SRC}")
    return sl


def speed_probe() -> float:
    """Seconds one fixed stdlib computation takes: rational arithmetic,
    hashing and sorting, the kind of work the library does.

    The machine's speed drifts by tens of percent within a minute when other
    tenants load it, so every reported time is scaled to the speed at which
    this probe takes REFERENCE_PROBE_S, using probes taken between operations.
    """
    t0 = time.perf_counter()
    items = {(Fraction(i, 7) + Fraction(1, 3), i % 17) for i in range(PROBE_ITEMS)}
    sorted(items)
    return time.perf_counter() - t0


class Runner:
    """Runs cycles of operations.  It keeps each operation's duration and
    the probe block it ran in (the stretch between two speed probes) in
    compact arrays, so the benchmark's own memory stays flat however many
    operations a run makes."""

    def __init__(self):
        self.times = array("d")
        self.blocks = array("l")
        self.work = 0
        self.failures = 0
        self.probes: list = []
        self._last_probe = 0.0

    def probe(self) -> None:
        """Probe for at least PROBE_SHARE of the time since the last probe."""
        budget = PROBE_SHARE * (time.perf_counter() - self._last_probe) if self.probes else 0
        times = [speed_probe()]
        while sum(times) < budget:
            times.append(speed_probe())
        self.probes.append(statistics.mean(times))
        self._last_probe = time.perf_counter()

    def run_op(self, op) -> None:
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception:  # a raising operation is a failure to count, not a crash
            self.record(op, time.perf_counter() - t0)
            self._fail(op, traceback.format_exc())
            return
        self.record(op, time.perf_counter() - t0)
        try:
            ok = op.check(out)
        except Exception:
            self._fail(op, traceback.format_exc())
            return
        if not ok:
            self._fail(op, "output differs from the expected value")

    def record(self, op, duration: float) -> None:
        self.times.append(duration)
        self.blocks.append(len(self.probes) - 1)
        self.work += op.work

    def _fail(self, op, why: str) -> None:
        self.failures += 1
        if self.failures <= MAX_REPORTED_FAILURES:
            print(f"FAILED {op.name}: {why}", file=sys.stderr)

    def run(self, wl, seed: int, seconds: float | None = None, cycles: int | None = None) -> int:
        """Exactly `cycles` cycles, or the whole number of cycles nearest to
        `seconds`: the run stops when another cycle would end more than half
        a cycle past the deadline, so runs of long cycles keep one count."""
        rng = random.Random(seed)
        start = time.perf_counter()
        done = 0
        self.probe()
        while cycles is None or done < cycles:
            for op in wl.cycle(done, rng):
                if time.perf_counter() - self._last_probe >= PROBE_EVERY_S:
                    self.probe()
                self.run_op(op)
            done += 1
            elapsed = time.perf_counter() - start
            if cycles is None and elapsed * (1 + 0.5 / done) >= seconds:
                break
        self.probe()
        return done

    def scaled(self) -> list:
        """Operation durations at reference speed.  Block b lies between
        probes b and b + 1; its speed is the mean of the PROBE_WINDOW probes
        centred on it, which smooths the probe's own noise but still follows
        the drift, which is slower."""
        half = PROBE_WINDOW // 2
        speed = [statistics.mean(self.probes[max(0, b - half + 1):b + half + 1])
                 for b in range(len(self.probes) - 1)]
        return [d * REFERENCE_PROBE_S / speed[b] for d, b in zip(self.times, self.blocks)]


def end_to_end(wl, runner: Runner, setup_s: float) -> dict:
    durations = runner.scaled()
    who = resource.RUSAGE_SELF if wl.spawn is None else resource.RUSAGE_CHILDREN
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (runner.work / sum(durations), "1/s"),
        "latency_ms_p50": (percentile(durations, 50) * 1000, "ms"),
        "latency_ms_p90": (percentile(durations, 90) * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def cli_layer(wl, cycles: int, speed: float) -> dict:
    """Interpreter start, package import and command time of one CLI process,
    at reference speed; `speed` scales the stage times of the traced cycles."""
    names = ("cli.interpreter_ms", "cli.import_ms", "cli.command_ms", "cli.processes")
    if not wl.stage_times:
        return {name: (0.0, "count" if name == "cli.processes" else "ms") for name in names}

    def median_ms(argv):
        times = []
        for _ in range(CLI_PROBE_REPEATS):
            before = speed_probe()
            t0 = time.perf_counter()
            wl.spawn(argv).check_returncode()
            elapsed = time.perf_counter() - t0
            times.append(elapsed * 2 * REFERENCE_PROBE_S / (before + speed_probe()))
        return statistics.median(times) * 1000

    interpreter = median_ms(["-c", "pass"])
    imported = median_ms(["-c", "import sumsetlab.cli"]) - interpreter
    command = statistics.mean(wl.stage_times) * speed * 1000 - interpreter - imported
    return {"cli.interpreter_ms": (interpreter, "ms"), "cli.import_ms": (imported, "ms"),
            "cli.command_ms": (command, "ms"),
            "cli.processes": (len(wl.stage_times) / cycles, "count")}


def run_one(args) -> int:
    import spans
    import workloads

    golden = workloads.load_golden()
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = speed_probe()
            t0 = time.perf_counter()
            sl = import_library()
            wl = workloads.SETUPS[args.workload](sl, args.seed, golden, ROOT, tmp)
            elapsed = time.perf_counter() - t0
            setups.append(elapsed * 2 * REFERENCE_PROBE_S / (before + speed_probe()))

        untraced = Runner()
        cycles = untraced.run(wl, args.seed, seconds=args.seconds)
        runners = [untraced]
        if args.trace:
            wl.stage_times.clear()
            tracer = spans.Tracer(watch=("classify.thm3",))
            traced = Runner()
            with spans.installed(tracer, spans.layer_points(sl), spans.package_modules("sumsetlab")):
                traced.run(wl, args.seed, cycles=cycles)
            runners.append(traced)
            speed = sum(traced.scaled()) / sum(traced.times)
            metrics = {name: (value * speed if unit == "s" else value, unit)
                       for name, (value, unit) in spans.layer_metrics(tracer, cycles).items()}
            metrics.update(cli_layer(wl, cycles, speed))
            metrics["trace.overhead"] = (sum(traced.scaled()) / sum(untraced.scaled()), "ratio")
        else:
            metrics = end_to_end(wl, untraced, statistics.median(setups))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(r.times) for r in runners)
    failed = sum(r.failures for r in runners)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:34s} {value:16.6f} {unit}", file=sys.stderr)
    raw = list(untraced.times)
    print(f"{args.workload:8s} unscaled: ops_per_s {untraced.work / sum(raw):.6f} "
          f"latency_ms_p50 {percentile(raw, 50) * 1000:.3f} latency_ms_p90 {percentile(raw, 90) * 1000:.3f}",
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


def environment() -> dict:
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30).stdout.strip() or None
    except OSError:
        revision = None
    return {"revision": revision, "python": platform.python_version(), "nproc": os.cpu_count()}


def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            continue
        result = json.loads(lines[-1])
        results[name] = result
        if not result["correct"]:
            status = 1
        print(f"{name}: attempted {result['attempted']} {OP_UNITS[name] if not args.trace else 'operations'}, "
              f"failed {result['failed']}, failed_frac {result['failed'] / result['attempted']:.6f}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:34s} {m['value']:16.6f} {m['unit']}")
    if args.out:
        record = {**environment(), "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "results": results}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="with --workload all: write the results here as JSON")
    args = parser.parse_args()
    if not (SRC / "sumsetlab" / "__init__.py").is_file():
        print(f"error: no sumsetlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
