"""One measuring process of the benchmark; ``run.py`` starts and reads it.

The process imports homoeoid from the checkout's ``src``, builds the
workload's units from the seed (that is the set-up ``setup_s`` times), then
times rounds of passes until ``--seconds`` are used (at least
``MIN_ROUNDS``).  A round is a 1-worker and a 2-worker pass, or with
``--trace 1`` an untraced and a traced pass, in alternating order.  Peak RSS
is read after the first pass.  Every unit's output is compared with its
first output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import homoeoid  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3


class Checker:
    """Counts unit executions and those that raised, changed output or
    failed their gate.  Each unit's first output is its reference."""

    def __init__(self, units, gate_all: bool):
        self.units = units
        self.gate_all = gate_all
        self.reference: list = [None] * len(units)
        self.figures: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, outputs, label: str) -> None:
        for i, (unit, output) in enumerate(zip(self.units, outputs)):
            self.attempted += 1
            problem = self._problem(i, unit, output)
            if problem:
                self.failed += 1
                self.problems.append(f"{label} {unit.name}: {problem}")

    def _problem(self, i, unit, output):
        if output is None:
            return "raised"
        body, figures = output
        if self.reference[i] is None:
            self.reference[i] = body
            self.figures[unit.name] = figures
        elif body != self.reference[i]:
            return "output differs from its first output"
        if (self.gate_all or unit.gate_every_seed) and not unit.gate(figures):
            return f"gate failed: {figures}"
        return None


def run_pass(units, out_dir: Path, workers: int, tracer=None):
    """Run every unit once; returns per-unit wall times and outputs
    (``None`` for a unit that raised)."""
    os.environ["HOMOEOID_THREADS"] = str(workers)
    outputs = []
    times = []
    cpu_times = []
    for unit in units:
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            if tracer is None:
                outputs.append(unit.run(out_dir))
            else:
                with tracer.span(f"unit.{unit.name}"):
                    outputs.append(unit.run(out_dir))
        except Exception:  # a failing unit is counted, the benchmark goes on
            traceback.print_exc()
            outputs.append(None)
        times.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu_start)
    return times, cpu_times, outputs


def work_time(passes) -> float:
    """Time of one pass: the sum over units of each unit's median time.

    Other tenants of a shared host slow the code down in phases of seconds
    and also leave it short fast phases; the median over the whole run is
    moved by neither as long as they cover less than half of it.
    """
    return sum(statistics.median(unit) for unit in zip(*passes))


def traced_pass(units, out_dir: Path, tracer):
    tracer.reset()
    tracer.install()
    try:
        return run_pass(units, out_dir, 1, tracer)
    finally:
        tracer.remove()


def environment(args, threads_env) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "homoeoid": homoeoid.__version__,
        "HOMOEOID_THREADS_inherited": threads_env,
        "HOMOEOID_THREADS_used": [1] if args.trace else [1, 2],
    }


def measure(units, args) -> dict:
    checker = Checker(units, gate_all=args.seed == 0)
    tracer = tracing.Tracer(extra_modules=[workloads])
    modes = ("plain", "traced") if args.trace else ("1w", "2w")
    times: dict = {mode: [] for mode in modes}
    cpu_times: dict = {mode: [] for mode in modes}
    layer_samples = []
    peak_rss_mb = None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="run-") as tmp:
        out_dir = Path(tmp)
        start = time.perf_counter()
        rounds = 0
        while True:
            for mode in modes if rounds % 2 == 0 else modes[::-1]:
                if mode == "traced":
                    unit_times, unit_cpu, outputs = traced_pass(units, out_dir, tracer)
                    layer_samples.append(tracing.layer_metrics(tracer.stats()))
                else:
                    unit_times, unit_cpu, outputs = run_pass(
                        units, out_dir, 2 if mode == "2w" else 1
                    )
                times[mode].append(unit_times)
                cpu_times[mode].append(unit_cpu)
                checker.check(outputs, mode)
                if peak_rss_mb is None:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            rounds += 1
            used = time.perf_counter() - start
            if rounds >= MIN_ROUNDS and used + used / rounds > args.seconds:
                break

    if args.trace:
        # the spans of the last traced pass are still in memory
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed})
        metrics = tracing.median_metrics(layer_samples)
        metrics["trace.overhead_s"] = work_time(times["traced"]) - work_time(times["plain"])
    else:
        metrics = {
            "wall_s": work_time(times["1w"]),
            "wall_s_2w": work_time(times["2w"]),
            "peak_rss_mb": peak_rss_mb,
        }
    return {
        "metrics": metrics,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "figures": checker.figures,
        "rounds": rounds,
        "pass_times": times,
        "pass_cpu_times": cpu_times,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    loaded = Path(homoeoid.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        print(f"perfbench: homoeoid loaded from {loaded}, not from {SRC}", file=sys.stderr)
        return 2
    threads_env = os.environ.get("HOMOEOID_THREADS")
    units = workloads.build(args.workload, args.seed)
    ready = time.monotonic()
    record = {"ready": ready}
    if not args.setup_only:
        record.update(measure(units, args))
        record["environment"] = environment(args, threads_env)
    print(json.dumps(record, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
