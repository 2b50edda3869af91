"""Benchmark of homoeoid's acceptance-protocol call shapes.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload large-batch --seed 0 --seconds 20 --trace 0

The workloads and their reasons are in ``workloads.py``.  With ``--trace 0``
the last stdout line carries the end-to-end metrics:

* ``wall_s`` / ``wall_s_2w``: wall time of one pass over the workload's
  units at ``HOMOEOID_THREADS=1`` / ``2``, summing each unit's median time
  over the run's passes;
* ``setup_s``: median over ``SETUP_PROCESSES`` fresh processes of the time
  from process start to inputs ready (interpreter, ``import homoeoid``,
  building families, configs and fields);
* ``peak_rss_mb``: ``ru_maxrss`` of a fresh process after one pass.

With ``--trace 1`` it carries the per-layer metrics of ``tracer.py`` from
traced passes, plus ``trace.overhead_s``.  The line before it records the
environment, the gate figures of each unit and ``failed_frac``.  A unit
fails when it raises, when its output differs between passes (1 vs 2
workers, traced vs untraced, or from run to run), or when its gate fails.
The exit code is non-zero, with no result printed, when the checkout has no
homoeoid source or a measuring process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS, OVERHEAD_METRIC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("large-batch", "pair-scan")
SETUP_PROCESSES = 5
END_TO_END = {"wall_s": "s", "wall_s_2w": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def git_commit(root: Path) -> str:
    """HEAD of the checkout read from ``.git`` directly, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Start one worker process; returns its record and its set-up time."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    record = json.loads(lines[-1])
    return record, record["ready"] - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "homoeoid" / "__init__.py").is_file():
        print(f"perfbench: no homoeoid source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROCESSES - 1):
                setups.append(run_worker(args, deadline, setup_only=True)[1])
        record, setup = run_worker(args, deadline, setup_only=False)
        setups.append(setup)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        units = {name: unit for name, unit, *_ in (*LAYER_METRICS, OVERHEAD_METRIC)}
    else:
        units = END_TO_END
        record["metrics"]["setup_s"] = statistics.median(setups)
    attempted, failed = record["attempted"], record["failed"]
    info = {
        "environment": {**record["environment"], "commit": git_commit(ROOT)},
        "figures": record["figures"],
        "failed_frac": failed / attempted,
        "problems": record["problems"],
        "rounds": record["rounds"],
        "pass_times": record["pass_times"],
        "pass_cpu_times": record["pass_cpu_times"],
        "setup_times": setups,
    }
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": record["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
