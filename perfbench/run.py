"""Benchmark for lad: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Workloads: tables, wide, proofs, cli (see README.md).  The run builds its
inputs from the seed, compiles ``src/lad`` to byte code, measures the
program's set-up in fresh processes, then repeats whole rounds of the
workload's operations for ``--seconds`` of operation time.  Outputs are
checked against the reference outside the timed region.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the traced pass and reports the
per-layer metrics instead.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tables", "wide", "proofs", "cli")
SETUP_REPEATS = 15
MIN_OPS = 110          # at least this many operations in a run
# The metrics are per-operation medians over rounds.  Every round has at
# least two operations beyond its p90, so five rounds put at least ten
# samples beyond it.
MIN_ROUNDS = 5


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "lad" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'lad'}", file=sys.stderr)
        return 2
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "lad")],
                           capture_output=True, text=True)
    if build.returncode != 0:
        print(f"error: byte-compiling src/lad failed:\n{build.stdout}{build.stderr}", file=sys.stderr)
        return 2
    os.environ.pop("LAD_ATOM_BOUND", None)
    sys.path[:0] = [str(SRC), str(HERE)]

    import core
    import setup_probe

    if args.trace:
        import traced

        result = traced.run(args.workload, args.seed, args.seconds)
        for name, metric in result["metrics"].items():
            print(f"{name:32} {metric['value']:14.4f} {metric['unit']}")
    else:
        setup = _setup_seconds(args.workload)
        setup_probe.warm_up(args.workload)
        ops = __import__(args.workload).build(args.seed)
        loop = core.run_rounds(ops, args.seconds, MIN_OPS, min_rounds=MIN_ROUNDS)
        metrics = core.end_to_end(loop)
        metrics["peak_rss_mb"] = _peak_rss_mb(args.workload)
        metrics["setup_s"] = setup
        units = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
                 "peak_rss_mb": "MB", "setup_s": "s"}
        result = {
            "correct": not loop.errors,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        for error in loop.errors:
            print(f"check failed: {error}", file=sys.stderr)
        print(f"{args.workload}: {loop.rounds} rounds of {len(ops)} ops, "
              f"{sum(loop.latencies):.1f} s of operations")
    print(json.dumps(result))
    return 0


def _setup_seconds(workload: str) -> float:
    """Median over fresh processes of import + warm-up, timed in the child."""
    from cli import run_child

    times = []
    for _ in range(SETUP_REPEATS):
        code, out, err, _ = run_child([sys.executable, str(HERE / "setup_probe.py"), workload])
        if code != 0:
            raise SystemExit(f"error: set-up probe failed: {err.strip()}")
        times.append(float(out))
    return statistics.median(times)


def _peak_rss_mb(workload: str) -> float:
    if workload == "cli":
        from cli import Peak

        return Peak.mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    sys.exit(main())
