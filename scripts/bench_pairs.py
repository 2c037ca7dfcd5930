"""Alternating benchmark pairs: a base checkout against this one.

    python3 scripts/bench_pairs.py --base DIR --base-label REV --head-label REV \\
        --workload proofs --seeds 951 952 953 954 --seconds 20 --out BENCH_12.json

``DIR`` is another copy of the repository (``git archive REV | tar -x
-C DIR``).  For each seed the script runs ``perfbench/run.py`` once in
the base copy and once in this one, on the same seed, and alternates
which side goes first from one pair to the next.  Just before each run
it times a fixed pure-Python loop in a fresh interpreter
(``calibration_s``), so that a run made in one of the machine's fast or
slow spells shows as such.

Each pair becomes one record in ``--out``: the workload, seed, seconds,
order, and per side the calibration time, ``correct``, ``failed`` and
the five end-to-end metrics.  An existing file is extended, so one file
can gather the pairs of several workloads.

After its pairs the script prints, for each metric over every pair of
the workload in ``--out``: the base and head medians, each side's
quartiles (inclusive method), the relative change, how many pairs the
head won (higher throughput, lower everything else), the gap
between the medians against the base's interquartile distance, and a
verdict against the metric's relative bound in ``BENCHMARK.json``:
``regressed`` when the head median is worse than the base median by
more than the bound, else ``unresolved`` when the base's interquartile
distance is wider than the bound (as a share of the base median), else
``within bound``.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
METRICS = ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s")
HIGHER_IS_BETTER = {"throughput_ops_s"}
CALIBRATION = (
    "import time\n"
    "t = time.perf_counter()\n"
    "total = 0\n"
    "for i in range(2_000_000):\n"
    "    total += i * i % 7\n"
    "print(time.perf_counter() - t)\n"
)


def calibrate() -> float:
    out = subprocess.run([sys.executable, "-c", CALIBRATION], capture_output=True,
                         text=True, check=True)
    return float(out.stdout)


def run_side(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    calibration = calibrate()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: run in {checkout} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "calibration_s": round(calibration, 4),
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def bounds() -> dict[str, float]:
    """Each end-to-end metric's relative bound, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def verdict(base: float, head: float, iqr: float, bound: float, higher: bool) -> str:
    """The metric's verdict from the medians and the base's
    interquartile distance (see the module docstring)."""
    worse = (base - head if higher else head - base) / base
    if worse > bound:
        return "regressed"
    if iqr / base > bound:
        return "unresolved"
    return "within bound"


def summary(pairs: list[dict], workload: str) -> list[str]:
    """One line per metric over the workload's pairs (see the module docstring)."""
    rows = [p for p in pairs if p["workload"] == workload]
    bound = bounds()
    lines = []
    for m in METRICS:
        base = [p["base"]["metrics"][m] for p in rows]
        head = [p["head"]["metrics"][m] for p in rows]
        b1, b2, b3 = quartiles(base)
        h1, h2, h3 = quartiles(head)
        higher = m in HIGHER_IS_BETTER
        won = sum(h > b if higher else h < b for b, h in zip(base, head))
        lines.append(
            f"{workload} {m}: base {b2:.4g} [{b1:.4g}, {b3:.4g}] -> head {h2:.4g} "
            f"[{h1:.4g}, {h3:.4g}] ({h2 / b2 - 1:+.1%}), head better in {won}/{len(rows)} "
            f"pairs, median gap {abs(h2 - b2):.4g} against base IQR {b3 - b1:.4g}: "
            f"{verdict(b2, h2, b3 - b1, bound[m], higher)} (bound {bound[m]:.0%})"
        )
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=pathlib.Path, required=True)
    ap.add_argument("--base-label", required=True)
    ap.add_argument("--head-label", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=pathlib.Path, required=True)
    args = ap.parse_args()

    if args.out.exists():
        doc = json.loads(args.out.read_text())
    else:
        doc = {
            "base": args.base_label,
            "head": args.head_label,
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "calibration": "seconds for a fixed 2,000,000-step pure-Python loop in a fresh "
                           "interpreter, taken just before each run; lower is a faster spell",
            "pairs": [],
        }
    sides = {"base": args.base.resolve(), "head": ROOT}
    for seed in args.seeds:
        order = ["base", "head"] if len(doc["pairs"]) % 2 == 0 else ["head", "base"]
        record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
                  "order": order}
        for side in order:
            record[side] = run_side(sides[side], args.workload, seed, args.seconds)
        doc["pairs"].append(record)
        b, h = record["base"]["metrics"], record["head"]["metrics"]
        print(f"{args.workload} seed {seed} ({order[0]} first): throughput "
              f"{b['throughput_ops_s']:.1f} -> {h['throughput_ops_s']:.1f}, p50 "
              f"{b['latency_p50_ms']:.3f} -> {h['latency_p50_ms']:.3f} ms", flush=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(summary(doc["pairs"], args.workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
