"""The traced run: per-layer metrics from spans around calls into lad.

Every traced run covers all four workloads, since each per-layer metric
is read on the workload whose layer it measures (its home, README.md).
The named workload runs for ``seconds``, alternating an untraced and a
traced round, which gives the tracing overhead; each other workload runs
one traced round.  ``wide`` runs first, so that the process's peak RSS
after it is the search's.

Spans come from the benchmark's own files: ``T.call`` around each call
an operation makes, plus a few module or class attributes of lad routed
through a span for the length of one pass (``PATCHES``).  A metric named
``*_ms`` or ``*_us`` is the mean self time of its spans (duration minus
child spans); ``<metric>.n`` is its sample count.
"""
from __future__ import annotations

import contextlib
import io
import resource
import statistics
import sys

import core
import setup_probe

import lad
import lad.cli
from lad import proofs as lad_proofs
from lad import semantics

PATCHES = {
    "tables": [(semantics.ContextTables, "__init__", "semantics.tables_init"),
               (semantics.ContextTables, "tables", "semantics.tables_build"),
               (semantics.ContextTables, "has_subset", "semantics.has_subset")],
    "wide": [],
    "proofs": [(lad_proofs, "parse", "syntax.parse")],
    "cli": [(lad.cli, "parse", "syntax.parse"),
            (lad.cli, "format_formula", "syntax.format"),
            (lad.cli, "parse_context", "contexts.parse")],
}
PROBES = 7


def run(named: str, seed: int, seconds: float) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    errors: list[str] = []
    attempted = failed = 0
    for workload in ("wide", "tables", "proofs", "cli"):
        setup_probe.warm_up(workload)
        ops = __import__(workload).build(seed)
        tracer = core.Tracer()
        undo = [tracer.patch(*p) for p in PATCHES[workload]]
        try:
            if workload == named:
                loop, overhead = _timed_pair(ops, seconds, tracer)
                metrics["trace.overhead_pct"] = (overhead, "%")
                attempted, failed = loop.attempted, loop.failed
            else:
                loop = core.run_rounds(ops, 0, 0, tracer)
            if workload == "cli":
                _in_process_main(ops, tracer)
                tracer.flush()
        finally:
            for u in undo:
                u()
        errors += loop.errors
        metrics.update(globals()[f"_{workload}_metrics"](ops, loop, tracer))
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    out = {}
    for name, (value, unit) in metrics.items():
        out[name] = {"value": value, "unit": unit}
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": out}


def _timed_pair(ops, seconds, tracer):
    """Alternate untraced and traced rounds; overhead in percent of the
    untraced operation time."""
    first = core.run_rounds(ops, 0, 0, tracer)
    plain = traced = 0.0
    total = core.LoopResult([], 1, first.attempted, first.failed, list(first.errors), first.last)
    while plain + traced < seconds or total.rounds < 3:
        p = core.run_rounds(ops, 0, 0, None, check=False)
        t = core.run_rounds(ops, 0, 0, tracer, check=False)
        if p.last != first.last or t.last != first.last:
            total.errors.append("output changed between rounds")
        plain += sum(p.latencies)
        traced += sum(t.latencies)
        total.rounds += 2
        total.attempted += p.attempted + t.attempted
        total.failed += 2 * first.failed
    return total, 100.0 * (traced - plain) / plain


def _mean(tracer, name, scale=1e3):
    """(mean self time, samples) of the spans called ``name``."""
    count, seconds = tracer.totals.get(name, (0, 0.0))
    return (seconds / count * scale if count else 0.0), count


def _timed(out, tracer, metric, span, unit="ms", scale=1e3):
    value, n = _mean(tracer, span, scale)
    out[metric] = (value, unit)
    out[metric + ".n"] = (n, "count")


def _tables_metrics(ops, loop, tracer):
    out = {}
    for metric, span in (("semantics.tables_init_ms", "semantics.tables_init"),
                         ("semantics.tables_build_ms", "semantics.tables_build"),
                         ("semantics.has_subset_ms", "semantics.has_subset"),
                         ("transforms.nnf_ms", "transforms.nnf"),
                         ("transforms.weakneg_ms", "transforms.weakneg")):
        _timed(out, tracer, metric, span)
    calls = tracer.totals.get("semantics.has_subset", (0, 0.0))[0]
    out["semantics.has_subset_calls"] = (calls / len(tracer.ops), "count/op")
    nodes, hashes = [], []
    for op in ops:
        formulas = [lad.parse(t) for t in op.extra["texts"]]
        nodes.append(sum(lad.size(f) for f in formulas))
        for f in formulas:
            start = core.perf()
            hash(f)
            hashes.append(core.perf() - start)
    out["formulas.nodes"] = (statistics.fmean(nodes), "count/op")
    out["formulas.nodes.n"] = (len(nodes), "count")
    out["formulas.hash_us"] = (statistics.fmean(hashes) * 1e6, "us")
    out["formulas.hash_us.n"] = (len(hashes), "count")
    return out


def _wide_metrics(ops, loop, tracer):
    out = {}
    _timed(out, tracer, "semantics.point_eval_ms", "semantics.point_eval")
    _timed(out, tracer, "semantics.search_ms", "semantics.search")
    spaces = [op.extra["space"](value) for op, value in zip(ops, loop.last) if "space" in op.extra]
    searches, search_s = tracer.totals["semantics.search"]
    out["semantics.search_space"] = (statistics.fmean(spaces), "contexts")
    out["semantics.search_space.n"] = (len(spaces), "count")
    rounds = searches // len(spaces)
    out["semantics.contexts_per_s"] = (rounds * sum(spaces) / search_s, "contexts/s")
    out["semantics.search_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return out


def _proofs_metrics(ops, loop, tracer):
    out = {}
    _timed(out, tracer, "syntax.parse_ms", "syntax.parse")
    _timed(out, tracer, "proofs.parse_ms", "proofs.parse")
    _timed(out, tracer, "proofs.check_ms", "proofs.check")
    _timed(out, tracer, "proofs.sound_ms", "proofs.sound")
    parse_s = tracer.totals["syntax.parse"][1]
    rounds = len(tracer.ops) // len(ops)
    tokens = rounds * sum(op.extra["tokens"] for op in ops)
    out["syntax.tokens_per_ms"] = (tokens / (parse_s * 1e3), "tokens/ms")
    out["proofs.lines"] = (statistics.fmean(v[3] for v in loop.last), "count/op")
    out["proofs.lines.n"] = (len(loop.last), "count")
    return out


def _in_process_main(ops, tracer):
    """``lad.cli.main(argv)`` for each command of the round, in process."""
    for op in ops:
        tracer.op_id += 1
        stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(op.extra["stdin"])
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                tracer.call("cli.main", lad.cli.main, list(op.extra["argv"]))
        finally:
            sys.stdin = stdin


def _cli_metrics(ops, loop, tracer):
    from cli import run_child

    out = {}
    _timed(out, tracer, "cli.process_ms", "cli.process")
    _timed(out, tracer, "cli.main_ms", "cli.main")
    _timed(out, tracer, "syntax.format_ms", "syntax.format")
    _timed(out, tracer, "contexts.parse_ms", "contexts.parse")
    probe = "import time; t = time.perf_counter(); import lad.cli; print(time.perf_counter() - t)"
    imports = [float(run_child([sys.executable, "-c", probe])[1]) for _ in range(PROBES)]
    out["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    out["cli.import_ms.n"] = (PROBES, "count")
    starts = []
    for _ in range(PROBES):
        start = core.perf()
        run_child([sys.executable, "-c", "pass"])
        starts.append(core.perf() - start)
    out["cli.interpreter_ms"] = (statistics.median(starts) * 1e3, "ms")
    out["cli.interpreter_ms.n"] = (PROBES, "count")
    return out
