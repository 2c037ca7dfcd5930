"""Closed-loop runner, span tracer and metric arithmetic shared by the
workloads.

A workload is a list of ``Op``.  One round runs every op once, in order;
a run repeats whole rounds, so every run attempts the same share of each
op.  Only ``Op.run`` is timed.  Its raw result is turned into a plain
value by ``Op.norm`` outside the timed region; the first round's values
go through ``Op.check`` (the reference checks) and later rounds must
reproduce them exactly.
"""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

perf = time.perf_counter


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]               # run(tracer) -> raw result
    norm: Callable[[Any], Any] = lambda raw: raw
    check: Callable[[Any], str | None] = lambda value: None
    # True when an output is the known program fault's wrong answer.
    fault: Callable[[Any], bool] | None = None
    extra: dict = field(default_factory=dict)   # what the traced pass reads


class NoTrace:
    """Calls straight through; what the timed runs use."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans (name, start, end, parent, op id) kept in memory."""

    enabled = True

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = 0
        self.totals: dict[str, list] = {}    # name -> [count, self seconds]
        self.ops: set[int] = set()           # op ids that made a span

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def patch(self, owner, attr, name):
        """Route ``owner.attr`` through a span; returns an undo callable."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original))
        return lambda: setattr(owner, attr, original)

    def flush(self) -> None:
        """Fold the finished spans into per-name totals of count and self
        time (duration minus child spans).  Call between operations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, op_id) in enumerate(self.spans):
            total = self.totals.setdefault(name, [0, 0.0])
            total[0] += 1
            total[1] += end - start - child[i]
            self.ops.add(op_id)
        self.spans.clear()


@dataclass
class LoopResult:
    latencies: list[float]
    rounds: int
    attempted: int
    failed: int
    errors: list[str]
    last: list          # the last round's outputs


def run_rounds(ops: list[Op], seconds: float, min_ops: int, tracer=None,
               min_rounds: int = 1, check: bool = True) -> LoopResult:
    """Repeat whole rounds until the operations have taken ``seconds`` in
    all, at least ``min_ops`` of them ran and at least ``min_rounds``
    rounds ran.  Checking and bookkeeping between operations do not count
    toward ``seconds``."""
    tracer = tracer or NoTrace()
    latencies: list[float] = []
    first: list | None = None
    errors: list[str] = []
    failing = failed = rounds = 0
    while True:
        values = []
        for op in ops:
            if tracer.enabled:
                tracer.op_id += 1
            t0 = perf()
            try:
                raw = op.run(tracer)
            except Exception as exc:  # a crash is a wrong output, not a stop
                latencies.append(perf() - t0)
                values.append(("raised", type(exc).__name__, str(exc)))
                continue
            latencies.append(perf() - t0)
            values.append(op.norm(raw))
        if not check:
            pass
        elif first is None:
            first = values
            for op, value in zip(ops, values):
                if op.fault is not None and op.fault(value):
                    failing += 1
                    continue
                problem = _checked(op, value)
                if problem is not None:
                    errors.append(f"{op.kind}: {problem}")
        elif values != first:
            bad = next(i for i, (a, b) in enumerate(zip(values, first)) if a != b)
            errors.append(f"{ops[bad].kind}: output changed between rounds")
        failed += failing
        rounds += 1
        if tracer.enabled:
            tracer.flush()
        if sum(latencies) >= seconds and len(latencies) >= min_ops and rounds >= min_rounds:
            break
    return LoopResult(latencies, rounds, len(latencies), failed, errors, values)


def _checked(op: Op, value) -> str | None:
    if isinstance(value, tuple) and value[:1] == ("raised",):
        return f"raised {value[1]}: {value[2]}"
    try:
        return op.check(value)
    except Exception as exc:  # a check that cannot read the output fails it
        return f"check could not read the output ({type(exc).__name__}: {exc})"


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(n=100)`` gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(loop: LoopResult) -> dict[str, float]:
    """Each operation's latency is the median of its latencies over the
    run's rounds; throughput (operations over their summed latencies) and
    the percentiles are taken over those per-operation medians.  Every
    round runs the same operations, so an operation that fell into a slow
    spell of a shared machine in one round moves the figures less than it
    would move figures pooled over the whole run."""
    size = loop.attempted // loop.rounds
    per_op = [statistics.median(loop.latencies[i::size]) for i in range(size)]
    return {
        "throughput_ops_s": size / sum(per_op),
        "latency_p50_ms": statistics.median(per_op) * 1e3,
        "latency_p90_ms": quantile(per_op, 90) * 1e3,
    }
