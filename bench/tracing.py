"""Span recorder for the traced run, attached from outside the program.

The tracer replaces public functions at the names their callers resolve
(module attributes and `BagSolver` methods) with wrappers that record a span
(name, start, end, parent, op id) and update per-op counters, and puts the
originals back on `uninstall`. Spans stay in memory until the run ends. A
layer's self time is its spans' duration minus the part covered by their
child spans, so the self times of one op add up to its traced wall time.

A name the program no longer defines fails the traced run, and so does a
layer metric that nothing fed although ops that run its layer were answered:
a refactor that moves a layer must move its wrappers too, rather than have
its figures read 0. A metric whose layer ran on no op reads 0.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

ENGINES = ("acq", "acq-sum", "acq-sum-dup", "cqneg", "fo-kernel")

# Span name -> per-layer time metric fed by the span's self time.
TIME_METRICS = {
    "cli": "cli.self_ms",
    "dbio.load": "dbio.load_ms",
    "queries.sols_atom": "queries.sols_atom_ms",
    "structure": "structure.ms",
    "acq.init": "acq.init_ms",
    "acq.merge": "acq.merge_ms",
    "acq.finalize": "acq.finalize_ms",
    "acq.witness": "acq.witness_ms",
    "cqneg.bag_enum": "cqneg.bag_enum_ms",
    "cqneg.leaf": "cqneg.leaf_ms",
    "cqneg.introduce": "cqneg.introduce_ms",
    "cqneg.forget": "cqneg.forget_ms",
    "cqneg.join": "cqneg.join_ms",
    "cqneg.finalize": "cqneg.finalize_ms",
    "cqneg.witness": "cqneg.witness_ms",
    "kernel.materialize": "kernel.materialize_ms",
    "kernel.kernelize": "kernel.kernelize_ms",
    "kernel.search": "kernel.search_ms",
    "model.verify": "model.verify_ms",
}

# Count metrics reported as a mean per op.
COUNT_METRICS = (
    "dbio.facts", "queries.sols_rows", "structure.gyo_calls",
    "acq.init_entries", "acq.merge_entries", "cqneg.entries", "cqneg.literal_checks",
    "kernel.answers", "kernel.capping_calls", "kernel.kernel_rows", "kernel.candidates",
)
MAX_METRICS = ("acq.max_table", "cqneg.max_table")
# Ratio metric -> (numerator counter, denominator counter), both summed over ops.
RATIO_METRICS = {
    "acq.merge_growth": ("acq.merge_entries", "acq.merge_parent_in"),
    "cqneg.literal_pass_ratio": ("cqneg.literal_passes", "cqneg.literal_checks"),
    "kernel.keep_ratio": ("kernel.kernel_rows", "kernel.kernel_in"),
}
ERROR_CODES = ("TableGuardExceeded", "CombinatorialBudgetExceeded")

ACQ_ENGINES = ("acq", "acq-sum", "acq-sum-dup")
# Metric or layer -> the engines whose answered ops must feed it; a metric
# of a layer not listed is fed by every answered op.
FED_BY = {
    "acq": ACQ_ENGINES,
    "cqneg": ("cqneg",),
    "kernel": ("fo-kernel",),
    "queries": ACQ_ENGINES + ("fo-kernel",),
    "structure.gyo_calls": ACQ_ENGINES + ("fo-kernel",),
}


class MissingHook(Exception):
    """The program no longer defines a function the tracer wraps."""


class Tracer:
    """Records spans and counters for the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id = -1
        self.op_start = 0
        self.engine: str | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- wrapping ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, make_wrapper) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self.patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))

    def span(self, owner: object, attr: str, name: str, after=None,
             engine: str | None = None) -> None:
        """Wrap owner.attr in a span; `after(counts, args, result)` counts."""
        tracer = self

        def make(original):
            def traced(*args, **kwargs):
                if engine is not None:
                    tracer.engine = engine
                index = len(tracer.spans)
                parent = tracer.stack[-1] if tracer.stack else -1
                record = [name, time.perf_counter(), 0.0, parent, tracer.op_id]
                tracer.spans.append(record)
                tracer.stack.append(index)
                try:
                    result = original(*args, **kwargs)
                finally:
                    record[2] = time.perf_counter()
                    tracer.stack.pop()
                if after is not None:
                    after(tracer.counts, args, result)
                return result
            return traced

        self._patch(owner, attr, make)

    def count(self, owner: object, attr: str, after) -> None:
        """Wrap owner.attr with a counter only; for calls too hot for spans."""
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                after(counts, args, result)
                return result
            return counted

        self._patch(owner, attr, make)

    def install(self) -> None:
        from diverseq import acq, cli, cqneg, kernel

        def facts(counts, args, db):
            counts["dbio.facts"] += sum(len(r.rows) for r in db.relations.values())

        def sols(counts, args, result):
            counts["queries.sols_rows"] += len(result)

        def gyo(counts, args, result):
            counts["structure.gyo_calls"] += 1

        def acq_init(counts, args, table):
            counts["acq.init_entries"] += len(table.entries)
            _raise_max(counts, "acq.max_table", len(table.entries))

        def acq_merge(counts, args, table):
            counts["acq.merge_entries"] += len(table.entries)
            counts["acq.merge_parent_in"] += len(args[0].entries)
            _raise_max(counts, "acq.max_table", len(table.entries))

        def bag_table(counts, args, table):
            counts["cqneg.entries"] += len(table.entries)
            _raise_max(counts, "cqneg.max_table", len(table.entries))

        def literal(counts, args, result):
            counts["cqneg.literal_checks"] += 1
            counts["cqneg.literal_passes"] += bool(result)

        def materialized(counts, args, answers):
            counts["kernel.answers"] += len(answers.rows)

        def capping(counts, args, result):
            counts["kernel.capping_calls"] += 1

        def kernelized(counts, args, result):
            counts["kernel.kernel_in"] += len(args[0].rows)
            counts["kernel.kernel_rows"] += len(result.rows)
            counts["kernel.candidates"] += math.comb(len(result.rows), args[1])

        self.span(cli, "load_database", "dbio.load", facts)
        self.span(cli, "load_query", "dbio.load")
        self.span(cli, "gyo_join_tree", "structure", gyo)
        self.span(cli, "diversity_of_set", "model.verify")

        self.span(acq, "gyo_join_tree", "structure", gyo)
        self.span(acq, "sols_atom", "queries.sols_atom", sols)
        for attr in ("dp_init", "sum_init", "dup_init"):
            self.span(acq, attr, "acq.init", acq_init)
        for attr in ("dp_merge", "sum_merge", "dup_merge"):
            self.span(acq, attr, "acq.merge", acq_merge)
        self.span(acq, "dp_finalize", "acq.finalize")
        for attr in ("extract_witness", "_extract_sum_witness", "_extract_dup_witness"):
            self.span(acq, attr, "acq.witness")
        self.span(acq, "solve_acq", "acq.finalize", engine="acq")
        self.span(acq, "solve_acq_sum", "acq.finalize", engine="acq-sum")
        self.span(acq, "solve_acq_sum_dup", "acq.finalize", engine="acq-sum-dup")

        for attr in ("tree_decompose", "make_nice", "validate_decomposition"):
            self.span(cqneg, attr, "structure")
        self.span(cqneg, "solve_cqneg", "cqneg.finalize", engine="cqneg")
        solver = cqneg.BagSolver
        self.span(solver, "run", "cqneg.finalize")
        self.span(solver, "satisfying_tuples", "cqneg.bag_enum")
        for attr in ("leaf", "introduce", "forget", "join"):
            self.span(solver, attr, f"cqneg.{attr}", bag_table)
        self.span(solver, "witness", "cqneg.witness")
        self.count(cqneg, "satisfies_literal", literal)

        self.span(kernel, "sols_atom", "queries.sols_atom", sols)
        self.span(kernel, "materialize_answers", "kernel.materialize", materialized)
        self.span(kernel, "kernelize", "kernel.kernelize", kernelized)
        self.span(kernel, "apply_capping_rule", "kernel.kernelize", capping)
        self.span(kernel, "solve_fo_diverse", "kernel.search", engine="fo-kernel")
        if self.missing:
            self.uninstall()
            raise MissingHook(f"not defined any more: {', '.join(self.missing)}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # -- one op --------------------------------------------------------------

    def run_op(self, op_id: int, call):
        """Run call() as op `op_id` under a root "cli" span; returns
        (result, per-op record)."""
        self.op_id, self.engine = op_id, None
        self.op_start = len(self.spans)
        self.counts.clear()
        self.install()
        try:
            started = time.perf_counter()
            self.spans.append(["cli", started, 0.0, -1, op_id])
            self.stack = [self.op_start]
            try:
                result = call()
            finally:
                self.spans[self.op_start][2] = time.perf_counter()
                self.stack = []
        finally:
            self.uninstall()
        return result, {
            "engine": self.engine or "none",
            "ms": (self.spans[self.op_start][2] - started) * 1000.0,
            "self_ms": self_times(self.spans, self.op_start),
            "counts": dict(self.counts),
        }


def _raise_max(counts: dict, key: str, value: int) -> None:
    if value > counts[key]:
        counts[key] = value


def self_times(spans: list[list], first: int) -> dict[str, float]:
    """Self time in ms per span name, over spans[first:]."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for index in range(first, len(spans)):
        name, start, end, _, _ = spans[index]
        out[name] += (end - start - child_time[index]) * 1000.0
    return dict(out)


def must_feed(metric: str, rec: dict) -> bool:
    """Whether op record `rec` runs the layer behind `metric`: an answered op
    of an engine that feeds it, and for witness and verify metrics an op
    that returned a witness."""
    if rec["error"] is not None:
        return False
    if ("witness" in metric or metric.startswith("model.")) and not rec["witness"]:
        return False
    engines = FED_BY.get(metric, FED_BY.get(metric.split(".")[0]))
    return engines is None or rec["engine"] in engines


def layer_metrics(records: list[dict], passes: int) -> dict[str, float]:
    """Per-layer metrics over op records: times and counts as means per op,
    maxima as maxima, ratios of summed counters, and errors and engine_ops
    as counts per pass of the mix. A metric nothing fed is 0 if no record
    runs its layer and left out otherwise."""
    n = len(records)
    out: dict[str, float] = {}
    totals: dict[str, float] = defaultdict(float)
    maxima: dict[str, float] = defaultdict(float)
    for rec in records:
        for name, ms in rec["self_ms"].items():
            totals[TIME_METRICS.get(name, name)] += ms
        for key, value in rec["counts"].items():
            if key in MAX_METRICS:
                maxima[key] = max(maxima[key], value)
            else:
                totals[key] += value
    fed = {metric: metric in totals for metric in (*TIME_METRICS.values(), *COUNT_METRICS)}
    fed.update((metric, metric in maxima) for metric in MAX_METRICS)
    fed.update((metric, den in totals) for metric, (_, den) in RATIO_METRICS.items())
    for metric in TIME_METRICS.values():
        out[metric] = totals[metric] / n if n else 0.0
    for metric in COUNT_METRICS:
        out[metric] = totals[metric] / n if n else 0.0
    for metric in MAX_METRICS:
        out[metric] = maxima[metric]
    for metric, (num, den) in RATIO_METRICS.items():
        out[metric] = totals[num] / totals[den] if totals[den] else 0.0
    for metric, was_fed in fed.items():
        if not was_fed and any(must_feed(metric, rec) for rec in records):
            del out[metric]
    for code in ERROR_CODES:
        out[f"errors.{code}"] = sum(r.get("error") == code for r in records) / max(passes, 1)
    for engine in ENGINES:
        out[f"engine_ops.{engine}"] = sum(r["engine"] == engine for r in records) / max(passes, 1)
    out["op_ms"] = sum(r["ms"] for r in records) / n if n else 0.0
    return out


def engine_breakdown(records: list[dict], passes: int) -> dict[str, dict[str, float]]:
    """layer_metrics restricted to the ops each engine ran; zeros for an
    engine that ran no op, and "none" for ops refused before any engine."""
    engines = ENGINES + (("none",) if any(r["engine"] == "none" for r in records) else ())
    return {
        engine: layer_metrics([r for r in records if r["engine"] == engine], passes)
        for engine in engines
    }
