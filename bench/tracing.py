"""Span tracing for the benchmark's traced run.

Library functions are wrapped where their caller looks them up, so the
program itself carries no instrumentation. A span is named after the module
that defines the function (layer = module). Spans are kept in memory and
written out once the traced run ends.
"""

from __future__ import annotations

import gzip
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import d2dlan
from d2dlan import cli, lp, scenarios

# (namespace the caller looks the name up in, attribute, span name).
# ``scenarios`` imports its helpers by name, so they are patched there.
PATCHES = (
    (d2dlan, "monte_carlo", "scenarios.monte_carlo"),
    (cli, "monte_carlo", "scenarios.monte_carlo"),
    (cli, "run_experiment", "cli.run_experiment"),
    (scenarios, "generate_topology", "scenarios.generate_topology"),
    (scenarios, "run_multicast", "scenarios.run_multicast"),
    (scenarios, "rate_table", "channel.rate_table"),
    (scenarios, "reception_rate", "channel.reception_rate"),
    (scenarios, "build_preferences", "formation.build_preferences"),
    (scenarios, "estimate_graph", "formation.estimate_graph"),
    (scenarios, "solve_schedule", "mechanism.solve_schedule"),
    (scenarios, "energy_report", "energy.energy_report"),
    (scenarios, "critical_expectation", "mechanism.critical_expectation"),
    (scenarios, "grim_trigger_step", "mechanism.grim_trigger_step"),
    (lp, "solve", "lp.solve"),
)

# outcome recorded on the span, for the ratio metrics
TAGS = {
    "lp.solve": lambda result: result.status,
    "mechanism.solve_schedule":
        lambda result: "feasible" if result.feasible else "infeasible",
    "scenarios.run_optimal": lambda result: result.optimal_mode,
}

# (metric, unit); the order BENCHMARK.json lists them in
PER_LAYER_METRICS = (
    ("lp.solve.calls", "count"),
    ("lp.solve.self_s", "s"),
    ("lp.solve.infeasible_frac", "ratio"),
    ("mechanism.solve_schedule.calls", "count"),
    ("mechanism.solve_schedule.self_s", "s"),
    ("mechanism.solve_schedule.feasible_frac", "ratio"),
    ("formation.estimate_graph.calls", "count"),
    ("formation.estimate_graph.self_s", "s"),
    ("formation.build_preferences.self_s", "s"),
    ("energy.energy_report.calls", "count"),
    ("energy.energy_report.self_s", "s"),
    ("mechanism.critical_expectation.calls", "count"),
    ("mechanism.critical_expectation.self_s", "s"),
    ("mechanism.grim_trigger_step.self_s", "s"),
    ("channel.rate_table.calls", "count"),
    ("channel.rate_table.self_s", "s"),
    ("channel.reception_rate.calls", "count"),
    ("channel.reception_rate.self_s", "s"),
    ("scenarios.generate_topology.self_s", "s"),
    ("scenarios.run_mcrcd.self_s", "s"),
    ("scenarios.run_optimal.self_s", "s"),
    ("scenarios.run_optimal.exact_calls", "count"),
    ("scenarios.run_optimal.heuristic_calls", "count"),
    ("scenarios.run_optimal.p50_ms", "ms"),
    ("scenarios.run_optimal.p90_ms", "ms"),
    ("cli.csv_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent, replication, tag]``.

    ``parent`` is the index of the enclosing span (-1 at top level). A
    top-level span starts a new block; ``generate_topology`` starts a new
    replication inside it, identified as ``block:run_index``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._block = -1
        self._replication: str | None = None

    def install(self) -> None:
        for namespace, attr, name in PATCHES:
            self._patch(namespace.__dict__, attr, name)
        for key in list(scenarios.SCENARIO_RUNNERS):
            self._patch(scenarios.SCENARIO_RUNNERS, key, f"scenarios.run_{key}")

    def restore(self) -> None:
        while self._undo:
            mapping, key, original = self._undo.pop()
            mapping[key] = original

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, mapping: dict, key: str, name: str) -> None:
        original = mapping[key]
        mapping[key] = self._wrap(name, original)
        self._undo.append((mapping, key, original))

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tag = TAGS.get(name)
        starts_replication = name == "scenarios.generate_topology"

        def traced(*args, **kwargs):
            if not stack:
                self._block += 1
                self._replication = None
            if starts_replication:
                self._replication = f"{self._block}:{args[1]}"
            span = [name, 0, 0, stack[-1] if stack else -1,
                    self._replication, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[5] = tag(result)
            return result

        return traced

    def write(self, path: Path) -> None:
        """Write the spans as gzipped tab-separated lines, one per span:
        id, parent, replication, name, start_ns, end_ns, tag."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\treplication\tname\tstart_ns\tend_ns\ttag\n")
            for i, (name, start, end, parent, rep, tag) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{rep or '-'}\t{name}\t{start}\t"
                         f"{end}\t{tag or '-'}\n")


@dataclass
class Layer:
    calls: int = 0
    self_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)
    tags: Counter = field(default_factory=Counter)


def layer_table(spans: list[list]) -> dict[str, Layer]:
    """Per span name: calls, self time (duration minus direct children's
    durations), inclusive durations and outcome counts."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _rep, _tag in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    table: dict[str, Layer] = {}
    for i, (name, start, end, _parent, _rep, tag) in enumerate(spans):
        layer = table.setdefault(name, Layer())
        layer.calls += 1
        layer.self_ns += end - start - child_ns[i]
        layer.durations_ns.append(end - start)
        if tag is not None:
            layer.tags[tag] += 1
    return table


def per_layer_metrics(table: dict[str, Layer], traced_s: float,
                      overhead: float) -> dict[str, dict]:
    """Every metric of ``PER_LAYER_METRICS`` as ``{"value", "unit"}``; a
    layer never called reads 0.

    ``traced_s`` is the wall time of the traced work and ``overhead`` its
    relative excess over the same work untraced.
    """
    def layer(name: str) -> Layer:
        return table.get(name, Layer())

    def share(name: str, tag: str) -> float:
        entry = layer(name)
        return entry.tags[tag] / entry.calls if entry.calls else 0.0

    optimal_ms = [d / 1e6
                  for d in layer("scenarios.run_optimal").durations_ns]
    values = {
        "lp.solve.infeasible_frac": share("lp.solve", "infeasible"),
        "mechanism.solve_schedule.feasible_frac":
            share("mechanism.solve_schedule", "feasible"),
        "scenarios.run_optimal.exact_calls":
            layer("scenarios.run_optimal").tags["exact"],
        "scenarios.run_optimal.heuristic_calls":
            layer("scenarios.run_optimal").tags["heuristic"],
        "scenarios.run_optimal.p50_ms":
            statistics.median(optimal_ms) if optimal_ms else 0.0,
        "scenarios.run_optimal.p90_ms":
            statistics.quantiles(optimal_ms, n=10)[8]
            if len(optimal_ms) >= 2 else sum(optimal_ms),
        "cli.csv_s": layer("cli.run_experiment").self_ns / 1e9,
        "trace.overhead_frac": overhead,
        "trace.coverage_frac":
            sum(entry.self_ns for entry in table.values()) / 1e9 / traced_s,
    }
    metrics = {}
    for metric, unit in PER_LAYER_METRICS:
        if metric not in values:
            name, _, kind = metric.rpartition(".")
            values[metric] = (layer(name).calls if kind == "calls"
                              else layer(name).self_ns / 1e9)
        metrics[metric] = {"value": values[metric], "unit": unit}
    return metrics
