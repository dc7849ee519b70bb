"""Per-layer tracing for the service benchmark.

The traced run measures the program from outside.  :func:`install` wraps
public class methods and module attributes of the program so that each
call records a span through the program's own tracer
(``repro.instrumentation.trace.get_tracer()``).  Install the wrappers
before the service forks its pool workers: the workers inherit them, and
their spans come back with each chunk through the existing chunk-span
shipping.  :class:`SpanCollector` drains the tracer after every timed
operation, and :func:`layer_metrics` turns the spans plus the program's
``gridmind_*`` counters into the per-layer metrics named in the
``per_layer`` list of ``BENCHMARK.json``.

Self time of a span is its duration minus the durations of its children
recorded in the same process.  Children in another process (worker
chunks under the parent's ``executor.dispatch``) run in parallel with the
parent and are not subtracted, so the dispatch span's self time is the
time the parent spent waiting for workers.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import threading
import time
from collections import defaultdict

# Span name -> layer, for the self-time table.  Names not listed fall
# back to their prefix (``tool.*`` and ``agent.*`` -> core) or "other".
SPAN_LAYER = {
    "service.ask": "service",
    "service.run_study": "service",
    "service.watch": "service",
    "study.run": "service",
    "executor.dispatch": "service",
    "store.put": "service",
    "store.spec_hash": "service",
    "store.compare": "service",
    "health.sample": "service",
    "health.evaluate": "service",
    "session.turn": "core",
    "planner.plan": "core",
    "core.audit": "core",
    "llm.complete": "llm",
    "solve.acopf": "opf",
    "solve.dcopf": "opf",
    "solve.scopf": "opf",
    "contingency.sweep": "contingency",
    "contingency.outage": "contingency",
    "contingency.cache_lookup": "contingency",
    "solve.newton": "powerflow",
    "solve.fast_decoupled": "powerflow",
    "solve.gauss_seidel": "powerflow",
    "powerflow.recovery": "powerflow",
    "ac.solve_chunk": "powerflow",
    "ac.finalize_row": "powerflow",
    "ac.kernel_build": "powerflow",
    "dc.solve_many": "powerflow",
    "scenarios.generate": "scenarios",
    "scenarios.replay": "scenarios",
    "scenarios.realize": "scenarios",
    "scenario.run": "scenarios",
    "worker.chunk": "scenarios",
    "chunk.batch": "scenarios",
    "chunk.ac_batch": "scenarios",
    "study.reduce": "scenarios",
    "telemetry.watch": "telemetry",
    "telemetry.frames": "telemetry",
    "telemetry.window_add": "telemetry",
    "metrics.merge": "instrumentation",
}

OP_ROOTS = ("service.ask", "service.run_study", "service.watch")


def _tracer():
    from repro.instrumentation.trace import get_tracer

    # Looked up per call: pool workers swap in a private tracer per chunk.
    return get_tracer()


def _spanned(fn, name, tag=None):
    """Wrap ``fn`` so each call records a ``name`` span (when tracing)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer = _tracer()
        if not tracer.enabled:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
            if tag is not None:
                tag(span.tags, out)
            return out

    return wrapper


def _record_span(tracer, name, context, start_s, duration_s, tags):
    from repro.instrumentation.trace import Span

    trace_id, parent_id = context if context else (os.urandom(8).hex(), None)
    tracer.record(
        Span(
            name=name,
            trace_id=trace_id,
            span_id=os.urandom(8).hex(),
            parent_id=parent_id,
            start_s=start_s,
            duration_s=duration_s,
            pid=os.getpid(),
            tags=tags,
        )
    )


def _timed_iter(iterator, name, tracer):
    """Yield from ``iterator``; record one span holding the time spent
    producing items (not the consumer's time between them)."""
    from repro.instrumentation.trace import current_trace_context

    context = current_trace_context()
    start = time.time()
    busy = 0.0
    n = 0
    try:
        while True:
            tick = time.perf_counter()
            try:
                item = next(iterator)
            except StopIteration:
                busy += time.perf_counter() - tick
                return
            busy += time.perf_counter() - tick
            n += 1
            yield item
    finally:
        _record_span(tracer, name, context, start, busy, {"n_items": n})


def _generator_spanned(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = iter(fn(*args, **kwargs))
        tracer = _tracer()
        if not tracer.enabled:
            return iterator
        return _timed_iter(iterator, name, tracer)

    return wrapper


class SubmitRecorder:
    """Wrappers for ``StudyExecutor.run_study_chunks`` and the executor's
    ``iter_chunks`` that note every chunk submission while tracing.

    Inside the request they only keep references; :meth:`drain_sizes`,
    called after the request has returned, pickles them.  The sizes are
    computed, not measured on the wire: what one submission pickles
    (base network + study config + chunk).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: list[tuple] = []
        # Base network + study config of the study dispatched on this thread.
        self._fixed = threading.local()

    def wrap_dispatch(self, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(self, base, config, scenarios, **kwargs):
            recorder._fixed.value = (base, config)
            yield from fn(self, base, config, scenarios, **kwargs)

        return wrapper

    def wrap_chunker(self, fn):
        @functools.wraps(fn)
        def wrapper(scenarios, chunk):
            for batch in fn(scenarios, chunk):
                if _tracer().enabled:
                    base, config = getattr(self._fixed, "value", (None, None))
                    with self._lock:
                        self._pending.append((base, config, batch))
                yield batch

        return wrapper

    def drain_sizes(self) -> list[int]:
        """Pickled size of each submission noted since the last drain."""
        with self._lock:
            pending, self._pending = self._pending, []
        fixed: dict[tuple[int, int], int] = {}
        sizes = []
        for base, config, batch in pending:
            key = (id(base), id(config))
            if key not in fixed:
                fixed[key] = len(pickle.dumps(base, pickle.HIGHEST_PROTOCOL)) + len(
                    pickle.dumps(config, pickle.HIGHEST_PROTOCOL)
                )
            sizes.append(fixed[key] + len(pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)))
        return sizes


SUBMITS = SubmitRecorder()


def _tag_llm(tags, response):
    tags["tokens"] = response.usage.prompt_tokens + response.usage.completion_tokens
    tags["virtual_s"] = response.latency_s


def _tag_lookup(tags, out):
    cached, missing = out
    tags["hits"] = len(cached)
    tags["misses"] = len(missing)


def install():
    """Install every wrapper; returns a function that removes them."""
    from repro.contingency import nminus1
    from repro.contingency.cache import ContingencyCache
    from repro.core import session
    from repro.core.agents import contingency_agent
    from repro.instrumentation.health import HealthMonitor
    from repro.instrumentation.metrics import MetricsRegistry
    from repro.instrumentation.rollup import MetricsSampler
    from repro.llm.simulated import SimulatedLLM
    from repro.powerflow import recovery
    from repro.powerflow.ac_batch import AcKernel
    from repro.powerflow.batch import DcKernel
    from repro.scenarios.spec import Scenario
    from repro.scenarios.stream import ScenarioStream
    from repro.service import executor, store
    from repro.service.store import ResultStore
    from repro.service.executor import StudyExecutor
    from repro.telemetry.feed import TelemetryStream
    from repro.telemetry.window import RollingWindowStudy

    undo: list = []

    def patch_method(cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        undo.append(lambda: setattr(cls, attr, original))

    def patch_function(original, wrapper):
        # Every module-level binding of the function, so names imported
        # with ``from x import f`` are wrapped too.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append(lambda m=module, a=attr: setattr(m, a, original))

    methods = [
        (SimulatedLLM, "complete", "llm.complete", _tag_llm),
        (ContingencyCache, "lookup_sweep", "contingency.cache_lookup", _tag_lookup),
        (AcKernel, "__init__", "ac.kernel_build", None),
        (AcKernel, "solve_chunk", "ac.solve_chunk", None),
        (AcKernel, "finalize_row", "ac.finalize_row", None),
        (DcKernel, "solve_many", "dc.solve_many", None),
        (Scenario, "ac_injection", "scenarios.replay", None),
        (Scenario, "injection_vector", "scenarios.replay", None),
        (Scenario, "realize", "scenarios.realize", None),
        (MetricsRegistry, "merge_state", "metrics.merge", None),
        (ResultStore, "put", "store.put", None),
        (ResultStore, "compare", "store.compare", None),
        (MetricsSampler, "sample", "health.sample", None),
        (HealthMonitor, "evaluate", "health.evaluate", None),
        (RollingWindowStudy, "add", "telemetry.window_add", None),
    ]
    for cls, attr, name, tag in methods:
        patch_method(cls, attr, lambda fn, n=name, t=tag: _spanned(fn, n, t))
    patch_method(
        ScenarioStream, "__iter__", lambda fn: _generator_spanned(fn, "scenarios.generate")
    )
    patch_method(
        TelemetryStream, "tick_batches", lambda fn: _generator_spanned(fn, "telemetry.frames")
    )
    patch_method(StudyExecutor, "run_study_chunks", SUBMITS.wrap_dispatch)

    functions = [
        (contingency_agent.run_n_minus_1, "contingency.sweep"),
        (nminus1.analyze_single_outage, "contingency.outage"),
        (recovery.solve_with_recovery, "powerflow.recovery"),
        (session.audit_narration, "core.audit"),
        (store.spec_hash, "store.spec_hash"),
    ]
    for fn, name in functions:
        patch_function(fn, _spanned(fn, name))
    # Only the executor's binding: the serial paths submit nothing.
    chunker = executor.iter_chunks
    executor.iter_chunks = SUBMITS.wrap_chunker(chunker)
    undo.append(lambda: setattr(executor, "iter_chunks", chunker))

    def uninstall() -> None:
        for step in reversed(undo):
            step()

    return uninstall


class SpanCollector:
    """Drains the tracer after each timed operation and keeps the spans."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.spans: list[dict] = []
        self.op_walls: list[float] = []
        self.root_walls: list[float] = []
        self.submit_bytes: list[int] = []

    def discard(self) -> None:
        self.tracer.drain_dicts()
        SUBMITS.drain_sizes()

    def after_op(self, op) -> None:
        spans = self.tracer.drain_dicts()
        self.spans.extend(spans)
        self.submit_bytes.extend(SUBMITS.drain_sizes())
        self.op_walls.append(op.latency_s)
        # Time the service's own root span covered for this operation;
        # the rest of the client-observed wall is unattributed.
        self.root_walls.append(
            sum(s["duration_s"] for s in spans if s["name"] in OP_ROOTS and not s["parent_id"])
        )


def self_times(spans: list[dict]) -> list[float]:
    """Per-span self time: duration minus same-process children."""
    child_s: dict[str, float] = defaultdict(float)
    pid_of = {s["span_id"]: s["pid"] for s in spans}
    for s in spans:
        parent = s["parent_id"]
        if parent in pid_of and pid_of[parent] == s["pid"]:
            child_s[parent] += s["duration_s"]
    return [max(0.0, s["duration_s"] - child_s[s["span_id"]]) for s in spans]


def layer_of(name: str) -> str:
    if name in SPAN_LAYER:
        return SPAN_LAYER[name]
    if name.startswith("tool."):
        return "core"
    if name.startswith("agent."):
        return "core"
    return "other"


def _series(delta: dict, kind: str, name: str, labels: dict) -> list:
    """Values of one instrument's label series in a metrics delta, kept
    when they carry every label in ``labels``."""
    want = {k: str(v) for k, v in labels.items()}
    series = delta.get(kind, {}).get(name, {}).get("series", {})
    return [
        value for key, value in series.items()
        if all(dict(key).get(k) == x for k, x in want.items())
    ]


def _counter(delta: dict, name: str, **labels) -> float:
    return sum(_series(delta, "counters", name, labels))


def _histogram_sum(delta: dict, name: str, **labels) -> float:
    return sum(total for _counts, total in _series(delta, "histograms", name, labels))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    collector: SpanCollector,
    counters: dict,
    *,
    case_build_s: float,
    n_workers: int,
    n_alerts: int,
    untraced_ops_per_s: float,
    traced_ops_per_s: float,
) -> tuple[dict[str, float], list[tuple[str, str, float, int]]]:
    """Per-layer metrics plus the self-time table (layer, span, s, count).

    Times are totals over the traced window, in seconds; ``trace.ops`` and
    ``trace.op_wall_s`` are the bases for per-operation figures.
    """
    spans = collector.spans
    selfs = self_times(spans)
    parent_pid = os.getpid()
    self_by_name: dict[str, float] = defaultdict(float)
    count_by_name: dict[str, int] = defaultdict(int)
    dur_by_name: dict[str, float] = defaultdict(float)
    table: dict[tuple[str, str], list] = {}
    by_id = {s["span_id"]: s for s in spans}
    fallback_rows = 0
    worker_chunk_s = 0.0
    tick_solve_s = 0.0
    for s, own in zip(spans, selfs):
        name = s["name"]
        self_by_name[name] += own
        count_by_name[name] += 1
        dur_by_name[name] += s["duration_s"]
        side = "parent" if s["pid"] == parent_pid else "worker"
        row = table.setdefault((f"{layer_of(name)}/{side}", name), [0.0, 0])
        row[0] += own
        row[1] += 1
        if name == "worker.chunk" and s["pid"] != parent_pid:
            worker_chunk_s += s["duration_s"]
        if name == "scenario.run":
            parent = by_id.get(s["parent_id"])
            if parent is not None and parent["name"] == "worker.chunk":
                fallback_rows += 1
            elif s["pid"] == parent_pid:
                tick_solve_s += s["duration_s"]

    def tag_sum(name: str, key: str) -> float:
        return sum(s["tags"].get(key, 0) for s in spans if s["name"] == name and "tags" in s)

    hits = tag_sum("contingency.cache_lookup", "hits")
    lookups = hits + tag_sum("contingency.cache_lookup", "misses")
    ac_skipped = _counter(counters, "gridmind_ac_skipped_converged_total")
    ac_rows = ac_skipped + _counter(counters, "gridmind_ac_warm_solves_total")
    dispatch_s = dur_by_name["executor.dispatch"]
    submits = len(collector.submit_bytes)
    op_wall = sum(collector.op_walls)
    unattributed = sum(max(0.0, w - r) for w, r in zip(collector.op_walls, collector.root_walls))
    values = {
        "grid.case_build_s": case_build_s,
        "llm.completions": count_by_name["llm.complete"],
        "llm.tokens": tag_sum("llm.complete", "tokens"),
        "llm.virtual_s": tag_sum("llm.complete", "virtual_s"),
        "llm.self_s": self_by_name["llm.complete"],
        "core.planner_s": self_by_name["planner.plan"],
        "core.tool_self_s": sum(v for k, v in self_by_name.items() if k.startswith("tool.")),
        "core.audit_s": self_by_name["core.audit"],
        "core.tool_failures": _counter(counters, "gridmind_tool_calls_total", ok=False),
        "opf.acopf_s": self_by_name["solve.acopf"],
        "opf.acopf_calls": _counter(counters, "gridmind_solver_invocations_total", solver="acopf"),
        "opf.ipm_iterations": _histogram_sum(
            counters, "gridmind_solver_iterations", solver="acopf"
        ),
        "contingency.sweep_s": self_by_name["contingency.sweep"],
        "contingency.outages": count_by_name["contingency.outage"],
        "contingency.cache_lookups": lookups,
        "contingency.cache_hit_ratio": _ratio(hits, lookups),
        "powerflow.newton_s": self_by_name["solve.newton"],
        "powerflow.newton_iterations": _histogram_sum(
            counters, "gridmind_solver_iterations", solver="newton"
        ),
        "powerflow.recovery_calls": count_by_name["powerflow.recovery"],
        "powerflow.ac_solve_s": self_by_name["ac.solve_chunk"],
        "powerflow.ac_finalize_s": self_by_name["ac.finalize_row"],
        "powerflow.ac_rows": ac_rows,
        "powerflow.ac_skipped_ratio": _ratio(ac_skipped, ac_rows),
        "powerflow.ac_fallback_rows": fallback_rows,
        "powerflow.ac_kernel_builds": count_by_name["ac.kernel_build"],
        "powerflow.dc_solve_s": self_by_name["dc.solve_many"],
        "powerflow.dc_rows": _counter(counters, "gridmind_batch_rows_total", analysis="dc"),
        "scenarios.generate_s": self_by_name["scenarios.generate"],
        "scenarios.replay_s": self_by_name["scenarios.replay"],
        "scenarios.record_s": self_by_name["worker.chunk"]
        + self_by_name["chunk.batch"]
        + self_by_name["chunk.ac_batch"],
        "scenarios.reduce_s": self_by_name["study.reduce"],
        "scenarios.chunks": _counter(counters, "gridmind_chunks_dispatched_total"),
        "scenarios.realize_s": self_by_name["scenarios.realize"],
        "service.wait_s": self_by_name["executor.dispatch"],
        "service.dispatch_s": dispatch_s,
        "service.parallel_efficiency": _ratio(worker_chunk_s, n_workers * dispatch_s),
        "service.submits": submits,
        "service.submit_bytes": _ratio(sum(collector.submit_bytes), submits),
        "service.store_put_s": self_by_name["store.put"],
        "service.spec_hash_s": self_by_name["store.spec_hash"],
        "service.store_bytes_written": _counter(counters, "gridmind_store_bytes_written_total"),
        "service.store_read_s": self_by_name["store.compare"],
        "service.chunks_retried": _counter(counters, "gridmind_chunks_retried_total"),
        "service.health_sample_s": self_by_name["health.sample"] + self_by_name["health.evaluate"],
        "telemetry.frame_gen_s": self_by_name["telemetry.frames"],
        "telemetry.tick_solve_s": tick_solve_s,
        "telemetry.window_fold_s": self_by_name["telemetry.window_add"],
        "telemetry.late_dropped": _counter(counters, "gridmind_telemetry_late_results_total"),
        "telemetry.alerts": n_alerts,
        "instrumentation.merge_s": self_by_name["metrics.merge"],
        "instrumentation.untraced_ops_per_s": untraced_ops_per_s,
        "instrumentation.traced_ops_per_s": traced_ops_per_s,
        "instrumentation.tracing_overhead": 1.0 - _ratio(traced_ops_per_s, untraced_ops_per_s),
        "trace.ops": len(collector.op_walls),
        "trace.op_wall_s": op_wall,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_ratio": _ratio(unattributed, op_wall),
    }
    rows = sorted(
        ((layer, name, own, n) for (layer, name), (own, n) in table.items()),
        key=lambda r: (r[0], -r[2]),
    )
    return {k: float(v) for k, v in values.items()}, rows
