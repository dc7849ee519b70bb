"""BatchStudyRunner: execute a scenario stream against one analysis engine.

Each scenario realises a fresh network copy and runs one of six
analyses: AC power flow, linear DC screening, DCOPF, ACOPF, two-stage
contingency screening, or preventive SCOPF.  Scenarios are independent,
so chunks either run in-process (the serial reference path) or fan out
over a :class:`~repro.service.executor.StudyExecutor` — the service's
shared one, or a pool scoped to a single ``run(...)`` when ``n_jobs >
1``.  Either way each chunk lands on a :class:`_WorkerState` that keeps
the base network resident and amortises the expensive shared state
across all scenarios it processes:

* the compiled DC kernels and PTDF/LODF sensitivity factors, keyed by an
  electrical-topology digest (load-only perturbations reuse one
  factorisation for the whole ensemble), and
* the composite-key contingency cache, so identical (content, outage)
  evaluations are never repeated within a worker.

Chunks, not scenarios, are the worker's unit of work: injection-only
chunks of the linear analyses route through the batched physics kernels
(:mod:`repro.powerflow.batch`) — one stacked multi-RHS solve per chunk,
bit-identical to the scalar loop — while mixed or topology-changing
chunks degrade gracefully to per-scenario evaluation.

Results are plain-data :class:`ScenarioResult` records — cheap to pickle
back — and the chunked dispatch preserves scenario order, so serial,
pooled, and streamed runs aggregate identically (a property the test
suite asserts).

The execution pipeline is *streaming*: chunks are drawn lazily from the
scenario stream, the executor keeps at most a bounded window of chunks
in flight (backpressure against the pool), and completed chunks are
folded straight into an online
:class:`~repro.scenarios.aggregate.StudyReducer` plus a
capped worst-K heap instead of accumulating every result.  ``run(...,
keep_results=True)`` (the default) still materialises the full result
list for persistence and bit-identical determinism checks; large
ensembles opt out and hold O(window x chunk + K) results at peak.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import time
from collections import Counter
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

import numpy as np

from ..instrumentation.accounting import record_chunk, record_study
from ..instrumentation.metrics import (
    ITERATION_BUCKETS,
    MetricsRegistry,
    get_metrics,
    set_metrics,
    state_delta,
)
from ..instrumentation.trace import get_tracer, worker_trace
from ..contingency.cache import ContingencyCache
from ..contingency.lodf import SensitivityFactors, compute_factors
from ..contingency.nminus1 import NMinus1Report, analyze_single_outage
from ..contingency.ranking import rank_critical_elements
from ..contingency.screening import screen_dc, screen_dc_many
from ..grid import graph as gridgraph
from ..grid.network import Network
from ..powerflow.ac_batch import AcKernel
from ..powerflow.batch import DcKernel, topology_digest
from ..powerflow.solution import branch_flows
from .aggregate import (
    DEFAULT_SLICE_MAX_VALUES,
    SlicedReducer,
    SliceSpec,
    StudyAggregate,
    aggregate_study,
)
from .spec import Scenario, ScenarioError
from .stream import as_stream, stream_length

if TYPE_CHECKING:  # service.executor imports this module
    from ..service.executor import StudyExecutor

ANALYSES = ("powerflow", "dc", "dcopf", "acopf", "screening", "scopf")

#: Chunk-size ceiling (also the size used when the stream's length is
#: unknown).  The ~4-chunks-per-worker split is capped here so the
#: in-flight window's worst-case resident results stay O(window x
#: constant) however large the ensemble — an uncapped split would make
#: chunk (and therefore streamed peak memory) scale with n.
DEFAULT_STREAM_CHUNK = 32

#: Default cap on the worst-scenario heap a streamed study retains.
DEFAULT_WORST_K = 20


@dataclass
class ScenarioResult:
    """Per-scenario outcome, reduced to picklable plain data."""

    name: str
    tags: dict
    converged: bool
    objective_cost: float | None = None
    max_loading_percent: float = 0.0
    min_voltage_pu: float | None = None
    max_voltage_pu: float | None = None
    losses_mw: float | None = None
    overloaded_branches: list[int] = field(default_factory=list)
    n_voltage_violations: int = 0
    critical_branches: list[int] | None = None
    n_contingency_violations: int | None = None
    security_cost: float | None = None  # SCOPF premium over economic dispatch
    solve_time_s: float = 0.0
    error: str = ""

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "converged": self.converged,
            "max_loading_percent": round(self.max_loading_percent, 2),
        }
        if self.objective_cost is not None:
            out["objective_cost"] = round(self.objective_cost, 2)
        if self.min_voltage_pu is not None:
            out["min_voltage_pu"] = round(self.min_voltage_pu, 4)
        if self.overloaded_branches:
            out["overloaded_branches"] = list(self.overloaded_branches)
        if self.critical_branches is not None:
            out["critical_branches"] = list(self.critical_branches)
        if self.n_contingency_violations is not None:
            out["n_contingency_violations"] = self.n_contingency_violations
        if self.security_cost is not None:
            out["security_cost"] = round(self.security_cost, 2)
        if self.error:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class StudyProgress:
    """One incremental checkpoint of a running study (per completed chunk).

    ``chunk_wall_s`` and ``worker_pid`` describe the chunk that produced
    this event (wall-clock inside the worker, and which process served
    it) — the per-chunk timing trail that makes the service's progress
    feed useful even without full tracing enabled.
    """

    n_done: int
    n_total: int | None  # None when the stream length is unknown
    n_chunks: int
    n_converged: int
    n_errors: int
    violation_rate: float  # over converged scenarios so far
    elapsed_s: float
    chunk_wall_s: float = 0.0  # wall time of this event's chunk
    worker_pid: int = 0  # process that evaluated this event's chunk

    @property
    def fraction(self) -> float | None:
        if not self.n_total:
            return None
        return self.n_done / self.n_total

    def to_dict(self) -> dict:
        out = {
            "n_done": self.n_done,
            "n_total": self.n_total,
            "n_chunks": self.n_chunks,
            "n_converged": self.n_converged,
            "n_errors": self.n_errors,
            "violation_rate": round(self.violation_rate, 4),
            "elapsed_s": round(self.elapsed_s, 3),
            "chunk_wall_s": round(self.chunk_wall_s, 4),
            "worker_pid": self.worker_pid,
        }
        if self.fraction is not None:
            out["fraction"] = round(self.fraction, 4)
        return out


class _WorstK:
    """Bounded min-heap keeping the K most stressed scenarios.

    Replicates the historical ``sorted(results, key=-loading)[:k]``
    ordering exactly (ties resolve to earlier scenarios) while holding
    only K results, so a streamed study's ``worst_scenarios`` slice
    matches the materialised one for any request ``n <= k``.
    """

    def __init__(self, k: int) -> None:
        self.k = max(0, int(k))
        self._heap: list[tuple[float, int, ScenarioResult]] = []
        self._seq = 0

    def push(self, result: ScenarioResult) -> None:
        if self.k == 0:
            return
        # Min-heap on (loading, -seq): among equal loadings the *latest*
        # scenario is evicted first, preserving stable-sort semantics.
        entry = (result.max_loading_percent, -self._seq, result)
        self._seq += 1
        if len(self._heap) < self.k:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def __len__(self) -> int:
        return len(self._heap)

    def worst(self) -> list[ScenarioResult]:
        """Most stressed first; ties in original scenario order."""
        return [
            r
            for _, _, r in sorted(self._heap, key=lambda t: (-t[0], -t[1]))
        ]


@dataclass
class StudyResult:
    """Everything one batch study produced.

    ``results`` holds the full per-scenario record list when the study
    ran with ``keep_results=True`` (the default, required for store
    persistence and exact determinism diffs) and is empty for streamed
    studies, which retain only the aggregate, the capped worst-K slice
    (``worst_results``), and the progress/residency instrumentation.
    """

    case_name: str
    analysis: str
    results: list[ScenarioResult]
    runtime_s: float
    n_jobs: int = 1
    n_scenarios: int = -1  # -1 -> len(results) (set in __post_init__)
    worst_results: list[ScenarioResult] | None = None
    n_progress_events: int = 0
    peak_resident_results: int | None = None
    slice_spec: SliceSpec | None = None  # dimensional aggregation, if any
    _aggregate: StudyAggregate | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_scenarios < 0:
            self.n_scenarios = len(self.results)

    def aggregate(self) -> StudyAggregate:
        if self._aggregate is None:
            self._aggregate = aggregate_study(
                self.results, slice_spec=self.slice_spec
            )
        return self._aggregate

    def worst(self, n: int = 5) -> list[ScenarioResult]:
        """Most stressed scenarios first (by post-analysis peak loading)."""
        if self.results:
            return sorted(self.results, key=lambda r: -r.max_loading_percent)[:n]
        return (self.worst_results or [])[:n]

    def to_dict(self, max_scenarios: int = 20) -> dict:
        """JSON-ready study summary (what the agent tools return)."""
        out = {
            "case_name": self.case_name,
            "analysis": self.analysis,
            "n_scenarios": self.n_scenarios,
            "n_jobs": self.n_jobs,
            "runtime_s": round(self.runtime_s, 3),
            "aggregate": self.aggregate().to_dict(),
            "worst_scenarios": [r.to_dict() for r in self.worst(max_scenarios)],
        }
        if self.n_progress_events:
            out["n_progress_events"] = self.n_progress_events
        if self.peak_resident_results is not None:
            out["peak_resident_results"] = self.peak_resident_results
        return out


@dataclass(frozen=True)
class StudyConfig:
    """Per-study analysis knobs, shipped once to each worker.

    ``slice_by``/``slice_max_values`` declare the study's dimensional
    aggregation (see :class:`~repro.scenarios.aggregate.SliceSpec`); the
    parent-side reducer consumes them.  They ride along here so one
    validated bundle carries the whole study definition, but the store's
    spec hash deliberately excludes them — slicing shapes the derived
    aggregate index, not the per-scenario results.
    """

    analysis: str = "powerflow"
    overload_threshold: float = 100.0
    vmin: float = 0.94
    vmax: float = 1.06
    ac_budget: int = 20
    top_n: int = 5
    slice_by: tuple[str, ...] = ()
    slice_max_values: int = DEFAULT_SLICE_MAX_VALUES
    #: Route injection-only chunks of the linear analyses ("dc",
    #: "screening") through the batched kernels.  Results are
    #: bit-identical either way (the ablation's point), so the store's
    #: spec hash excludes this knob exactly like the ``slice_*`` pair.
    batch_kernels: bool = True
    #: AC ensemble mode for ``analysis="powerflow"``: "warm" routes
    #: injection-only chunks through the topology-cached AC kernel
    #: (vectorized warm-start screen, fast-decoupled correctors,
    #: warm-started Newton polish); "cold" forces the exact legacy
    #: per-scenario solve.  Excluded from the store's spec hash like
    #: ``batch_kernels`` — the parity contract (identical converged
    #: flags and violation sets, aggregates within 1e-6) means toggling
    #: it must not mint a second store entry.
    ac_mode: str = "warm"
    #: Fast-decoupled corrector half-iteration sweeps the warm AC path
    #: runs before the Newton polish (0 disables the corrector tier).
    #: Sweeps are multi-RHS triangular solves — near-free next to a
    #: Jacobian build — so the default runs enough of them that the
    #: Newton polish usually reduces to a single mismatch check.
    ac_fd_sweeps: int = 8

    def slice_spec(self) -> SliceSpec:
        return SliceSpec(by=tuple(self.slice_by), max_values=self.slice_max_values)


def _error_result(scenario: Scenario, error: str | Exception) -> ScenarioResult:
    """The failed-scenario record every evaluation route writes.

    An exception becomes its message: bare for a :class:`ScenarioError`
    (a perturbation the network cannot take), prefixed with the type name
    for anything else — so error records match across routes by
    construction.
    """
    if isinstance(error, ScenarioError):
        error = str(error)
    elif isinstance(error, Exception):
        error = f"{type(error).__name__}: {error}"
    return ScenarioResult(
        name=scenario.name, tags=dict(scenario.tags), converged=False, error=error
    )


class _WorkerState:
    """One worker's long-lived state: base network plus reusable caches."""

    #: Entry cap for the per-worker contingency cache.  Load-perturbation
    #: ensembles give every scenario a distinct content hash, so the cache
    #: would otherwise grow without bound while never hitting; past the
    #: cap it is simply dropped (reuse is an optimisation, not state).
    CA_CACHE_MAX_ENTRIES = 20_000

    #: Entry caps for the topology-keyed factor and kernel caches.  Outage
    #: ensembles mint a new digest per scenario, so without a cap these
    #: grow with the ensemble (dense PTDF/LODF matrices and LU objects,
    #: respectively — far heavier per entry than the CA cache's records).
    #: Past the cap the cache is dropped, same policy as the CA cache.
    FACTORS_CACHE_MAX_ENTRIES = 256
    KERNEL_CACHE_MAX_ENTRIES = 64

    def __init__(self, base: Network, config: StudyConfig) -> None:
        self.base = base
        self.config = config
        self.factors_cache: dict[bytes, SensitivityFactors] = {}
        self.kernel_cache: dict[bytes, DcKernel] = {}
        self.ac_kernel_cache: dict[bytes, AcKernel] = {}
        self.ca_cache = ContingencyCache()
        self._base_connected: bool | None = None

    @property
    def base_connected(self) -> bool:
        """Whether the base network is connected, checked once per state:
        the base never changes, and the fast paths ask on every chunk."""
        if self._base_connected is None:
            self._base_connected = gridgraph.is_connected(self.base)
        return self._base_connected

    # ------------------------------------------------------------------
    def kernel_for(self, net: Network) -> DcKernel:
        """Compiled :class:`DcKernel`, cached on the topology digest.

        One factorization per electrical topology per worker: the whole
        load-perturbation ensemble (and every PTDF computation for it)
        reuses this kernel's LU.
        """
        arr = net.compile()
        key = topology_digest(arr)
        kernel = self.kernel_cache.get(key)
        if kernel is None:
            if len(self.kernel_cache) >= self.KERNEL_CACHE_MAX_ENTRIES:
                self.kernel_cache.clear()
            kernel = DcKernel(arr)
            self.kernel_cache[key] = kernel
        return kernel

    def ac_kernel_for(self, net: Network) -> AcKernel:
        """Warm-start :class:`AcKernel`, cached on the topology digest.

        One base solve and one B'/B'' factorization pair per electrical
        topology per worker — the whole injection-only AC ensemble warm
        starts from this kernel's cached base voltage.  Capped like the
        DC kernel cache (SuperLU objects are heavy and unpicklable, so
        the cache is strictly worker-local).
        """
        arr = net.compile()
        key = topology_digest(arr)
        kernel = self.ac_kernel_cache.get(key)
        if kernel is None:
            if len(self.ac_kernel_cache) >= self.KERNEL_CACHE_MAX_ENTRIES:
                self.ac_kernel_cache.clear()
            kernel = AcKernel(net)
            self.ac_kernel_cache[key] = kernel
        return kernel

    def factors_for(self, net: Network) -> SensitivityFactors:
        """PTDF/LODF factors, cached on the electrical-topology digest.

        The digest covers everything the DC factors depend on (incidence,
        impedances, taps, shifts, bus types) but *not* loads — so a
        load-perturbation ensemble computes one factorisation total, and
        the PTDF comes through the same LU the kernel cache holds.
        """
        arr = net.compile()
        key = topology_digest(arr)
        factors = self.factors_cache.get(key)
        if factors is None:
            if len(self.factors_cache) >= self.FACTORS_CACHE_MAX_ENTRIES:
                self.factors_cache.clear()
            factors = compute_factors(net, kernel=self.kernel_for(net))
            self.factors_cache[key] = factors
        return factors

    # ------------------------------------------------------------------
    def run_chunk(self, scenarios: list[Scenario]) -> list[ScenarioResult]:
        """Chunk-level entry point every execution path funnels through.

        Scenarios are grouped by whether they keep the base electrical
        topology: for the linear analyses, the injection-only group maps
        onto one topology digest (the base's) and is solved through the
        batched kernels in one multi-RHS pass (bit-identical to the
        scalar path); for ``analysis="powerflow"`` with ``ac_mode="warm"``
        the injection-only group routes through the warm-start AC kernel
        (parity contract, not bit-identity — Newton iterates are
        path-dependent).  Topology-changing scenarios, rows the warm path
        cannot converge, and every scenario of the other nonlinear
        analyses take the scalar per-scenario loop.  Chunk results come
        back in submission order either way.
        """
        cfg = self.config
        fast_group = None
        min_group = 2
        if (
            cfg.batch_kernels
            and cfg.analysis in ("dc", "screening")
            and len(scenarios) >= 2
        ):
            fast_group = self._run_chunk_batched
        elif cfg.analysis == "powerflow" and cfg.ac_mode == "warm":
            # The warm path solves rows independently (the screen, the
            # multi-RHS corrector sweeps, and the Newton polish never mix
            # rows), so it engages even for singleton groups: a scenario's
            # iterate path then depends only on the base case and its own
            # injection, never on chunking — which is what keeps serial,
            # pooled, and executor dispatch producing identical records.
            fast_group = self._run_chunk_ac
            min_group = 1
        if fast_group is not None:
            batch_idx = [i for i, s in enumerate(scenarios) if s.injection_only]
            if len(batch_idx) >= min_group:
                batched = fast_group([scenarios[i] for i in batch_idx])
                if batched is not None:
                    out: list[ScenarioResult | None] = [None] * len(scenarios)
                    for i, r in zip(batch_idx, batched):
                        out[i] = r
                    for i, s in enumerate(scenarios):
                        if out[i] is None:
                            out[i] = self.run_scenario(s)
                    return out  # type: ignore[return-value]
        return [self.run_scenario(s) for s in scenarios]

    def _run_chunk_batched(
        self, scenarios: list[Scenario]
    ) -> list[ScenarioResult] | None:
        """Evaluate an injection-only group through the batched kernels.

        Returns ``None`` to signal "degrade to the scalar loop" — when the
        base case itself is disconnected (the scalar path's per-scenario
        stranded-MW message needs each realized network) or the kernel
        cannot be built.  Per-scenario perturbation errors do *not* sink
        the group: the offending scenario gets the same error record the
        scalar path would produce and the rest still batch.
        """
        cfg = self.config
        base = self.base
        if not self.base_connected:
            return None
        try:
            kernel = self.kernel_for(base)
        except Exception:
            return None

        tick = time.perf_counter()
        results, vectors, live = self._replay_rows(
            scenarios, lambda s: s.injection_vector(base)
        )

        metrics = get_metrics()
        with get_tracer().span(
            "chunk.batch", analysis=cfg.analysis, n_scenarios=len(live)
        ):
            if live:
                p_inj = np.vstack(vectors)
                if cfg.analysis == "dc":
                    batch = kernel.solve_many(p_inj)
                    per_scn = (time.perf_counter() - tick) / len(live)
                    for j, i in enumerate(live):
                        results[i] = self._dc_result(
                            scenarios[i], kernel.arr, batch.loading_percent[j]
                        )
                        results[i].solve_time_s = per_scn
                else:  # screening: batch the DC estimate, AC-verify per scenario
                    factors = self.factors_for(base)
                    estimates = screen_dc_many(kernel, factors, p_inj)
                    for j, i in enumerate(live):
                        results[i] = self.run_scenario(
                            scenarios[i], estimate=estimates[j]
                        )
                metrics.counter(
                    "gridmind_batch_solves_total",
                    "Multi-RHS batched kernel solve calls",
                ).inc(analysis=cfg.analysis)
                metrics.counter(
                    "gridmind_batch_rows_total",
                    "Scenario rows solved through the batched kernels",
                ).inc(len(live), analysis=cfg.analysis)

        # Metric parity with the scalar loop: screening rows already went
        # through run_scenario; the dc rows (and error records) have not.
        if cfg.analysis == "dc":
            counter = metrics.counter(
                "gridmind_scenarios_total", "Scenario evaluations by outcome"
            )
            for r in results:
                counter.inc(analysis=cfg.analysis, converged=r.converged)
        return results  # type: ignore[return-value]

    @staticmethod
    def _replay_rows(
        scenarios: list[Scenario], replay: Callable[[Scenario], np.ndarray]
    ) -> tuple[list[ScenarioResult | None], list[np.ndarray], list[int]]:
        """Replay each scenario's injection row for a fast-path group.

        Returns ``(results, rows, live)``: ``rows[j]`` is the replay of
        ``scenarios[live[j]]``, and a scenario whose replay raises gets
        the scalar path's error record in ``results`` (every other slot
        is ``None``) — one bad perturbation never sinks the group.
        """
        results: list[ScenarioResult | None] = [None] * len(scenarios)
        rows: list[np.ndarray] = []
        live: list[int] = []
        for i, scenario in enumerate(scenarios):
            try:
                rows.append(replay(scenario))
                live.append(i)
            except Exception as exc:
                results[i] = _error_result(scenario, exc)
        return results, rows, live

    def _dc_result(
        self, scenario: Scenario, arr, loading: np.ndarray
    ) -> ScenarioResult:
        """Reduce one DC loading vector to a result record — the single
        reduction both the scalar and batched dc paths run, so their
        records are bit-identical by construction."""
        cfg = self.config
        over_rows = np.flatnonzero(loading > cfg.overload_threshold)
        # DC holds every voltage at 1.0 p.u. flat by construction.
        n_volt = arr.n_bus if (1.0 < cfg.vmin or 1.0 > cfg.vmax) else 0
        return ScenarioResult(
            name=scenario.name,
            tags=dict(scenario.tags),
            converged=True,
            max_loading_percent=float(loading.max()) if loading.size else 0.0,
            min_voltage_pu=1.0,
            max_voltage_pu=1.0,
            losses_mw=0.0,
            overloaded_branches=[int(arr.branch_ids[r]) for r in over_rows],
            n_voltage_violations=n_volt,
        )

    def _run_chunk_ac(
        self, scenarios: list[Scenario]
    ) -> list[ScenarioResult | None] | None:
        """Evaluate an injection-only AC group through the warm kernel.

        Returns ``None`` to signal "degrade the whole group to the scalar
        loop" — when the base case is disconnected, the kernel cannot be
        built, or the base Newton solve itself does not converge (no
        voltage to warm-start from).  Individual rows degrade too: a
        perturbation error gets the same error record the scalar path
        would produce, and a row whose warm Newton polish fails comes
        back as ``None`` so the caller reruns it through the exact cold
        ladder (``solve_newton`` then ``solve_with_recovery``), making
        error records byte-identical on both paths.
        """
        cfg = self.config
        base = self.base
        if not self.base_connected:
            return None
        try:
            kernel = self.ac_kernel_for(base)
            if not kernel.usable:
                return None
        except Exception:
            return None

        tick = time.perf_counter()
        results, rows, live = self._replay_rows(
            scenarios, lambda s: s.ac_injection(base)[0]
        )

        metrics = get_metrics()
        with get_tracer().span(
            "chunk.ac_batch", analysis=cfg.analysis, n_scenarios=len(live)
        ):
            if live:
                sol = kernel.solve_chunk(
                    np.vstack(rows), fd_sweeps=cfg.ac_fd_sweeps
                )
                per_scn = (time.perf_counter() - tick) / len(live)
                # Rows the polish did not converge stay None: the caller
                # runs them through the cold ladder.
                ok = np.flatnonzero(sol.converged)
                v = sol.v[ok]
                flows = branch_flows(kernel.arr, kernel.adm, v)
                records = self._pf_records(
                    [scenarios[live[j]] for j in ok],
                    np.abs(v),
                    flows.loading_percent,
                    flows.losses_mw,
                    kernel.arr.branch_ids,
                )
                iters_hist = metrics.histogram(
                    "gridmind_ac_newton_iterations",
                    "Newton iterations per AC ensemble scenario",
                    buckets=ITERATION_BUCKETS,
                )
                for j, record in zip(ok, records):
                    record.solve_time_s = per_scn
                    results[live[j]] = record
                    iters_hist.observe(float(sol.iterations[j]), mode="warm")
                n_skipped = int(np.count_nonzero(sol.skipped[ok]))
                n_warm = len(ok) - n_skipped
                if n_warm:
                    metrics.counter(
                        "gridmind_ac_warm_solves_total",
                        "AC ensemble rows solved warm through the kernel",
                    ).inc(n_warm)
                if n_skipped:
                    metrics.counter(
                        "gridmind_ac_skipped_converged_total",
                        "AC ensemble rows already converged at the warm start",
                    ).inc(n_skipped)

        # Metric parity with the scalar loop for the rows handled here
        # (error records and warm-converged rows); fallback rows bill
        # themselves inside run_scenario.
        counter = metrics.counter(
            "gridmind_scenarios_total", "Scenario evaluations by outcome"
        )
        outcomes = Counter(r.converged for r in results if r is not None)
        for converged, n in outcomes.items():
            counter.inc(n, analysis=cfg.analysis, converged=converged)
        return results

    # ------------------------------------------------------------------
    def run_scenario(self, scenario: Scenario, **hints) -> ScenarioResult:
        with get_tracer().span("scenario.run", scenario=scenario.name) as span:
            result = self._run_scenario(scenario, **hints)
            span.tags["converged"] = result.converged
            if result.error:
                span.status = "error"
                span.error = result.error
        get_metrics().counter(
            "gridmind_scenarios_total", "Scenario evaluations by outcome"
        ).inc(analysis=self.config.analysis, converged=result.converged)
        return result

    def _run_scenario(self, scenario: Scenario, **hints) -> ScenarioResult:
        tick = time.perf_counter()
        try:
            net = scenario.realize(self.base)
            if not gridgraph.is_connected(net):
                # Outage combinations can island the system (N-2 over a
                # bridge); no solver can run, but the study must record
                # the scenario rather than die on a singular matrix.
                result = _error_result(
                    scenario,
                    "scenario islands the network "
                    f"({gridgraph.stranded_load_mw(net, frozenset()):.1f} MW stranded)",
                )
            else:
                runner = getattr(self, f"_run_{self.config.analysis}")
                result = runner(net, scenario, **hints)
        except Exception as exc:  # solver edge cases must not kill the batch
            result = _error_result(scenario, exc)
        result.solve_time_s = time.perf_counter() - tick
        return result

    # ------------------------------------------------------------------
    def _solve_pf(self, net: Network):
        from ..powerflow.newton import solve_newton
        from ..powerflow.recovery import solve_with_recovery

        res = solve_newton(net)
        if not res.converged:
            res, _trace = solve_with_recovery(net)
        return res

    def _pf_records(
        self,
        scenarios: list[Scenario],
        vm: np.ndarray,
        loading: np.ndarray,
        losses_mw: np.ndarray,
        branch_ids: np.ndarray,
    ) -> list[ScenarioResult]:
        """Reduce stacked converged AC solutions to records — the single
        reduction the scalar and warm-kernel paths share, so their
        violation sets and aggregate fields agree by construction.

        Row ``k`` of ``vm`` (``(n, n_bus)``, p.u.), ``loading``
        (``(n, n_branch)``, %) and ``losses_mw`` (``(n,)``) belongs to
        ``scenarios[k]``; every field of its record depends on that row
        alone, so records do not depend on how rows were chunked.
        """
        cfg = self.config
        n = len(scenarios)
        max_loading = loading.max(axis=1) if loading.shape[1] else np.zeros(n)
        vm_min = vm.min(axis=1)
        vm_max = vm.max(axis=1)
        n_volt = np.count_nonzero((vm < cfg.vmin) | (vm > cfg.vmax), axis=1)
        over = loading > cfg.overload_threshold
        any_over = over.any(axis=1)
        records = []
        for k, scenario in enumerate(scenarios):
            overloaded: list[int] = []
            if any_over[k]:
                rows = np.flatnonzero(over[k])
                # Worst first; the stable sort keeps ties in branch-row order.
                rows = rows[np.argsort(-loading[k, rows], kind="stable")]
                overloaded = branch_ids[rows].tolist()
            records.append(ScenarioResult(
                name=scenario.name,
                tags=dict(scenario.tags),
                converged=True,
                max_loading_percent=float(max_loading[k]),
                min_voltage_pu=float(vm_min[k]),
                max_voltage_pu=float(vm_max[k]),
                losses_mw=float(losses_mw[k]),
                overloaded_branches=overloaded,
                n_voltage_violations=int(n_volt[k]),
            ))
        return records

    def _run_powerflow(self, net: Network, scenario: Scenario) -> ScenarioResult:
        res = self._solve_pf(net)
        if res.method == "newton":
            get_metrics().histogram(
                "gridmind_ac_newton_iterations",
                "Newton iterations per AC ensemble scenario",
                buckets=ITERATION_BUCKETS,
            ).observe(float(res.iterations), mode="cold")
        if not res.converged:
            return _error_result(scenario, res.message or "power flow diverged")
        return self._pf_records(
            [scenario],
            res.vm[np.newaxis, :],
            res.loading_percent[np.newaxis, :],
            np.array([res.losses_mw]),
            res.branch_ids,
        )[0]

    def _reduce_opf(self, scenario: Scenario, res) -> ScenarioResult:
        """Shared OPF-result reduction (DCOPF / ACOPF / SCOPF master)."""
        cfg = self.config
        over_rows = np.flatnonzero(res.loading_percent > cfg.overload_threshold)
        n_volt = int(
            np.count_nonzero((res.vm < cfg.vmin) | (res.vm > cfg.vmax))
        )
        return ScenarioResult(
            name=scenario.name,
            tags=dict(scenario.tags),
            converged=True,
            objective_cost=float(res.objective_cost),
            max_loading_percent=res.max_loading_percent,
            min_voltage_pu=res.min_voltage_pu,
            max_voltage_pu=res.max_voltage_pu,
            losses_mw=float(res.losses_mw),
            overloaded_branches=[int(res.branch_ids[r]) for r in over_rows],
            n_voltage_violations=n_volt,
        )

    def _run_opf(self, net: Network, scenario: Scenario, solve) -> ScenarioResult:
        res = solve(net)
        if not res.converged:
            return _error_result(scenario, res.message or "OPF did not converge")
        return self._reduce_opf(scenario, res)

    def _run_dc(self, net: Network, scenario: Scenario) -> ScenarioResult:
        """Linear DC screening solve — the scalar side of the batched
        kernels' fast path (chunks of injection-only scenarios route
        through :meth:`run_chunk` / ``solve_many`` instead)."""
        from ..powerflow.dc import solve_dc

        kernel = self.kernel_for(net)
        res = solve_dc(net, kernel=kernel)
        return self._dc_result(scenario, net.compile(), res.loading_percent)

    def _run_dcopf(self, net: Network, scenario: Scenario) -> ScenarioResult:
        from ..opf.dcopf import solve_dcopf

        return self._run_opf(net, scenario, solve_dcopf)

    def _run_acopf(self, net: Network, scenario: Scenario) -> ScenarioResult:
        from ..opf.acopf import solve_acopf

        return self._run_opf(net, scenario, solve_acopf)

    def _run_scopf(self, net: Network, scenario: Scenario) -> ScenarioResult:
        """Preventive SCOPF: the study reports *secured* cost distributions."""
        from ..opf.scopf import solve_scopf

        res = solve_scopf(net)
        if not res.converged:
            return _error_result(
                scenario, res.opf.message or "SCOPF master did not converge"
            )
        out = self._reduce_opf(scenario, res.opf)
        out.security_cost = float(res.security_cost)
        # Pairs no preventive redispatch can secure — the honest residual.
        out.n_contingency_violations = len(res.unattainable)
        return out

    def _run_screening(
        self, net: Network, scenario: Scenario, estimate=None
    ) -> ScenarioResult:
        cfg = self.config
        base = self._solve_pf(net)
        if not base.converged:
            return _error_result(scenario, base.message or "base power flow diverged")

        if estimate is None:
            # ``estimate`` arrives precomputed from the chunk fast path
            # (one stacked solve + LODF product for the whole group);
            # the scalar path computes the identical estimate here.
            factors = self.factors_for(net)
            estimate = screen_dc(net, factors=factors)
        candidates = sorted(
            set(estimate.top(cfg.ac_budget))
            | set(int(b) for b in estimate.islanding)
        )

        # One content hash for the whole sweep (lookup + put), then AC
        # verification only for the outages this worker has not seen.
        cached, missing = self.ca_cache.lookup_sweep(net, candidates)
        bridges = gridgraph.bridge_branches(net) if missing else set()
        v_base = base.extras.get("v_complex")
        fresh = [
            analyze_single_outage(
                net,
                bid,
                bridges=bridges,
                v_base=v_base,
                vmin=cfg.vmin,
                vmax=cfg.vmax,
                overload_threshold=cfg.overload_threshold,
            )
            for bid in missing
        ]
        if fresh:
            if self.ca_cache.size >= self.CA_CACHE_MAX_ENTRIES:
                self.ca_cache.clear()
            self.ca_cache.put_many(net, fresh)
        outcomes = sorted([*cached.values(), *fresh], key=lambda o: o.branch_id)

        report = NMinus1Report(
            case_name=net.name, base=base, outcomes=outcomes,
            runtime_s=0.0, vmin=cfg.vmin, vmax=cfg.vmax,
        )
        ranked = rank_critical_elements(report, top_n=cfg.top_n)

        post_overloads = sorted(
            {int(b) for o in outcomes if o.converged for b, _pct in o.overloads}
        )
        return ScenarioResult(
            name=scenario.name,
            tags=dict(scenario.tags),
            converged=True,
            max_loading_percent=report.max_overload_percent,
            min_voltage_pu=base.min_voltage_pu,
            max_voltage_pu=base.max_voltage_pu,
            losses_mw=base.losses_mw,
            overloaded_branches=post_overloads,
            n_voltage_violations=len(base.voltage_violations(cfg.vmin, cfg.vmax)),
            critical_branches=ranked.critical_branch_ids,
            n_contingency_violations=report.n_violations,
        )


# ----------------------------------------------------------------------
# chunked dispatch: one _WorkerState per process, in-process or pooled
# ----------------------------------------------------------------------


@dataclass
class ChunkOutcome:
    """One evaluated chunk plus its observability payload.

    What both execution paths (the in-process serial loop and
    :meth:`~repro.service.executor.StudyExecutor.run_study_chunks`)
    yield to the runner's fold loop: the results themselves, the
    worker's identity and wall time (surfaced on ``StudyProgress``), the
    finished span dicts recorded inside the worker (stitched into the
    parent trace via :meth:`~repro.instrumentation.trace.Tracer.adopt`),
    and the worker-local metrics delta (folded into the parent registry
    via :meth:`~repro.instrumentation.metrics.MetricsRegistry.merge_state`).
    """

    results: list[ScenarioResult]
    worker_pid: int = 0
    wall_s: float = 0.0
    spans: list[dict] = field(default_factory=list)
    metrics: dict | None = None


def _execute_chunk(
    state: _WorkerState,
    scenarios: list[Scenario],
    trace_ctx: tuple[str, str] | None,
    collect_metrics: bool,
) -> ChunkOutcome:
    """Evaluate one chunk inside a worker process, instrumented.

    ``trace_ctx`` is the dispatcher's serialised span context (``None``
    for untraced studies — the worker then pays only this check): a
    private chunk tracer is activated under it, so the ``worker.chunk``
    span and everything beneath (scenario, solver) reparent correctly
    once adopted.  ``collect_metrics`` ships the worker-local
    counter/histogram delta for this chunk back to the parent.
    """
    tick = time.perf_counter()
    # Mirror the dispatcher's collection flag regardless of what registry
    # this worker inherited at fork time: a worker forked during an
    # untraced study must still collect for a later metered one, and with
    # collection off the increments should no-op rather than accumulate
    # into a registry nobody will ever drain.
    previous = None
    if collect_metrics != get_metrics().enabled:
        previous = set_metrics(MetricsRegistry(enabled=collect_metrics))
    before = get_metrics().state() if collect_metrics else None
    try:
        with worker_trace(trace_ctx) as tracer:
            with tracer.span("worker.chunk", n_scenarios=len(scenarios)):
                results = state.run_chunk(scenarios)
        delta = (
            state_delta(get_metrics().state(), before)
            if collect_metrics
            else None
        )
    finally:
        if previous is not None:
            set_metrics(previous)
    return ChunkOutcome(
        results=results,
        worker_pid=os.getpid(),
        wall_s=time.perf_counter() - tick,
        spans=tracer.drain_dicts(),
        metrics=delta,
    )


def default_chunk_size(total: int | None, n_jobs: int) -> int:
    """~4 chunks per worker for sized ensembles, capped at the stream stride."""
    if total is None:
        return DEFAULT_STREAM_CHUNK
    return max(1, min(math.ceil(total / (max(1, n_jobs) * 4)), DEFAULT_STREAM_CHUNK))


def iter_chunks(
    scenarios: Iterable[Scenario], chunk: int
) -> Iterator[list[Scenario]]:
    """Order-preserving dispatch chunks drawn lazily from the stream."""
    if chunk < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk}")
    it = iter(scenarios)
    while batch := list(itertools.islice(it, chunk)):
        yield batch


@dataclass
class BatchStudyRunner:
    """Execute scenario streams with optional process-pool parallelism.

    Every pooled study runs on a
    :class:`~repro.service.executor.StudyExecutor`.  ``executor`` injects
    a long-lived shared one (the service layer's), so back-to-back
    studies amortise worker start-up; it decides its own worker count and
    ``n_jobs`` is ignored.  Without one, ``n_jobs > 1`` opens an executor
    scoped to the ``run(...)`` call and shuts it down when the call
    returns or raises.  ``n_jobs <= 1`` runs in-process through the same
    worker-state code path — the reference the pooled paths must match
    record for record.  ``chunk_size`` controls dispatch granularity
    (default: ~4 chunks per worker, balancing load against per-chunk
    pickling overhead).

    Streaming controls:

    * ``window`` — max chunks in flight at once (backpressure; default
      2x the worker count),
    * ``worst_k`` — how many most-stressed scenarios a study retains when
      the full result list is dropped,
    * ``run(..., keep_results=False)`` — stream-reduce without
      materialising results; ``run(..., progress=cb)`` — invoke ``cb``
      with a :class:`StudyProgress` after every completed chunk.
    """

    analysis: str = "powerflow"
    n_jobs: int = 1
    chunk_size: int | None = None
    overload_threshold: float = 100.0
    vmin: float = 0.94
    vmax: float = 1.06
    ac_budget: int = 20
    top_n: int = 5
    executor: StudyExecutor | None = None  # shared pool (service layer)
    window: int | None = None  # max in-flight chunks (pooled paths)
    worst_k: int = DEFAULT_WORST_K
    #: Tag dimensions for sliced aggregation: a tuple of tag names, or a
    #: comma-separated string of names/aliases ("hour, zone") which is
    #: parsed through :func:`~repro.scenarios.generators.resolve_slice_by`.
    slice_by: tuple[str, ...] | str = ()
    slice_max_values: int = DEFAULT_SLICE_MAX_VALUES
    #: Batched-kernel fast path for injection-only chunks of the linear
    #: analyses; off forces the scalar loop (the ablation baseline).
    batch_kernels: bool = True
    #: Warm AC fast path for injection-only ``powerflow`` chunks
    #: ("warm", the default) vs the exact legacy per-scenario solve
    #: ("cold", the ablation baseline).
    ac_mode: str = "warm"
    #: Fast-decoupled corrector sweeps before the warm Newton polish.
    ac_fd_sweeps: int = 8

    def config(self) -> StudyConfig:
        """The validated per-study knob bundle shipped to every worker."""
        if self.analysis not in ANALYSES:
            raise ValueError(
                f"unknown analysis {self.analysis!r}; use one of {ANALYSES}"
            )
        if self.ac_mode not in ("warm", "cold"):
            raise ValueError(
                f"unknown ac_mode {self.ac_mode!r}; use 'warm' or 'cold'"
            )
        slice_by = self.slice_by
        if isinstance(slice_by, str):
            from .generators import resolve_slice_by

            slice_by = resolve_slice_by(slice_by)
        config = StudyConfig(
            analysis=self.analysis,
            overload_threshold=self.overload_threshold,
            vmin=self.vmin,
            vmax=self.vmax,
            ac_budget=self.ac_budget,
            top_n=self.top_n,
            slice_by=tuple(slice_by),
            slice_max_values=self.slice_max_values,
            batch_kernels=self.batch_kernels,
            ac_mode=self.ac_mode,
            ac_fd_sweeps=self.ac_fd_sweeps,
        )
        config.slice_spec()  # validate dimensions/cap before dispatch
        return config

    # ------------------------------------------------------------------
    def _serial_chunks(
        self, base: Network, config: StudyConfig, scenarios, chunk: int
    ) -> Iterator[ChunkOutcome]:
        # Generator bodies run in the *caller's* context, so these live
        # ``worker.chunk`` spans parent under whatever span the fold loop
        # holds open when it draws the next chunk — same tree shape as
        # the pool paths, without serialising anything.
        tracer = get_tracer()
        state = _WorkerState(base.copy(), config)
        for chunk_scns in iter_chunks(scenarios, chunk):
            tick = time.perf_counter()
            with tracer.span("worker.chunk", n_scenarios=len(chunk_scns)):
                results = state.run_chunk(chunk_scns)
            yield ChunkOutcome(
                results=results,
                worker_pid=os.getpid(),
                wall_s=time.perf_counter() - tick,
            )

    # ------------------------------------------------------------------
    def run(
        self,
        base: Network,
        scenarios: Iterable[Scenario],
        *,
        progress: Callable[[StudyProgress], None] | None = None,
        keep_results: bool = True,
    ) -> StudyResult:
        from ..service.executor import StudyExecutor

        config = self.config()
        tracer = get_tracer()
        metrics = get_metrics()
        start = time.perf_counter()
        # One-shot iterators are materialised up front (lists and
        # ScenarioStreams pass through lazily): the stream is re-read
        # after execution by store persistence (spec hashing), and a
        # consumed generator would silently hash as an empty study.
        scenarios = as_stream(scenarios)
        total = stream_length(scenarios)

        # The dimensional reducer degenerates to the plain global one for
        # an empty slice spec, so every study takes the same path.
        reducer = SlicedReducer(config.slice_spec())
        heap = _WorstK(self.worst_k)
        kept: list[ScenarioResult] | None = [] if keep_results else None
        n_done = 0
        n_chunks = 0
        n_events = 0
        peak_resident = 0

        with ExitStack() as stack:
            executor = self.executor
            dispatch_name = "executor.dispatch"
            if total is not None and total < 2:
                executor = None
            elif executor is None and self.n_jobs > 1:
                # A pool scoped to this run, shut down when it returns or
                # raises.
                jobs = self.n_jobs if total is None else min(self.n_jobs, total)
                executor = stack.enter_context(StudyExecutor(max_workers=jobs))
                dispatch_name = "pool.dispatch"
            if executor is None:
                jobs = 1
                dispatch_name = "serial.dispatch"
                chunk = self.chunk_size or default_chunk_size(total, 1)
                in_flight_extra = 0
                chunk_iter = self._serial_chunks(base, config, scenarios, chunk)
            else:
                jobs = executor.max_workers
                # The executor's own chunk/window plan, so the residency
                # bound below accounts for its undrained futures.
                chunk, window = executor.dispatch_plan(
                    total, chunk_size=self.chunk_size, window=self.window
                )
                in_flight_extra = (window - 1) * chunk
                chunk_iter = executor.run_study_chunks(
                    base, config, scenarios,
                    chunk_size=self.chunk_size, window=self.window,
                )
            # Closed before a scoped pool shuts down (exit order is LIFO):
            # an early exit cancels the window's queued chunks rather than
            # waiting for them.
            chunk_iter = stack.enter_context(closing(chunk_iter))

            # The dispatch span is held open by *this* consumer loop: chunk
            # iterators are generators, so every submission they make while
            # being drained captures this span as the remote parent — which
            # is how worker-chunk spans end up parented under it.
            with tracer.span("study.run", analysis=self.analysis, case=base.name) as root:
                with tracer.span(dispatch_name, n_jobs=jobs):
                    for outcome in chunk_iter:
                        chunk_results = outcome.results
                        n_done += len(chunk_results)
                        n_chunks += 1
                        tracer.adopt(outcome.spans)
                        metrics.merge_state(outcome.metrics)
                        # Worker-side chunk wall: the latency signal the
                        # chunk_wall_p95 health rule watches, and the
                        # executor occupancy billed to the session.
                        metrics.histogram(
                            "gridmind_chunk_wall_seconds",
                            "Worker-side study chunk wall time",
                        ).observe(outcome.wall_s)
                        record_chunk(len(chunk_results), outcome.wall_s)
                        with tracer.span("study.reduce", n_results=len(chunk_results)):
                            reducer.add_many(chunk_results)
                            for r in chunk_results:
                                heap.push(r)
                        if kept is not None:
                            kept.extend(chunk_results)
                        # Parent-resident records right now: the kept list (or just
                        # this chunk when dropping), the worst-K slice, plus the
                        # worst-case results buffered in completed-but-undrained
                        # futures of the in-flight window.
                        resident = (len(kept) if kept is not None else len(chunk_results))
                        peak_resident = max(
                            peak_resident, resident + len(heap) + in_flight_extra
                        )
                        if progress is not None:
                            snap = reducer.snapshot()
                            n_events += 1
                            progress(
                                StudyProgress(
                                    n_done=n_done,
                                    n_total=total,
                                    n_chunks=n_chunks,
                                    n_converged=snap["n_converged"],
                                    n_errors=snap["n_errors"],
                                    violation_rate=snap["violation_rate"],
                                    elapsed_s=time.perf_counter() - start,
                                    chunk_wall_s=outcome.wall_s,
                                    worker_pid=outcome.worker_pid,
                                )
                            )
                root.tags["n_scenarios"] = n_done
                root.tags["n_chunks"] = n_chunks

        metrics.counter(
            "gridmind_studies_total", "Batch studies by analysis"
        ).inc(analysis=self.analysis)
        record_study()
        metrics.histogram(
            "gridmind_study_seconds", "End-to-end study wall time"
        ).observe(time.perf_counter() - start)

        return StudyResult(
            case_name=base.name,
            analysis=self.analysis,
            results=kept if kept is not None else [],
            runtime_s=time.perf_counter() - start,
            n_jobs=jobs,
            n_scenarios=n_done,
            worst_results=heap.worst(),
            n_progress_events=n_events,
            peak_resident_results=peak_resident,
            slice_spec=config.slice_spec() if config.slice_by else None,
            _aggregate=reducer.result(),
        )
