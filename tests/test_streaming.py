"""Streaming study pipeline: lazy streams, online reducer, bounded dispatch.

Covers the streaming rework end to end: scenario streams expand lazily
with deterministic per-index seeds, the online :class:`StudyReducer`
matches the materialised aggregation bit-for-bit (and its P² sketches
stay within tolerance at 10k draws), the execution paths (serial,
run-scoped executor, shared executor) produce identical aggregates with bounded resident
results and backpressure, and the store's retention/integrity lifecycle
ops behave.
"""

import dataclasses
import itertools
import json
import multiprocessing

import numpy as np
import pytest

from repro.scenarios import (
    BatchStudyRunner,
    BranchOutage,
    P2Quantile,
    Scenario,
    ScenarioStream,
    StreamingStats,
    StudyReducer,
    UniformLoadScale,
    aggregate_study,
    factorial,
    latin_hypercube,
    load_sweep,
    monte_carlo_ensemble,
    outage_combinations,
    with_branch_outage,
)
from repro.scenarios.runner import ScenarioResult
from repro.service import StudyExecutor


# ----------------------------------------------------------------------
# scenario streams
# ----------------------------------------------------------------------


class TestScenarioStream:
    def test_lazy_expansion(self):
        produced = []

        def gen():
            for i in range(1000):
                produced.append(i)
                yield Scenario(f"s{i}", (UniformLoadScale(1.0),))

        stream = ScenarioStream(gen, length=1000)
        first3 = list(itertools.islice(iter(stream), 3))
        assert [s.name for s in first3] == ["s0", "s1", "s2"]
        assert len(produced) <= 4  # nothing beyond the slice realised

    def test_reiterable(self):
        stream = load_sweep(0.9, 1.1, 5)
        assert [s.name for s in stream] == [s.name for s in stream]

    def test_len_and_getitem(self):
        stream = load_sweep(0.8, 1.2, 9)
        assert len(stream) == 9
        assert stream[0].name == "sweep_080"
        assert stream[-1].name == "sweep_120"
        assert [s.name for s in stream[2:4]] == [s.name for s in stream][2:4]

    def test_unknown_length_raises_on_len(self):
        stream = ScenarioStream(lambda: iter(()), length=None)
        with pytest.raises(TypeError, match="unknown length"):
            len(stream)
        assert bool(stream)  # truth-testing must not realise the stream

    def test_materialize(self):
        stream = load_sweep(0.9, 1.1, 3)
        assert [s.name for s in stream.materialize()] == [s.name for s in stream]


class TestLazyGenerators:
    def test_monte_carlo_child_seeds_are_prefix_stable(self):
        """Draw i gets the same seed regardless of ensemble size."""
        small = [s.tags["seed"] for s in monte_carlo_ensemble(n=8, seed=5)]
        large = [s.tags["seed"] for s in monte_carlo_ensemble(n=100, seed=5)]
        assert small == large[:8]

    def test_monte_carlo_mid_stream_slice_matches(self):
        stream = monte_carlo_ensemble(n=50, sigma=0.05, seed=3)
        whole = stream.materialize()
        assert stream[17].tags == whole[17].tags

    def test_outage_combinations_length_without_expansion(self, case14):
        stream = outage_combinations(case14, depth=2)
        nb = len(case14.in_service_branch_ids())
        assert len(stream) == nb * (nb - 1) // 2

    def test_with_branch_outage_keeps_length(self):
        composed = with_branch_outage(load_sweep(0.9, 1.1, 3), branch_id=2)
        assert len(composed) == 3
        assert all(s.tags["outage_branch"] == 2 for s in composed)


class TestFactorial:
    def test_cross_product_length_and_content(self, case14):
        sweep = load_sweep(0.9, 1.1, 3)
        outages = outage_combinations(case14, depth=1, limit=4)
        crossed = factorial(sweep, outages)
        assert len(crossed) == 12
        combos = list(crossed)
        assert combos[0].name == "sweep_090xout_0"
        # Perturbations concatenate in family order.
        assert isinstance(combos[0].perturbations[0], UniformLoadScale)
        assert isinstance(combos[0].perturbations[1], BranchOutage)
        assert all(s.tags["family"] == "factorial" for s in combos)
        assert [s.tags["index"] for s in combos] == list(range(12))

    def test_lazy_and_reiterable(self, case14):
        crossed = factorial(
            load_sweep(0.9, 1.1, 3), outage_combinations(case14, depth=1, limit=3)
        )
        assert [s.name for s in crossed] == [s.name for s in crossed]

    def test_empty_call_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            factorial()


class TestLatinHypercube:
    def test_stratification(self):
        n, lo, hi = 16, 0.8, 1.2
        stream = latin_hypercube(n, lo, hi, seed=2)
        factors = sorted(s.tags["scale"] for s in stream)
        width = (hi - lo) / n
        # Exactly one sample in every stratum of the scale range.
        for i, f in enumerate(factors):
            assert lo + i * width <= f <= lo + (i + 1) * width + 1e-12

    def test_deterministic_in_seed(self):
        a = [s.tags["scale"] for s in latin_hypercube(8, seed=4)]
        b = [s.tags["scale"] for s in latin_hypercube(8, seed=4)]
        c = [s.tags["scale"] for s in latin_hypercube(8, seed=5)]
        assert a == b
        assert a != c


# ----------------------------------------------------------------------
# online reducer and percentile sketches
# ----------------------------------------------------------------------


def _synthetic_results(n: int, seed: int = 0) -> list[ScenarioResult]:
    rng = np.random.default_rng(seed)
    costs = rng.normal(5000.0, 400.0, n)
    loadings = rng.uniform(40.0, 130.0, n)
    volts = rng.uniform(0.92, 1.01, n)
    out = []
    for i in range(n):
        over = [int(b) for b in rng.choice(20, size=rng.integers(0, 3), replace=False)]
        out.append(
            ScenarioResult(
                name=f"s{i}",
                tags={"index": i},
                converged=bool(rng.random() > 0.05),
                objective_cost=float(costs[i]),
                max_loading_percent=float(loadings[i]),
                min_voltage_pu=float(volts[i]),
                overloaded_branches=over,
                n_voltage_violations=int(volts[i] < 0.94),
                error="" if rng.random() > 0.03 else "diverged",
            )
        )
    return out


class TestStudyReducer:
    def test_matches_list_aggregation_exactly(self):
        results = _synthetic_results(300, seed=1)
        reducer = StudyReducer()
        # Feed in uneven chunks, as the streaming runner would.
        it = iter(results)
        while chunk := list(itertools.islice(it, 7)):
            reducer.add_many(chunk)
        assert reducer.result().to_dict() == aggregate_study(results).to_dict()

    def test_exact_mode_is_bit_identical_to_numpy(self):
        results = _synthetic_results(200, seed=2)
        agg = aggregate_study(results)
        costs = [r.objective_cost for r in results if r.converged]
        assert agg.cost_stats["estimator"] == "exact"
        assert agg.cost_stats["p50"] == float(np.percentile(costs, 50))
        assert agg.cost_stats["p95"] == float(np.percentile(costs, 95))

    def test_sketch_error_bound_on_10k_draws(self):
        """P² percentiles within 2% relative error on a 10k-draw MC."""
        rng = np.random.default_rng(7)
        xs = rng.normal(100.0, 15.0, 10_000)
        stats = StreamingStats(exact_cap=512)
        for x in xs:
            stats.add(float(x))
        d = stats.to_dict()
        assert d["estimator"] == "p2"
        for key, q in (("p05", 5), ("p50", 50), ("p95", 95)):
            exact = float(np.percentile(xs, q))
            assert abs(d[key] - exact) / abs(exact) < 0.02, (key, d[key], exact)
        # Count-exact quantities stay exact in sketch mode.
        assert d["min"] == float(xs.min())
        assert d["max"] == float(xs.max())
        assert d["mean"] == pytest.approx(float(xs.mean()), rel=1e-12)

    def test_sketch_switch_recorded(self):
        small = StreamingStats(exact_cap=64)
        for x in range(50):
            small.add(float(x))
        assert small.to_dict()["estimator"] == "exact"
        for x in range(50):
            small.add(float(x))
        assert small.to_dict()["estimator"] == "p2"

    def test_streamed_and_whole_sketches_identical(self):
        """Sketching depends only on insertion order, not chunking."""
        results = _synthetic_results(3000, seed=3)
        whole = StudyReducer(exact_cap=256)
        whole.add_many(results)
        chunked = StudyReducer(exact_cap=256)
        it = iter(results)
        while chunk := list(itertools.islice(it, 97)):
            chunked.add_many(chunk)
        assert whole.result().to_dict() == chunked.result().to_dict()

    def test_snapshot_counters(self):
        reducer = StudyReducer()
        reducer.add_many(_synthetic_results(50, seed=4))
        snap = reducer.snapshot()
        assert snap["n_done"] == 50
        assert 0.0 <= snap["violation_rate"] <= 1.0

    def test_p2_exact_below_five_observations(self):
        q = P2Quantile(0.5)
        for x in (3.0, 1.0, 2.0):
            q.add(x)
        assert q.value() == 2.0


# ----------------------------------------------------------------------
# streaming execution: identity, backpressure, bounded residency
# ----------------------------------------------------------------------


class TestStreamingExecution:
    def test_serial_pool_and_executor_aggregates_identical(self, case14):
        scns = monte_carlo_ensemble(n=8, sigma=0.05, seed=11)
        serial = BatchStudyRunner(analysis="powerflow", n_jobs=1).run(case14, scns)
        pooled = BatchStudyRunner(analysis="powerflow", n_jobs=2).run(case14, scns)
        with StudyExecutor(max_workers=2) as executor:
            streamed = BatchStudyRunner(
                analysis="powerflow", executor=executor
            ).run(case14, scns, keep_results=False)
        assert serial.aggregate().to_dict() == pooled.aggregate().to_dict()
        assert serial.aggregate().to_dict() == streamed.aggregate().to_dict()

    def test_dc_records_identical_across_paths(self, case14):
        """The batched dc fast path holds the identity guarantee too:
        serial and pooled runs produce bit-identical record lists."""
        scns = monte_carlo_ensemble(n=8, sigma=0.05, seed=11)
        serial = BatchStudyRunner(analysis="dc", n_jobs=1).run(case14, scns)
        pooled = BatchStudyRunner(analysis="dc", n_jobs=2).run(case14, scns)

        def records(study):
            out = []
            for r in study.results:
                d = dataclasses.asdict(r)
                d["solve_time_s"] = 0.0  # wall clock, the one timing field
                out.append(d)
            return out

        assert records(serial) == records(pooled)
        assert serial.aggregate().to_dict() == pooled.aggregate().to_dict()

    def test_streamed_worst_k_matches_materialized(self, case14):
        scns = monte_carlo_ensemble(n=10, sigma=0.08, seed=12)
        full = BatchStudyRunner(analysis="powerflow").run(case14, scns)
        lean = BatchStudyRunner(analysis="powerflow").run(
            case14, scns, keep_results=False
        )
        assert lean.results == []
        assert lean.n_scenarios == 10
        assert [r.name for r in lean.worst(5)] == [r.name for r in full.worst(5)]

    def test_progress_events_monotone_and_complete(self, case14):
        events = []
        scns = monte_carlo_ensemble(n=9, sigma=0.05, seed=13)
        study = BatchStudyRunner(analysis="powerflow", chunk_size=2).run(
            case14, scns, progress=events.append, keep_results=False
        )
        assert study.n_progress_events == len(events) == 5
        dones = [e.n_done for e in events]
        assert dones == sorted(dones)
        assert dones[-1] == 9
        assert events[-1].n_total == 9
        assert events[-1].fraction == 1.0
        assert all(e.n_converged <= e.n_done for e in events)

    def test_backpressure_window_never_exceeded(self, case14):
        scns = monte_carlo_ensemble(n=12, sigma=0.05, seed=14)
        with StudyExecutor(max_workers=2, window=2) as executor:
            study = BatchStudyRunner(
                analysis="powerflow", executor=executor, chunk_size=1
            ).run(case14, scns, keep_results=False)
            stats = executor.stats()
        assert stats["n_chunks"] == 12
        assert 1 <= stats["max_in_flight"] <= 2
        # Resident records bounded by O(window * chunk + worst-K).
        assert study.peak_resident_results <= 2 * 1 + 20

    def test_peak_residency_stays_flat_as_ensemble_grows(self, case14):
        def peak(n):
            study = BatchStudyRunner(
                analysis="powerflow", chunk_size=4, worst_k=5
            ).run(
                case14,
                monte_carlo_ensemble(n=n, sigma=0.05, seed=15),
                keep_results=False,
            )
            return study.peak_resident_results

        assert peak(32) == peak(16)  # O(chunk + K), not O(n)

    def test_scoped_pool_shut_down_when_progress_raises(self, case14):
        before = set(multiprocessing.active_children())

        def explode(_progress):
            raise RuntimeError("consumer gave up")

        with pytest.raises(RuntimeError, match="consumer gave up"):
            BatchStudyRunner(analysis="powerflow", n_jobs=2, chunk_size=1).run(
                case14, monte_carlo_ensemble(n=8, sigma=0.05, seed=17),
                progress=explode,
            )
        # The run-scoped executor's workers are joined, not leaked.
        assert set(multiprocessing.active_children()) <= before

    def test_results_preserved_with_keep_results(self, case14):
        scns = monte_carlo_ensemble(n=6, sigma=0.05, seed=16)
        study = BatchStudyRunner(analysis="powerflow").run(
            case14, scns, keep_results=True
        )
        assert [r.name for r in study.results] == [s.name for s in scns]

    def test_unsized_stream_runs_to_completion(self, case14):
        names = [s.name for s in load_sweep(0.9, 1.1, 4)]
        unsized = ScenarioStream(
            lambda: iter(load_sweep(0.9, 1.1, 4)), length=None
        )
        study = BatchStudyRunner(analysis="powerflow").run(
            case14, unsized, keep_results=True
        )
        assert study.n_scenarios == 4
        assert [r.name for r in study.results] == names


class TestScopfStudy:
    def test_scopf_analysis_reports_secured_costs(self, case14):
        study = BatchStudyRunner(analysis="scopf").run(
            case14, load_sweep(0.95, 1.05, 2)
        )
        assert all(r.converged for r in study.results)
        assert all(r.objective_cost is not None for r in study.results)
        assert all(r.security_cost is not None for r in study.results)
        assert all(r.n_contingency_violations is not None for r in study.results)
        agg = study.aggregate()
        assert agg.cost_stats is not None
        assert agg.security_cost_stats is not None
        assert "security_cost_stats" in agg.to_dict()

    def test_scopf_listed_in_analyses(self):
        from repro.scenarios import ANALYSES

        assert "scopf" in ANALYSES

    def test_nlu_maps_security_constrained_to_scopf(self):
        from repro.llm.nlu import classify

        p = classify("run a security-constrained load sweep study on ieee14")
        assert p.entities["study_analysis"] == "scopf"


# ----------------------------------------------------------------------
# store lifecycle: retention and integrity
# ----------------------------------------------------------------------


def _put_study(store, net, seed: int, label: str = "") -> str:
    scns = monte_carlo_ensemble(n=2, sigma=0.05, seed=seed)
    runner = BatchStudyRunner(analysis="powerflow")
    study = runner.run(net, scns)
    return store.put(
        net, runner.config(), scns, study, study_kind="monte_carlo", label=label
    )


class TestStoreLifecycle:
    def test_prune_by_age(self, tmp_path, case14):
        import time as _time

        from repro.service import ResultStore

        store = ResultStore(tmp_path)
        keys = [_put_study(store, case14, seed) for seed in (1, 2)]
        report = store.prune(max_age_s=3600.0, now=_time.time() + 7200.0)
        assert report["n_removed"] == 2
        assert sorted(report["removed"]) == sorted(keys)
        assert len(store.list_studies()) == 0

    def test_prune_by_bytes_keeps_newest(self, tmp_path, case14):
        from repro.service import ResultStore

        store = ResultStore(tmp_path)
        keys = [_put_study(store, case14, seed) for seed in (1, 2, 3)]
        one = store._entry_bytes(keys[-1])
        report = store.prune(max_bytes=2 * one + one // 2)
        assert report["n_removed"] >= 1
        kept = [m.key for m in store.list_studies()]
        assert keys[-1] in kept  # newest survives
        assert keys[0] not in kept  # oldest evicted first

    def test_prune_noop_without_limits(self, tmp_path, case14):
        from repro.service import ResultStore

        store = ResultStore(tmp_path)
        _put_study(store, case14, 1)
        report = store.prune()
        assert report["n_removed"] == 0
        assert report["n_kept"] == 1

    def test_verify_clean_store(self, tmp_path, case14):
        from repro.service import ResultStore

        store = ResultStore(tmp_path)
        key = _put_study(store, case14, 1)
        report = store.verify()
        assert report["ok"] == [key]
        assert report["corrupt"] == []
        assert report["orphan_sidecars"] == []

    def test_verify_flags_tampered_payload(self, tmp_path, case14):
        from repro.service import ResultStore

        store = ResultStore(tmp_path)
        key = _put_study(store, case14, 1)
        path = store._path(key)
        payload = json.loads(path.read_text())
        payload["results"][0]["max_loading_percent"] = 999.0
        path.write_text(json.dumps(payload, default=str))
        report = store.verify()
        assert report["n_ok"] == 0
        assert report["corrupt"][0]["key"] == key
        assert "checksum" in report["corrupt"][0]["error"]

    def test_verify_flags_orphan_sidecar(self, tmp_path, case14):
        from repro.service import ResultStore

        store = ResultStore(tmp_path)
        key = _put_study(store, case14, 1)
        store._path(key).unlink()
        report = store.verify()
        assert report["orphan_sidecars"] == [key]

    def test_put_refuses_streamed_study_without_records(self, tmp_path, case14):
        from repro.service import ResultStore

        store = ResultStore(tmp_path)
        scns = monte_carlo_ensemble(n=3, sigma=0.05, seed=9)
        runner = BatchStudyRunner(analysis="powerflow")
        study = runner.run(case14, scns, keep_results=False)
        with pytest.raises(ValueError, match="keep_results"):
            store.put(case14, runner.config(), scns, study)


# ----------------------------------------------------------------------
# service layer: incremental delivery on StudyReply
# ----------------------------------------------------------------------


class TestServiceProgress:
    def test_study_reply_carries_progress_trail(self, tmp_path):
        import asyncio

        from repro.service import GridMindService, StudyRequest

        async def run():
            async with GridMindService(max_workers=2, store_dir=str(tmp_path)) as svc:
                live = []
                reply = await svc.run_study(
                    StudyRequest(
                        case_name="ieee14",
                        kind="monte_carlo",
                        n_scenarios=8,
                        analysis="powerflow",
                    ),
                    progress=live.append,
                )
                return reply, live

        reply, live = asyncio.run(run())
        assert reply.n_scenarios == 8
        assert reply.n_progress_events >= 3
        assert len(live) == reply.n_progress_events
        assert reply.progress[-1]["n_done"] == 8
        assert reply.study_key is not None  # stored => records were kept

    def test_lhs_study_kind_via_service(self, tmp_path):
        import asyncio

        from repro.service import GridMindService, StudyRequest

        async def run():
            async with GridMindService(max_workers=1, store_dir=str(tmp_path)) as svc:
                return await svc.run_study(
                    StudyRequest(
                        case_name="ieee14",
                        kind="lhs",
                        n_scenarios=6,
                        analysis="powerflow",
                    )
                )

        reply = asyncio.run(run())
        assert reply.study_kind == "lhs"
        assert reply.n_scenarios == 6

    def test_thin_progress_keeps_endpoints(self):
        from repro.service import thin_progress

        events = [{"n_done": i} for i in range(100)]
        thinned = thin_progress(events, keep=10)
        assert len(thinned) <= 11
        assert thinned[0] == events[0]
        assert thinned[-1] == events[-1]
