"""AC ensemble fast path: warm-kernel parity, routing, caching, wiring.

Unlike the DC kernel's bit-identity promise (``test_batch_kernels``),
the warm AC path carries a *parity contract* — Newton iterates are
path-dependent, so the warm and cold solutions are different fixed-point
approaches to the same answer.  The contract, asserted here across
cases, chunk sizes, and dispatch modes:

* identical ``converged`` flags, row for row,
* identical overloaded-branch and voltage-violation sets,
* every accepted mismatch under the same ``tol``,
* aggregate fields within 1e-6 of the cold path.

What *is* exact: warm-path records are dispatch- and chunk-size-
invariant (rows never mix), error records are byte-identical on both
paths (failures degrade to the very same scalar ladder), and the
``ac_mode`` / ``ac_fd_sweeps`` knobs never enter the store spec hash.
"""

import dataclasses

import numpy as np
import pytest

from repro.contingency.nminus1 import run_n_minus_1
from repro.grid.cases import load_case
from repro.instrumentation.metrics import (
    ITERATION_BUCKETS,
    MetricsRegistry,
    set_metrics,
)
from repro.powerflow import (
    AcKernel,
    solve_gauss_seidel,
    solve_newton,
    solve_with_recovery,
)
from repro.powerflow.solution import branch_flows, make_admittances
from repro.scenarios import (
    BatchStudyRunner,
    BranchOutage,
    GaussianLoadNoise,
    RenewableInjection,
    Scenario,
    UniformLoadScale,
    monte_carlo_ensemble,
)
from repro.scenarios.runner import ScenarioResult, StudyConfig, _WorkerState
from repro.scenarios.spec import LoadVector
from repro.service import StudyExecutor

TOL = 1e-8
AGG_ATOL = 1e-6


@pytest.fixture
def fresh_metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


def _zero_times(study):
    out = []
    for r in study.results:
        d = dataclasses.asdict(r)
        d["solve_time_s"] = 0.0
        out.append(d)
    return out


def _assert_close(a, b, atol=AGG_ATOL, path=""):
    """Recursive structural equality with a float tolerance — the
    aggregate dicts carry unrounded stats that the parity contract only
    pins to 1e-6."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for k in a:
            _assert_close(a[k], b[k], atol, f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length differs"
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, atol, f"{path}[{i}]")
    elif isinstance(a, float):
        assert a == pytest.approx(b, abs=atol), f"{path}: {a} != {b}"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def _assert_record_parity(warm, cold):
    """The warm/cold parity contract, record by record."""
    assert len(warm.results) == len(cold.results)
    for w, c in zip(warm.results, cold.results):
        assert w.name == c.name
        assert w.converged == c.converged
        assert w.error == c.error
        assert w.overloaded_branches == c.overloaded_branches
        assert w.n_voltage_violations == c.n_voltage_violations
        if not w.converged:
            continue
        assert w.max_loading_percent == pytest.approx(
            c.max_loading_percent, abs=1e-4
        )
        assert w.min_voltage_pu == pytest.approx(c.min_voltage_pu, abs=AGG_ATOL)
        assert w.max_voltage_pu == pytest.approx(c.max_voltage_pu, abs=AGG_ATOL)
        assert w.losses_mw == pytest.approx(c.losses_mw, abs=1e-4)


# ----------------------------------------------------------------------
# kernel: stacked chunk vs per-scenario cold Newton
# ----------------------------------------------------------------------


class TestAcKernel:
    @pytest.mark.parametrize("case_name", ["ieee14", "ieee57", "ieee118"])
    def test_chunk_rows_match_cold_newton(self, case_name):
        net = load_case(case_name)
        scns = list(monte_carlo_ensemble(n=8, sigma=0.05, seed=3))
        kernel = AcKernel(net, tol=TOL)
        assert kernel.usable
        packs = [s.ac_injection(net) for s in scns]
        sol = kernel.solve_chunk(
            np.vstack([sbus for sbus, _, _ in packs]), fd_sweeps=8
        )
        assert sol.n_scenarios == len(scns)
        for j, scn in enumerate(scns):
            cold = solve_newton(scn.realize(net), tol=TOL)
            assert bool(sol.converged[j]) == cold.converged
            # Every accepted row sits under the same tolerance the cold
            # path enforces.
            assert sol.norms[j] < TOL
            _, pd, qd = packs[j]
            warm = kernel.finalize_row(
                sol.v[j], pd, qd,
                converged=True,
                iterations=int(sol.iterations[j]),
                norm=float(sol.norms[j]),
            )
            _assert_close(
                warm.overloaded_branches(100.0),
                cold.overloaded_branches(100.0),
                atol=1e-4,
            )
            _assert_close(
                warm.voltage_violations(0.94, 1.06),
                cold.voltage_violations(0.94, 1.06),
            )
            assert warm.max_loading_percent == pytest.approx(
                cold.max_loading_percent, abs=1e-4
            )
            assert warm.losses_mw == pytest.approx(cold.losses_mw, abs=1e-4)

    def test_base_row_skips_iteration(self, case14):
        kernel = AcKernel(case14, tol=TOL)
        sbus, _, _ = Scenario("base").ac_injection(case14)
        sol = kernel.solve_chunk(sbus)
        assert bool(sol.skipped[0])
        assert bool(sol.converged[0])
        assert int(sol.iterations[0]) == 0
        assert kernel.n_skipped == 1 and kernel.n_warm_solves == 0

    def test_base_result_cached(self, case14):
        kernel = AcKernel(case14)
        assert kernel.base_result() is kernel.base_result()

    def test_accounting(self, case14):
        kernel = AcKernel(case14)
        scns = list(monte_carlo_ensemble(n=4, sigma=0.05, seed=9))
        stack = np.vstack([s.ac_injection(case14)[0] for s in scns])
        kernel.solve_chunk(stack)
        assert kernel.n_chunks == 1
        assert kernel.n_warm_solves + kernel.n_skipped == 4


# ----------------------------------------------------------------------
# studies: warm vs cold, chunk sizes, dispatch modes
# ----------------------------------------------------------------------


class TestAcStudyParity:
    @pytest.mark.parametrize("chunk_size", [1, 3, 8])
    def test_warm_vs_cold_across_chunk_sizes(self, case14, chunk_size):
        scns = monte_carlo_ensemble(n=8, sigma=0.06, seed=21)
        warm = BatchStudyRunner(
            analysis="powerflow", chunk_size=chunk_size
        ).run(case14, scns)
        cold = BatchStudyRunner(
            analysis="powerflow", chunk_size=chunk_size, ac_mode="cold"
        ).run(case14, scns)
        _assert_record_parity(warm, cold)
        _assert_close(warm.aggregate().to_dict(), cold.aggregate().to_dict())

    def test_warm_records_invariant_across_dispatch(self, case14):
        """Rows never mix, so warm results are exactly identical under
        serial, pooled, and shared-executor dispatch (timing zeroed)."""
        scns = monte_carlo_ensemble(n=8, sigma=0.05, seed=11)
        serial = BatchStudyRunner(analysis="powerflow", n_jobs=1).run(
            case14, scns
        )
        pooled = BatchStudyRunner(analysis="powerflow", n_jobs=2).run(
            case14, scns
        )
        assert _zero_times(serial) == _zero_times(pooled)
        with StudyExecutor(max_workers=2) as executor:
            streamed = BatchStudyRunner(
                analysis="powerflow", executor=executor
            ).run(case14, scns, keep_results=False)
        assert (
            serial.aggregate().to_dict()
            == pooled.aggregate().to_dict()
            == streamed.aggregate().to_dict()
        )

    def test_mixed_chunk_preserves_order_and_degrades(self, case14):
        """Topology changers interleaved with injection-only rows: the
        fallback rows run the scalar loop, order is preserved, and the
        whole study still honours the parity contract."""
        scns = [
            Scenario("a", (UniformLoadScale(1.08),)),
            Scenario("b", (BranchOutage(2),)),
            Scenario("c", (GaussianLoadNoise(0.05, 3),)),
            Scenario("d", (BranchOutage(5), UniformLoadScale(1.05))),
            Scenario("e", (RenewableInjection(bus=4, p_mw=20.0),)),
        ]
        warm = BatchStudyRunner(analysis="powerflow", chunk_size=5).run(
            case14, scns
        )
        cold = BatchStudyRunner(
            analysis="powerflow", chunk_size=5, ac_mode="cold"
        ).run(case14, scns)
        assert [r.name for r in warm.results] == list("abcde")
        _assert_record_parity(warm, cold)

    def test_error_records_byte_identical(self, case14):
        """Perturbation errors and diverging solves produce the exact
        same record on both paths — failures degrade to the same code."""
        scns = [
            Scenario("ok", (UniformLoadScale(1.05),)),
            Scenario("bad", (UniformLoadScale(-2.0),)),
            # Far beyond loadability: every ladder rung fails, warm
            # polish included, so the warm path re-runs it cold.
            Scenario("diverge", (UniformLoadScale(60.0),)),
        ]
        warm = BatchStudyRunner(analysis="powerflow", chunk_size=3).run(
            case14, scns
        )
        cold = BatchStudyRunner(
            analysis="powerflow", chunk_size=3, ac_mode="cold"
        ).run(case14, scns)
        for name in ("bad", "diverge"):
            w = next(r for r in warm.results if r.name == name)
            c = next(r for r in cold.results if r.name == name)
            wd, cd = dataclasses.asdict(w), dataclasses.asdict(c)
            wd["solve_time_s"] = cd["solve_time_s"] = 0.0
            assert wd == cd
            assert not w.converged and w.error

    def test_ac_mode_validated(self, case14):
        with pytest.raises(ValueError, match="ac_mode"):
            BatchStudyRunner(analysis="powerflow", ac_mode="tepid").config()


# ----------------------------------------------------------------------
# chunk-level record reduction vs the per-row PowerFlowResult reduction
# ----------------------------------------------------------------------


def _stressed_study(case_name):
    """A stressed ensemble whose records exercise every reduced field.

    The case gains a parallel twin of its most-loaded branch, so the two
    carry exactly equal loading (a tie in every overload set holding
    either).  Loads are scaled up with noise, the overload threshold sits
    under the twins' base-case loading, and the voltage band is tight, so
    overload sets and violation counts are non-empty.  One row fails its
    perturbation and one is the base case (skipped at the warm start).
    """
    net = load_case(case_name)
    base = solve_newton(net)
    worst = int(base.branch_ids[np.argmax(base.loading_percent)])
    net.branches.append(dataclasses.replace(net.branches[worst], name="twin"))
    net.touch()
    twinned = solve_newton(net)
    twin_rows = np.flatnonzero(np.isin(twinned.branch_ids, [worst, net.n_branch - 1]))
    config = StudyConfig(
        analysis="powerflow",
        overload_threshold=0.9 * float(twinned.loading_percent[twin_rows].min()),
        # Band edges equal to base-case bus voltages: the base row puts
        # buses exactly on them (strictly outside counts, on does not).
        vmin=float(np.sort(twinned.vm)[net.n_bus // 5]),
        vmax=float(np.sort(twinned.vm)[-(net.n_bus // 5)]),
    )
    scns = [
        Scenario(s.name, (UniformLoadScale(1.3),) + s.perturbations, s.tags)
        for s in monte_carlo_ensemble(n=10, sigma=0.1, seed=17)
    ]
    scns.insert(3, Scenario("base"))
    scns.insert(6, Scenario("bad", (UniformLoadScale(-1.0),)))
    return net, config, scns, (worst, net.n_branch - 1)


def _reference_records(net, config, scns):
    """Each row solved alone and reduced through ``finalize_row`` and the
    :class:`PowerFlowResult` accessors — the per-row path the chunk
    reducer replaced.  Returns the records (timing zeroed), the full
    results by name, and the solve outcome of every converged row."""
    kernel = AcKernel(net)
    records, results, solves = [], {}, []
    for scn in scns:
        if scn.name == "bad":
            records.append(None)
            continue
        sbus, pd, qd = scn.ac_injection(net)
        sol = kernel.solve_chunk(sbus, fd_sweeps=config.ac_fd_sweeps)
        assert bool(sol.converged[0]), scn.name  # every row stays warm
        res = kernel.finalize_row(
            sol.v[0], pd, qd,
            converged=True,
            iterations=int(sol.iterations[0]),
            norm=float(sol.norms[0]),
        )
        results[scn.name] = res
        solves.append((int(sol.iterations[0]), bool(sol.skipped[0])))
        overloads = res.overloaded_branches(config.overload_threshold)
        records.append(dataclasses.asdict(ScenarioResult(
            name=scn.name,
            tags=dict(scn.tags),
            converged=True,
            max_loading_percent=res.max_loading_percent,
            min_voltage_pu=res.min_voltage_pu,
            max_voltage_pu=res.max_voltage_pu,
            losses_mw=res.losses_mw,
            overloaded_branches=[b for b, _pct in overloads],
            n_voltage_violations=len(res.voltage_violations(config.vmin, config.vmax)),
        )))
    return records, results, solves


class TestChunkReduction:
    @pytest.mark.parametrize("case_name", ["ieee14", "ieee118"])
    def test_records_match_per_row_reduction(self, case_name):
        net, config, scns, twins = _stressed_study(case_name)
        reference, results, solves = _reference_records(net, config, scns)
        n_ok = len(solves)
        records = [r for r in reference if r is not None]
        # The data exercises what the reducer must get right.
        assert any(r["overloaded_branches"] for r in records)
        assert any(0 < r["n_voltage_violations"] < net.n_bus for r in records)
        tied = [
            r for r in records
            if set(twins) <= set(r["overloaded_branches"])
        ]
        assert tied

        for chunk in (1, 3, 8):
            registry = MetricsRegistry()
            previous = set_metrics(registry)
            try:
                state = _WorkerState(net, config)
                out = []
                for i in range(0, len(scns), chunk):
                    out += state.run_chunk(scns[i:i + chunk])
            finally:
                set_metrics(previous)

            got = []
            for r in out:
                d = dataclasses.asdict(r)
                d["solve_time_s"] = 0.0
                got.append(d)
            # Bit-identical to the per-row reduction, whatever chunk a
            # row lands in (plain == on floats: no tolerance).
            for want, have in zip(reference, got):
                if want is not None:
                    assert have == want, (chunk, want["name"])
            bad = got[[s.name for s in scns].index("bad")]
            assert not bad["converged"] and bad["error"]

            # Overloads worst first, ties in branch-row order.
            for d in got:
                if not d["overloaded_branches"]:
                    continue
                res = results[d["name"]]
                row_of = {int(b): k for k, b in enumerate(res.branch_ids)}
                keys = [
                    (-res.loading_percent[row_of[b]], row_of[b])
                    for b in d["overloaded_branches"]
                ]
                assert keys == sorted(keys)
            for d in got:
                if set(twins) <= set(d["overloaded_branches"]):
                    i = d["overloaded_branches"].index(twins[0])
                    assert d["overloaded_branches"][i + 1] == twins[1]

            # Counters bill exactly what the per-row path billed.
            scenarios_total = registry.counter("gridmind_scenarios_total")
            assert scenarios_total.value(analysis="powerflow", converged=True) == n_ok
            assert scenarios_total.value(analysis="powerflow", converged=False) == 1
            n_skipped = sum(skipped for _, skipped in solves)
            assert n_skipped >= 1
            assert registry.counter("gridmind_ac_warm_solves_total").total() == (
                n_ok - n_skipped
            )
            assert registry.counter(
                "gridmind_ac_skipped_converged_total"
            ).total() == n_skipped
            hist = registry.histogram(
                "gridmind_ac_newton_iterations", buckets=ITERATION_BUCKETS
            )
            assert hist.count(mode="warm") == n_ok
            assert hist.sum(mode="warm") == sum(it for it, _ in solves)
            assert hist.count(mode="cold") == 0

    def test_branch_flows_single_row_matches_stack(self, case14):
        """A row's flows do not depend on the stack it is reduced in."""
        kernel = AcKernel(case14)
        scns = list(monte_carlo_ensemble(n=5, sigma=0.05, seed=2))
        sol = kernel.solve_chunk(np.vstack([s.ac_injection(case14)[0] for s in scns]))
        stacked = branch_flows(kernel.arr, kernel.adm, sol.v)
        for j in range(len(scns)):
            alone = branch_flows(kernel.arr, kernel.adm, sol.v[j:j + 1])
            for field in stacked._fields:
                assert np.array_equal(getattr(alone, field)[0], getattr(stacked, field)[j])


# ----------------------------------------------------------------------
# warm starts through the solver stack
# ----------------------------------------------------------------------


class TestWarmStarts:
    def test_qlimit_partition_same_warm_or_cold(self, case57):
        """PV→PQ switching must settle on the same partition whether the
        solve starts flat-ish or from the base-case voltage."""
        base = solve_newton(case57)
        v0 = np.asarray(base.extras["v_complex"], dtype=complex)
        net = Scenario("up", (UniformLoadScale(1.25),)).realize(case57)
        cold = solve_newton(net, enforce_q=True)
        warm = solve_newton(net, enforce_q=True, v0=v0)
        assert cold.converged and warm.converged
        assert np.array_equal(
            cold.extras["final_bus_type"], warm.extras["final_bus_type"]
        )
        # The test is only meaningful if limits actually bind.
        arr = net.compile()
        assert not np.array_equal(cold.extras["final_bus_type"], arr.bus_type)

    def test_gauss_seidel_accepts_v0(self, case14):
        base = solve_newton(case14)
        v0 = np.asarray(base.extras["v_complex"], dtype=complex)
        warm = solve_gauss_seidel(case14, tol=1e-6, v0=v0)
        flat = solve_gauss_seidel(case14, tol=1e-6)
        assert warm.converged
        assert warm.iterations < flat.iterations
        assert warm.max_mismatch_pu < 1e-6

    def test_recovery_ladder_threads_v0(self, case14):
        base = solve_newton(case14)
        v0 = np.asarray(base.extras["v_complex"], dtype=complex)
        res, trace = solve_with_recovery(case14, v0=v0)
        assert res.converged
        # Already at the solution: the first (Newton) rung accepts
        # immediately.
        assert trace.attempts[0].options["ladder_step"] == "newton"
        assert res.iterations <= 1

    def test_n_minus_1_with_kernel_matches_plain(self, case14):
        plain = run_n_minus_1(case14, n_jobs=1)
        seeded = run_n_minus_1(case14, n_jobs=1, kernel=AcKernel(case14))
        assert len(plain.outcomes) == len(seeded.outcomes)
        for p, s in zip(plain.outcomes, seeded.outcomes):
            assert (p.branch_id, p.converged, p.islanded) == (
                s.branch_id, s.converged, s.islanded,
            )
            assert p.max_loading_percent == pytest.approx(
                s.max_loading_percent, abs=1e-4
            )
            assert [b for b, _ in p.overloads] == [b for b, _ in s.overloads]
            assert p.n_voltage_violations == s.n_voltage_violations


# ----------------------------------------------------------------------
# memoization and worker caches
# ----------------------------------------------------------------------


class TestCaches:
    def test_make_admittances_memoized_until_mutation(self, case14):
        _, adm1 = make_admittances(case14)
        _, adm2 = make_admittances(case14)
        assert adm2 is adm1
        case14.set_load(2, 30.0)  # touch() invalidates the memo
        _, adm3 = make_admittances(case14)
        assert adm3 is not adm1

    def test_load_vector_memoized_until_mutation(self, case14):
        first = LoadVector.from_network(case14)
        memo = case14._loads_memo
        second = LoadVector.from_network(case14)
        assert case14._loads_memo is memo  # read once per network version
        # Every view is a private copy: mutating one touches nothing else.
        first.pd_mw *= 2.0
        assert not np.shares_memory(second.pd_mw, memo[1][1])
        assert np.array_equal(LoadVector.from_network(case14).pd_mw, second.pd_mw)
        case14.set_load(2, 30.0)  # touch() invalidates the memo
        fresh = LoadVector.from_network(case14)
        assert case14._loads_memo is not memo
        assert fresh.pd_mw[fresh.bus == 2].sum() == 30.0

    def test_copy_starts_with_empty_caches(self, case14):
        LoadVector.from_network(case14)
        case14.zone_ordinals(3)
        make_admittances(case14)
        clone = case14.copy()
        assert clone._loads_memo is None
        assert clone._zone_memo is None
        assert clone._adm_memo is None

    def test_ac_kernel_shared_across_load_levels(self, case14):
        state = _WorkerState(case14, StudyConfig(analysis="powerflow"))
        k1 = state.ac_kernel_for(case14)
        scaled = Scenario("s", (UniformLoadScale(1.2),)).realize(case14)
        assert state.ac_kernel_for(scaled) is k1
        assert len(state.ac_kernel_cache) == 1

    @pytest.mark.parametrize("analysis", ["powerflow", "dc"])
    def test_base_connectivity_checked_once_per_state(
        self, case14, analysis, monkeypatch
    ):
        from repro.grid import graph as gridgraph

        state = _WorkerState(case14, StudyConfig(analysis=analysis))
        calls = []
        real = gridgraph.is_connected

        def counting(net):
            calls.append(net is state.base)
            return real(net)

        monkeypatch.setattr(gridgraph, "is_connected", counting)
        scns = list(monte_carlo_ensemble(n=9, sigma=0.05, seed=6))
        for start in range(0, 9, 3):
            results = state.run_chunk(scns[start:start + 3])
            assert all(r.converged for r in results)
        # Three fast-path chunks, one check of the base.
        assert calls.count(True) == 1

    def test_ac_kernel_cache_capped(self, case14):
        state = _WorkerState(case14, StudyConfig(analysis="powerflow"))
        state.KERNEL_CACHE_MAX_ENTRIES = 2
        for bid in range(4):
            net = Scenario("o", (BranchOutage(bid),)).realize(case14)
            state.ac_kernel_for(net)
        assert len(state.ac_kernel_cache) <= 2


# ----------------------------------------------------------------------
# metrics and store hashing
# ----------------------------------------------------------------------


class TestMetricsAndHash:
    def test_warm_counters_and_scenario_billing(self, case14, fresh_metrics):
        scns = list(monte_carlo_ensemble(n=6, sigma=0.05, seed=4))
        state = _WorkerState(case14, StudyConfig(analysis="powerflow"))
        results = state.run_chunk(scns)
        assert len(results) == 6 and all(r.converged for r in results)
        warm = fresh_metrics.counter("gridmind_ac_warm_solves_total").total()
        skip = fresh_metrics.counter(
            "gridmind_ac_skipped_converged_total"
        ).total()
        assert warm + skip == 6.0
        # Metric parity: every scenario billed exactly once.
        assert (
            fresh_metrics.counter("gridmind_scenarios_total").total() == 6.0
        )

    def test_cold_mode_emits_no_warm_counters(self, case14, fresh_metrics):
        scns = list(monte_carlo_ensemble(n=4, sigma=0.05, seed=4))
        state = _WorkerState(
            case14, StudyConfig(analysis="powerflow", ac_mode="cold")
        )
        state.run_chunk(scns)
        assert (
            fresh_metrics.counter("gridmind_ac_warm_solves_total").total()
            == 0.0
        )
        assert (
            fresh_metrics.counter("gridmind_scenarios_total").total() == 4.0
        )

    def test_spec_hash_ignores_ac_knobs_but_not_budget(self, case14):
        from repro.service.store import spec_hash

        scns = list(monte_carlo_ensemble(n=2, sigma=0.05, seed=1))
        warm = spec_hash(StudyConfig(analysis="powerflow"), scns)
        cold = spec_hash(
            StudyConfig(analysis="powerflow", ac_mode="cold"), scns
        )
        fd2 = spec_hash(
            StudyConfig(analysis="powerflow", ac_fd_sweeps=2), scns
        )
        assert warm == cold == fd2
        # ac_budget changes which scenarios get full AC — it must hash.
        a = spec_hash(StudyConfig(analysis="screening", ac_budget=3), scns)
        b = spec_hash(StudyConfig(analysis="screening", ac_budget=4), scns)
        assert a != b
