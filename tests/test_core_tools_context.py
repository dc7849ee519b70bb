"""Tool registry, shared context, validation layer."""

import json

import pytest
from pydantic import BaseModel

from repro.core.context import AgentContext
from repro.core.tools import ToolError, ToolRegistry
from repro.core.validation import (
    sanity_check_modification,
    validate_acopf,
    validate_power_flow,
)
from repro.opf import solve_acopf
from repro.powerflow import solve_newton


class _Args(BaseModel):
    x: int
    y: str = "default"


class TestToolRegistry:
    def test_register_and_call(self):
        reg = ToolRegistry()
        reg.register("double", "doubles x", lambda x, y="default": {"out": 2 * x}, _Args)
        payload = json.loads(reg.call("double", {"x": 21}))
        assert payload == {"out": 42}

    def test_duplicate_name_rejected(self):
        reg = ToolRegistry()
        reg.register("t", "d", lambda: {})
        with pytest.raises(ValueError, match="already registered"):
            reg.register("t", "d", lambda: {})

    def test_unknown_tool_returns_error_payload(self):
        reg = ToolRegistry()
        payload = json.loads(reg.call("nope", {}))
        assert "error" in payload
        assert reg.failures()

    def test_invalid_args_returns_error_payload(self):
        reg = ToolRegistry()
        reg.register("t", "d", lambda x, y="default": {"ok": True}, _Args)
        payload = json.loads(reg.call("t", {"x": "not-an-int-at-all"}))
        assert "invalid arguments" in payload["error"]

    def test_tool_error_captured(self):
        reg = ToolRegistry()

        def boom():
            raise ToolError("domain failure")

        reg.register("boom", "d", boom)
        payload = json.loads(reg.call("boom", {}))
        assert payload["error"] == "domain failure"
        assert not reg.log[-1].ok

    def test_non_dict_return_rejected(self):
        reg = ToolRegistry()
        reg.register("bad", "d", lambda: [1, 2, 3])
        payload = json.loads(reg.call("bad", {}))
        assert "expected dict" in payload["error"]

    def test_log_records_result(self):
        reg = ToolRegistry()
        reg.register("t", "d", lambda: {"value": 7})
        reg.call("t", {})
        assert reg.log[-1].result == {"value": 7}
        assert reg.log[-1].duration_s >= 0.0

    def test_specs_include_schema(self):
        reg = ToolRegistry()
        reg.register("t", "desc", lambda x, y="default": {}, _Args)
        spec = reg.specs()[0]
        assert "x" in spec.parameters["properties"]


class TestAgentContext:
    def test_activate_case(self):
        ctx = AgentContext()
        net = ctx.activate_case("ieee14")
        assert ctx.case_name == "ieee14"
        assert net.n_bus == 14

    def test_activate_same_case_keeps_network(self):
        ctx = AgentContext()
        n1 = ctx.activate_case("ieee14")
        n2 = ctx.activate_case("ieee14")
        assert n1 is n2

    def test_activate_other_case_resets_artifacts(self, session_factory):
        ctx = AgentContext()
        ctx.activate_case("ieee14")
        ctx.record_modification("load_change", "x")
        ctx.activate_case("ieee30")
        assert ctx.modifications == []
        assert ctx.acopf_solution is None

    def test_require_network_raises_when_empty(self):
        with pytest.raises(ValueError, match="no case loaded"):
            AgentContext().require_network()

    def test_freshness_tracks_network_version(self):
        from repro.core.agents.acopf_agent import solution_to_schema

        ctx = AgentContext()
        ctx.activate_case("ieee14")
        res = solve_acopf(ctx.network)
        ctx.deposit_acopf(solution_to_schema("ieee14", res), res)
        assert ctx.acopf_fresh()
        ctx.network.set_load(3, 55.0)
        assert not ctx.acopf_fresh()

    def test_summary_fields(self):
        ctx = AgentContext()
        ctx.activate_case("ieee14")
        s = ctx.summary()
        assert s["case"] == "ieee14"
        assert s["solved"] is False

    def test_system_model(self):
        ctx = AgentContext()
        ctx.activate_case("ieee14")
        model = ctx.system_model()
        assert model.n_bus == 14
        assert model.total_load_mw == pytest.approx(259.0)

    def test_save_load_roundtrip(self, tmp_path):
        from repro.core.agents.acopf_agent import solution_to_schema

        ctx = AgentContext()
        ctx.activate_case("ieee14")
        res = solve_acopf(ctx.network)
        ctx.deposit_acopf(solution_to_schema("ieee14", res), res)
        ctx.record_modification("load_change", "bus 3 to 55 MW", bus=3)
        path = tmp_path / "session.json"
        ctx.save(path)

        restored = AgentContext.load(path)
        assert restored.case_name == "ieee14"
        assert restored.acopf_solution.objective_cost == pytest.approx(
            ctx.acopf_solution.objective_cost
        )
        assert restored.acopf_fresh()
        assert len(restored.modifications) == 1

    def test_restored_session_replays_seeded_study(self, tmp_path):
        """A saved session keeps every load row, so a seeded Monte Carlo
        study (one noise factor per load row) draws the same ensemble."""
        from dataclasses import asdict

        from repro.scenarios import BatchStudyRunner, monte_carlo_ensemble

        def study(net):
            scenarios = monte_carlo_ensemble(n=32, sigma=0.08, seed=11)
            results = BatchStudyRunner(analysis="powerflow").run(net, scenarios).results
            return [
                {k: v for k, v in asdict(r).items() if k != "solve_time_s"}
                for r in results
            ]

        ctx = AgentContext()
        ctx.activate_case("ieee30")
        path = tmp_path / "session.json"
        ctx.save(path)
        restored = AgentContext.load(path)
        assert json.loads(path.read_text())["format"] == "gridmind-session-v2"
        assert restored.network.loads == ctx.network.loads
        assert study(restored.network) == study(ctx.network)

    def test_load_reads_v1_session(self, tmp_path):
        from repro.grid.io import to_matpower

        ctx = AgentContext()
        ctx.activate_case("ieee14")
        p = tmp_path / "old.json"
        p.write_text(json.dumps({
            "format": "gridmind-session-v1",
            "case_name": "ieee14",
            "network": to_matpower(ctx.network),
            "network_meta": {"name": "ieee14", "description": "d", "source": "s"},
        }))
        restored = AgentContext.load(p)
        assert restored.case_name == "ieee14"
        assert restored.network.metadata.description == "d"
        assert restored.network.summary() == ctx.network.summary()

    def test_load_rejects_other_format(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"format": "nope"}')
        with pytest.raises(ValueError, match="gridmind-session-v1"):
            AgentContext.load(p)


class TestValidation:
    def test_acopf_valid_solution_passes(self, case14):
        res = solve_acopf(case14)
        report = validate_acopf(case14, res)
        assert report.ok
        assert report.describe() == "all validation checks passed"

    def test_acopf_failed_solve_fails_validation(self, case14):
        case14.scale_loads(5.0)
        res = solve_acopf(case14)
        report = validate_acopf(case14, res)
        assert not report.ok
        assert "convergence" in report.failed_checks()

    def test_power_flow_validation(self, case14):
        res = solve_newton(case14)
        assert validate_power_flow(res).ok

    def test_power_flow_validation_divergence(self, case14):
        case14.scale_loads(20.0)
        res = solve_newton(case14, max_iter=10)
        assert not validate_power_flow(res).ok

    def test_sanity_check_bus(self, case14):
        assert sanity_check_modification(case14, bus=3).ok
        assert not sanity_check_modification(case14, bus=99).ok

    def test_sanity_check_branch(self, case14):
        assert sanity_check_modification(case14, branch_id=0).ok
        assert not sanity_check_modification(case14, branch_id=999).ok
        case14.set_branch_status(0, False)
        report = sanity_check_modification(case14, branch_id=0)
        assert not report.ok
        assert "already out of service" in report.describe()
