"""Telemetry layer: fleet determinism, rolling windows, watch end to end."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.cli import main as cli_main
from repro.grid.cases import load_case
from repro.instrumentation.metrics import MetricsRegistry, set_metrics
from repro.llm.nlu import Intent, classify
from repro.scenarios.runner import ScenarioResult
from repro.scenarios.spec import ZonalLoadScale
from repro.service import GridMindService, WatchRequest
from repro.telemetry import (
    AnomalySpec,
    DeviceFleet,
    FleetSpec,
    RollingWindowStudy,
    TelemetryStream,
    WindowSpec,
    device_seed,
    run_watch,
    windows_digest,
)


@pytest.fixture(scope="module")
def ieee14():
    return load_case("ieee14")


# ----------------------------------------------------------------------
# fleet: per-device seeds, prefix stability, anomaly injection
# ----------------------------------------------------------------------


class TestFleet:
    def test_device_seed_independent_of_fleet_size(self):
        assert device_seed(0, 7) == device_seed(0, 7)
        assert device_seed(0, 7) != device_seed(0, 8)
        assert device_seed(0, 7) != device_seed(1, 7)

    def test_prefix_reproducible_across_fleet_sizes(self, ieee14):
        """Device i's stream is identical in a 50- and a 500-device fleet."""
        small = DeviceFleet(ieee14, FleetSpec(n_devices=50, seed=3))
        large = DeviceFleet(ieee14, FleetSpec(n_devices=500, seed=3))
        for tick in range(3):
            for device_id in range(50):
                assert small.frame(device_id, tick) == large.frame(device_id, tick)

    def test_frame_random_access_matches_streaming(self, ieee14):
        fleet = DeviceFleet(ieee14, FleetSpec(n_devices=20, seed=1))
        batch = {f.device_id: f for f in fleet.frames_for_tick(7)}
        assert fleet.frame(4, 7) == batch[4]

    def test_diurnal_peak_exceeds_trough(self, ieee14):
        fleet = DeviceFleet(ieee14, FleetSpec(n_devices=40, seed=0, sigma=0.0))
        meters = [d for d in fleet.devices if d.kind == "meter"]
        assert meters, "expected some meters at der_fraction=0.25"
        # 04:00 is the diurnal trough, 16:00 the peak (900 s ticks: 16 and 64).
        trough = sum(f.load_mw for f in fleet.frames_for_tick(16) if f.kind == "meter")
        peak = sum(f.load_mw for f in fleet.frames_for_tick(64) if f.kind == "meter")
        assert peak > trough

    def test_anomaly_flags_and_dropout(self, ieee14):
        spike = AnomalySpec(start_tick=2, duration_ticks=1, kind="load_spike",
                            magnitude=2.0)
        clean = DeviceFleet(ieee14, FleetSpec(n_devices=30, seed=5))
        spiked = DeviceFleet(
            ieee14, FleetSpec(n_devices=30, seed=5, anomalies=(spike,))
        )
        before = clean.frames_for_tick(2)
        after = spiked.frames_for_tick(2)
        assert all(f.anomaly == "load_spike" for f in after)
        for base, hit in zip(before, after):
            if base.kind == "meter":
                assert hit.load_mw == pytest.approx(2.0 * base.load_mw)
        # Outside the anomaly range the feeds agree exactly.
        assert clean.frames_for_tick(3) == spiked.frames_for_tick(3)
        dropped = DeviceFleet(
            ieee14,
            FleetSpec(
                n_devices=30, seed=5,
                anomalies=(AnomalySpec(start_tick=2, kind="dropout"),),
            ),
        )
        assert dropped.frames_for_tick(2) == []

    def test_feeder_anomaly_limits_blast_radius(self, ieee14):
        fleet = DeviceFleet(ieee14, FleetSpec(n_devices=60, seed=2))
        feeder = fleet.devices[0].feeder
        scoped = DeviceFleet(
            ieee14,
            FleetSpec(
                n_devices=60, seed=2,
                anomalies=(AnomalySpec(start_tick=0, feeder=feeder),),
            ),
        )
        for frame in scoped.frames_for_tick(0):
            assert (frame.anomaly == "load_spike") == (frame.feeder == feeder)


# ----------------------------------------------------------------------
# feed: scenario adaptation
# ----------------------------------------------------------------------


class TestFeed:
    def test_scenarios_satisfy_stream_contract(self, ieee14):
        fleet = DeviceFleet(ieee14, FleetSpec(n_devices=25, seed=4))
        stream = TelemetryStream(fleet, 3).scenarios()
        assert len(stream) == 3
        first = list(stream)
        again = list(stream)  # re-iterable, identical
        assert [s.name for s in first] == [s.name for s in again]
        for tick, scenario in enumerate(first):
            assert scenario.tags["tick"] == tick
            assert scenario.tags["family"] == "telemetry"
            assert "feeder" in scenario.tags
            assert "hour_of_day" in scenario.tags


# ----------------------------------------------------------------------
# rolling windows (pure: no solver involved)
# ----------------------------------------------------------------------


def _result(tick: int, *, violations: bool = False, anomaly: str = "none",
            feeder: str = "feeder_0") -> ScenarioResult:
    return ScenarioResult(
        name=f"t{tick:04d}",
        tags={
            "tick": tick,
            "feeder": feeder,
            "hour_of_day": tick // 4,
            "anomaly": anomaly,
        },
        converged=True,
        max_loading_percent=50.0,
        min_voltage_pu=1.0,
        max_voltage_pu=1.02,
        overloaded_branches=[1] if violations else [],
    )


class TestWindowSpec:
    def test_boundary_exactness(self):
        spec = WindowSpec(size_ticks=4, slide_ticks=2)
        # [0,4) and [2,6) cover tick 3; tick 4 belongs to [2,6) and [4,8).
        assert list(spec.covering(3)) == [0, 1]
        assert list(spec.covering(4)) == [1, 2]
        assert 0 not in spec.covering(4)
        assert spec.max_open == 2

    def test_tumbling_default(self):
        spec = WindowSpec(size_ticks=3)
        assert spec.slide_ticks == 3
        assert spec.max_open == 1
        assert list(spec.covering(2)) == [0]
        assert list(spec.covering(3)) == [1]

    def test_slide_must_divide_size(self):
        with pytest.raises(ValueError, match="multiple"):
            WindowSpec(size_ticks=4, slide_ticks=3)
        with pytest.raises(ValueError):
            WindowSpec(size_ticks=0)


class TestRollingWindows:
    def test_close_on_exact_boundary(self):
        study = RollingWindowStudy(WindowSpec(size_ticks=2))
        assert study.add(_result(0)) == []
        assert study.add(_result(1)) == []
        closed = study.add(_result(2))  # tick == end(0) closes [0,2)
        assert [w.index for w in closed] == [0]
        assert closed[0].n_results == 2
        assert closed[0].start_tick == 0 and closed[0].end_tick == 2
        # The boundary result belongs to the *next* window.
        final = study.finalize()
        assert [w.index for w in final] == [1]
        assert final[0].n_results == 1

    def test_empty_windows_emitted(self):
        study = RollingWindowStudy(WindowSpec(size_ticks=2))
        study.add(_result(0))
        closed = study.add(_result(5))  # feed skipped ticks 1-4
        assert [w.index for w in closed] == [0, 1]
        assert closed[0].n_results == 1
        assert closed[1].n_results == 0  # silence is data
        assert closed[1].aggregate is None

    def test_late_results_counted_not_folded(self):
        study = RollingWindowStudy(WindowSpec(size_ticks=2))
        study.add(_result(0))
        study.add(_result(4))  # closes [0,2) and [2,4)
        assert study.n_windows_closed == 2
        study.add(_result(1))  # every covering window already shipped
        assert study.n_late_dropped == 1
        final = study.finalize()
        assert all(w.n_results != 0 or w.index != 2 for w in final)

    def test_out_of_order_within_open_horizon_folds(self):
        study = RollingWindowStudy(WindowSpec(size_ticks=4, slide_ticks=2))
        study.add(_result(3))
        study.add(_result(2))  # older, but [0,4) and [2,6) still open
        assert study.n_late_dropped == 0
        closed = study.add(_result(6))
        by_index = {w.index: w for w in closed}
        assert by_index[0].n_results == 2
        assert by_index[1].n_results == 2

    def test_memory_bounded_by_spec(self):
        spec = WindowSpec(size_ticks=6, slide_ticks=2)
        study = RollingWindowStudy(spec)
        for tick in range(40):
            study.add(_result(tick))
        study.finalize()
        assert study.peak_open_windows <= spec.max_open
        assert study.n_open == 0

    def test_anomaly_and_violation_rates(self):
        study = RollingWindowStudy(WindowSpec(size_ticks=4))
        for tick in range(4):
            study.add(
                _result(tick, violations=tick < 2, anomaly="load_spike" if tick == 0 else "none")
            )
        (window,) = study.finalize()
        assert window.violation_rate == pytest.approx(0.5)
        assert window.anomaly_rate == pytest.approx(0.25)
        assert window.n_anomalous == 1
        assert window.slices and "feeder" in window.slices

    def test_tick_tag_required(self):
        study = RollingWindowStudy(WindowSpec(size_ticks=2))
        bad = ScenarioResult(name="x", tags={}, converged=True)
        with pytest.raises(ValueError, match="tick"):
            study.add(bad)

    def test_digest_detects_divergence(self):
        def feed(violations):
            study = RollingWindowStudy(WindowSpec(size_ticks=2))
            out = []
            for tick in range(4):
                out.extend(study.add(_result(tick, violations=violations)))
            out.extend(study.finalize())
            return windows_digest(out)

        assert feed(False) == feed(False)
        assert feed(False) != feed(True)


# ----------------------------------------------------------------------
# network zone metadata (feeder labels)
# ----------------------------------------------------------------------


class TestBusZones:
    def test_banded_default_is_contiguous(self, ieee14):
        zones = ieee14.bus_zones()
        assert zones[0] == "feeder_0"
        assert zones[ieee14.n_bus - 1] == f"feeder_{4 * (ieee14.n_bus - 1) // ieee14.n_bus}"
        labels = [zones[b] for b in range(ieee14.n_bus)]
        assert labels == sorted(labels)  # contiguous bands never interleave

    def test_explicit_labels_override_and_survive_copy(self, ieee14):
        net = ieee14.copy()
        net.set_bus_zones({0: "north", 1: "north", 2: "south"})
        assert net.bus_zone(0) == "north"
        assert net.bus_zone(2) == "south"
        assert net.bus_zone(5).startswith("feeder_")  # unlabelled keeps default
        clone = net.copy()
        assert clone.bus_zone(2) == "south"
        assert ieee14.bus_zone(0) == "feeder_0"  # original untouched

    def test_zone_index_banded_matches_formula(self, ieee14):
        for bus in range(ieee14.n_bus):
            assert ieee14.zone_index(bus, 4) == bus * 4 // ieee14.n_bus

    def test_zone_index_with_labels_first_seen_order(self, ieee14):
        net = ieee14.copy()
        net.set_bus_zones({b: "west" if b < 7 else "east" for b in range(net.n_bus)})
        assert net.zone_index(0, 2) == 0
        assert net.zone_index(13, 2) == 1

    def test_zone_ordinals_match_zone_index_and_follow_relabels(self, ieee14):
        net = ieee14.copy()
        banded = net.zone_ordinals(4)
        assert banded.tolist() == [net.zone_index(b, 4) for b in range(net.n_bus)]
        assert net.zone_ordinals(4) is banded  # memoised per version
        net.set_bus_zones({b: "west" if b < 7 else "east" for b in range(net.n_bus)})
        assert net.zone_ordinals(4).tolist() == [0] * 7 + [1] * 7
        with pytest.raises(ValueError, match="n_zones"):
            net.zone_ordinals(0)

    def test_zonal_load_scale_uses_zone_metadata(self, ieee14):
        net = ieee14.copy()
        base_total = sum(ld.pd_mw for ld in net.loads)
        # All buses in one labelled zone: factor 2.0 hits every load.
        net.set_bus_zones({b: "all" for b in range(net.n_bus)})
        ZonalLoadScale(factors=(2.0, 1.0)).apply(net)
        assert sum(ld.pd_mw for ld in net.loads) == pytest.approx(2 * base_total)
        # Unlabelled nets keep the banded behaviour (bands partition buses).
        banded = ieee14.copy()
        ZonalLoadScale(factors=(1.0, 1.0, 1.0, 1.0)).apply(banded)
        assert sum(ld.pd_mw for ld in banded.loads) == pytest.approx(base_total)


# ----------------------------------------------------------------------
# the watch engine: determinism, alerts, end-to-end anomaly chain
# ----------------------------------------------------------------------


def _watch(net, **kw):
    defaults = dict(n_devices=40, n_ticks=8, window_ticks=4, seed=9)
    defaults.update(kw)
    return run_watch(net, **defaults)


class TestRunWatch:
    def test_deterministic_replay(self, ieee14):
        a = _watch(ieee14)
        b = _watch(ieee14)
        assert a["digest"] == b["digest"]
        assert a["windows"] == b["windows"]
        assert a["alerts"] == b["alerts"]

    def test_deterministic_at_two_fleet_sizes(self, ieee14):
        for n_devices in (30, 90):
            a = _watch(ieee14, n_devices=n_devices)
            b = _watch(ieee14, n_devices=n_devices)
            assert a["digest"] == b["digest"]
            assert [x["rule"] for x in a["alerts"]] == [
                x["rule"] for x in b["alerts"]
            ]

    def test_anomaly_surfaces_end_to_end(self, ieee14):
        out = _watch(
            ieee14,
            n_ticks=12,
            anomaly=AnomalySpec(start_tick=5, duration_ticks=3, magnitude=2.5),
        )
        assert out["n_anomaly_frames"] > 0
        # frame -> window reducer: the covering window counts anomalous ticks
        assert out["windows"][1]["n_anomalous"] == 3
        # -> health rule -> alert event
        fired = [
            a for a in out["alerts"]
            if a["rule"] == "telemetry_anomaly_rate" and a["transition"] == "firing"
        ]
        assert fired and fired[0]["status"] == "crit"
        # ... and the clean third window resolves it again
        resolved = [
            a for a in out["alerts"]
            if a["rule"] == "telemetry_anomaly_rate" and a["transition"] == "resolved"
        ]
        assert resolved

    def test_ticks_take_the_warm_ac_route(self, ieee14):
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        try:
            out = _watch(ieee14, n_ticks=4)
        finally:
            set_metrics(previous)
        assert out["n_windows"] == 1
        # Each tick is a one-row chunk through _WorkerState.run_chunk, so
        # injection-only ticks solve warm through the cached AC kernel.
        assert registry.counter("gridmind_ac_warm_solves_total").total() >= 1.0
        assert registry.counter("gridmind_scenarios_total").total() == 4.0

    def test_sliding_windows_stay_bounded(self, ieee14):
        out = _watch(ieee14, n_ticks=12, window_ticks=4, slide_ticks=2)
        assert out["peak_open_windows"] <= 2  # size/slide
        assert out["n_windows"] == len(out["windows"])

    def test_on_window_streams_in_order(self, ieee14):
        seen = []
        out = _watch(ieee14, on_window=lambda u: seen.append(u["index"]))
        assert seen == sorted(seen)
        assert len(seen) == out["n_windows"] == 2


# ----------------------------------------------------------------------
# service surface
# ----------------------------------------------------------------------


class TestServiceWatch:
    def test_watch_reply_and_streaming(self, tmp_path):
        async def go():
            async with GridMindService(store_dir=str(tmp_path)) as svc:
                streamed = []
                request = WatchRequest(
                    case_name="ieee14", n_devices=30, n_ticks=8,
                    window_ticks=4, seed=11, anomaly_tick=4,
                    anomaly_duration=2, anomaly_magnitude=2.5,
                )
                reply = await svc.watch(request, on_update=streamed.append)
                return reply, streamed

        reply, streamed = asyncio.run(go())
        assert reply.n_windows == 2
        assert reply.digest
        assert len(streamed) == 2
        assert all(u.narration for u in reply.updates)
        assert reply.narration
        assert any(a["rule"] == "telemetry_anomaly_rate" for a in reply.alerts)
        # Narration mentions the anomaly alert by rule name (agent story).
        assert "telemetry_anomaly_rate" in reply.narration

    def test_watch_deterministic_for_session(self, tmp_path):
        async def one():
            async with GridMindService(store_dir=str(tmp_path)) as svc:
                request = WatchRequest(
                    case_name="ieee14", n_devices=25, n_ticks=4, window_ticks=2
                )
                return await svc.watch(request)

        a, b = asyncio.run(one()), asyncio.run(one())
        assert a.digest == b.digest


# ----------------------------------------------------------------------
# CLI and NLU surfaces
# ----------------------------------------------------------------------


class TestWatchCLI:
    def test_watch_prints_windows_and_summary(self, capsys):
        rc = cli_main(
            ["watch", "--case", "ieee14", "--devices", "20",
             "--ticks", "4", "--window", "2", "--seed", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Window 0" in out and "Window 1" in out
        assert "Watched ieee14" in out

    def test_watch_json(self, capsys):
        rc = cli_main(
            ["watch", "--case", "ieee14", "--devices", "15",
             "--ticks", "2", "--window", "2", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_windows"] == 1
        assert payload["digest"]

    def test_watch_unknown_case_is_usage_error(self, capsys):
        rc = cli_main(["watch", "--case", "nosuch", "--ticks", "2"])
        assert rc == 2
        assert "gridmind watch: error" in capsys.readouterr().err


class TestWatchNLU:
    @pytest.mark.parametrize(
        "text",
        [
            "watch live telemetry on ieee14",
            "monitor the telemetry feed for the ieee 14 bus case",
            "observe the live grid with 200 meters on ieee14",
            "run a rolling window study over the feed on ieee14",
        ],
    )
    def test_intent(self, text):
        assert classify(text).intent == Intent.WATCH_TELEMETRY

    def test_entities(self):
        parsed = classify("watch telemetry on ieee14 with 1,500 devices over 3 windows")
        assert parsed.intent == Intent.WATCH_TELEMETRY
        assert parsed.entities["case"] == "ieee14"
        assert parsed.entities["n_devices"] == 1500
        assert parsed.entities["n_windows"] == 3

    def test_study_requests_stay_studies(self):
        assert classify("run a monte carlo study on ieee14").intent == Intent.RUN_STUDY
