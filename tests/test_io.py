"""MATPOWER-dict and JSON serialisation round-trips."""

import json

import numpy as np
import pytest

from repro.grid.components import BusType
from repro.grid.io import (
    from_matpower,
    load_json,
    record_differences,
    save_json,
    to_matpower,
)
from repro.powerflow import solve_newton


def test_roundtrip_preserves_counts(case14):
    net2 = from_matpower(to_matpower(case14), name="ieee14")
    assert net2.n_bus == case14.n_bus
    assert net2.n_gen == case14.n_gen
    assert net2.n_load == case14.n_load
    assert net2.n_branch == case14.n_branch
    assert net2.n_transformer == case14.n_transformer


def test_roundtrip_preserves_power_flow(case14):
    net2 = from_matpower(to_matpower(case14), name="ieee14")
    r1 = solve_newton(case14)
    r2 = solve_newton(net2)
    assert np.allclose(r1.vm, r2.vm, atol=1e-10)
    assert np.allclose(r1.va_deg, r2.va_deg, atol=1e-8)


def test_roundtrip_preserves_costs(case14):
    net2 = from_matpower(to_matpower(case14))
    for g1, g2 in zip(case14.gens, net2.gens):
        assert g1.cost_coeffs == pytest.approx(g2.cost_coeffs)


def test_json_roundtrip(tmp_path, case30):
    path = tmp_path / "case.json"
    save_json(case30, path)
    net2 = load_json(path)
    assert net2.metadata.case_name == "ieee30"
    assert net2.summary() == case30.summary()


def test_json_roundtrip_out_of_service_branch(tmp_path, case14):
    case14.set_branch_status(3, False)
    path = tmp_path / "case.json"
    save_json(case14, path)
    net2 = load_json(path)
    assert not net2.branches[3].in_service


def test_load_json_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError, match="repro-case-v1"):
        load_json(path)


def _awkward_case14(case14):
    """ieee14 with everything MATPOWER rows cannot carry."""
    case14.set_bus_zones({0: "north", 1: "north", 5: "south", 9: "east"})
    case14.add_load(3, pd_mw=7.5, qd_mvar=1.25, name="second_load_b3")
    case14.add_load(12, pd_mw=4.0, qd_mvar=0.5, in_service=False)
    case14.loads[0].in_service = False
    case14.set_branch_status(3, False)
    case14.buses[2].name = "renamed"
    case14.gens[1].cost_coeffs = (0.25, 20.0)
    case14.metadata.extras["design_seed_bump"] = 2
    return case14


def test_v2_roundtrip_is_lossless(tmp_path, case14):
    net = _awkward_case14(case14)
    path = tmp_path / "case.json"
    save_json(net, path)
    net2 = load_json(path)

    assert record_differences(net, net2) == []
    for key in ("buses", "gens", "loads", "branches"):
        assert getattr(net2, key) == getattr(net, key)  # every field, in order
    assert isinstance(net2.buses[0].bus_type, BusType)
    assert net2.gens[1].cost_coeffs == (0.25, 20.0)
    assert [ld.bus for ld in net2.loads] == [ld.bus for ld in net.loads]
    assert net2.buses[2].name == "renamed"
    assert net2.metadata == net.metadata
    assert net2.bus_zones() == net.bus_zones()
    assert np.array_equal(net2.zone_ordinals(3), net.zone_ordinals(3))
    a1, a2 = net.compile(), net2.compile()
    for name in ("pd", "qd", "vm0", "gen_ids", "branch_ids", "rate_a", "tap"):
        assert np.array_equal(getattr(a1, name), getattr(a2, name))


def test_v2_record_is_one_component_per_line(tmp_path, case14):
    path = tmp_path / "case.json"
    save_json(case14, path)
    text = path.read_text()
    payload = json.loads(text)
    assert payload["format"] == "repro-case-v2"
    lines = {line.strip().rstrip(",") for line in text.splitlines()}
    for key in ("buses", "gens", "loads", "branches"):
        assert all(json.dumps(row) in lines for row in payload[key])


def test_v1_file_still_loads(tmp_path, case14):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "format": "repro-case-v1",
        "name": "ieee14",
        "description": "old",
        "source": "src",
        "case": to_matpower(case14),
    }))
    net = load_json(path)
    assert net.metadata.description == "old"
    assert net.summary() == case14.summary()


def test_record_differences_names_the_field(case14):
    other = case14.copy()
    other.buses[4].vm_pu *= 1 + 1e-14
    other.branches[2].in_service = False
    diffs = record_differences(case14, other)
    assert any(d.startswith(".buses[4].vm_pu") for d in diffs)
    assert any(d.startswith(".branches[2].in_service") for d in diffs)
    # Floats get the tolerance; flags never do.
    assert record_differences(case14, other, rel_tol=1e-12) == [
        ".branches[2].in_service: True != False"
    ]
    other.loads.pop()
    assert ".loads: length 11 != 10" in record_differences(case14, other)


def test_duplicate_bus_numbers_rejected():
    case = {
        "baseMVA": 100.0,
        "bus": [
            [1, 3, 0, 0, 0, 0, 1, 1.0, 0, 138, 1, 1.06, 0.94],
            [1, 1, 0, 0, 0, 0, 1, 1.0, 0, 138, 1, 1.06, 0.94],
        ],
        "gen": [],
        "branch": [],
    }
    with pytest.raises(ValueError, match="duplicate bus"):
        from_matpower(case)


def test_non_polynomial_gencost_rejected():
    case = {
        "baseMVA": 100.0,
        "bus": [[1, 3, 0, 0, 0, 0, 1, 1.0, 0, 138, 1, 1.06, 0.94]],
        "gen": [[1, 0, 0, 10, -10, 1.0, 100, 1, 50, 0]],
        "gencost": [[1, 0, 0, 2, 10.0, 0.0]],  # model 1 = piecewise linear
        "branch": [],
    }
    with pytest.raises(ValueError, match="polynomial"):
        from_matpower(case)


def test_noncontiguous_bus_numbers_remapped():
    case = {
        "baseMVA": 100.0,
        "bus": [
            [5, 3, 0, 0, 0, 0, 1, 1.0, 0, 138, 1, 1.06, 0.94],
            [99, 1, 10, 2, 0, 0, 1, 1.0, 0, 138, 1, 1.06, 0.94],
        ],
        "gen": [[5, 10, 0, 10, -10, 1.0, 100, 1, 50, 0]],
        "gencost": [[2, 0, 0, 3, 0.0, 10.0, 0.0]],
        "branch": [[5, 99, 0.01, 0.05, 0.0, 100, 0, 0, 0, 0, 1]],
    }
    net = from_matpower(case)
    assert net.n_bus == 2
    assert net.gens[0].bus == 0
    assert net.branches[0].to_bus == 1


def test_transformer_detection_by_ratio(case14):
    # IEEE 14: branches with off-nominal tap are the 3 transformers.
    trafos = [b for b in case14.branches if b.is_transformer]
    assert len(trafos) == 3
    assert all(b.tap != 0.0 for b in trafos)
