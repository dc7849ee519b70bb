"""Network container: construction, mutation, compiled views."""

import numpy as np
import pytest

from repro.grid.components import BusType
from repro.grid.network import Network


def test_add_bus_assigns_contiguous_indices():
    net = Network()
    for _ in range(5):
        net.add_bus()
    assert [b.index for b in net.buses] == [0, 1, 2, 3, 4]


def test_add_gen_to_missing_bus_rejected():
    net = Network()
    net.add_bus()
    with pytest.raises(IndexError):
        net.add_gen(3)


def test_add_branch_to_missing_bus_rejected():
    net = Network()
    net.add_bus()
    with pytest.raises(IndexError):
        net.add_branch(0, 9)


def test_counts(tiny_net):
    assert tiny_net.n_bus == 3
    assert tiny_net.n_gen == 2
    assert tiny_net.n_load == 2
    assert tiny_net.n_branch == 3
    assert tiny_net.n_line == 3
    assert tiny_net.n_transformer == 0


def test_total_load(tiny_net):
    assert tiny_net.total_load_mw() == pytest.approx(80.0)
    assert tiny_net.total_load_mvar() == pytest.approx(25.0)


def test_slack_bus(tiny_net):
    assert tiny_net.slack_bus() == 0


def test_slack_bus_missing_raises():
    net = Network()
    net.add_bus()
    with pytest.raises(ValueError, match="no slack"):
        net.slack_bus()


def test_version_bumps_on_mutation(tiny_net):
    v0 = tiny_net.version
    tiny_net.set_load(1, 70.0)
    assert tiny_net.version > v0


def test_set_load_creates_when_absent(tiny_net):
    tiny_net.set_load(0, 5.0, 1.0)
    assert tiny_net.loads_at_bus(0)[0].pd_mw == pytest.approx(5.0)


def test_set_load_preserves_power_factor(tiny_net):
    # bus1 has 60 MW / 20 MVAr; doubling P should double Q.
    tiny_net.set_load(1, 120.0)
    loads = tiny_net.loads_at_bus(1)
    assert sum(ld.pd_mw for ld in loads) == pytest.approx(120.0)
    assert sum(ld.qd_mvar for ld in loads) == pytest.approx(40.0)


def test_set_load_zeroes_extra_loads():
    net = Network()
    net.add_bus()
    net.add_bus()
    net.buses[0].bus_type = BusType.SLACK
    net.add_load(1, pd_mw=10.0)
    net.add_load(1, pd_mw=20.0)
    net.set_load(1, 12.0, 3.0)
    loads = net.loads_at_bus(1)
    assert sum(ld.pd_mw for ld in loads) == pytest.approx(12.0)


def test_scale_loads(tiny_net):
    tiny_net.scale_loads(0.5)
    assert tiny_net.total_load_mw() == pytest.approx(40.0)


def test_scale_loads_negative_rejected(tiny_net):
    with pytest.raises(ValueError):
        tiny_net.scale_loads(-1.0)


def test_set_branch_status(tiny_net):
    tiny_net.set_branch_status(0, False)
    assert not tiny_net.branches[0].in_service
    assert tiny_net.in_service_branch_ids() == [1, 2]
    tiny_net.set_branch_status(0, True)
    assert tiny_net.branches[0].in_service


def test_set_branch_status_bad_id(tiny_net):
    with pytest.raises(IndexError):
        tiny_net.set_branch_status(99, False)


def test_find_branch_either_orientation(tiny_net):
    assert tiny_net.find_branch(0, 1) == 0
    assert tiny_net.find_branch(1, 0) == 0


def test_find_branch_missing(tiny_net):
    net = tiny_net
    with pytest.raises(KeyError):
        net.find_branch(0, 99)


def test_copy_is_independent(tiny_net):
    clone = tiny_net.copy()
    clone.set_load(1, 999.0)
    assert tiny_net.loads_at_bus(1)[0].pd_mw == pytest.approx(60.0)


def test_copy_equals_original_field_by_field(tiny_net):
    tiny_net.metadata.extras["tag"] = [1, 2]
    clone = tiny_net.copy()
    for key in ("buses", "gens", "loads", "branches"):
        originals, twins = getattr(tiny_net, key), getattr(clone, key)
        assert twins == originals
        assert all(a is not b for a, b in zip(originals, twins))
    clone.metadata.extras["tag"].append(3)  # extras is deep-copied
    assert tiny_net.metadata.extras["tag"] == [1, 2]


def _is_immutable(value) -> bool:
    if isinstance(value, tuple):
        return all(_is_immutable(v) for v in value)
    return isinstance(value, (bool, int, float, str, BusType))


def test_component_fields_are_immutable(case14):
    """Network.copy copies each component's field dict, which is only a
    deep copy while every field holds an immutable value; a list or dict
    field would be shared between a network and its copies."""
    from dataclasses import fields

    from repro.grid.components import Branch, Bus, Generator, Load

    samples = {
        Bus: [Bus(index=0), *case14.buses],
        Generator: [Generator(bus=0), *case14.gens],
        Load: [Load(bus=0), *case14.loads],
        Branch: [Branch(0, 1), *case14.branches],
    }
    for cls, items in samples.items():
        names = [f.name for f in fields(cls)]
        for item in items:
            assert sorted(vars(item)) == sorted(names)  # no undeclared state
            for name in names:
                value = getattr(item, name)
                assert _is_immutable(value), f"{cls.__name__}.{name} = {value!r}"


def test_compile_caches_until_touch(tiny_net):
    arr1 = tiny_net.compile()
    arr2 = tiny_net.compile()
    assert arr1 is arr2
    tiny_net.touch()
    assert tiny_net.compile() is not arr1


def test_compile_per_unit_loads(tiny_net):
    arr = tiny_net.compile()
    assert arr.pd[1] == pytest.approx(0.6)
    assert arr.qd[1] == pytest.approx(0.2)


def test_compile_excludes_out_of_service_branch(tiny_net):
    tiny_net.set_branch_status(1, False)
    arr = tiny_net.compile()
    assert arr.n_branch == 2
    assert 1 not in arr.branch_ids


def test_compile_excludes_out_of_service_gen(tiny_net):
    tiny_net.gens[1].in_service = False
    tiny_net.touch()
    arr = tiny_net.compile()
    assert arr.n_gen == 1


def test_compile_pv_bus_voltage_seeded_from_vg(tiny_net):
    arr = tiny_net.compile()
    assert arr.vm0[2] == pytest.approx(1.01)


def test_compile_empty_network_raises():
    with pytest.raises(ValueError, match="empty"):
        Network().compile()


def test_gen_connection_matrix(tiny_net):
    arr = tiny_net.compile()
    cg = arr.gen_connection_matrix().toarray()
    assert cg.shape == (3, 2)
    assert cg[0, 0] == 1.0
    assert cg[2, 1] == 1.0
    assert np.count_nonzero(cg) == 2


def test_summary_matches_components(case14):
    s = case14.summary()
    assert s["bus"] == 14
    assert s["gen"] == 5
    assert s["load"] == 11
    assert s["ac_line"] == 17
    assert s["transformer"] == 3
    assert s["total_load_mw"] == pytest.approx(259.0)
