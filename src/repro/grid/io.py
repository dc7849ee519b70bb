"""Case serialisation: MATPOWER-style dicts and lossless JSON records.

The interchange format mirrors a MATPOWER case struct (``bus``, ``gen``,
``branch``, ``gencost`` row conventions) because that is the lingua franca
of the IEEE PSTCA cases the paper evaluates on; it also makes the embedded
IEEE-14 data auditable against any published copy.

MATPOWER rows cannot carry everything a :class:`Network` holds (loads are
folded into their bus, names are renumbered, metadata extras and zone
labels have no column), so files on disk use the ``repro-case-v2``
*record* instead: every component dataclass field, in list order, one
component per line.  :func:`load_json` reads it back exactly, which is
what lets the registry ship calibrated snapshots and sessions resume with
the same load rows a seeded study draws against.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import json
import math
from pathlib import Path

from .components import Branch, Bus, BusType, Generator, Load, NetworkMetadata
from .network import Network

#: Format tag of the lossless network record.
CASE_FORMAT = "repro-case-v2"
#: Format tag of the older MATPOWER-row files, still readable.
LEGACY_CASE_FORMAT = "repro-case-v1"

#: Record key of each component list, with the dataclass its rows rebuild.
_COMPONENTS = (("buses", Bus), ("gens", Generator), ("loads", Load), ("branches", Branch))
#: Fields whose JSON form is not their Python type.
_DECODE = {"bus_type": BusType, "cost_coeffs": tuple}

# MATPOWER bus-table column meanings used here:
#   [bus_i, type, Pd, Qd, Gs, Bs, area, Vm, Va, baseKV, zone, Vmax, Vmin]
# gen table: [bus, Pg, Qg, Qmax, Qmin, Vg, mBase, status, Pmax, Pmin]
# branch:    [fbus, tbus, r, x, b, rateA, rateB, rateC, ratio, angle, status]
# gencost:   [2, startup, shutdown, n, c(n-1) ... c0]   (polynomial only)


def from_matpower(case: dict, name: str = "", source: str = "") -> Network:
    """Build a :class:`Network` from a MATPOWER-style case dict.

    Bus numbers may be arbitrary; they are remapped to contiguous 0-based
    indices in row order.  Transformers are identified the way pandapower
    does when importing PSTCA data: any branch with an off-nominal tap
    ratio, or whose endpoints sit at different voltage levels.
    """
    net = Network(
        base_mva=float(case.get("baseMVA", 100.0)),
        metadata=NetworkMetadata(case_name=name, source=source),
    )
    bus_rows = case["bus"]
    id_map: dict[int, int] = {}
    for row in bus_rows:
        ext_id = int(row[0])
        if ext_id in id_map:
            raise ValueError(f"duplicate bus number {ext_id} in case data")
        bus = net.add_bus(
            name=f"bus_{ext_id}",
            bus_type=BusType(int(row[1])),
            gs_mw=float(row[4]),
            bs_mvar=float(row[5]),
            area=int(row[6]),
            vm_pu=float(row[7]),
            va_deg=float(row[8]),
            base_kv=float(row[9]),
            zone=int(row[10]),
            vmax_pu=float(row[11]),
            vmin_pu=float(row[12]),
        )
        id_map[ext_id] = bus.index
        pd, qd = float(row[2]), float(row[3])
        if pd != 0.0 or qd != 0.0:
            net.add_load(bus.index, pd_mw=pd, qd_mvar=qd)

    gencost = case.get("gencost")
    for i, row in enumerate(case.get("gen", [])):
        coeffs: tuple[float, ...] = (0.0, 0.0, 0.0)
        if gencost is not None:
            crow = gencost[i]
            if int(crow[0]) != 2:
                raise ValueError(
                    "only polynomial (model 2) generator costs are supported"
                )
            n = int(crow[3])
            coeffs = tuple(float(c) for c in crow[4 : 4 + n])
        net.add_gen(
            bus=id_map[int(row[0])],
            pg_mw=float(row[1]),
            qg_mvar=float(row[2]),
            qmax_mvar=float(row[3]),
            qmin_mvar=float(row[4]),
            vg_pu=float(row[5]),
            in_service=int(row[7]) > 0,
            pmax_mw=float(row[8]),
            pmin_mw=float(row[9]),
            cost_coeffs=coeffs,
        )

    kv = {b.index: b.base_kv for b in net.buses}
    for row in case.get("branch", []):
        f, t = id_map[int(row[0])], id_map[int(row[1])]
        ratio = float(row[8])
        is_trafo = ratio != 0.0 or abs(kv[f] - kv[t]) > 1e-9
        net.add_branch(
            f,
            t,
            r_pu=float(row[2]),
            x_pu=float(row[3]),
            b_pu=float(row[4]),
            rate_a_mva=float(row[5]),
            tap=ratio,
            shift_deg=float(row[9]),
            in_service=int(row[10]) > 0,
            is_transformer=is_trafo,
        )
    return net


def to_matpower(net: Network) -> dict:
    """Export a :class:`Network` to the MATPOWER-style dict format."""
    bus_rows = []
    pd = {b.index: 0.0 for b in net.buses}
    qd = {b.index: 0.0 for b in net.buses}
    for ld in net.loads:
        if ld.in_service:
            pd[ld.bus] += ld.pd_mw
            qd[ld.bus] += ld.qd_mvar
    for b in net.buses:
        bus_rows.append(
            [
                b.index + 1,
                int(b.bus_type),
                pd[b.index],
                qd[b.index],
                b.gs_mw,
                b.bs_mvar,
                b.area,
                b.vm_pu,
                b.va_deg,
                b.base_kv,
                b.zone,
                b.vmax_pu,
                b.vmin_pu,
            ]
        )
    gen_rows, cost_rows = [], []
    for g in net.gens:
        gen_rows.append(
            [
                g.bus + 1,
                g.pg_mw,
                g.qg_mvar,
                g.qmax_mvar,
                g.qmin_mvar,
                g.vg_pu,
                net.base_mva,
                1 if g.in_service else 0,
                g.pmax_mw,
                g.pmin_mw,
            ]
        )
        cost_rows.append([2, 0.0, 0.0, len(g.cost_coeffs), *g.cost_coeffs])
    branch_rows = []
    for br in net.branches:
        branch_rows.append(
            [
                br.from_bus + 1,
                br.to_bus + 1,
                br.r_pu,
                br.x_pu,
                br.b_pu,
                br.rate_a_mva,
                0.0,
                0.0,
                br.tap,
                br.shift_deg,
                1 if br.in_service else 0,
            ]
        )
    return {
        "baseMVA": net.base_mva,
        "bus": bus_rows,
        "gen": gen_rows,
        "branch": branch_rows,
        "gencost": cost_rows,
    }


def network_record(net: Network) -> dict:
    """Everything ``net`` holds, as plain JSON-ready data.

    Component rows are lists of dataclass field values in declaration
    order (the names are listed once under ``fields``); enums become
    their values and tuples lists.  ``metadata.extras`` must itself be
    JSON data.  :func:`network_from_record` inverts this exactly.
    """
    record = {
        "format": CASE_FORMAT,
        "base_mva": net.base_mva,
        "metadata": dataclasses.asdict(net.metadata),
        "bus_zones": {str(bus): label for bus, label in net._bus_zones.items()},
        "fields": {
            key: [f.name for f in dataclasses.fields(cls)] for key, cls in _COMPONENTS
        },
    }
    for key, _cls in _COMPONENTS:
        names = record["fields"][key]
        record[key] = [
            [_plain(getattr(item, name)) for name in names] for item in getattr(net, key)
        ]
    return record


def _plain(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def network_from_record(record: dict) -> Network:
    """Rebuild the :class:`Network` a :func:`network_record` describes."""
    if record.get("format") != CASE_FORMAT:
        raise ValueError(f"not a {CASE_FORMAT} record: {record.get('format')!r}")
    net = Network(record["base_mva"], NetworkMetadata(**copy.deepcopy(record["metadata"])))
    adders = {
        "buses": net.add_bus,
        "gens": net.add_gen,
        "loads": net.add_load,
        "branches": net.add_branch,
    }
    for key, _cls in _COMPONENTS:
        names = record["fields"][key]
        decoders = [_DECODE.get(name) for name in names]
        for row in record[key]:
            if len(row) != len(names):
                raise ValueError(f"{key} row {row!r} does not match fields {names}")
            adders[key](**{
                name: value if decode is None else decode(value)
                for name, decode, value in zip(names, decoders, row)
            })
    zones = {int(bus): label for bus, label in record.get("bus_zones", {}).items()}
    for bus in zones:
        net._check_bus(bus)
    net._bus_zones = zones
    return net


def record_differences(a: Network, b: Network, rel_tol: float = 0.0) -> list[str]:
    """Where the records of ``a`` and ``b`` differ; empty means equal.

    Everything must match exactly (list order, names, enums, flags, and
    the type of every value, any float subclass counting as ``float``)
    except that two floats may differ by ``rel_tol`` relative (NaN equals
    NaN).  With the default ``0.0`` floats must be equal up to the sign
    of zero.
    """
    out: list[str] = []
    _diff(_named(network_record(a)), _named(network_record(b)), "", rel_tol, out)
    return out


def _named(record: dict) -> dict:
    """The record with each component row keyed by field name."""
    named = dict(record)
    for key, _cls in _COMPONENTS:
        names = record["fields"][key]
        named[key] = [dict(zip(names, row)) for row in record[key]]
    return named


def _diff(x, y, where: str, rel_tol: float, out: list[str]) -> None:
    if isinstance(x, dict) and isinstance(y, dict):
        for key in list(x) + [k for k in y if k not in x]:
            if key not in x or key not in y:
                out.append(f"{where}.{key}: present on one side only")
            else:
                _diff(x[key], y[key], f"{where}.{key}", rel_tol, out)
    elif isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            out.append(f"{where}: length {len(x)} != {len(y)}")
        for i, (u, v) in enumerate(zip(x, y)):
            _diff(u, v, f"{where}[{i}]", rel_tol, out)
    elif isinstance(x, float) and isinstance(y, float):
        if not (math.isclose(x, y, rel_tol=rel_tol) or (x != x and y != y)):
            out.append(f"{where}: {x!r} != {y!r}")
    elif type(x) is not type(y) or x != y:
        out.append(f"{where}: {x!r} != {y!r}")


def dumps_record(payload: dict, default=None) -> str:
    """``json.dumps`` laid out for review: one line per object member and
    one line per element of a list of lists or objects (each element
    compact).  Component rows therefore sit one per line, so a snapshot
    diff names the components that changed.
    """
    return _layout(payload, 0, default) + "\n"


def _layout(obj, indent: int, default) -> str:
    pad = " " * (indent + 1)
    if isinstance(obj, dict) and obj:
        members = [
            f"{pad}{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
            f"{_layout(v, indent + 1, default)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(members) + "\n" + " " * indent + "}"
    if isinstance(obj, list) and obj and all(isinstance(v, (list, dict)) for v in obj):
        rows = [pad + json.dumps(v, default=default) for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + " " * indent + "]"
    return json.dumps(obj, default=default)


def save_json(net: Network, path: str | Path) -> None:
    """Write ``net`` to disk as a lossless ``repro-case-v2`` record."""
    Path(path).write_text(dumps_record(network_record(net)))


def load_json(path: str | Path) -> Network:
    """Read a case written by :func:`save_json` (v2, or a legacy v1 file).

    A v1 file holds MATPOWER rows, so it loads with that format's losses
    (loads merged per bus, names renumbered, no extras or zone labels).
    """
    payload = json.loads(Path(path).read_text())
    fmt = payload.get("format")
    if fmt == CASE_FORMAT:
        return network_from_record(payload)
    if fmt != LEGACY_CASE_FORMAT:
        raise ValueError(f"{path}: not a {CASE_FORMAT} or {LEGACY_CASE_FORMAT} file")
    net = from_matpower(
        payload["case"], name=payload.get("name", ""), source=payload.get("source", "")
    )
    net.metadata.description = payload.get("description", "")
    return net
