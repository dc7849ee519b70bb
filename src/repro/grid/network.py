"""Mutable network container plus the compiled, solver-facing array view.

Two layers on purpose:

* :class:`Network` holds component dataclasses and is what agents mutate —
  load edits, branch outages, limit changes.  Every mutation bumps a
  version counter.
* :class:`NetworkArrays` is the vectorised per-unit snapshot the numerical
  code consumes (packed NumPy arrays for in-service elements only).  It is
  rebuilt lazily when the version changes, so a contingency sweep that
  toggles one branch per iteration pays one recompile per outage and the
  solvers never touch Python-object component lists in their hot loops.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass

import numpy as np

from .components import Branch, Bus, BusType, Generator, Load, NetworkMetadata
from .units import DEFAULT_BASE_MVA, deg_to_rad

#: Default zone-band count for cases that carry no explicit feeder
#: metadata: buses are split into this many contiguous, near-equal index
#: bands (the same partition rule :class:`~repro.scenarios.spec.ZonalLoadScale`
#: has always used), labelled ``feeder_0`` .. ``feeder_{N-1}``.
DEFAULT_ZONE_BANDS = 4


@dataclass
class NetworkArrays:
    """Read-only per-unit snapshot of a :class:`Network` for solvers.

    All powers are per-unit on ``base_mva``; angles are radians.  Gen and
    branch arrays cover *in-service* elements only; ``gen_ids`` /
    ``branch_ids`` map rows back to positions in the owning network's
    component lists.
    """

    base_mva: float
    n_bus: int
    bus_type: np.ndarray  # (n_bus,) int, BusType values
    pd: np.ndarray  # (n_bus,) aggregated in-service load, p.u.
    qd: np.ndarray
    gs: np.ndarray  # (n_bus,) shunt conductance, p.u.
    bs: np.ndarray
    vm0: np.ndarray  # (n_bus,) initial voltage magnitude
    va0: np.ndarray  # (n_bus,) initial angle, rad
    vmin: np.ndarray
    vmax: np.ndarray
    base_kv: np.ndarray

    n_gen: int
    gen_ids: np.ndarray  # (n_gen,) positions in Network.gens
    gen_bus: np.ndarray  # (n_gen,) bus index
    pg0: np.ndarray  # (n_gen,) initial dispatch, p.u.
    qg0: np.ndarray
    pmin: np.ndarray
    pmax: np.ndarray
    qmin: np.ndarray
    qmax: np.ndarray
    vg: np.ndarray

    n_branch: int
    branch_ids: np.ndarray  # (n_branch,) positions in Network.branches
    f_bus: np.ndarray
    t_bus: np.ndarray
    r: np.ndarray
    x: np.ndarray
    b_charge: np.ndarray
    tap: np.ndarray  # effective turns ratio (1.0 for lines)
    shift: np.ndarray  # rad
    rate_a: np.ndarray  # p.u. (0 => unlimited)

    version: int = 0

    @property
    def slack_buses(self) -> np.ndarray:
        return np.flatnonzero(self.bus_type == int(BusType.SLACK))

    @property
    def pv_buses(self) -> np.ndarray:
        return np.flatnonzero(self.bus_type == int(BusType.PV))

    @property
    def pq_buses(self) -> np.ndarray:
        return np.flatnonzero(self.bus_type == int(BusType.PQ))

    def gen_connection_matrix(self):
        """Sparse (n_bus, n_gen) incidence matrix Cg with Cg[b, g] = 1."""
        from scipy import sparse

        data = np.ones(self.n_gen)
        return sparse.csr_matrix(
            (data, (self.gen_bus, np.arange(self.n_gen))),
            shape=(self.n_bus, self.n_gen),
        )


def _copy_components(items: list) -> list:
    """Field-wise copies of component dataclasses with immutable fields."""
    out = []
    for item in items:
        twin = object.__new__(type(item))
        twin.__dict__.update(item.__dict__)
        out.append(twin)
    return out


class Network:
    """A mutable power network: buses, generators, loads, branches.

    The builder methods (:meth:`add_bus` etc.) assign contiguous indices so
    downstream array code can use bus ids as positions directly.
    """

    def __init__(
        self,
        base_mva: float = DEFAULT_BASE_MVA,
        metadata: NetworkMetadata | None = None,
    ) -> None:
        if base_mva <= 0:
            raise ValueError(f"base_mva must be positive, got {base_mva}")
        self.base_mva = float(base_mva)
        self.metadata = metadata or NetworkMetadata()
        self.buses: list[Bus] = []
        self.gens: list[Generator] = []
        self.loads: list[Load] = []
        self.branches: list[Branch] = []
        self._version = 0
        # Optional feeder/zone metadata: bus index -> label.  Empty means
        # "use the contiguous-band default" (see bus_zone); the IEEE test
        # cases ship without real feeder topology, so the default keeps
        # zonal studies meaningful while letting importers or operators
        # attach real labels via set_bus_zones.
        self._bus_zones: dict[int, str] = {}
        self._compiled: NetworkArrays | None = None
        # (version, digest) memo maintained by contingency.cache — cleared
        # on every mutation so hot cache-lookup loops only re-serialise the
        # network when its content can actually have changed.
        self._content_hash_memo: tuple[int, str] | None = None
        # (version, AdmittanceMatrices) memo maintained by
        # powerflow.solution.make_admittances — same invalidation rule, so
        # repeated AC solves of an unmodified network (recovery-ladder
        # rungs, warm-started ensembles) stop rebuilding Ybus.
        self._adm_memo: tuple[int, object] | None = None
        # (version, per-load arrays) memo maintained by
        # scenarios.spec.LoadVector.from_network, and (version,
        # {n_zones: ordinals}) behind zone_ordinals — same rule again, so
        # vectorised scenario replay stops re-reading the load objects.
        self._loads_memo: tuple[int, tuple] | None = None
        self._zone_memo: tuple[int, dict[int, np.ndarray]] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_bus(self, **kwargs) -> Bus:
        """Append a bus; its index is assigned automatically."""
        kwargs.pop("index", None)
        bus = Bus(index=len(self.buses), **kwargs)
        self.buses.append(bus)
        self.touch()
        return bus

    def add_gen(self, bus: int, **kwargs) -> Generator:
        self._check_bus(bus)
        gen = Generator(bus=bus, **kwargs)
        self.gens.append(gen)
        self.touch()
        return gen

    def add_load(self, bus: int, **kwargs) -> Load:
        self._check_bus(bus)
        load = Load(bus=bus, **kwargs)
        self.loads.append(load)
        self.touch()
        return load

    def add_branch(self, from_bus: int, to_bus: int, **kwargs) -> Branch:
        self._check_bus(from_bus)
        self._check_bus(to_bus)
        branch = Branch(from_bus=from_bus, to_bus=to_bus, **kwargs)
        self.branches.append(branch)
        self.touch()
        return branch

    def _check_bus(self, bus: int) -> None:
        if not 0 <= bus < len(self.buses):
            raise IndexError(
                f"bus {bus} does not exist (network has {len(self.buses)} buses)"
            )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def n_gen(self) -> int:
        return len(self.gens)

    @property
    def n_load(self) -> int:
        return len(self.loads)

    @property
    def n_branch(self) -> int:
        return len(self.branches)

    @property
    def n_line(self) -> int:
        """Count of non-transformer branches (paper Table 2's "AC line")."""
        return sum(1 for br in self.branches if not br.is_transformer)

    @property
    def n_transformer(self) -> int:
        return sum(1 for br in self.branches if br.is_transformer)

    @property
    def version(self) -> int:
        """Monotone counter; bumps on any mutation through this API."""
        return self._version

    @property
    def name(self) -> str:
        return self.metadata.case_name

    def slack_bus(self) -> int:
        """Index of the (single expected) slack bus."""
        slacks = [b.index for b in self.buses if b.bus_type == BusType.SLACK]
        if not slacks:
            raise ValueError("network has no slack bus")
        return slacks[0]

    def total_load_mw(self) -> float:
        return sum(ld.pd_mw for ld in self.loads if ld.in_service)

    def total_load_mvar(self) -> float:
        return sum(ld.qd_mvar for ld in self.loads if ld.in_service)

    def total_gen_capacity_mw(self) -> float:
        return sum(g.pmax_mw for g in self.gens if g.in_service)

    def loads_at_bus(self, bus: int) -> list[Load]:
        return [ld for ld in self.loads if ld.bus == bus]

    def gens_at_bus(self, bus: int) -> list[Generator]:
        return [g for g in self.gens if g.bus == bus]

    def in_service_branch_ids(self) -> list[int]:
        return [i for i, br in enumerate(self.branches) if br.in_service]

    # ------------------------------------------------------------------
    # zone / feeder metadata
    # ------------------------------------------------------------------
    def set_bus_zones(self, zones: dict[int, str]) -> None:
        """Attach explicit feeder/zone labels (bus index -> label).

        Partial mappings are allowed: unlabelled buses keep the
        contiguous-band default.  Labels also mirror into each
        :class:`~repro.grid.components.Bus`'s ``zone`` field (as the
        label's ordinal) so array-level consumers see the same grouping.
        """
        clean: dict[int, str] = {}
        for bus, label in zones.items():
            self._check_bus(bus)
            if not label or not isinstance(label, str):
                raise ValueError(
                    f"bus {bus}: zone label must be a non-empty string, got {label!r}"
                )
            clean[int(bus)] = label
        self._bus_zones = clean
        ordinals: dict[str, int] = {}
        for bus in sorted(clean):
            label = clean[bus]
            ordinal = ordinals.setdefault(label, len(ordinals) + 1)
            self.buses[bus].zone = ordinal
        self.touch()

    def bus_zone(self, bus: int, n_default: int = DEFAULT_ZONE_BANDS) -> str:
        """Feeder label for ``bus``: explicit if set, banded otherwise.

        The default partitions bus indices into ``n_default`` contiguous,
        near-equal bands (bus ``b`` -> band ``b * n // n_bus``) — the same
        deterministic stand-in for missing feeder topology that
        :class:`~repro.scenarios.spec.ZonalLoadScale` uses, so telemetry
        feeder tags and zonal study slices line up by construction.
        """
        self._check_bus(bus)
        label = self._bus_zones.get(bus)
        if label is not None:
            return label
        n = max(1, min(int(n_default), self.n_bus))
        return f"feeder_{bus * n // self.n_bus}"

    def bus_zones(self, n_default: int = DEFAULT_ZONE_BANDS) -> dict[int, str]:
        """Feeder label per bus (explicit labels over banded defaults)."""
        return {b: self.bus_zone(b, n_default) for b in range(self.n_bus)}

    def zone_index(self, bus: int, n_zones: int) -> int:
        """Map ``bus`` to a zone ordinal in ``[0, n_zones)``.

        With explicit labels, distinct labels get ordinals in first-seen
        bus order (wrapped modulo ``n_zones`` if there are more labels
        than zones); without them this is the contiguous-band rule
        ``bus * n_zones // n_bus`` unchanged.
        """
        self._check_bus(bus)
        return int(self.zone_ordinals(n_zones)[bus])

    def zone_ordinals(self, n_zones: int) -> np.ndarray:
        """:meth:`zone_index` of every bus, as an array indexed by bus.

        Memoised per network version, so a zonal ensemble computes the
        partition once rather than once per load row.  Read-only: callers
        share the cached array.
        """
        if n_zones < 1:
            raise ValueError(f"n_zones must be >= 1, got {n_zones}")
        memo = getattr(self, "_zone_memo", None)
        if memo is None or memo[0] != self._version:
            memo = self._zone_memo = (self._version, {})
        ordinals = memo[1].get(n_zones)
        if ordinals is None:
            if not self._bus_zones:
                ordinals = np.arange(self.n_bus) * n_zones // self.n_bus
            else:
                labels = [self.bus_zone(b, n_zones) for b in range(self.n_bus)]
                first_seen: dict[str, int] = {}
                for label in labels:
                    first_seen.setdefault(label, len(first_seen))
                ordinals = np.array(
                    [first_seen[label] % n_zones for label in labels], dtype=np.int64
                )
            ordinals.flags.writeable = False
            memo[1][n_zones] = ordinals
        return ordinals

    # ------------------------------------------------------------------
    # mutation (agent-facing edits)
    # ------------------------------------------------------------------
    def touch(self) -> None:
        """Invalidate compiled views after an out-of-band component edit."""
        self._version += 1
        self._compiled = None
        self._content_hash_memo = None
        self._adm_memo = None
        self._loads_memo = None
        self._zone_memo = None

    def set_load(self, bus: int, pd_mw: float, qd_mvar: float | None = None) -> Load:
        """Set the total load at ``bus``, creating a load if none exists.

        When multiple loads share the bus, the first is set to the target
        and the rest are zeroed, so the bus total equals the request — the
        semantics of the paper's ``modify_bus_load`` tool.
        """
        self._check_bus(bus)
        existing = self.loads_at_bus(bus)
        if qd_mvar is None:
            # Preserve the current power factor if there is one.
            pd_old = sum(ld.pd_mw for ld in existing)
            qd_old = sum(ld.qd_mvar for ld in existing)
            qd_mvar = qd_old * (pd_mw / pd_old) if pd_old else 0.0
        if not existing:
            return self.add_load(bus, pd_mw=pd_mw, qd_mvar=qd_mvar)
        first, *rest = existing
        first.pd_mw = pd_mw
        first.qd_mvar = qd_mvar
        for ld in rest:
            ld.pd_mw = 0.0
            ld.qd_mvar = 0.0
        self.touch()
        return first

    def scale_loads(self, factor: float) -> None:
        """Multiply every in-service load by ``factor`` (what-if studies)."""
        if factor < 0:
            raise ValueError(f"load scale factor must be non-negative, got {factor}")
        for ld in self.loads:
            ld.pd_mw *= factor
            ld.qd_mvar *= factor
        self.touch()

    def set_branch_status(self, branch_id: int, in_service: bool) -> Branch:
        """Switch a branch in or out of service (contingency application)."""
        if not 0 <= branch_id < len(self.branches):
            raise IndexError(
                f"branch {branch_id} does not exist "
                f"(network has {len(self.branches)} branches)"
            )
        br = self.branches[branch_id]
        br.in_service = in_service
        self.touch()
        return br

    def find_branch(self, from_bus: int, to_bus: int) -> int:
        """Locate a branch by its endpoints (either orientation)."""
        for i, br in enumerate(self.branches):
            if {br.from_bus, br.to_bus} == {from_bus, to_bus}:
                return i
        raise KeyError(f"no branch between buses {from_bus} and {to_bus}")

    def copy(self) -> "Network":
        """Deep copy; the copy starts with a fresh compile cache.

        Every component field holds an immutable value (numbers, strings,
        enums, tuples), so copying each component's field dict is a deep
        copy at a fraction of ``deepcopy``'s cost; only ``metadata`` (whose
        ``extras`` is a dict) goes through ``deepcopy``.
        """
        clone = Network(self.base_mva, _copy.deepcopy(self.metadata))
        clone.buses = _copy_components(self.buses)
        clone.gens = _copy_components(self.gens)
        clone.loads = _copy_components(self.loads)
        clone.branches = _copy_components(self.branches)
        clone._bus_zones = dict(self._bus_zones)
        return clone

    # ------------------------------------------------------------------
    # compiled view
    # ------------------------------------------------------------------
    def compile(self) -> NetworkArrays:
        """Return the per-unit array snapshot, rebuilding only if stale."""
        if self._compiled is not None and self._compiled.version == self._version:
            return self._compiled
        self._compiled = self._build_arrays()
        return self._compiled

    def _build_arrays(self) -> NetworkArrays:
        nb = self.n_bus
        if nb == 0:
            raise ValueError("cannot compile an empty network")
        base = self.base_mva

        bus_type = np.array([int(b.bus_type) for b in self.buses], dtype=np.int64)
        pd = np.zeros(nb)
        qd = np.zeros(nb)
        for ld in self.loads:
            if ld.in_service:
                pd[ld.bus] += ld.pd_mw / base
                qd[ld.bus] += ld.qd_mvar / base
        gs = np.array([b.gs_mw / base for b in self.buses])
        bs = np.array([b.bs_mvar / base for b in self.buses])
        vm0 = np.array([b.vm_pu for b in self.buses])
        va0 = np.array([deg_to_rad(b.va_deg) for b in self.buses])
        vmin = np.array([b.vmin_pu for b in self.buses])
        vmax = np.array([b.vmax_pu for b in self.buses])
        base_kv = np.array([b.base_kv for b in self.buses])

        gen_rows = [(i, g) for i, g in enumerate(self.gens) if g.in_service]
        gen_ids = np.array([i for i, _ in gen_rows], dtype=np.int64)
        gen_bus = np.array([g.bus for _, g in gen_rows], dtype=np.int64)
        pg0 = np.array([g.pg_mw / base for _, g in gen_rows])
        qg0 = np.array([g.qg_mvar / base for _, g in gen_rows])
        pmin = np.array([g.pmin_mw / base for _, g in gen_rows])
        pmax = np.array([g.pmax_mw / base for _, g in gen_rows])
        qmin = np.array([g.qmin_mvar / base for _, g in gen_rows])
        qmax = np.array([g.qmax_mvar / base for _, g in gen_rows])
        vg = np.array([g.vg_pu for _, g in gen_rows])

        # Seed voltage setpoints: PV/slack buses start at their gen's vg.
        for _, g in gen_rows:
            if bus_type[g.bus] in (int(BusType.PV), int(BusType.SLACK)):
                vm0[g.bus] = g.vg_pu

        br_rows = [(i, br) for i, br in enumerate(self.branches) if br.in_service]
        branch_ids = np.array([i for i, _ in br_rows], dtype=np.int64)
        f_bus = np.array([br.from_bus for _, br in br_rows], dtype=np.int64)
        t_bus = np.array([br.to_bus for _, br in br_rows], dtype=np.int64)
        r = np.array([br.r_pu for _, br in br_rows])
        x = np.array([br.x_pu for _, br in br_rows])
        b_charge = np.array([br.b_pu for _, br in br_rows])
        tap = np.array([br.effective_tap for _, br in br_rows])
        shift = np.array([deg_to_rad(br.shift_deg) for _, br in br_rows])
        rate_a = np.array([br.rate_a_mva / base for _, br in br_rows])

        return NetworkArrays(
            base_mva=base,
            n_bus=nb,
            bus_type=bus_type,
            pd=pd,
            qd=qd,
            gs=gs,
            bs=bs,
            vm0=vm0,
            va0=va0,
            vmin=vmin,
            vmax=vmax,
            base_kv=base_kv,
            n_gen=len(gen_rows),
            gen_ids=gen_ids,
            gen_bus=gen_bus,
            pg0=pg0,
            qg0=qg0,
            pmin=pmin,
            pmax=pmax,
            qmin=qmin,
            qmax=qmax,
            vg=vg,
            n_branch=len(br_rows),
            branch_ids=branch_ids,
            f_bus=f_bus,
            t_bus=t_bus,
            r=r,
            x=x,
            b_charge=b_charge,
            tap=tap,
            shift=shift,
            rate_a=rate_a,
            version=self._version,
        )

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Component counts in the shape of the paper's Table 2."""
        return {
            "case": self.metadata.case_name,
            "bus": self.n_bus,
            "gen": self.n_gen,
            "load": self.n_load,
            "ac_line": self.n_line,
            "transformer": self.n_transformer,
            "total_load_mw": round(self.total_load_mw(), 3),
            "gen_capacity_mw": round(self.total_gen_capacity_mw(), 3),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Network({self.metadata.case_name or 'unnamed'}: "
            f"{self.n_bus} buses, {self.n_gen} gens, {self.n_load} loads, "
            f"{self.n_branch} branches)"
        )
