"""Power-flow result container and post-solve quantities.

Converts a converged voltage vector into everything the agents and the
contingency engine consume: branch flows and loading percentages, losses,
per-generator allocations, and the mismatch diagnostics that GridMind's
validation layer checks against its 1e-4 p.u. tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..grid.network import Network, NetworkArrays
from ..grid.ybus import AdmittanceMatrices, build_admittances
from ..grid.units import rad_to_deg


@dataclass
class PowerFlowResult:
    """Outcome of one AC (or DC) power-flow solve.

    All array fields are per the compiled snapshot's ordering; powers are
    in physical units (MW / MVAr / MVA) for direct consumption by agents.
    """

    converged: bool
    iterations: int
    method: str
    max_mismatch_pu: float
    vm: np.ndarray  # (n_bus,) p.u.
    va_deg: np.ndarray  # (n_bus,)
    p_from_mw: np.ndarray  # (n_branch,)
    q_from_mvar: np.ndarray
    p_to_mw: np.ndarray
    q_to_mvar: np.ndarray
    s_from_mva: np.ndarray
    s_to_mva: np.ndarray
    loading_percent: np.ndarray  # (n_branch,) vs rate_a (0 where unrated)
    branch_ids: np.ndarray  # maps rows back to Network.branches positions
    gen_p_mw: np.ndarray  # (n_gen,) allocated outputs
    gen_q_mvar: np.ndarray
    gen_ids: np.ndarray
    losses_mw: float
    losses_mvar: float
    runtime_s: float = 0.0
    message: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def min_voltage_pu(self) -> float:
        return float(self.vm.min())

    @property
    def max_voltage_pu(self) -> float:
        return float(self.vm.max())

    @property
    def max_loading_percent(self) -> float:
        return float(self.loading_percent.max()) if self.loading_percent.size else 0.0

    def overloaded_branches(self, threshold: float = 100.0) -> list[tuple[int, float]]:
        """(branch_id, loading %) pairs above ``threshold``, worst first."""
        rows = np.flatnonzero(self.loading_percent > threshold)
        pairs = [
            (int(self.branch_ids[r]), float(self.loading_percent[r])) for r in rows
        ]
        return sorted(pairs, key=lambda p: -p[1])

    def voltage_violations(
        self, vmin: float = 0.94, vmax: float = 1.06
    ) -> list[tuple[int, float]]:
        """(bus, vm) pairs outside the band, most extreme first."""
        out = [
            (i, float(v)) for i, v in enumerate(self.vm) if v < vmin or v > vmax
        ]
        return sorted(out, key=lambda p: min(abs(p[1] - vmin), abs(p[1] - vmax)), reverse=True)


def finalize_solution(
    net: Network,
    arr: NetworkArrays,
    adm: AdmittanceMatrices,
    v: np.ndarray,
    *,
    converged: bool,
    iterations: int,
    method: str,
    max_mismatch_pu: float,
    runtime_s: float = 0.0,
    message: str = "",
) -> PowerFlowResult:
    """Assemble a :class:`PowerFlowResult` from a final voltage vector."""
    base = arr.base_mva
    flows = branch_flows(arr, adm, v[np.newaxis, :])
    sf, st = flows.s_from_pu[0], flows.s_to_pu[0]
    s_from = np.abs(sf) * base
    s_to = np.abs(st) * base

    gen_p, gen_q = _allocate_generation(arr, adm, v)

    return PowerFlowResult(
        converged=converged,
        iterations=iterations,
        method=method,
        max_mismatch_pu=max_mismatch_pu,
        vm=np.abs(v),
        va_deg=rad_to_deg(np.angle(v)),
        p_from_mw=sf.real * base,
        q_from_mvar=sf.imag * base,
        p_to_mw=st.real * base,
        q_to_mvar=st.imag * base,
        s_from_mva=s_from,
        s_to_mva=s_to,
        loading_percent=flows.loading_percent[0],
        branch_ids=arr.branch_ids.copy(),
        gen_p_mw=gen_p * base,
        gen_q_mvar=gen_q * base,
        gen_ids=arr.gen_ids.copy(),
        losses_mw=float(flows.losses_mw[0]),
        losses_mvar=float(flows.losses_mvar[0]),
        runtime_s=runtime_s,
        message=message,
    )


class BranchFlows(NamedTuple):
    """Stacked branch-level quantities: row ``i`` is voltage row ``i``."""

    s_from_pu: np.ndarray  # (n, n_branch) complex from-end power
    s_to_pu: np.ndarray  # (n, n_branch) complex to-end power
    loading_percent: np.ndarray  # (n, n_branch) vs rate_a (0 where unrated)
    losses_mw: np.ndarray  # (n,)
    losses_mvar: np.ndarray  # (n,)


def branch_flows(
    arr: NetworkArrays, adm: AdmittanceMatrices, v: np.ndarray
) -> BranchFlows:
    """Branch flows, loading and losses for stacked ``(n, n_bus)`` voltages.

    The one flow/loading/loss reduction: :func:`finalize_solution` feeds
    it a single row, the warm AC kernel a whole chunk.  Every row's
    numbers depend on that row alone — one sparse product per end, and
    losses summed over C-contiguous rows (a strided view would make the
    summation order, and so the last bit, depend on the chunk's shape).
    """
    base = arr.base_mva
    sf = v[:, arr.f_bus] * np.conj((adm.yf @ v.T).T)
    st = v[:, arr.t_bus] * np.conj((adm.yt @ v.T).T)
    s_worst = np.maximum(np.abs(sf), np.abs(st)) * base
    with np.errstate(divide="ignore", invalid="ignore"):
        loading = np.where(
            arr.rate_a > 0, 100.0 * s_worst / (arr.rate_a * base), 0.0
        )
    losses = (sf + st) * base
    return BranchFlows(
        s_from_pu=sf,
        s_to_pu=st,
        loading_percent=loading,
        losses_mw=np.ascontiguousarray(losses.real).sum(axis=1),
        losses_mvar=np.ascontiguousarray(losses.imag).sum(axis=1),
    )


def _allocate_generation(
    arr: NetworkArrays, adm: AdmittanceMatrices, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Back out per-generator P/Q from the solved bus injections.

    At PV/slack buses the network-level injection is known; it is split
    among co-located units — P deviation goes to slack-bus units evenly,
    Q proportionally to each unit's Q range (the usual AVR-share model).
    """
    s_inj = v * np.conj(adm.ybus @ v)  # net bus injection, p.u.
    gen_p = arr.pg0.copy()
    gen_q = np.zeros(arr.n_gen)

    for bus in np.unique(arr.gen_bus):
        rows = np.flatnonzero(arr.gen_bus == bus)
        need_s = s_inj[bus] + arr.pd[bus] + 1j * arr.qd[bus]
        if arr.bus_type[bus] == 3:  # slack: absorb P mismatch too
            scheduled = gen_p[rows].sum()
            gen_p[rows] += (need_s.real - scheduled) / len(rows)
        # Split the bus's required Q among co-located units in proportion
        # to their reactive capability (AVR-share model).
        qrange = np.maximum(arr.qmax[rows] - arr.qmin[rows], 1e-9)
        gen_q[rows] = need_s.imag * qrange / qrange.sum()
    return gen_p, gen_q


def make_admittances(net: Network) -> tuple[NetworkArrays, AdmittanceMatrices]:
    """Compile the network and build its admittance operators in one step.

    The admittance build is memoised behind the network's version counter
    (the same invalidation rule as ``compile`` and the content-hash memo):
    an unmodified network pays one Ybus construction however many solver
    calls touch it — every rung of the recovery ladder, every warm-started
    ensemble scenario, every N-1 base solve reuses the cached operators.
    """
    arr = net.compile()
    memo = getattr(net, "_adm_memo", None)
    if memo is not None and memo[0] == net._version:
        return arr, memo[1]
    adm = build_admittances(arr)
    net._adm_memo = (net._version, adm)
    return arr, adm
