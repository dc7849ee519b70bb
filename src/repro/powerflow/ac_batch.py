"""Batched AC physics kernel: warm-started ensembles on one topology.

PR 9 batched the *linear* hot path; this module is the nonlinear half.
An injection-only AC ensemble (the default ``analysis="powerflow"``
study) used to pay, per scenario: a network realize + compile, a fresh
Ybus build, and a flat-ish Newton solve from ``vm0``.  Every one of
those costs is topology-level, not scenario-level — ten thousand Monte
Carlo draws over one grid share a single admittance matrix, a single
base-case solution to warm-start from, and a single pair of
fast-decoupled B'/B'' factorizations.

:class:`AcKernel` owns exactly that shared state for one electrical
topology (keyed by the same :func:`~repro.powerflow.batch.topology_digest`
the DC kernel cache uses) and solves a stacked injection chunk in three
tiers, each cheaper than the last:

1. **Vectorized mismatch screen** — the warm-start voltage's injection
   ``V ∘ conj(Ybus V)`` is computed once (one sparse matvec for the whole
   chunk, since every row shares the start) and compared against the
   stacked scheduled injections; rows already inside ``tol`` skip
   iteration entirely.
2. **Fast-decoupled corrector sweeps** — a few half-iterations through
   the cached B'/B'' SuperLU factorizations, run as multi-RHS triangular
   solves across all still-active rows at once, walk each iterate most
   of the way in.
3. **Warm-started Newton polish** — the full-Jacobian solver finishes
   each remaining row to the exact scalar-path tolerance; rows it cannot
   converge fall back to the caller's scalar recovery ladder.

Records come off the stacked voltages too: the study runner reduces a
whole chunk with :func:`~repro.powerflow.solution.branch_flows` (the
same flow/loading/loss arithmetic :func:`finalize_solution` runs for one
row) plus array min/max/count ops, never building a per-row
:class:`PowerFlowResult`.  :meth:`AcKernel.finalize_row` still assembles
the full result for callers that want one.

The contract is *parity*, not bit-identity (Newton iterates are
path-dependent): identical ``converged`` flags, identical overloaded-
branch and voltage-violation sets, every mismatch under the same ``tol``,
and aggregate fields within 1e-6 of the cold path — asserted by the test
suite across cases, chunk sizes, and dispatch modes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.sparse import linalg as sla

from ..grid.components import BusType
from ..grid.network import Network
from .fast_decoupled import _series_susceptance_matrices
from .newton import _newton_inner, solve_newton
from .solution import PowerFlowResult, finalize_solution, make_admittances


class AcChunkSolution:
    """Stacked warm-path AC solution: row ``i`` is scenario ``i``."""

    __slots__ = ("v", "converged", "iterations", "norms", "skipped")

    def __init__(
        self,
        v: np.ndarray,
        converged: np.ndarray,
        iterations: np.ndarray,
        norms: np.ndarray,
        skipped: np.ndarray,
    ) -> None:
        self.v = v  # (n, n_bus) complex final voltages
        self.converged = converged  # (n,) bool
        self.iterations = iterations  # (n,) Newton iterations per row
        self.norms = norms  # (n,) final max mismatch, p.u.
        self.skipped = skipped  # (n,) rows converged at the warm start

    @property
    def n_scenarios(self) -> int:
        return self.v.shape[0]


class AcKernel:
    """Compiled warm-start AC model for one electrical topology.

    Construction compiles the network once and reuses the memoised
    admittances; the base-case Newton solve and the fast-decoupled
    B'/B'' factorizations are built lazily on first use.  Injections are
    supplied per chunk, so one kernel serves every load level of its
    topology — the same lifecycle as :class:`~repro.powerflow.batch.DcKernel`.

    Holds SuperLU objects, so instances are worker-local and never
    pickled (the worker cache rebuilds them per process).
    """

    def __init__(
        self, net: Network, *, tol: float = 1e-8, max_iter: int = 20
    ) -> None:
        self.net = net
        self.tol = tol
        self.max_iter = max_iter
        self.arr, self.adm = make_admittances(net)
        arr = self.arr
        self.pv = np.flatnonzero(arr.bus_type == int(BusType.PV))
        self.pq = np.flatnonzero(arr.bus_type == int(BusType.PQ))
        self.pvpq = np.concatenate([self.pv, self.pq])
        self._base: PowerFlowResult | None = None
        self._base_v: np.ndarray | None = None
        self._fd_lus = None
        #: Fast-path accounting: rows iterated warm / skipped at start.
        self.n_warm_solves = 0
        self.n_skipped = 0
        self.n_chunks = 0

    # ------------------------------------------------------------------
    # shared one-off state
    # ------------------------------------------------------------------
    def base_result(self) -> PowerFlowResult:
        """The base-case solve every chunk warm-starts from (lazy)."""
        if self._base is None:
            self._base = solve_newton(
                self.net, tol=self.tol, max_iter=self.max_iter
            )
            if self._base.converged:
                self._base_v = np.asarray(
                    self._base.extras["v_complex"], dtype=complex
                )
        return self._base

    @property
    def usable(self) -> bool:
        """Whether the warm path can run (base case converged)."""
        return self.base_result().converged

    def _fd_factors(self):
        """Cached SuperLU factorizations of the reduced B' / B''."""
        if self._fd_lus is None:
            bp, bpp = _series_susceptance_matrices(self.arr, "xb")
            lu_p = sla.splu(bp[np.ix_(self.pvpq, self.pvpq)].tocsc())
            lu_q = (
                sla.splu(bpp[np.ix_(self.pq, self.pq)].tocsc())
                if self.pq.size
                else None
            )
            self._fd_lus = (lu_p, lu_q)
        return self._fd_lus

    # ------------------------------------------------------------------
    # the chunk solve
    # ------------------------------------------------------------------
    def _row_norms(self, mis: np.ndarray) -> np.ndarray:
        """Per-row max mismatch over the P(pv+pq) / Q(pq) equations."""
        parts = np.concatenate(
            [mis[:, self.pvpq].real, mis[:, self.pq].imag], axis=1
        )
        if parts.shape[1] == 0:
            return np.zeros(mis.shape[0])
        return np.max(np.abs(parts), axis=1)

    def _fd_correct(
        self, vm: np.ndarray, va: np.ndarray, sbus: np.ndarray, sweeps: int
    ) -> None:
        """Vectorized fast-decoupled half-iterations across chunk rows.

        Each sweep runs one P half and one Q half for every still-active
        row through a single multi-RHS triangular solve against the
        cached B'/B'' factorizations; rows falling under ``tol`` drop
        out between halves.  Mutates ``vm``/``va`` in place.
        """
        lu_p, lu_q = self._fd_factors()
        pvpq, pq = self.pvpq, self.pq
        ybus = self.adm.ybus
        active = np.arange(vm.shape[0])
        for _ in range(sweeps):
            v = vm[active] * np.exp(1j * va[active])
            mis = v * np.conj((ybus @ v.T).T) - sbus[active]
            still = self._row_norms(mis) >= self.tol
            active = active[still]
            if not active.size:
                return
            v, mis = v[still], mis[still]
            p = mis[:, pvpq].real / np.abs(v[:, pvpq])
            va[np.ix_(active, pvpq)] -= lu_p.solve(
                np.ascontiguousarray(p.T)
            ).T
            if lu_q is None:
                continue
            v = vm[active] * np.exp(1j * va[active])
            mis = v * np.conj((ybus @ v.T).T) - sbus[active]
            still = self._row_norms(mis) >= self.tol
            active = active[still]
            if not active.size:
                return
            v, mis = v[still], mis[still]
            q = mis[:, pq].imag / np.abs(v[:, pq])
            vm[np.ix_(active, pq)] -= lu_q.solve(np.ascontiguousarray(q.T)).T

    def solve_chunk(
        self, sbus: np.ndarray, *, fd_sweeps: int = 2
    ) -> AcChunkSolution:
        """Solve a stacked ``(n, n_bus)`` complex-injection chunk warm.

        Every row starts from the cached base-case voltage; see the
        module docstring for the three solve tiers.  Rows whose Newton
        polish does not converge come back ``converged=False`` — the
        caller degrades those to its scalar recovery ladder.
        """
        base = self.base_result()
        if not base.converged:
            raise RuntimeError(
                "AC kernel base case did not converge; warm path unusable"
            )
        sbus = np.atleast_2d(np.asarray(sbus, dtype=complex))
        n = sbus.shape[0]
        ybus = self.adm.ybus
        v0 = self._base_v
        assert v0 is not None

        v_out = np.tile(v0, (n, 1))
        iterations = np.zeros(n, dtype=int)
        converged = np.zeros(n, dtype=bool)

        # Tier 1: one matvec screens the whole chunk — every row shares
        # the warm-start voltage, so its realised injection is computed
        # once and compared against all scheduled injections at once.
        base_s = v0 * np.conj(ybus @ v0)
        norms = self._row_norms(base_s[np.newaxis, :] - sbus)
        skipped = norms < self.tol
        converged[skipped] = True

        active = np.flatnonzero(~skipped)
        if active.size:
            vm = np.abs(v_out[active])
            va = np.angle(v_out[active])
            # Tier 2: cheap corrector sweeps through the cached LUs.
            if fd_sweeps > 0:
                self._fd_correct(vm, va, sbus[active], fd_sweeps)
            v_warm = vm * np.exp(1j * va)
            # Tier 3: per-row Newton polish to the scalar-path tolerance.
            for j, i in enumerate(active):
                v_i, conv, iters, norm = _newton_inner(
                    ybus,
                    sbus[i],
                    v_warm[j],
                    self.arr.bus_type,
                    self.tol,
                    self.max_iter,
                )
                v_out[i] = v_i
                converged[i] = conv
                iterations[i] = iters
                norms[i] = norm

        self.n_chunks += 1
        self.n_warm_solves += int(active.size)
        self.n_skipped += int(skipped.sum())
        return AcChunkSolution(v_out, converged, iterations, norms, skipped)

    # ------------------------------------------------------------------
    # full per-row result (off the study hot path)
    # ------------------------------------------------------------------
    def finalize_row(
        self,
        v: np.ndarray,
        pd: np.ndarray,
        qd: np.ndarray,
        *,
        converged: bool,
        iterations: int,
        norm: float,
    ) -> PowerFlowResult:
        """Assemble the full :class:`PowerFlowResult` for one chunk row.

        Studies do not call this: their records reduce the whole chunk at
        once (see the module docstring), bit-identical to reducing this
        result.

        ``pd``/``qd`` are the scenario's per-bus load vectors (p.u.):
        generation allocation reads them off the snapshot, so the cached
        topology arrays are rebound to this row's loads — no recompile.
        """
        arr = replace(self.arr, pd=pd, qd=qd)
        return finalize_solution(
            self.net,
            arr,
            self.adm,
            v,
            converged=converged,
            iterations=iterations,
            method="newton",
            max_mismatch_pu=float(norm),
            message=f"converged in {iterations} iterations (warm start)",
        )
