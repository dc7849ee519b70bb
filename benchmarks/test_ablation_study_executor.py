"""E12 — Ablation: shared-executor study throughput vs per-run pools.

The service layer routes every batch study through one long-lived
:class:`~repro.service.executor.StudyExecutor` instead of letting
``BatchStudyRunner(n_jobs>1)`` open an executor scoped to each
``run()``.  This benchmark submits a back-to-back sequence of studies
both ways, checks the numbers are identical, and reports how much of the
per-run pool cost (worker fork + import + base-network shipping) the
shared pool amortises.  It also asserts the lifecycle property the
acceptance criteria name: consecutive studies reuse the same pool and
workers.

Each mode runs ``REPEATS`` times, the mode order alternating between
repeats, and the speedup compares the per-mode minimum walls: one pair
of sub-second sequences reads whatever the scheduler did at that moment.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import emit, fmt_row

from repro.grid.cases import load_case
from repro.scenarios import BatchStudyRunner, monte_carlo_ensemble
from repro.service import StudyExecutor

CASE = "ieee57"
N_STUDIES = 4
N_SCENARIOS = 24
# Fixed at 2 (not cpu-scaled): the ablation compares pool *lifecycles* —
# N spawned pools vs one persistent pool — so both paths must actually
# create pools even on a single-core runner.
JOBS = 2
REPEATS = 5


def _studies(net):
    # Distinct seeds: each study is a different ensemble, like a session
    # asking four different Monte Carlo questions in a row.
    return [
        monte_carlo_ensemble(n=N_SCENARIOS, sigma=0.05, seed=100 + i)
        for i in range(N_STUDIES)
    ]


def _per_run(net, ensembles):
    return [
        BatchStudyRunner(analysis="powerflow", n_jobs=JOBS).run(net, scns)
        for scns in ensembles
    ], None


def _shared(net, ensembles):
    with StudyExecutor(max_workers=JOBS) as executor:
        studies = [
            BatchStudyRunner(analysis="powerflow", executor=executor).run(net, scns)
            for scns in ensembles
        ]
        return studies, executor.stats()


def _run_all():
    net = load_case(CASE)
    ensembles = _studies(net)
    modes = (("per_run", _per_run), ("shared", _shared))

    runs: dict[str, list] = {"per_run": [], "shared": []}
    for repeat in range(REPEATS):
        for mode, run in modes[repeat % 2:] + modes[: repeat % 2]:
            tick = time.perf_counter()
            studies, stats = run(net, ensembles)
            runs[mode].append((time.perf_counter() - tick, studies, stats))
    return runs


def test_ablation_study_executor(benchmark):
    runs = benchmark.pedantic(_run_all, rounds=1, iterations=1)

    # Identical numbers on both paths, study by study, in every repeat.
    reference = [s.aggregate().to_dict() for s in runs["per_run"][0][1]]
    for _wall, studies, _stats in runs["per_run"] + runs["shared"]:
        assert [s.aggregate().to_dict() for s in studies] == reference

    # Lifecycle: N studies, one pool — the whole point of the executor.
    for _wall, _studies, stats in runs["shared"]:
        assert stats["n_studies"] == N_STUDIES
        assert stats["pools_started"] == 1
        assert stats["n_worker_pids"] <= JOBS

    per_run_s = min(wall for wall, _s, _st in runs["per_run"])
    shared_s, _studies, stats = min(runs["shared"], key=lambda r: r[0])
    speedup = per_run_s / max(shared_s, 1e-9)
    cores = os.cpu_count() or 1
    if cores > 1 and JOBS > 1 and not os.environ.get("CI"):
        # Dedicated multi-core machines must see the amortisation win;
        # noisy shared runners still record the table.
        assert speedup > 1.0, (
            f"shared executor slower than per-run pools "
            f"({shared_s:.2f}s vs {per_run_s:.2f}s)"
        )

    widths = [34, -9, -12, -14]
    lines = [
        fmt_row(["Dispatch", "studies", "time (s)", "s/study"], widths),
        "-" * 73,
        fmt_row(
            [
                f"per-run pools ({JOBS} workers)",
                N_STUDIES,
                round(per_run_s, 2),
                round(per_run_s / N_STUDIES, 2),
            ],
            widths,
        ),
        fmt_row(
            [
                f"shared StudyExecutor ({JOBS} workers)",
                N_STUDIES,
                round(shared_s, 2),
                round(shared_s / N_STUDIES, 2),
            ],
            widths,
        ),
        "",
        f"speedup {speedup:.2f}x | executor stats: pools_started="
        f"{stats['pools_started']}, n_chunks={stats['n_chunks']}, "
        f"worker_pids={stats['n_worker_pids']} | "
        f"{CASE}, {N_SCENARIOS} scenarios/study, powerflow analysis; "
        f"min of {REPEATS} alternating repeats per mode",
    ]
    emit(
        "ablation_study_executor",
        "E12 — Shared-executor study throughput vs per-run pools",
        lines,
    )
