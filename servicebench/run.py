"""GridMind service benchmark: one closed-loop client against GridMindService.

Run from the repository root::

    python3 servicebench/run.py --workload study_ac118 --seed 1 --seconds 12 --trace 0

The program under test is imported from ``src/`` next to this directory
and driven only through its public front door,
``repro.service.GridMindService`` (``ask``, ``run_study``, ``watch``),
with a ``ResultStore`` attached and the default 2-worker executor.  The
client sends each request only after the previous reply.  Workloads are
described in ``workloads.py``; all run on ieee118.

A run builds the case, computes the output references (untimed), sets
up (service and executor start plus one warm-up request), runs the timed
window of ``--seconds`` untraced on that service, and checks every
reply.  ``setup_s`` is process start to case built plus that one cold
service start + warm-up.  With ``--trace 1`` it then installs the
per-layer wrappers (``layers.py``), starts a traced service and runs the
window again to report per-layer figures; end-to-end figures come only
from the untraced window.

Standard output carries ``#``-prefixed report lines (host fingerprint,
every metric with its unit and sample count, failures, the traced run's
self-time table) and, as its last line, one JSON object::

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  ``--tiny`` shrinks every request (self-tests);
``--wrong-reference`` corrupts the references, so the checks must fail.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS, median, percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The latency tail is reported at this fixed percentile; every workload
#: is sized to give at least 40 samples, so >= 10 lie beyond it.
TAIL_PERCENTILE = 75

BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics, as
    ``BENCHMARK.json`` lists them (the one list of metric names)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def as_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"the run computed no value for {missing}")
    return {name: {"value": finite(values[name]), "unit": unit} for name, unit in units.items()}


def process_age_s() -> float:
    """Seconds since this process started (from /proc; 0 if unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


def host_fingerprint() -> dict:
    """The host as found; BLAS/OMP thread variables are read, never set."""
    import numpy
    import scipy

    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except Exception:
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def end_to_end(wl, ops, setup_s: float):
    ops_s, n_rate = wl.ops_per_s(ops)
    samples = [s * 1e3 for s in wl.latency_samples(ops)]
    beyond = sum(1 for s in samples if s > percentile(samples, TAIL_PERCENTILE))
    mid, mid_of = wl.median_samples(ops)
    rows = [
        ("setup_s", setup_s, "n=1 cold set-up in this process"),
        ("ops_per_s", ops_s, f"{wl.op_unit}/s over n={n_rate} requests"),
        ("latency_p50_ms", median(mid) * 1e3, f"{mid_of}, n={len(mid)}"),
        (
            "latency_tail_ms",
            percentile(samples, TAIL_PERCENTILE),
            f"p{TAIL_PERCENTILE}, n={len(samples)}, {beyond} beyond"
            + ("" if beyond >= 10 else " (fewer than 10: tail not resolved)"),
        ),
        ("peak_rss_mb", peak_rss_mb(), "parent process"),
    ]
    return rows


def finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


async def run(args) -> dict:
    from repro.instrumentation.metrics import get_metrics, state_delta
    from repro.service import GridMindService, ResultStore

    t_start = time.perf_counter() - process_age_s()
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny, wrong_reference=args.wrong_reference)
    case_build_s = wl.build_case()
    to_case = time.perf_counter() - t_start

    # References come first, while the process is single-threaded (the
    # chat references fork an N-1 pool); they are not part of set-up.
    tick = time.perf_counter()
    wl.compute_references()
    say(f"references computed in {time.perf_counter() - tick:.3f}s (untimed)")

    work = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    svc = None
    try:
        tick = time.perf_counter()
        svc = GridMindService(seed=args.seed, store=ResultStore(work / "untraced"))
        await wl.warm_up(svc, "untraced")
        service_s = time.perf_counter() - tick
        setup_s = to_case + service_s
        say(
            f"setup: process start -> case built {to_case:.3f}s (case build "
            f"{case_build_s:.3f}s); service start + warm-up {service_s:.3f}s"
        )

        ops = await wl.run_window(svc, args.seconds)
        await wl.post_checks(svc, ops)
        rows = end_to_end(wl, ops, setup_s)
        units = metric_units("end_to_end")
        for name, value, note in rows:
            say(f"metric {name} = {value:.6g} {units[name]} ({note})")
        for name, value, unit, n in wl.extra_report(ops):
            say(f"metric {name} = {value:.6g} {unit} (n={n})")
        all_ops = list(ops)
        metrics = as_metrics({name: value for name, value, _ in rows}, units)

        if args.trace:
            untraced_ops_s = wl.ops_per_s(ops)[0]
            await svc.aclose()
            uninstall = layers.install()
            try:
                svc = GridMindService(
                    seed=args.seed, store=ResultStore(work / "traced"), trace=True
                )
                await wl.warm_up(svc, "traced")
                collector = layers.SpanCollector(svc.tracer)
                collector.discard()
                before = get_metrics().state()
                traced = await wl.run_window(svc, args.seconds, after_op=collector.after_op)
                counters = state_delta(get_metrics().state(), before)
                await wl.post_checks(svc, traced)
                await svc.aclose()
            finally:
                uninstall()
            all_ops.extend(traced)
            values, table = layers.layer_metrics(
                collector,
                counters,
                case_build_s=case_build_s,
                n_workers=svc.executor.max_workers,
                n_alerts=sum(op.n_alerts for op in traced),
                untraced_ops_per_s=untraced_ops_s,
                traced_ops_per_s=wl.ops_per_s(traced)[0],
            )
            say(f"traced window: {len(traced)} ops, {len(collector.spans)} spans")
            say("self time by layer/process and span (traced window):")
            for layer, name, own, n in table:
                say(f"  {layer:26s} {name:28s} {own:10.4f}s  n={n}")
            units = metric_units("per_layer")
            metrics = as_metrics(values, units)
            for name, unit in units.items():
                say(f"layer {name} = {values[name]:.6g} {unit}")
    finally:
        if svc is not None:
            await svc.aclose()
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in all_ops if not op.ok]
    say(
        f"metric failed_ratio = {len(failed) / max(1, len(all_ops)):.6g} ratio "
        f"({len(failed)} of {len(all_ops)} operations)"
    )
    for op in failed[:20]:
        say(f"failure {op.label}: {'; '.join(op.errors)[:400]}")
    return {
        "correct": not failed,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every request")
    parser.add_argument(
        "--wrong-reference", action="store_true", help="corrupt the references"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servicebench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"servicebench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    say(f"servicebench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    say("host " + json.dumps(host_fingerprint(), sort_keys=True))
    result = asyncio.run(run(args))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
