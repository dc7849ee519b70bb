#!/usr/bin/env python
"""Regenerate, or check, the calibrated synthetic case snapshots.

The synthetic IEEE 30/57/118/300 equivalents are deterministic but
expensive to calibrate: live generation takes about 1 s (ieee30), 9 s
(ieee118) and 95-110 s (ieee57, ieee300) on a 2-core host.  This script
bakes them into lossless ``src/repro/grid/cases/data/*.json`` records,
which ``load_case`` reads in a few milliseconds.  Run it after any change
to ``repro.grid.cases.synthetic``::

    python scripts/generate_cases.py                # rewrite every snapshot
    python scripts/generate_cases.py ieee118        # rewrite one
    python scripts/generate_cases.py --check        # diff all, exit 1 if stale

``--check`` regenerates in memory and compares with the shipped file:
order, names, enums and flags exactly, floats within the registry's
``SNAPSHOT_REL_TOL``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.grid.cases.registry import (  # noqa: E402
    SNAPSHOT_CASES,
    SNAPSHOT_REL_TOL,
    generate_synthetic_case,
    snapshot_path,
)
from repro.grid.io import load_json, record_differences, save_json  # noqa: E402

#: Differences printed per stale case before the count takes over.
SHOW_DIFFS = 10


def _check(name: str, net) -> bool:
    path = snapshot_path(name)
    if not path.exists():
        print(f"{name}: STALE: {path} is missing")
        return False
    diffs = record_differences(load_json(path), net, rel_tol=SNAPSHOT_REL_TOL)
    if not diffs:
        print(f"{name}: ok ({path.stat().st_size} bytes)")
        return True
    print(f"{name}: STALE: {len(diffs)} difference(s) between {path} and live generation")
    for line in diffs[:SHOW_DIFFS]:
        print(f"  {line}")
    return False


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "cases", nargs="*", metavar="case",
        help=f"cases to process (default: all of {', '.join(SNAPSHOT_CASES)})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare shipped snapshots with live generation instead of writing",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.cases) - set(SNAPSHOT_CASES))
    if unknown:
        parser.error(f"no snapshot for {', '.join(unknown)}; choose from {SNAPSHOT_CASES}")

    ok = True
    for name in args.cases or SNAPSHOT_CASES:
        t0 = time.perf_counter()
        net = generate_synthetic_case(name)
        print(f"{name}: generated in {time.perf_counter() - t0:.1f}s ({net.summary()})")
        if args.check:
            ok = _check(name, net) and ok
        else:
            path = snapshot_path(name)
            path.parent.mkdir(exist_ok=True)
            save_json(net, path)
            print(f"{name}: wrote {path} ({path.stat().st_size} bytes)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
