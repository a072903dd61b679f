"""Record the final utilities that run_bench.py checks training workloads against.

Runs one untimed cycle of every training workload for each seed in
[first, last] and writes bench/reference.json. Run it from the root of a
source tree, and only in a change that alters a training workload:

    python3 bench/make_reference.py 0 19
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys

import run_bench as rb


def record(wl: rb.TrainWorkload, seed: int) -> dict[str, float]:
    work = rb.ROOT / ".bench_work" / f"reference-{wl.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        speedo = rb.Speedometer()
        runner = rb.TrainRunner(wl, seed, work, reference=None)
        runner.setup(speedo)
        errors = [r.error for r in runner.cycle(speedo, None) if r.error]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if errors:
        raise SystemExit(f"{wl.name} seed {seed}: {errors}")
    return dict(runner.final_utility)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    rb.bootstrap()
    import numpy as np

    table = {}
    for wl in rb.WORKLOADS.values():
        if isinstance(wl, rb.TrainWorkload):
            table[wl.name] = {str(s): record(wl, s) for s in range(args.first, args.last + 1)}
            print(f"{wl.name}: seeds {args.first}..{args.last} recorded", file=sys.stderr)
    doc = {
        "about": "last-round system_utility per training workload, seed and strategy (see run_bench.py)",
        "environment": {"python": platform.python_version(), "numpy": np.__version__},
        "final_utility": table,
    }
    rb.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
