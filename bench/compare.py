"""Compare two source trees on one workload: parent against change, in pairs.

Each seed is one pair. The side that runs first alternates from pair to pair.
Each tree runs its own bench/run_bench.py; a change that claims a gain may
not edit the benchmark, so both sides measure with identical code.

    python3 bench/compare.py --parent ../parent --change . --workload full_em --seeds 101-110

For every end-to-end metric it prints each side's median and quartiles, how
many pairs the change won, and a verdict:

gain        the change won at least 9 of 10 pairs and the medians differ by
            more than the parent's own quartile spread
regression  the change's median is worse than the parent's by more than the
            bound in BENCHMARK.json
unresolved  the parent's quartile spread is wider than the bound, and not
            every change run beats every parent run
same        none of the above
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        "python3", "bench/run_bench.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{tree} seed {seed}: outputs failed their checks\n{proc.stdout.splitlines()[-2][:2000]}")
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, int]:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if wins >= 0.9 * len(parent) and abs(cm - pm) > (p3 - p1):
        return "gain", wins
    if sign * (cm - pm) < -metric["bound"] * abs(pm):
        return "regression", wins
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) > metric["bound"] * abs(pm) and not every_better:
        return "unresolved", wins
    return "same", wins


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent source tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed source tree")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", required=True, help="held-out seed range, e.g. 101-110")
    args = parser.parse_args(argv)

    seconds = BENCHMARK["run_seconds"]
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            runs[side].append(run_once(tree, args.workload, seed, seconds, 0)["metrics"])
            print(f"seed {seed} {side} done", file=sys.stderr)

    print(f"{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for metric in BENCHMARK["end_to_end"]:
        name = metric["name"]
        parent = [m[name]["value"] for m in runs["parent"]]
        change = [m[name]["value"] for m in runs["change"]]
        result, wins = verdict(metric, parent, change)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        print(
            f"{name:16s} {pm:12.6g} [{p1:9.6g}, {p3:9.6g}] {cm:12.6g} [{c1:9.6g}, {c3:9.6g}] "
            f"{wins:3d}/{len(parent):<2d}  {result}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
