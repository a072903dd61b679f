"""Experiment runner: dataset generation, federated runs, plots, comparisons.

Subcommands
-----------
gen-data   synthesize per-BS channel datasets for a scenario variant
run        execute one federated strategy end-to-end (CSV + summary + checkpoints)
plot       render utility-vs-round and pi-vs-round SVG charts from metrics CSVs
compare    tabulate final utilities of several runs and relative improvements

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from isacfl.datagen import (
    MIN_SAMPLES,
    SCENARIO_VARIANTS,
    DatasetFormatError,
    build_scenario,
    generate_dataset,
    read_dataset,
    write_dataset,
)
from isacfl.fl import STRATEGIES, FederatedSimulation, NumericalError, RoundMetrics, RunConfig
from isacfl.nn import PowerConstraintError
from isacfl.svgplot import line_chart

CSV_FIELDS = ("round", "bs", "pi", "loss", "comm_rate", "radar_rate", "utility", "system_utility")

# gen-data's full-scale dataset shape; RunConfig holds the run settings.
FULL_SCALE = {"n_t": 8, "n_r": 8, "samples": 20000}

# Laptop-sized preset: same three-cell scenario, smaller arrays and budget,
# tuned so the strategies separate within 30 rounds. It holds only the values
# that differ from FULL_SCALE and RunConfig.
DESK_PRESET = {
    "n_t": 4,
    "n_r": 4,
    "samples": 2000,
    "rounds": 30,
    "hidden": 32,
    "lr": 1e-3,
}

UTILITY_SUBTITLE = "raw (unnormalized) utilities; absolute values depend on the synthetic channel model"


class ConfigError(ValueError):
    """Bad command-line, preset, or config-file input."""


def _fmt(v: float) -> str:
    return f"{v:.17g}"


# ---------------------------------------------------------------------------
# configuration plumbing


def read_config_file(path: Path) -> dict[str, str]:
    """Plain-text ``key = value`` pairs; '#' starts a comment."""
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key.replace("-", "_")] = value
    return out


# Run settings: every scalar RunConfig field (the type of its default parses
# flag and config-file text; RunConfig holds the defaults), plus the three the
# CLI alone uses.
_RUN_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(RunConfig) if isinstance(f.default, (str, int, float))}
_CLI_SETTINGS = {"checkpoint_every": (int, 10), "dataset": (str, None), "out": (str, None)}
_CASTERS = {**_RUN_FIELDS, **{key: caster for key, (caster, _) in _CLI_SETTINGS.items()}}


def _merge_run_settings(args) -> dict:
    """RunConfig defaults < desk preset < config file < explicit flags."""
    settings = {key: default for key, (_, default) in _CLI_SETTINGS.items()}
    if args.preset == "desk":
        settings.update((key, value) for key, value in DESK_PRESET.items() if key in _RUN_FIELDS)
    if args.config is not None:
        for key, raw in read_config_file(Path(args.config)).items():
            if key not in _CASTERS:
                raise ConfigError(f"unknown config key {key!r}")
            caster = _CASTERS[key]
            try:
                settings[key] = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {caster.__name__}") from exc
    for key in _CASTERS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["dataset"] is None:
        raise ConfigError("no dataset given (flag --dataset or config key 'dataset')")
    if settings["out"] is None:
        raise ConfigError("no output directory given (flag --out or config key 'out')")
    if settings["checkpoint_every"] < 0:
        raise ConfigError(f"checkpoint_every must be >= 0, got {settings['checkpoint_every']}")
    return settings


def _run_config(settings: dict) -> RunConfig:
    try:
        return RunConfig(**{key: settings[key] for key in _RUN_FIELDS if key in settings})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# metrics CSV + summary


def _csv_line(row: dict) -> str:
    """One metrics.csv row, for fresh and resumed files alike."""
    return ",".join([str(row["round"]), str(row["bs"])] + [_fmt(row[k]) for k in CSV_FIELDS[2:]]) + "\n"


def append_round_csv(fh, metrics: RoundMetrics) -> None:
    for m in range(len(metrics.pi)):
        row = {
            "round": metrics.round_index,
            "bs": m,
            "pi": metrics.pi[m],
            "loss": metrics.loss[m],
            "comm_rate": metrics.comm_rate[m],
            "radar_rate": metrics.radar_rate[m],
            "utility": metrics.utility[m],
            "system_utility": metrics.system_utility,
        }
        fh.write(_csv_line(row))
    fh.flush()


def _start_csv(csv_path: Path, kept_rows: list[dict]):
    """Replace ``csv_path`` with the header and ``kept_rows``; return it open for appending.

    The rows go to a temp file that is renamed over the old one, so a crash
    leaves either the old file or the new one, never a truncated one.
    """
    tmp = csv_path.with_name(csv_path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for row in kept_rows:
            fh.write(_csv_line(row))
    os.replace(tmp, csv_path)
    return open(csv_path, "a", newline="")


def read_metrics_csv(path) -> list[dict]:
    """Rows of one metrics.csv as dicts with typed values."""
    path = Path(path)
    if not path.is_file():
        raise DatasetFormatError(f"metrics file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_FIELDS:
            raise DatasetFormatError(f"{path}: unexpected CSV schema {reader.fieldnames}")
        rows = []
        for raw in reader:
            rows.append(
                {
                    "round": int(raw["round"]),
                    "bs": int(raw["bs"]),
                    **{k: float(raw[k]) for k in CSV_FIELDS[2:]},
                }
            )
    if not rows:
        raise DatasetFormatError(f"{path}: no data rows")
    return rows


def summarize(rows: list[dict]) -> dict:
    """Final/best utilities and pi spreads, derived purely from CSV rows."""
    rounds = sorted({r["round"] for r in rows})
    by_round: dict[int, list[dict]] = {}
    for row in rows:
        by_round.setdefault(row["round"], []).append(row)
    for t in rounds:
        by_round[t].sort(key=lambda r: r["bs"])
    last = rounds[-1]
    spreads = {t: max(r["pi"] for r in by_round[t]) - min(r["pi"] for r in by_round[t]) for t in rounds}
    best_round = max(rounds, key=lambda t: by_round[t][0]["system_utility"])
    return {
        "rounds": len(rounds),
        "n_bs": len(by_round[last]),
        "final": {
            "round": last,
            "system_utility": by_round[last][0]["system_utility"],
            "utility": [r["utility"] for r in by_round[last]],
            "comm_rate": [r["comm_rate"] for r in by_round[last]],
            "radar_rate": [r["radar_rate"] for r in by_round[last]],
            "pi": [r["pi"] for r in by_round[last]],
            "pi_spread": spreads[last],
        },
        "best": {
            "round": best_round,
            "system_utility": by_round[best_round][0]["system_utility"],
        },
        "max_pi_spread": max(spreads.values()),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    preset = DESK_PRESET if args.preset == "desk" else FULL_SCALE
    n_t, n_r, samples = (preset[key] if getattr(args, key) is None else getattr(args, key) for key in ("n_t", "n_r", "samples"))
    if samples < MIN_SAMPLES:
        raise ConfigError(f"--samples must be >= {MIN_SAMPLES}, got {samples}")
    try:
        scn = build_scenario(args.scenario, n_t=n_t, n_r=n_r)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(args.out) if args.out else Path("data") / args.scenario / str(args.seed)
    started = time.perf_counter()
    datasets = generate_dataset(scn, samples, args.seed)
    paths = write_dataset(out, datasets)
    print(f"wrote {len(paths)} files under {out} ({samples} samples/BS, {time.perf_counter() - started:.1f}s)")
    return 0


def _cmd_run(args) -> int:
    settings = _merge_run_settings(args)
    run_cfg = _run_config(settings)
    dataset_dir = Path(settings["dataset"])
    if not dataset_dir.is_dir() or not list(dataset_dir.glob("bs*.ds")):
        raise DatasetFormatError(
            f"dataset not found under {dataset_dir}; generate it first, e.g.:\n"
            f"  isacfl gen-data --scenario heterogeneous --seed 1 --out {dataset_dir}"
        )
    sim = FederatedSimulation(read_dataset(dataset_dir), run_cfg)

    out_dir = Path(settings["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "metrics.csv"

    kept_rows: list[dict] = []
    if args.resume:
        latest = FederatedSimulation.latest_checkpoint(out_dir)
        if latest is not None:
            sim.restore_checkpoint(latest)
            if csv_path.is_file():
                kept_rows = [r for r in read_metrics_csv(csv_path) if r["round"] < sim.round_index]
            print(f"resuming from {latest} (next round {sim.round_index})")
    elif csv_path.is_file() and not args.force:
        raise ConfigError(f"{csv_path} already exists; pass --resume to continue or --force to start over")

    if args.force and not args.resume:
        for stale in out_dir.glob("round_*"):
            shutil.rmtree(stale)

    checkpoint_every = settings["checkpoint_every"]
    # metrics.csv is (re)written only once a round has succeeded: a run that
    # fails in its first round leaves no metrics.csv that a rerun would refuse.
    fh = None
    started = time.perf_counter()
    try:
        while sim.round_index < run_cfg.rounds:
            metrics = sim.run_round()
            if fh is None:
                fh = _start_csv(csv_path, kept_rows)
            append_round_csv(fh, metrics)
            is_last = sim.round_index >= run_cfg.rounds
            if is_last or (checkpoint_every > 0 and sim.round_index % checkpoint_every == 0):
                fresh = sim.save_checkpoint(out_dir)
                if not args.keep_checkpoints:
                    for stale in out_dir.glob("round_*"):
                        if stale != fresh:
                            shutil.rmtree(stale)
            if not args.quiet:
                print(
                    f"round {metrics.round_index:3d}  system_utility={metrics.system_utility:.4f}  "
                    f"pi={['%.3f' % p for p in metrics.pi]}  ({metrics.duration_sec:.2f}s)"
                )
    finally:
        if fh is not None:
            fh.close()
    if fh is None:  # resumed with no round left: still drop rows past the checkpoint
        _start_csv(csv_path, kept_rows).close()

    rows = read_metrics_csv(csv_path)
    summary = summarize(rows)
    summary["strategy"] = run_cfg.strategy
    summary["seed"] = run_cfg.seed
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"done: {summary['rounds']} rounds, final system utility {summary['final']['system_utility']:.4f} "
        f"({time.perf_counter() - started:.1f}s) -> {csv_path}"
    )
    return 0


def _series_labels(paths: list[str], labels: str | None) -> list[str]:
    if labels:
        out = [v.strip() for v in labels.split(",")]
        if len(out) != len(paths):
            raise ConfigError(f"--labels has {len(out)} entries for {len(paths)} files")
        return out
    out = []
    for p in paths:
        parent = Path(p).resolve().parent.name
        out.append(parent or Path(p).stem)
    return out


def _cmd_plot(args) -> int:
    labels = _series_labels(args.csv, args.labels)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    utility_series = []
    pi_series = []
    for label, path in zip(labels, args.csv):
        rows = read_metrics_csv(path)
        rounds = sorted({r["round"] for r in rows})
        sys_by_round = {}
        for r in rows:
            sys_by_round[r["round"]] = r["system_utility"]
        utility_series.append((label, [float(t) for t in rounds], [sys_by_round[t] for t in rounds]))
        bss = sorted({r["bs"] for r in rows})
        for m in bss:
            xs = [float(r["round"]) for r in rows if r["bs"] == m]
            ys = [r["pi"] for r in rows if r["bs"] == m]
            pi_series.append((f"{label} bs{m}", xs, ys))

    utility_svg = line_chart(
        utility_series,
        title="Multi-objective utility per round",
        subtitle=UTILITY_SUBTITLE,
        xlabel="communication round",
        ylabel="system utility (bits)",
    )
    pi_svg = line_chart(
        pi_series,
        title="Aggregation weight per round",
        subtitle="posterior weight of the global model, per BS",
        xlabel="communication round",
        ylabel="pi",
    )
    (out_dir / "utility.svg").write_text(utility_svg)
    (out_dir / "pi.svg").write_text(pi_svg)
    print(f"wrote {out_dir / 'utility.svg'} and {out_dir / 'pi.svg'}")
    return 0


def _cmd_compare(args) -> int:
    labels = _series_labels(args.csv, args.labels)
    finals = []
    for label, path in zip(labels, args.csv):
        summary = summarize(read_metrics_csv(path))
        finals.append((label, summary["final"]["system_utility"], summary["best"]["system_utility"]))
    finals.sort(key=lambda item: -item[1])
    best_label, best_final, _ = finals[0]
    lines = [f"{'run':24s} {'final_utility':>14s} {'best_utility':>13s} {'best_vs_this_%':>15s}"]
    for label, final, best in finals:
        gain = (best_final / final - 1.0) * 100.0 if final > 0 else float("inf")
        lines.append(f"{label:24s} {final:14.4f} {best:13.4f} {gain:15.2f}")
    lines.append(f"best: {best_label}")
    text = "\n".join(lines)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isacfl", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="generate synthetic channel datasets")
    gen.add_argument("--scenario", required=True, choices=SCENARIO_VARIANTS, help="scenario variant")
    gen.add_argument("--seed", type=int, default=0)
    for key, what in (("samples", "samples per BS"), ("n_t", "transmit antennas"), ("n_r", "receive antennas")):
        helptext = f"{what} (default {FULL_SCALE[key]}, desk preset {DESK_PRESET[key]})"
        gen.add_argument("--" + key.replace("_", "-"), dest=key, type=int, default=None, help=helptext)
    gen.add_argument("--preset", choices=("desk",), default=None)
    gen.add_argument("--out", default=None, help="output directory (default data/<scenario>/<seed>)")
    gen.set_defaults(func=_cmd_gen_data)

    run = sub.add_parser("run", help="run one federated experiment")
    run.add_argument("--dataset", default=None, help="directory holding bs*.ds files")
    run.add_argument("--out", default=None, help="output directory for metrics, summary, checkpoints")
    run.add_argument("--config", default=None, help="key = value file; flags override it")
    run.add_argument("--preset", choices=("desk",), default=None)
    for key, caster in _RUN_FIELDS.items():
        choices = tuple(STRATEGIES) if key == "strategy" else None
        run.add_argument("--" + key.replace("_", "-"), dest=key, type=caster, choices=choices, default=None)
    run.add_argument("--checkpoint-every", dest="checkpoint_every", type=int, default=None, help="0 = final round only")
    run.add_argument("--resume", action="store_true", help="continue from the latest checkpoint in --out")
    run.add_argument("--force", action="store_true", help="overwrite existing metrics in --out")
    run.add_argument("--keep-checkpoints", action="store_true", help="keep every checkpoint directory")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=_cmd_run)

    plot = sub.add_parser("plot", help="render SVG charts from metrics CSVs")
    plot.add_argument("csv", nargs="+", help="one or more metrics.csv files (overlaid as series)")
    plot.add_argument("--labels", default=None, help="comma-separated series labels")
    plot.add_argument("--out-dir", dest="out_dir", default=".", help="where to write utility.svg / pi.svg")
    plot.set_defaults(func=_cmd_plot)

    cmp_ = sub.add_parser("compare", help="final-utility table across runs")
    cmp_.add_argument("csv", nargs="+")
    cmp_.add_argument("--labels", default=None)
    cmp_.add_argument("--out", default=None, help="also write the table to this file")
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A numpy overflow, invalid operation or division by zero is a
        # numerical failure (exit 4), not a warning; underflow stays silent.
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, PowerConstraintError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
