"""End-to-end CLI behavior: subcommands, config precedence, exit codes."""

import json
import shutil

import numpy as np
import pytest

from isacfl import cli, fl
from isacfl.cli import main, read_metrics_csv, summarize
from isacfl.datagen import generate_dataset, build_scenario, write_dataset
from isacfl.fl import RunConfig
from isacfl.nn import AdamState, NetConfig, param_count, save_adam
from isacfl.svgplot import line_chart
from test_container import rewrite_header


@pytest.fixture(scope="module")
def toy_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    rc = main(
        [
            "gen-data",
            "--scenario",
            "heterogeneous",
            "--seed",
            "4",
            "--samples",
            "80",
            "--n-t",
            "3",
            "--n-r",
            "3",
            "--out",
            str(root / "toy"),
        ]
    )
    assert rc == 0
    return root / "toy"


def run_toy(toy_dataset, out_dir, *extra):
    args = [
        "run",
        "--dataset",
        str(toy_dataset),
        "--out",
        str(out_dir),
        "--rounds",
        "2",
        "--local-epochs",
        "1",
        "--batch-size",
        "16",
        "--hidden",
        "6",
        "--seed",
        "4",
        "--quiet",
        *extra,
    ]
    return main(args)


class TestGenData:
    def test_files_written(self, toy_dataset):
        names = sorted(p.name for p in toy_dataset.glob("bs*.ds"))
        assert names == ["bs0.ds", "bs1.ds", "bs2.ds"]

    def test_bit_identical_regeneration(self, toy_dataset, tmp_path):
        rc = main(
            [
                "gen-data", "--scenario", "heterogeneous", "--seed", "4", "--samples", "80",
                "--n-t", "3", "--n-r", "3", "--out", str(tmp_path / "again"),
            ]
        )
        assert rc == 0
        for name in ("bs0.ds", "bs1.ds", "bs2.ds"):
            assert (tmp_path / "again" / name).read_bytes() == (toy_dataset / name).read_bytes()

    def test_invalid_variant_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--scenario", "banana"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--samples", "5"], ["--samples", "-3"], ["--n-t", "0"], ["--n-r", "0"]],
        ids=["samples-5", "samples-negative", "n-t-0", "n-r-0"],
    )
    def test_out_of_range_setting_is_config_error(self, tmp_path, capsys, flags):
        argv = ["gen-data", "--scenario", "heterogeneous", "--samples", "20", "--out", str(tmp_path / "d"), *flags]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_help_lists_all_variants(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for variant in (
            "homogeneous",
            "heterogeneous",
            "equal_ue_homogeneous",
            "equal_ue_heterogeneous",
        ):
            assert variant in out


class TestRun:
    def test_csv_schema_and_rows(self, toy_dataset, tmp_path):
        assert run_toy(toy_dataset, tmp_path / "r") == 0
        rows = read_metrics_csv(tmp_path / "r" / "metrics.csv")
        assert len(rows) == 2 * 3  # rounds x cells
        assert all(np.isfinite(row["utility"]) for row in rows)
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        assert summary["rounds"] == 2 and summary["n_bs"] == 3

    def test_local_only_pi_column_zero(self, toy_dataset, tmp_path):
        assert run_toy(toy_dataset, tmp_path / "r", "--strategy", "local_only") == 0
        rows = read_metrics_csv(tmp_path / "r" / "metrics.csv")
        assert all(row["pi"] == 0.0 for row in rows)

    def test_missing_dataset_names_generator(self, tmp_path, capsys):
        rc = main(["run", "--dataset", str(tmp_path / "absent"), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "gen-data" in err

    def test_existing_output_needs_flag(self, toy_dataset, tmp_path, capsys):
        assert run_toy(toy_dataset, tmp_path / "r") == 0
        assert run_toy(toy_dataset, tmp_path / "r") == 2
        assert run_toy(toy_dataset, tmp_path / "r", "--force") == 0

    def test_summary_matches_csv_rederivation(self, toy_dataset, tmp_path):
        assert run_toy(toy_dataset, tmp_path / "r") == 0
        rows = read_metrics_csv(tmp_path / "r" / "metrics.csv")
        summary = json.loads((tmp_path / "r" / "summary.json").read_text())
        re_derived = summarize(rows)
        assert abs(summary["final"]["system_utility"] - re_derived["final"]["system_utility"]) < 1e-9
        assert abs(summary["best"]["system_utility"] - re_derived["best"]["system_utility"]) < 1e-9
        assert abs(summary["max_pi_spread"] - re_derived["max_pi_spread"]) < 1e-9

    def test_resume_matches_uninterrupted(self, toy_dataset, tmp_path):
        assert run_toy(toy_dataset, tmp_path / "full", "--rounds", "4", "--checkpoint-every", "1") == 0
        assert run_toy(toy_dataset, tmp_path / "part", "--rounds", "2", "--checkpoint-every", "1") == 0
        assert run_toy(toy_dataset, tmp_path / "part", "--rounds", "4", "--checkpoint-every", "1", "--resume") == 0
        assert (tmp_path / "full" / "metrics.csv").read_bytes() == (tmp_path / "part" / "metrics.csv").read_bytes()

    def test_first_round_failure_leaves_no_csv(self, toy_dataset, tmp_path, capsys):
        small = tmp_path / "small"
        write_dataset(small, generate_dataset(build_scenario("heterogeneous", n_t=3, n_r=3), 40, seed=4))
        out = tmp_path / "r"
        assert run_toy(small, out) == 3  # 40 samples per BS < eval_batch (64)
        assert "eval_batch" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()
        assert run_toy(toy_dataset, out) == 0

    def test_overflow_in_training_is_numerical_failure(self, toy_dataset, tmp_path, capsys):
        out = tmp_path / "r"
        assert run_toy(toy_dataset, out, "--strategy", "pfedme", "--lambda-prox", "1e308") == 4
        assert "numerical failure: overflow" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_crash_while_checkpointing_resumes_from_previous(self, toy_dataset, tmp_path, monkeypatch):
        full, part = tmp_path / "full", tmp_path / "part"
        assert run_toy(toy_dataset, full, "--rounds", "4", "--checkpoint-every", "1") == 0

        real_save_adam = fl.save_adam

        def fail_in_round_2(path, state, lr):
            if path.parent.name.startswith("round_2"):
                raise OSError("device full")
            real_save_adam(path, state, lr)

        monkeypatch.setattr(fl, "save_adam", fail_in_round_2)
        assert run_toy(toy_dataset, part, "--rounds", "4", "--checkpoint-every", "1") == 3
        monkeypatch.undo()
        assert (part / "round_2.partial").is_dir() and not (part / "round_2").exists()
        assert run_toy(toy_dataset, part, "--rounds", "4", "--checkpoint-every", "1", "--resume") == 0
        assert (full / "metrics.csv").read_bytes() == (part / "metrics.csv").read_bytes()
        assert sorted(p.name for p in part.glob("round_*")) == ["round_3"]

    def test_crash_while_rewriting_csv_keeps_old_rows(self, toy_dataset, tmp_path, monkeypatch):
        out = tmp_path / "r"
        assert run_toy(toy_dataset, out, "--checkpoint-every", "1") == 0
        before = (out / "metrics.csv").read_bytes()

        def killed(value):
            raise OSError("killed while writing")

        monkeypatch.setattr(cli, "_fmt", killed)
        assert run_toy(toy_dataset, out, "--rounds", "4", "--resume") == 3
        monkeypatch.undo()
        assert (out / "metrics.csv").read_bytes() == before
        assert run_toy(toy_dataset, out, "--rounds", "4", "--resume") == 0
        assert len(read_metrics_csv(out / "metrics.csv")) == 4 * 3

    def test_config_file_and_flag_precedence(self, toy_dataset, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "strategy = fixed_pfl\n"
            "pi_fixed = 0.25   # kept\n"
            "rounds = 2\n"
            "local_epochs = 1\n"
            "batch_size = 16\n"
            "hidden = 6\n"
            "seed = 4\n"
            f"dataset = {toy_dataset}\n"
            f"out = {tmp_path / 'cfg_run'}\n"
        )
        # flag overrides the config's strategy; pi_fixed comes from the file
        rc = main(["run", "--config", str(cfg), "--strategy", "fixed_pfl", "--quiet"])
        assert rc == 0
        rows = read_metrics_csv(tmp_path / "cfg_run" / "metrics.csv")
        assert all(row["pi"] == 0.25 for row in rows)

    def test_bad_config_key(self, toy_dataset, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("flux_capacitor = 1\n")
        rc = main(
            ["run", "--config", str(cfg), "--dataset", str(toy_dataset), "--out", str(tmp_path / "x"), "--quiet"]
        )
        assert rc == 2


class TestBadSettings:
    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--rounds", "0"], ""),
            (["--lr", "-1"], ""),
            (["--pi-fixed", "1.5"], ""),
            (["--kappa", "0"], ""),
            (["--strategy", "fedavg", "--kappa", "-1"], ""),
            (["--eval-batch", "0"], ""),
            (["--hidden", "0"], ""),
            (["--pi-eval-cap", "0"], ""),
            (["--pi-eval-cap", "-5"], ""),
            (["--checkpoint-every", "-3"], ""),
            ([], "rounds = 0\n"),
            ([], "strategy = sgd\n"),
            ([], "threads = 2\n"),
            ([], "checkpoint_every = -1\n"),
        ],
        ids=[
            "flag-rounds-0",
            "flag-lr-negative",
            "flag-pi-fixed",
            "flag-kappa-0",
            "flag-kappa-negative-fedavg",
            "flag-eval-batch-0",
            "flag-hidden-0",
            "flag-pi-eval-cap-0",
            "flag-pi-eval-cap-negative",
            "flag-checkpoint-every-negative",
            "config-rounds-0",
            "config-strategy",
            "config-threads",
            "config-checkpoint-every-negative",
        ],
    )
    def test_out_of_range_setting_is_config_error(self, toy_dataset, tmp_path, capsys, flags, config):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"dataset = {toy_dataset}\nout = {tmp_path / 'r'}\nhidden = 6\n{config}")
        assert main(["run", "--config", str(cfg), "--quiet", *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("flag", [["--strategy", "sgd"], ["--threads", "2"]])
    def test_unknown_flag_value_is_usage_error(self, toy_dataset, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            run_toy(toy_dataset, tmp_path / "r", *flag)
        assert exc.value.code == 2


def _truncate_to_five_bytes(path):
    path.write_bytes(path.read_bytes()[:5])


def _huge_header_length(path):
    rewrite_header(path, lambda h: None, length=1 << 40)


def _five_moment_values(path):
    save_adam(path, AdamState.fresh(5), RunConfig().lr)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "name, damage, message",
        [
            ("bs0.opt.bin", _truncate_to_five_bytes, ""),
            ("bs0.opt.bin", _huge_header_length, ""),
            ("bs0.opt.bin", lambda p: rewrite_header(p, lambda h: h.pop("step")), ""),
            # the toy run's network is n_t 3, k_max 4, hidden 6
            ("bs0.opt.bin", _five_moment_values, f"array of 5 values, expected {param_count(NetConfig(3, 4, 6))}"),
            (
                "bs0.opt.bin",
                lambda p: rewrite_header(p, lambda h: h.update(beta1=0.5)),
                "written with Adam beta1 0.5, this program uses 0.9",
            ),
        ],
        ids=["opt-5-bytes", "opt-header-2^40", "opt-no-step", "opt-5-moment-values", "opt-beta1-0.5"],
    )
    def test_damaged_checkpoint_is_data_error(self, toy_dataset, tmp_path, capsys, name, damage, message):
        out = tmp_path / "r"
        assert run_toy(toy_dataset, out) == 0
        damage(out / "round_1" / name)
        capsys.readouterr()
        assert run_toy(toy_dataset, out, "--rounds", "3", "--resume") == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err
        assert message in captured.err
        assert "resuming from" not in captured.out  # refused while loading, not later in training

    @pytest.mark.parametrize(
        "flags, messages",
        [
            (
                ["--hidden", "16"],
                ["written for network {'n_t': 3, 'k_max': 4, 'hidden': 6}", "this run has NetConfig(n_t=3, k_max=4, hidden=16)"],
            ),
            (["--lr", "1e-2"], ["written with learning rate 0.0001, this run has 0.01"]),
        ],
        ids=["hidden-16", "lr-1e-2"],
    )
    def test_checkpoint_of_another_network_is_data_error(self, toy_dataset, tmp_path, capsys, flags, messages):
        out = tmp_path / "r"
        assert run_toy(toy_dataset, out) == 0
        capsys.readouterr()
        assert run_toy(toy_dataset, out, "--rounds", "3", "--resume", *flags) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err
        assert all(message in captured.err for message in messages)
        assert "resuming from" not in captured.out

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: rewrite_header(p, lambda h: h.pop("scenario")),
            lambda p: rewrite_header(p, lambda h: h.update(cell=7)),
        ],
        ids=["no-scenario", "cell-7"],
    )
    def test_damaged_dataset_is_data_error(self, toy_dataset, tmp_path, capsys, damage):
        data = tmp_path / "data"
        shutil.copytree(toy_dataset, data)
        damage(data / "bs1.ds")
        assert run_toy(data, tmp_path / "r") == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cell, name, element, value, message",
        [
            (1, "comm_direct", 4, np.nan, "bs1.ds: comm_direct holds the non-finite value nan at flat index 8"),
            (0, "target_beta", 5, np.inf, "bs0.ds: target_beta holds the non-finite value inf at flat index 10"),
            (2, "target_theta", 3, np.nan, "bs2.ds: target_theta holds the non-finite value nan at flat index 3"),
            (1, "target_theta", 3, 3.0, "bs1.ds: target_theta holds the angle 3.0 outside [-pi/2, pi/2] at index 3"),
        ],
        ids=["comm-direct-nan", "target-beta-inf", "target-theta-nan", "target-theta-3.0"],
    )
    def test_non_finite_dataset_is_data_error(self, tmp_path, capsys, cell, name, element, value, message):
        data = generate_dataset(build_scenario("heterogeneous", n_t=3, n_r=3), 40, seed=1)
        getattr(data[cell], name).reshape(-1)[element] = value
        write_dataset(tmp_path / "bad", data)
        assert run_toy(tmp_path / "bad", tmp_path / "r") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err and err.count("\n") == 1

    def test_mixed_dataset_directory_is_data_error(self, tmp_path, capsys):
        for variant, seed in (("heterogeneous", 3), ("homogeneous", 4)):
            scn = build_scenario(variant, n_t=3, n_r=3)
            write_dataset(tmp_path / f"{variant}", generate_dataset(scn, 40, seed=seed))
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for name, variant in (("bs0.ds", "heterogeneous"), ("bs1.ds", "heterogeneous"), ("bs2.ds", "homogeneous")):
            shutil.copy(tmp_path / variant / name, mixed / name)
        assert run_toy(mixed, tmp_path / "r") == 3
        assert "different scenarios or seeds" in capsys.readouterr().err


class TestPlot:
    def test_polyline_counts_and_determinism(self, toy_dataset, tmp_path):
        assert run_toy(toy_dataset, tmp_path / "r") == 0
        csv_path = str(tmp_path / "r" / "metrics.csv")
        assert main(["plot", csv_path, "--labels", "em", "--out-dir", str(tmp_path / "p1")]) == 0
        assert main(["plot", csv_path, "--labels", "em", "--out-dir", str(tmp_path / "p2")]) == 0
        utility = (tmp_path / "p1" / "utility.svg").read_text()
        pi = (tmp_path / "p1" / "pi.svg").read_text()
        assert utility.count("<polyline") == 1       # one series
        assert pi.count("<polyline") == 3            # one per BS
        assert utility == (tmp_path / "p2" / "utility.svg").read_text()
        assert pi == (tmp_path / "p2" / "pi.svg").read_text()

    def test_overlay_two_runs(self, toy_dataset, tmp_path):
        assert run_toy(toy_dataset, tmp_path / "a") == 0
        assert run_toy(toy_dataset, tmp_path / "b", "--strategy", "fedavg") == 0
        rc = main(
            [
                "plot",
                str(tmp_path / "a" / "metrics.csv"),
                str(tmp_path / "b" / "metrics.csv"),
                "--labels",
                "em,fedavg",
                "--out-dir",
                str(tmp_path / "p"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "p" / "utility.svg").read_text().count("<polyline") == 2

    def test_empty_csv_errors(self, tmp_path):
        empty = tmp_path / "metrics.csv"
        empty.write_text("round,bs,pi,loss,comm_rate,radar_rate,utility,system_utility\n")
        assert main(["plot", str(empty), "--out-dir", str(tmp_path)]) == 3

    def test_label_count_mismatch(self, toy_dataset, tmp_path):
        assert run_toy(toy_dataset, tmp_path / "r") == 0
        rc = main(["plot", str(tmp_path / "r" / "metrics.csv"), "--labels", "a,b", "--out-dir", str(tmp_path)])
        assert rc == 2


class TestCompare:
    def test_table_lists_all_runs(self, toy_dataset, tmp_path, capsys):
        assert run_toy(toy_dataset, tmp_path / "a") == 0
        assert run_toy(toy_dataset, tmp_path / "b", "--strategy", "local_only") == 0
        rc = main(
            [
                "compare",
                str(tmp_path / "a" / "metrics.csv"),
                str(tmp_path / "b" / "metrics.csv"),
                "--labels",
                "em,local",
                "--out",
                str(tmp_path / "table.txt"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "em" in out and "local" in out and "best:" in out
        assert (tmp_path / "table.txt").is_file()


class TestSvgPlot:
    def test_requires_series(self):
        with pytest.raises(ValueError):
            line_chart([], "t", "x", "y")

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            line_chart([("a", [1, 2], [1.0])], "t", "x", "y")

    def test_basic_structure(self):
        svg = line_chart([("a", [0, 1, 2], [1.0, 4.0, 2.0])], "title", "x", "y", subtitle="sub")
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert "title" in svg and "sub" in svg
        assert svg.count("<polyline") == 1
