"""Tests of the benchmark itself: tracer arithmetic, hygiene, and smoke-sized runs.

Run from the root of a source tree:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest

import compare
import make_reference
import run_bench as rb
from tracer import Probe, Tracer, count_bytes, installed

BENCHMARK = json.loads((rb.ROOT / "BENCHMARK.json").read_text())


class ScriptedClock:
    """A clock that returns the given instants in order."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


def test_self_time_arithmetic_on_synthetic_span_tree():
    # A[0,10] holds B[1,4] (which holds C[2,3]) and D[5,9]; E[10,12] is top-level.
    tr = Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 5, 9, 10, 10, 12]))
    tr.enter("A")
    tr.enter("B")
    tr.enter("C")
    tr.exit()
    tr.exit()
    tr.enter("D")
    tr.exit()
    tr.exit()
    with tr.span("E"):
        pass

    assert set(tr.stats) == {(None, "A"), ("A", "B"), ("B", "C"), ("A", "D"), (None, "E")}
    assert {n: tr.total(n, "self_s") for n in "ABCDE"} == {"A": 3, "B": 2, "C": 1, "D": 4, "E": 2}
    assert {n: tr.total(n) for n in "ABCDE"} == {"A": 10, "B": 3, "C": 1, "D": 4, "E": 2}
    assert tr.top_level_s == 12
    assert tr.self_time_gap() == 0
    assert tr.depth == 0


def test_kept_spans_and_name_and_parent_filters():
    tr = Tracer(clock=ScriptedClock([0, 1, 2, 4, 5, 8, 9, 10]), keep=("round.",))
    with tr.span("round.a"):
        with tr.span("step"):
            pass
    with tr.span("step"):
        pass
    with tr.span("round.b"):
        pass
    assert tr.kept == [("round.a", 0, 4), ("round.b", 9, 1)]
    assert tr.total("step", "calls") == 2
    assert tr.total("step", "calls", parent="round.") == 1
    assert tr.total("round.", "calls") == 2 and tr.total("round.", "self_s") == 4


def test_installed_wraps_the_looked_up_name_and_restores_it():
    def work(x):
        return 2 * x

    def boom():
        raise ValueError("x")

    caller_ns = types.SimpleNamespace(work=work, boom=boom)
    tr = Tracer()
    probes = [Probe(caller_ns, "work", "layer.work", count_bytes(lambda a, r: r)), Probe(caller_ns, "boom", "layer.boom")]
    with installed(tr, probes):
        assert caller_ns.work(21) == 42
        with pytest.raises(ValueError):
            caller_ns.boom()
    assert caller_ns.work is work and caller_ns.boom is boom
    assert tr.total("layer.work", "calls") == 1 and tr.total("layer.boom", "calls") == 1
    assert tr.counters == {"layer.work.bytes": 42}
    assert tr.depth == 0

    with pytest.raises(KeyError):
        with installed(tr, probes):
            raise KeyError("leave early")
    assert caller_ns.work is work


def test_probes_target_the_names_callers_use():
    rb.bootstrap()
    from isacfl import fl, nn

    owners = {(p.owner, p.attr) for p in rb.isacfl_probes()}
    assert (fl, "adam_step") in owners and (nn, "adam_step") not in owners
    assert (fl, "forward_batch") in owners
    for probe in rb.isacfl_probes():
        assert probe.attr in vars(probe.owner)


def test_speedometer_scales_segments_by_the_kernel_at_both_ends():
    speedo = rb.Speedometer()
    ref = rb.REFERENCE_KERNEL_S
    # kernels of ref, 2*ref and ref seconds around two 1-second segments
    speedo.marks = [(0.0, ref, ref), (1.0 + ref, 2 * ref, 1.0 + 3 * ref), (2.0 + 3 * ref, ref, 2.0 + 4 * ref)]
    assert speedo.factor(0) == pytest.approx(2 / 3) and speedo.factor(1) == pytest.approx(2 / 3)
    wall, scaled = speedo.span(0, 2)
    assert wall == pytest.approx(2.0) and scaled == pytest.approx(4 / 3)
    assert speedo.scale(0.5, 0.3) == pytest.approx(0.2)
    first = speedo.mark()
    assert first == 3 and speedo.kernel_times()[-1] > 0


@pytest.mark.parametrize(
    "n, rank",
    [(1, 0), (10, 9), (11, 5), (21, 10), (22, 11), (40, 29), (100, 89)],
)
def test_tail_rank_keeps_ten_beyond(n, rank):
    assert rb.tail_rank(n) == rank
    if n > 20:
        assert n - 1 - rank >= 10


def test_benchmark_json_matches_the_emitted_names_and_units():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == rb.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == rb.PER_LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(rb.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


SMOKE_TRAIN = replace(
    rb.WORKLOADS["desk_sweep"],
    name="smoke_train",
    gen_args=("--preset", "desk", "--samples", "60"),
    run_args=("--preset", "desk", "--hidden", "8", "--batch-size", "32", "--eval-batch", "16"),
    rounds=1,
    local_epochs=1,
    inner_steps=2,
)
SMOKE_GEN = replace(rb.WORKLOADS["gen_data"], samples=20, n_t=4, n_r=4, setup_launches=2)


@pytest.fixture(scope="module")
def smoke_reference():
    rb.bootstrap()
    return {SMOKE_TRAIN.name: {"3": make_reference.record(SMOKE_TRAIN, 3)}}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("kind", ["train", "gen"])
def test_smoke_run_emits_every_metric_with_its_unit(kind, trace, smoke_reference, monkeypatch):
    monkeypatch.setattr(rb, "load_reference", lambda: smoke_reference)
    wl = SMOKE_TRAIN if kind == "train" else SMOKE_GEN
    result, report = rb.run(wl, 3, 0.2, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = rb.PER_LAYER_UNITS if trace else rb.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert json.loads(json.dumps(result)) == result

    names = ["failed_ratio", "peak_rss_mb", "setup_s"]
    if kind == "train":
        names += ["train_samples_per_s", "round_s_p50", "round_s_tail", "final_utility"]
        assert set(report["metrics_csv_sha256"]) == set(rb.STRATEGIES)
    else:
        names += ["gen_samples_per_s"]
    for name in names:
        assert report[name]["unit"], name
    env = report["environment"]
    assert {"python", "numpy", "blas", "blas_threads", "nproc", "cpu_model", "git_commit", "seed"} <= set(env)

    if trace:
        assert all(report["trace_checks"]["ok"].values()), report["trace_checks"]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        if kind == "train":
            assert m["nn.power_checks"] > 0 and m["nn.evaluate_grad.calls"] > 0
            assert m["channel.sample_rician.calls"] == 0
        else:
            assert m["channel.generator.calls"] > 0 and m["nn.power_checks"] == 0
    assert not list((rb.ROOT / ".bench_work").glob(f"{wl.name}-3-*"))


def test_failing_program_is_counted_not_fatal(smoke_reference, monkeypatch):
    from isacfl import cli

    monkeypatch.setattr(rb, "load_reference", lambda: smoke_reference)
    calls = []

    def broken(argv):
        calls.append(argv)
        if len(calls) > 1:  # the warm-up succeeds, every timed run fails
            raise FloatingPointError("simulated numerical failure")
        return 0

    monkeypatch.setattr(cli, "main", broken)
    for trace in (False, True):
        result, report = rb.run(SMOKE_TRAIN, 3, 0.2, trace)
        assert not result["correct"]
        assert result["failed"] == result["attempted"] >= len(rb.STRATEGIES)
        assert report["failed_ratio"]["value"] == 1.0
        assert "FloatingPointError" in report["failures"][0]
        assert all(m["unit"] for m in result["metrics"].values())


def test_trace_counts_repeat_exactly(smoke_reference, monkeypatch):
    monkeypatch.setattr(rb, "load_reference", lambda: smoke_reference)
    counts = []
    for _ in range(2):
        result, _ = rb.run(SMOKE_TRAIN, 3, 0.2, True)
        m = result["metrics"]
        counts.append((m["nn.power_checks"]["value"], m["channel.generator.calls"]["value"]))
    assert counts[0] == counts[1]


def test_utility_check_uses_the_seed_reference_or_the_band():
    ref = {"w": {"1": {"s": 10.0}, "2": {"s": 12.0}}}
    assert rb.check_utility(ref, "w", 1, "s", 10.0 * (1 + 0.5 * rb.UTILITY_RTOL)) is None
    assert rb.check_utility(ref, "w", 1, "s", 10.1) is not None
    assert rb.check_utility(ref, "w", 7, "s", 11.0) is None
    assert rb.check_utility(ref, "w", 7, "s", 14.0) is not None
    assert rb.check_utility({}, "w", 7, "s", 11.0) is not None


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(rb.BENCH_DIR, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(rb.ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "bench/run_bench.py", "--workload", "gen_data", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    faster = {"name": "x", "better": "lower", "bound": 0.1}
    parent = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    assert compare.verdict(faster, parent, [v * 0.8 for v in parent]) == ("gain", 10)
    assert compare.verdict(faster, parent, [v * 1.2 for v in parent])[0] == "regression"
    assert compare.verdict(faster, parent, list(parent))[0] == "same"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert compare.verdict(faster, noisy, list(reversed(noisy)))[0] == "unresolved"
    assert compare.parse_seeds("101-103") == [101, 102, 103]
