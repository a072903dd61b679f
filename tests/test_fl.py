"""EM aggregation, local training, round orchestration, and baselines."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from isacfl import fl
from isacfl.channel import RngStream
from isacfl.datagen import build_scenario, generate_dataset
from isacfl.fl import (
    STRATEGIES,
    FederatedSimulation,
    NumericalError,
    RunConfig,
    compute_pi,
    e_step,
    fedavg_aggregate,
    local_train,
    m_step,
    mix_models,
)
from isacfl.nn import NetConfig, init_params, layer_dims, param_count

def toy_setup(variant="heterogeneous", n_samples=80, seed=1, **run_kw):
    scn = build_scenario(variant, n_t=3, n_r=3)
    data = generate_dataset(scn, n_samples, seed=seed)
    defaults = dict(strategy="em_pfl", rounds=3, local_epochs=1, batch_size=16, hidden=6, seed=seed, lr=1e-3)
    defaults.update(run_kw)
    run = RunConfig(**defaults)
    return scn, data, run


class TestEStep:
    def test_symmetry(self):
        assert e_step(1.7, 1.7, 1.0) == 0.5

    def test_sigmoid_closed_form(self):
        assert abs(e_step(1.0, 2.0, 1.0) - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12
        assert abs(e_step(1.0, 2.0, 1.0) - 0.7310585786300049) < 1e-12

    def test_extreme_no_overflow(self):
        lam = e_step(1000.0, 0.0, 1.0)  # global much worse
        assert math.isfinite(lam) and 0.0 <= lam < 1e-300
        lam_hi = e_step(0.0, 1000.0, 1.0)
        assert lam_hi > 1.0 - 1e-12 and lam_hi <= 1.0

    def test_nan_rejected(self):
        with pytest.raises(NumericalError):
            e_step(float("nan"), 0.0, 1.0)

    def test_monotonicity(self):
        base = e_step(1.0, 1.5, 1.0)
        assert e_step(1.1, 1.5, 1.0) < base  # worse global -> smaller weight
        assert e_step(1.0, 1.6, 1.0) > base  # worse local -> larger weight

    def test_kappa_sharpens(self):
        for lg, ll in ((1.0, 1.4), (2.0, 1.1)):
            mild = e_step(lg, ll, 0.5)
            sharp = e_step(lg, ll, 4.0)
            assert abs(sharp - 0.5) > abs(mild - 0.5)


class TestMStep:
    def test_examples(self):
        assert m_step([0.5, 0.5, 0.5]) == 0.5
        assert m_step([0.0, 1.0]) == 0.5
        assert abs(m_step([0.2, 0.4, 0.9]) - 0.5) < 1e-15

    def test_errors(self):
        with pytest.raises(ValueError):
            m_step([])
        with pytest.raises(ValueError):
            m_step([1.2])


class TestMixModels:
    def _pair(self):
        cfg = NetConfig(2, 2, 3)
        local = np.zeros(param_count(cfg))
        global_ = np.full(param_count(cfg), 2.0)
        return local, global_

    def test_endpoints(self):
        local, global_ = self._pair()
        np.testing.assert_array_equal(mix_models(local, global_, 0.0), local)
        np.testing.assert_array_equal(mix_models(local, global_, 1.0), global_)

    def test_halfway(self):
        local, global_ = self._pair()
        np.testing.assert_array_equal(mix_models(local, global_, 0.5), np.ones(local.size))

    def test_fixed_point(self):
        local, _ = self._pair()
        for pi in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(mix_models(local, local, pi), local)

    def test_errors(self):
        local, global_ = self._pair()
        with pytest.raises(ValueError):
            mix_models(local, global_, 1.5)
        other = np.zeros(param_count(NetConfig(2, 2, 4)))
        with pytest.raises(ValueError):
            mix_models(local, other, 0.5)


class TestFedavgAggregate:
    def _params(self, value, cfg=NetConfig(2, 2, 3)):
        return np.full(param_count(cfg), float(value))

    def test_identical_clients(self):
        p = self._params(1.3)
        out = fedavg_aggregate([p, p, p], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(out, p)

    def test_equal_weights(self):
        out = fedavg_aggregate([self._params(0), self._params(2)], [5.0, 5.0])
        np.testing.assert_array_equal(out, np.ones(out.size))

    def test_weighted(self):
        out = fedavg_aggregate([self._params(0), self._params(4)], [1.0, 3.0])
        np.testing.assert_allclose(out, np.full(out.size, 3.0), atol=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([], [])
        with pytest.raises(ValueError):
            fedavg_aggregate([self._params(1)], [0.0])
        with pytest.raises(ValueError):
            fedavg_aggregate([self._params(1), self._params(2)], [1.0])


class TestComputePi:
    def test_identical_models_give_half(self):
        scn, data, run = toy_setup()
        sim = FederatedSimulation(scn, data, run)
        client = sim.clients[0]
        pools = sim._eval_pools([c.params for c in sim.clients])
        pi = compute_pi(client, sim.global_params, run, RngStream(5), client.ctx.interference(pools))
        assert pi == 0.5

    def test_single_batch_equals_e_step(self):
        # eval slice smaller than eval_batch -> B = 1 -> pi == e_step of full losses
        scn, data, run = toy_setup(n_samples=80)
        sim = FederatedSimulation(scn, data, run)
        client = sim.clients[1]
        other = init_params(sim.net, RngStream(99))
        pools = sim._eval_pools([c.params for c in sim.clients])
        interference = client.ctx.interference(pools)
        pi = compute_pi(client, other, run, RngStream(6), interference)
        idx = client.data.eval_indices
        lg, _, _, _ = client.ctx.evaluate(other, idx, interference, want_grad=False)
        ll, _, _, _ = client.ctx.evaluate(client.params, idx, interference, want_grad=False)
        assert abs(pi - e_step(lg, ll, run.kappa)) < 1e-15

    def test_much_worse_global_yields_tiny_pi(self):
        # single-cell, sensing-heavy: a zero model scores loss 0, the trained
        # one is far better, so the posterior for the global must collapse
        scn = dataclasses.replace(
            build_scenario("homogeneous", n_t=4, n_r=4), n_cells=1, k_per_cell=(2,), rho_per_cell=(0.0,)
        )
        data = generate_dataset(scn, 80, seed=2)
        run = RunConfig(strategy="em_pfl", rounds=1, local_epochs=2, batch_size=16, hidden=8, seed=2, lr=1e-3)
        sim = FederatedSimulation(scn, data, run)
        client = sim.clients[0]
        no_peers = client.ctx.interference({})
        local_train(client, 2, 16, no_peers, RngStream(7))
        idx = client.data.eval_indices
        ll, _, _, _ = client.ctx.evaluate(client.params, idx, no_peers, want_grad=False)
        assert ll < -5.0  # utility above 5 bits
        zero_global = np.zeros(param_count(sim.net))
        pi = compute_pi(client, zero_global, run, RngStream(8), no_peers)
        assert pi < 0.01

    def test_dataset_too_small(self):
        scn, data, run = toy_setup(n_samples=40, eval_batch=64)
        sim = FederatedSimulation(scn, data, run)
        client = sim.clients[0]
        with pytest.raises(ValueError):
            compute_pi(client, sim.global_params, run, RngStream(9), client.ctx.interference({}))


class TestLocalTrain:
    def test_zero_lr_keeps_params(self):
        scn, data, run = toy_setup()
        sim = FederatedSimulation(scn, data, run)
        client = sim.clients[0]
        client.adam.lr = 0.0
        before = client.params.copy()
        pools = sim._eval_pools([c.params for c in sim.clients])
        local_train(client, 2, 16, client.ctx.interference(pools), RngStream(10))
        np.testing.assert_array_equal(client.params, before)
        assert client.adam.step > 0

    def test_full_batch_step_decreases_loss(self):
        scn, data, run = toy_setup(n_samples=40, local_epochs=1)
        sim = FederatedSimulation(scn, data, run)
        client = sim.clients[0]
        interference = client.ctx.interference(sim._eval_pools([c.params for c in sim.clients]))
        idx = np.arange(client.data.n_train)
        before, _, _, _ = client.ctx.evaluate(client.params, idx, interference, want_grad=False)
        local_train(client, 1, len(idx), interference, RngStream(11))
        after, _, _, _ = client.ctx.evaluate(client.params, idx, interference, want_grad=False)
        assert after < before

    def test_deterministic(self):
        results = []
        for _ in range(2):
            scn, data, run = toy_setup()
            sim = FederatedSimulation(scn, data, run)
            client = sim.clients[2]
            interference = client.ctx.interference(sim._eval_pools([c.params for c in sim.clients]))
            local_train(client, 2, 16, interference, RngStream(12))
            results.append(client.params.copy())
        np.testing.assert_array_equal(results[0], results[1])


class TestRounds:
    def test_first_round_pi_is_half(self):
        # clients start from the broadcast init, so both models coincide
        scn, data, run = toy_setup()
        sim = FederatedSimulation(scn, data, run)
        metrics = sim.run_round()
        assert metrics.pi == [0.5, 0.5, 0.5]

    def test_toy_run_structurally_sound(self):
        scn, data, run = toy_setup(rounds=10)
        sim = FederatedSimulation(scn, data, run)
        history = sim.run_rounds(10)
        assert len(history) == 10
        for h in history:
            h.check_finite()
            assert all(0.0 <= p <= 1.0 for p in h.pi)
            assert abs(h.system_utility - sum(h.utility)) < 1e-9

    def test_checkpoint_resume_identical(self, tmp_path):
        scn, data, run = toy_setup(rounds=4)
        sim = FederatedSimulation(scn, data, run)
        full = [m.system_utility for m in sim.run_rounds(4)]

        scn2, data2, run2 = toy_setup(rounds=4)
        sim2 = FederatedSimulation(scn2, data2, run2)
        sim2.run_rounds(2)
        sim2.save_checkpoint(tmp_path)
        sim3 = FederatedSimulation(scn2, data2, run2)
        sim3.restore_checkpoint(FederatedSimulation.latest_checkpoint(tmp_path))
        assert sim3.round_index == 2
        resumed = [m.system_utility for m in sim3.run_rounds(2)]
        assert resumed == full[2:]


def shared_buffers(sim):
    """Names of every pair among the global params, client params and Adam moments that share memory."""
    arrays = {"global": sim.global_params}
    for c in sim.clients:
        arrays.update({f"bs{c.m}.params": c.params, f"bs{c.m}.m": c.adam.m, f"bs{c.m}.v": c.adam.v})
    return [(a, b) for (a, x), (b, y) in itertools.combinations(arrays.items(), 2) if np.shares_memory(x, y)]


class TestInPlaceUpdates:
    """Adam updates params and moments in place, so no two of them may alias."""

    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_no_shared_buffers_and_global_untouched(self, strategy, monkeypatch):
        scn, data, run = toy_setup(strategy=strategy, rounds=1)
        sim = FederatedSimulation(scn, data, run)
        real_local_train = fl.local_train
        seen = []

        def guarded(client, *args, **kwargs):
            shared = shared_buffers(sim)
            before = sim.global_params.copy()
            out = real_local_train(client, *args, **kwargs)
            seen.append((shared, np.array_equal(sim.global_params, before)))
            return out

        monkeypatch.setattr(fl, "local_train", guarded)
        sim.run_round()
        assert seen == [([], True)] * scn.n_cells
        assert shared_buffers(sim) == []


class TestStrategyDegenerations:
    def test_fixed_pfl_zero_equals_local_only(self):
        scn, data, _ = toy_setup()
        runs = {}
        for strategy, extra in (("fixed_pfl", {"pi_fixed": 0.0}), ("local_only", {})):
            run = RunConfig(strategy=strategy, rounds=3, local_epochs=1, batch_size=16, hidden=6, seed=1, lr=1e-3, **extra)
            sim = FederatedSimulation(scn, data, run)
            runs[strategy] = sim.run_rounds(3)
        for a, b in zip(runs["fixed_pfl"], runs["local_only"]):
            assert all(abs(x - y) < 1e-12 for x, y in zip(a.utility, b.utility))
            assert abs(a.system_utility - b.system_utility) < 1e-12

    def test_pfedme_lambda_zero_equals_local_adam(self):
        scn, data, _ = toy_setup()
        histories = {}
        for strategy, extra in (
            ("pfedme", {"lambda_prox": 0.0, "inner_steps": 1}),
            ("local_only", {}),
        ):
            run = RunConfig(strategy=strategy, rounds=3, local_epochs=1, batch_size=16, hidden=6, seed=1, lr=1e-3, **extra)
            sim = FederatedSimulation(scn, data, run)
            histories[strategy] = sim.run_rounds(3)
        for a, b in zip(histories["pfedme"], histories["local_only"]):
            assert all(abs(x - y) < 1e-12 for x, y in zip(a.utility, b.utility))

    def test_fedper_all_shared_equals_fedavg(self, monkeypatch):
        all_layers = ("comm", "sens", "fusion", "out")
        monkeypatch.setitem(fl.STRATEGIES, "fedper", dataclasses.replace(fl.STRATEGIES["fedper"], server_layers=all_layers))
        scn, data, _ = toy_setup()
        histories = {}
        for strategy in ("fedper", "fedavg"):
            run = RunConfig(strategy=strategy, rounds=3, local_epochs=1, batch_size=16, hidden=6, seed=1, lr=1e-3)
            sim = FederatedSimulation(scn, data, run)
            histories[strategy] = sim.run_rounds(3)
        for a, b in zip(histories["fedper"], histories["fedavg"]):
            assert all(abs(x - y) < 1e-12 for x, y in zip(a.utility, b.utility))
            assert abs(a.system_utility - b.system_utility) < 1e-12

    def test_fedper_keeps_local_head(self):
        scn, data, _ = toy_setup()
        run = RunConfig(strategy="fedper", rounds=2, local_epochs=1, batch_size=16, hidden=6, seed=1, lr=1e-3)
        sim = FederatedSimulation(scn, data, run)
        sim.run_rounds(2)
        head = ~sim._server_mask
        # the global head never moved from its initialization
        init = init_params(sim.net, RngStream(run.seed).child(0))
        np.testing.assert_array_equal(sim.global_params[head], init[head])
        # clients' heads diverged from each other (trained locally, never averaged)
        assert not np.array_equal(sim.clients[0].params[head], sim.clients[1].params[head])

    def test_pfedme_prox_gradient_matches_finite_difference(self):
        scn, data, run = toy_setup()
        sim = FederatedSimulation(scn, data, run)
        client = sim.clients[0]
        ref = init_params(sim.net, RngStream(55))
        lam = 2.5
        idx = np.arange(8)
        interference = client.ctx.interference(sim._eval_pools([c.params for c in sim.clients]))

        def prox_loss(params):
            base, _, _, _ = client.ctx.evaluate(params, idx, interference, want_grad=False)
            return base + 0.5 * lam * float(np.sum((params - ref) ** 2))

        _, grad, _, _ = client.ctx.evaluate(client.params, idx, interference)
        grad = grad + lam * (client.params - ref)
        h = 1e-6
        gen = np.random.default_rng(0)
        for i in gen.choice(grad.size, size=25, replace=False):
            plus = client.params.copy()
            plus[i] += h
            minus = client.params.copy()
            minus[i] -= h
            fd = (prox_loss(plus) - prox_loss(minus)) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-8 + 1e-4 * max(abs(grad[i]), abs(fd))

    def test_pfedme_large_lambda_pulls_to_global(self):
        scn, data, _ = toy_setup()
        dists = {}
        for lam in (0.0, 1e6):
            run = RunConfig(
                strategy="pfedme", rounds=1, local_epochs=1, batch_size=16, hidden=6, seed=1, lr=1e-3,
                lambda_prox=lam, inner_steps=1,
            )
            sim = FederatedSimulation(scn, data, run)
            start_global = sim.global_params.copy()
            sim.run_round()
            dists[lam] = np.linalg.norm(sim.clients[0].params - start_global)
        assert dists[1e6] < dists[0.0]

    def test_local_only_reports_zero_pi(self):
        scn, data, _ = toy_setup()
        run = RunConfig(strategy="local_only", rounds=2, local_epochs=1, batch_size=16, hidden=6, seed=1, lr=1e-3)
        sim = FederatedSimulation(scn, data, run)
        for h in sim.run_rounds(2):
            assert h.pi == [0.0, 0.0, 0.0]


class TestRunConfigValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            RunConfig(strategy="sgd")

    def test_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(rounds=0)
        with pytest.raises(ValueError):
            RunConfig(pi_fixed=1.5)

    def test_strategies_name_only_network_layers(self):
        layers = set(layer_dims(NetConfig(1, 1, 1)))
        for name, spec in fl.STRATEGIES.items():
            assert spec.server_layers and set(spec.server_layers) <= layers, name
