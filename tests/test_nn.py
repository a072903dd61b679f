"""Network forward/backward, projection, Adam, and parameter serialization."""

import dataclasses
import math

import numpy as np
import pytest

from isacfl.channel import RngStream
from isacfl.container import DatasetFormatError
from isacfl import metrics
from isacfl.metrics import Scenario
from isacfl.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    LossContext,
    NetConfig,
    PowerConstraintError,
    adam_step,
    check_power,
    comm_features,
    forward_batch,
    init_params,
    layer_dims,
    load_adam,
    load_params,
    param_count,
    save_adam,
    save_params,
    sens_channel,
    sens_features,
    unpack,
    _mlp_backward,
    _mlp_forward,
    _padded_reals,
    _project_batch,
    _reshape_to_beams,
)
from isacfl.datagen import BsDataset, build_scenario, generate_bs_dataset
from oracles import dataset_from_samples, loss_and_grad, make_sample, oracle_comm_sinr, oracle_radar_sinr

TINY_SCN = Scenario(n_cells=2, n_t=3, n_r=3, k_per_cell=(2, 2), rho_per_cell=(0.4, 0.7))
TINY_CFG = NetConfig(n_t=3, k_max=2, hidden=4)


def tiny_batch(seed, n=3, m=0, scn=TINY_SCN):
    return [make_sample(scn, m, RngStream(seed).child(i)) for i in range(n)]


def tiny_peers(seed, n=3, scn=TINY_SCN, m=0):
    gen = np.random.default_rng(seed)
    peers = {}
    for i in range(scn.n_cells):
        if i == m:
            continue
        w = gen.standard_normal((n, scn.n_t, scn.k_per_cell[i])) + 1j * gen.standard_normal(
            (n, scn.n_t, scn.k_per_cell[i])
        )
        norms = np.linalg.norm(w, axis=(1, 2), keepdims=True)
        peers[i] = w * (math.sqrt(scn.p_t) / norms)
    return peers


def one_row_features(sample, cfg=TINY_CFG, scn=TINY_SCN):
    """Network inputs (xc, xs) of one sample, as a batch of one."""
    u = sens_channel(np.array([sample.target_theta]), np.array([sample.target_beta]), scn)
    return comm_features(sample.comm_direct[None, :, :], cfg), sens_features(u, cfg)


def finite_difference_grad(params, cfg, scn, batch, m, peers, h=1e-5):
    fd = np.zeros_like(params)
    for i in range(fd.size):
        plus = params.copy()
        plus[i] += h
        minus = params.copy()
        minus[i] -= h
        l_plus, _ = loss_and_grad(plus, cfg, scn, batch, m, peers)
        l_minus, _ = loss_and_grad(minus, cfg, scn, batch, m, peers)
        fd[i] = (l_plus - l_minus) / (2 * h)
    return fd


class TestForward:
    def test_zero_params_give_zero_beamformer(self):
        params = np.zeros(param_count(TINY_CFG))
        xc, xs = one_row_features(tiny_batch(1)[0])
        w = forward_batch(params, TINY_CFG, xc, xs, k_m=2, p_t=1.0)
        np.testing.assert_array_equal(w, np.zeros((1, 3, 2), dtype=complex))
        loss, grad = loss_and_grad(params, TINY_CFG, TINY_SCN, tiny_batch(1), 0, tiny_peers(2))
        assert loss == 0.0  # both rates vanish at W = 0

    def test_output_is_on_power_sphere(self):
        params = init_params(TINY_CFG, RngStream(3))
        for sample in tiny_batch(4, n=8):
            w = forward_batch(params, TINY_CFG, *one_row_features(sample), k_m=2, p_t=0.7)
            assert abs(np.linalg.norm(w[0]) ** 2 - 0.7) < 1e-9

    def test_against_scalar_reimplementation(self):
        """Independent forward pass with explicit Python loops."""
        params = init_params(TINY_CFG, RngStream(5))
        sample = tiny_batch(6)[0]
        got = forward_batch(params, TINY_CFG, *one_row_features(sample), k_m=2, p_t=1.0)[0]

        layers = unpack(params, TINY_CFG)

        def dense(x, name, relu):
            w, b = layers[name]
            out = []
            for j in range(w.shape[1]):
                acc = float(b[j])
                for i in range(len(x)):
                    acc += x[i] * float(w[i, j])
                out.append(max(acc, 0.0) if relu else acc)
            return out

        # comm features: (n_t, k_max, 2) tensor, zero-padded user axis
        xc = []
        for n in range(TINY_CFG.n_t):
            for k in range(TINY_CFG.k_max):
                h = sample.comm_direct[k][n] if k < sample.comm_direct.shape[0] else 0.0
                xc.extend([complex(h).real, complex(h).imag])
        u = sens_channel(np.array([sample.target_theta]), np.array([sample.target_beta]), TINY_SCN)[0]
        xs = []
        for n in range(TINY_CFG.n_t):
            xs.extend([complex(u[n]).real, complex(u[n]).imag])

        hc = dense(xc, "comm", relu=True)
        hs = dense(xs, "sens", relu=True)
        f = dense(hc + hs, "fusion", relu=True)
        y = dense(f, "out", relu=False)
        w_raw = [[complex(y[(n * TINY_CFG.k_max + k) * 2], y[(n * TINY_CFG.k_max + k) * 2 + 1]) for k in range(2)] for n in range(3)]
        norm = math.sqrt(sum(abs(w_raw[n][k]) ** 2 for n in range(3) for k in range(2)))
        expected = np.array(w_raw) * (1.0 / norm)
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestProjection:
    def test_zero_matrix_unchanged(self):
        w = np.zeros((1, 3, 2), dtype=complex)
        out, _, _ = _project_batch(w, 1.0)
        np.testing.assert_array_equal(out, w)

    def test_rescales_to_budget(self):
        gen = np.random.default_rng(0)
        w = gen.standard_normal((1, 4, 3)) + 1j * gen.standard_normal((1, 4, 3))
        w *= 2.0 / np.linalg.norm(w)  # norm^2 = 4
        out, _, _ = _project_batch(w, 1.0)
        assert abs(np.linalg.norm(out) ** 2 - 1.0) < 1e-12

    def test_always_rescale_variant(self):
        gen = np.random.default_rng(1)
        w = gen.standard_normal((1, 4, 2)) + 1j * gen.standard_normal((1, 4, 2))
        w *= 0.1 / np.linalg.norm(w)  # well inside the budget
        out, _, _ = _project_batch(w, 1.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_check_power_raises(self):
        w = np.ones((1, 2, 2), dtype=complex)
        with pytest.raises(PowerConstraintError):
            check_power(w, 1.0)


def grad_mismatch(grad, fd, rtol=1e-4, atol=1e-8):
    """Worst violation of |g - fd| <= atol + rtol * max(|g|, |fd|); <= 0 passes."""
    return float(np.max(np.abs(grad - fd) - atol - rtol * np.maximum(np.abs(grad), np.abs(fd))))


class TestGradient:
    def test_matches_finite_differences(self):
        for seed in (0, 1, 2):
            params = init_params(TINY_CFG, RngStream(100 + seed))
            batch = tiny_batch(200 + seed, n=2)
            peers = tiny_peers(300 + seed, n=2)
            _, grad = loss_and_grad(params, TINY_CFG, TINY_SCN, batch, 0, peers)
            fd = finite_difference_grad(params, TINY_CFG, TINY_SCN, batch, 0, peers)
            assert grad_mismatch(grad, fd) <= 0.0

    def test_no_peers_single_cell(self):
        scn = Scenario(n_cells=1, n_t=3, n_r=3, k_per_cell=(2,), rho_per_cell=(0.5,))
        params = init_params(TINY_CFG, RngStream(7))
        batch = [make_sample(scn, 0, RngStream(8).child(i)) for i in range(2)]
        _, grad = loss_and_grad(params, TINY_CFG, scn, batch, 0, {})
        fd = finite_difference_grad(params, TINY_CFG, scn, batch, 0, {})
        assert grad_mismatch(grad, fd) <= 0.0

    def test_deterministic(self):
        params = init_params(TINY_CFG, RngStream(9))
        batch = tiny_batch(10)
        peers = tiny_peers(11)
        l1, g1 = loss_and_grad(params, TINY_CFG, TINY_SCN, batch, 0, peers)
        l2, g2 = loss_and_grad(params, TINY_CFG, TINY_SCN, batch, 0, peers)
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)

    def test_empty_batch_rejected(self):
        params = init_params(TINY_CFG, RngStream(12))
        ds = dataset_from_samples(TINY_SCN, 0, tiny_batch(12, n=1))
        ctx = LossContext(TINY_CFG, ds)
        with pytest.raises(ValueError):
            ctx.evaluate(params, np.array([], dtype=int), ctx.interference({}))
        with pytest.raises(ValueError):
            LossContext(TINY_CFG, dataclasses.replace(ds, comm_direct=ds.comm_direct[:0]))

    def test_padding_neutrality(self):
        """Zeroing output-layer rows of truncated columns changes nothing."""
        scn = Scenario(n_cells=1, n_t=3, n_r=3, k_per_cell=(1,), rho_per_cell=(0.6,))
        cfg = NetConfig(n_t=3, k_max=2, hidden=4)  # k_m = 1 < k_max = 2
        params = init_params(cfg, RngStream(13))
        batch = [make_sample(scn, 0, RngStream(14).child(i)) for i in range(3)]
        base_loss, base_grad = loss_and_grad(params, cfg, scn, batch, 0, {})

        zeroed = params.copy()
        w_out, b_out = unpack(zeroed, cfg)["out"]
        for n in range(cfg.n_t):
            for k in range(1, cfg.k_max):  # truncated user columns
                for part in range(2):
                    unit = (n * cfg.k_max + k) * 2 + part
                    w_out[:, unit] = 0.0
                    b_out[unit] = 0.0
        loss2, grad2 = loss_and_grad(zeroed, cfg, scn, batch, 0, {})
        assert loss2 == base_loss
        # gradients on surviving parameters are unchanged; zeroed ones had zero grad
        mask = zeroed != params
        np.testing.assert_array_equal(grad2[~mask], base_grad[~mask])
        np.testing.assert_array_equal(base_grad[mask], np.zeros(mask.sum()))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = init_params(TINY_CFG, RngStream(15))
        state = AdamState.fresh(params.size)
        stepped, stepped_state = params.copy(), dataclasses.replace(state, m=state.m.copy(), v=state.v.copy())
        adam_step(stepped, np.zeros_like(params), stepped_state, 1e-3)
        np.testing.assert_array_equal(stepped, params)
        assert stepped_state.step == 1 and state.step == 0

    def test_first_step_hand_computed(self):
        cfg = NetConfig(n_t=1, k_max=1, hidden=1)  # not used by the math below
        p = np.zeros(param_count(cfg))
        p[:3] = [1.0, 2.0, 3.0]
        grad = np.zeros_like(p)
        grad[:3] = [0.1, -0.2, 0.0]
        lr, eps = 1e-4, 1e-8
        adam_step(p, grad, AdamState.fresh(p.size), lr)
        # bias-corrected first step: p - lr * g / (|g| + eps)
        expected = [
            1.0 - lr * 0.1 / (abs(0.1) + eps),
            2.0 - lr * (-0.2) / (abs(-0.2) + eps),
            3.0,
        ]
        np.testing.assert_allclose(p[:3], expected, rtol=0, atol=1e-15)

    def test_bitwise_deterministic(self):
        params = init_params(TINY_CFG, RngStream(16))
        grad = RngStream(17).generator().standard_normal(params.size)
        state = AdamState.fresh(params.size)
        a1, s1 = params.copy(), dataclasses.replace(state, m=state.m.copy(), v=state.v.copy())
        a2, s2 = params.copy(), dataclasses.replace(state, m=state.m.copy(), v=state.v.copy())
        adam_step(a1, grad, s1, 1e-4)
        adam_step(a2, grad, s2, 1e-4)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(s1.m, s2.m)
        np.testing.assert_array_equal(s1.v, s2.v)

    def test_in_place_matches_functional_update(self):
        params = init_params(TINY_CFG, RngStream(24))
        state = AdamState.fresh(params.size)
        gen = RngStream(25).generator()
        theta, m, v = params.copy(), np.zeros(params.size), np.zeros(params.size)
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, 1e-3, ADAM_EPS
        for t in range(1, 51):
            g = gen.standard_normal(theta.size)
            g[::7] = 0.0
            adam_step(params, g, state, lr)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert state.step == t
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            np.testing.assert_array_equal(params, theta)

    def test_shape_mismatch(self):
        params = init_params(TINY_CFG, RngStream(18))
        with pytest.raises(ValueError):
            adam_step(params, np.zeros(3), AdamState.fresh(params.size), 1e-4)


THREE_SCN = Scenario(n_cells=3, n_t=3, n_r=4, k_per_cell=(2, 3, 1), rho_per_cell=(0.4, 0.7, 0.5))


def batch_interference(ctx, idx, pools):
    """Interference of one batch, gathering each peer's pool entries idx % pool size."""
    cross_c = np.zeros((len(idx), ctx.k_m))
    den_s = np.full(len(idx), ctx.scn.sigma_s_sq)
    for i, pool in pools.items():
        w_i = pool[idx % pool.shape[0]]
        s_c = np.einsum("bkn,bnj->bkj", ctx.h_cross[i][idx].conj(), w_i)
        cross_c += np.sum(np.abs(s_c) ** 2, axis=2)
        s_r = np.einsum("bn,bnj->bj", ctx.vg[i][idx], w_i)
        den_s += np.sum(np.abs(s_r) ** 2, axis=1)
    return cross_c, den_s


class TestInterference:
    N = 11
    POOL_SIZES = {1: 4, 2: 3}  # neither divides N: the last block is partial

    def _setup(self):
        samples = [make_sample(THREE_SCN, 0, RngStream(30).child(s)) for s in range(self.N)]
        ctx = LossContext(NetConfig(n_t=3, k_max=3, hidden=4), dataset_from_samples(THREE_SCN, 0, samples))
        pools = {i: tiny_peers(31 + i, n=size, scn=THREE_SCN)[i] for i, size in self.POOL_SIZES.items()}
        return ctx, samples, pools

    def test_matches_per_batch_formula(self):
        ctx, _, pools = self._setup()
        hoisted = ctx.interference(pools)
        for idx in (np.array([7, 2, 10, 3, 5]), np.arange(self.N), np.array([10])):
            for got, want in zip(hoisted, batch_interference(ctx, idx, pools)):
                np.testing.assert_array_equal(got[idx], want)

    @pytest.mark.parametrize("first", [1, 3, 4, 9, 10])
    def test_rows_from_first_match_every_row(self, first):
        # pools of 4 and 3: first lands mid-pool, on a pool boundary, and in the last block
        ctx, _, pools = self._setup()
        for got, want in zip(ctx.interference(pools, first=first), ctx.interference(pools)):
            assert got[first:].tobytes() == want[first:].tobytes()

    def test_own_cell_pool_ignored(self):
        ctx, _, pools = self._setup()
        with_own = {0: tiny_peers(40, n=5, scn=THREE_SCN, m=1)[0], **pools}
        for got, want in zip(ctx.interference(with_own), ctx.interference(pools)):
            np.testing.assert_array_equal(got, want)

    def test_matches_oracle_sinr(self):
        ctx, samples, pools = self._setup()
        cross_c, den_s = ctx.interference(pools)
        for s, sample in enumerate(samples):
            w = [None] + [pools[i][s % size] for i, size in self.POOL_SIZES.items()]
            for k in range(ctx.k_m):
                # only user k's own beam is on, so the oracle SINR is num / (inter + noise)
                w[0] = np.zeros((THREE_SCN.n_t, ctx.k_m), dtype=complex)
                w[0][:, k] = sample.comm_direct[k]
                num = abs(np.vdot(sample.comm_direct[k], w[0][:, k])) ** 2
                inter = num / oracle_comm_sinr(THREE_SCN, [sample], w, 0, k) - THREE_SCN.sigma_c_sq
                np.testing.assert_allclose(cross_c[s, k], inter, rtol=1e-9)
            p_num = np.sum(np.abs(ctx.u[s].conj() @ w[0]) ** 2)
            den = THREE_SCN.n_r * p_num / oracle_radar_sinr(THREE_SCN, [sample], w, 0)
            np.testing.assert_allclose(den_s[s], den, rtol=1e-9)


class TestRadarCombiner:
    @pytest.mark.parametrize("n_r", [1, 2, 3, 4, 5, 8, 16])
    def test_vg_matches_per_sample_mrc_combiner(self, n_r):
        scn = Scenario(n_cells=2, n_t=3, n_r=n_r, k_per_cell=(2, 2), rho_per_cell=(0.4, 0.7))
        n = 300
        gen = np.random.default_rng(60 + n_r)

        def cplx(*shape):
            return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)

        ds = BsDataset(
            scenario=scn,
            cell=0,
            seed=0,
            n_train=n,
            comm_direct=cplx(n, 2, 3),
            comm_cross={1: cplx(n, 2, 3)},
            radar_cross={1: cplx(n, n_r, 3)},
            target_theta=gen.uniform(-np.pi / 2, np.pi / 2, size=n),
            target_beta=cplx(n),
        )
        ctx = LossContext(NetConfig(n_t=3, k_max=2, hidden=4), ds)
        v = np.stack([metrics.mrc_combiner(t, scn.rx_steering()) for t in ds.target_theta])
        np.testing.assert_array_equal(ctx.vg[1], np.einsum("br,brn->bn", v.conj(), ds.radar_cross[1]))


class TestContextSplit:
    def test_split_and_eval_slice(self):
        ds = generate_bs_dataset(build_scenario("heterogeneous", n_t=3, n_r=3), 1, 40, seed=9)
        ctx = LossContext(NetConfig(n_t=3, k_max=4, hidden=4), ds)
        assert ctx.m == 1 and ctx.n_train == 36
        assert list(ctx.eval_indices) == list(range(36, 40))


class TestReferenceRates:
    N = 7

    def test_loss_computes_metrics_rates_and_utility(self):
        """Per-sample rates and the loss of ``evaluate`` are the ``metrics`` formulas, peers paired s % P."""
        cfg = NetConfig(n_t=3, k_max=3, hidden=4)
        for m in range(THREE_SCN.n_cells):
            samples = [make_sample(THREE_SCN, m, RngStream(50 + m).child(s)) for s in range(self.N)]
            ctx = LossContext(cfg, dataset_from_samples(THREE_SCN, m, samples))
            peers = [i for i in range(THREE_SCN.n_cells) if i != m]
            pools = {i: tiny_peers(51 + i, n=size, scn=THREE_SCN, m=m)[i] for i, size in zip(peers, (4, 3))}
            params = init_params(cfg, RngStream(52 + m))
            loss, _, r_c, r_s = ctx.evaluate(params, np.arange(self.N), ctx.interference(pools), want_grad=False)
            own = forward_batch(params, cfg, ctx.xc, ctx.xs, ctx.k_m, THREE_SCN.p_t)
            utilities = []
            for s, sample in enumerate(samples):
                w = [own[s] if i == m else pools[i][s % pools[i].shape[0]] for i in range(THREE_SCN.n_cells)]
                cells = {m: sample}  # the formulas read only cell m's draw
                np.testing.assert_allclose(r_c[s], metrics.comm_sum_rate(THREE_SCN, cells, w, m), rtol=1e-12)
                np.testing.assert_allclose(r_s[s], metrics.radar_rate(THREE_SCN, cells, w, m), rtol=1e-12)
                utilities.append(metrics.bs_utility(THREE_SCN, cells, w, m))
            np.testing.assert_allclose(loss, -np.mean(utilities), rtol=1e-12)


class TestBackwardBuffer:
    @pytest.mark.parametrize("cfg, batch", [(TINY_CFG, 3), (NetConfig(n_t=8, k_max=4, hidden=256), 64)])
    def test_flat_gradient_matches_concatenated_layers(self, cfg, batch):
        params = init_params(cfg, RngStream(26))
        gen = np.random.default_rng(27)
        xc = gen.standard_normal((batch, cfg.comm_in_dim))
        xs = gen.standard_normal((batch, cfg.sens_in_dim))
        g_y = gen.standard_normal((batch, cfg.out_dim))
        p = unpack(params, cfg)
        _, cache = _mlp_forward(p, xc, xs)
        got = _mlp_backward(p, cache, g_y, cfg)

        xc, xs, zc, zs, af, zf, f = cache
        g_zf = (g_y @ p["out"][0].T) * (zf > 0.0)
        g_af = g_zf @ p["fusion"][0].T
        g_zc = g_af[:, : cfg.hidden] * (zc > 0.0)
        g_zs = g_af[:, cfg.hidden :] * (zs > 0.0)
        want = np.concatenate(
            [
                (xc.T @ g_zc).ravel(),
                g_zc.sum(axis=0),
                (xs.T @ g_zs).ravel(),
                g_zs.sum(axis=0),
                (af.T @ g_zf).ravel(),
                g_zf.sum(axis=0),
                (f.T @ g_y).ravel(),
                g_y.sum(axis=0),
            ]
        )
        np.testing.assert_array_equal(got, want)


class TestInit:
    def test_biases_zero_and_weights_bounded(self):
        cfg = NetConfig(n_t=4, k_max=3, hidden=16)
        params = init_params(cfg, RngStream(19))
        offset = 0
        for name, (fi, fo) in layer_dims(cfg).items():
            w = params[offset : offset + fi * fo]
            offset += fi * fo
            b = params[offset : offset + fo]
            offset += fo
            bound = np.sqrt(6.0 / (fi + fo))
            assert np.max(np.abs(w)) <= bound
            np.testing.assert_array_equal(b, np.zeros(fo))

    def test_reproducible(self):
        cfg = NetConfig(n_t=4, k_max=3, hidden=16)
        a = init_params(cfg, RngStream(20, 4))
        b = init_params(cfg, RngStream(20, 4))
        np.testing.assert_array_equal(a, b)


class TestSerialization:
    def test_params_round_trip(self, tmp_path):
        cfg = NetConfig(3, 2, 5)
        params = init_params(cfg, RngStream(21))
        path = tmp_path / "p.bin"
        save_params(path, params, cfg)
        np.testing.assert_array_equal(load_params(path, cfg), params)

    @pytest.mark.parametrize("other", [NetConfig(3, 2, 6), NetConfig(2, 2, 5), NetConfig(3, 3, 5)])
    def test_params_of_another_network_rejected(self, tmp_path, other):
        cfg = NetConfig(3, 2, 5)
        path = tmp_path / "p.bin"
        save_params(path, init_params(cfg, RngStream(21)), cfg)
        with pytest.raises(DatasetFormatError, match=r"network \{'n_t': 3, 'k_max': 2, 'hidden': 5\}, this run has NetConfig"):
            load_params(path, other)

    def test_adam_round_trip(self, tmp_path):
        state = AdamState.fresh(10)
        state.m[:] = np.arange(10)
        state.v[:] = np.arange(10) ** 2
        state.step = 7
        path = tmp_path / "a.bin"
        save_adam(path, state, 3e-4)
        loaded = load_adam(path, 10, 3e-4)
        assert loaded.step == 7
        np.testing.assert_array_equal(loaded.m, state.m)
        np.testing.assert_array_equal(loaded.v, state.v)
        with pytest.raises(DatasetFormatError, match=r"a.bin: written with learning rate 0.0003, this run has 0.001$"):
            load_adam(path, 10, 1e-3)

    @pytest.mark.parametrize("m_size, v_size, n_params", [(10, 10, 11), (10, 11, 10)], ids=["m", "v"])
    def test_adam_moment_lengths_checked(self, tmp_path, m_size, v_size, n_params):
        path = tmp_path / "a.bin"
        save_adam(path, AdamState(m=np.zeros(m_size), v=np.zeros(v_size)), 1e-4)
        with pytest.raises(DatasetFormatError):
            load_adam(path, n_params, 1e-4)

    def test_wrong_magic(self, tmp_path):
        cfg = NetConfig(3, 2, 5)
        path = tmp_path / "p.bin"
        save_params(path, init_params(cfg, RngStream(22)), cfg)
        with pytest.raises(ValueError):
            load_adam(path, param_count(cfg), 1e-4)


class TestFeatures:
    def test_comm_padding_layout(self):
        cfg = NetConfig(n_t=2, k_max=3, hidden=2)
        h = np.array([[[1 + 2j, 3 + 4j]]])  # one sample, one user, n_t = 2
        feats = comm_features(h, cfg)
        tensor = feats.reshape(1, 2, 3, 2)
        assert tensor[0, 0, 0, 0] == 1.0 and tensor[0, 0, 0, 1] == 2.0
        assert tensor[0, 1, 0, 0] == 3.0 and tensor[0, 1, 0, 1] == 4.0
        np.testing.assert_array_equal(tensor[:, :, 1:, :], np.zeros((1, 2, 2, 2)))

    def test_sens_channel_matches_combined_response(self):
        # u^H w must reproduce v^H G w for the own-cell target channel
        from isacfl.channel import target_response
        from isacfl.metrics import mrc_combiner

        scn = TINY_SCN
        theta, beta = 0.42, 0.8 - 0.3j
        u = sens_channel(np.array([theta]), np.array([beta]), scn)[0]
        g = target_response(beta, theta, scn.rx_steering(), scn.tx_steering())
        v = mrc_combiner(theta, scn.rx_steering())
        gen = np.random.default_rng(23)
        w = gen.standard_normal((scn.n_t, 2)) + 1j * gen.standard_normal((scn.n_t, 2))
        lhs = np.abs(u.conj() @ w) ** 2
        rhs = np.abs((v.conj() @ g) @ w) ** 2
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("k_m", [1, 2, 3])
    def test_beams_view_inverts_padded_reals(self, k_m):
        cfg = NetConfig(n_t=3, k_max=3, hidden=2)
        gen = np.random.default_rng(24)
        z = gen.standard_normal((5, 3, k_m)) + 1j * gen.standard_normal((5, 3, k_m))
        z[0, 0, 0] = -0.0 - 0.0j
        y = _padded_reals(z, cfg.k_max)
        assert y.shape == (5, cfg.out_dim) and y.dtype == np.float64
        beams = _reshape_to_beams(y, cfg, k_m)
        assert beams.tobytes() == z.tobytes()
        assert np.shares_memory(beams, y)
        padding = _reshape_to_beams(y, cfg, cfg.k_max)[:, :, k_m:]
        assert padding.tobytes() == np.zeros(padding.shape, dtype=np.complex128).tobytes()

    def test_padded_reals_is_the_stacked_re_im_layout(self):
        # the gradient g_y that the backward pass hands to the MLP, for k_m < k_max
        cfg = NetConfig(n_t=4, k_max=3, hidden=2)
        gen = np.random.default_rng(25)
        g_raw = gen.standard_normal((6, 4, 2)) + 1j * gen.standard_normal((6, 4, 2))
        g_full = np.zeros((6, cfg.n_t, cfg.k_max), dtype=np.complex128)
        g_full[:, :, :2] = g_raw
        want = np.stack([g_full.real, g_full.imag], axis=-1).reshape(6, cfg.out_dim)
        assert _padded_reals(g_raw, cfg.k_max).tobytes() == want.tobytes()

    def test_sens_features_are_re_im_pairs(self):
        cfg = NetConfig(n_t=2, k_max=1, hidden=2)
        u = np.array([[1 + 2j, 3 - 4j], [-7 + 5j, 6 + 0j]])
        np.testing.assert_array_equal(sens_features(u, cfg), [[1, 2, 3, -4], [-7, 5, 6, 0]])

    def test_dimension_mismatch(self):
        cfg = NetConfig(n_t=2, k_max=2, hidden=2)
        with pytest.raises(ValueError):
            comm_features(np.zeros((1, 1, 3), dtype=complex), cfg)
        with pytest.raises(ValueError):
            sens_features(np.zeros((1, 3), dtype=complex), cfg)
