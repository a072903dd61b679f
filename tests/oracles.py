"""Independent brute-force implementations used to cross-check the library.

Everything here is deliberately scalar: plain Python loops over indices and
``cmath`` arithmetic, no shared code with the vectorized implementations.
The exception is :func:`oracle_evaluate`, a frozen copy of the batched
training objective as it was before its stages were split out and trimmed;
the library must keep matching it byte for byte.
"""

import cmath
import math

import numpy as np

from isacfl.channel import PURE_LOS_K, RngStream
from isacfl.datagen import BsDataset
from isacfl.metrics import ChannelSample, Scenario
from isacfl.nn import _LN2, LossContext, layer_dims, param_count


def _hermitian_dot(h, w_col):
    """h^H w as an explicit scalar loop."""
    total = 0j
    for i in range(len(h)):
        total += complex(h[i]).conjugate() * complex(w_col[i])
    return total


def oracle_comm_sinr(scn, samples, w, m, k):
    s = samples[m]
    k_m = scn.k_per_cell[m]
    num = abs(_hermitian_dot(s.comm_direct[k], w[m][:, k])) ** 2
    intra = 0.0
    for j in range(k_m):
        if j != k:
            intra += abs(_hermitian_dot(s.comm_direct[k], w[m][:, j])) ** 2
    inter = 0.0
    for i in range(scn.n_cells):
        if i == m:
            continue
        for j in range(scn.k_per_cell[i]):
            inter += abs(_hermitian_dot(s.comm_cross[i][k], w[i][:, j])) ** 2
    return num / (intra + inter + scn.sigma_c_sq)


def oracle_comm_sum_rate(scn, samples, w, m):
    total = 0.0
    for k in range(scn.k_per_cell[m]):
        total += math.log2(1.0 + oracle_comm_sinr(scn, samples, w, m, k))
    return total


def _oracle_steering(theta, n, spacing):
    return [cmath.exp(1j * 2.0 * math.pi * spacing * i * math.sin(theta)) for i in range(n)]


def oracle_radar_sinr(scn, samples, w, m, normalize_combiner=True):
    s = samples[m]
    a = _oracle_steering(s.target_theta, scn.n_r, scn.element_spacing)
    b = _oracle_steering(s.target_theta, scn.n_t, scn.element_spacing)
    if normalize_combiner:
        norm = math.sqrt(sum(abs(x) ** 2 for x in a))
        v = [x / norm for x in a]
    else:
        v = a
    # G_m = beta * a b^H, entrywise
    g_m = [[s.target_beta * a[r] * b[c].conjugate() for c in range(scn.n_t)] for r in range(scn.n_r)]
    # row vector v^H G_m
    vg = [sum(v[r].conjugate() * g_m[r][c] for r in range(scn.n_r)) for c in range(scn.n_t)]
    num = 0.0
    for k in range(scn.k_per_cell[m]):
        num += abs(sum(vg[c] * complex(w[m][c, k]) for c in range(scn.n_t))) ** 2
    denom = scn.sigma_s_sq
    for n_cell in range(scn.n_cells):
        if n_cell == m:
            continue
        g_cross = s.radar_cross[n_cell]
        vg_cross = [
            sum(v[r].conjugate() * complex(g_cross[r, c]) for r in range(scn.n_r)) for c in range(scn.n_t)
        ]
        for j in range(scn.k_per_cell[n_cell]):
            denom += abs(sum(vg_cross[c] * complex(w[n_cell][c, j]) for c in range(scn.n_t))) ** 2
    return scn.n_r * num / denom


def oracle_radar_rate(scn, samples, w, m):
    return math.log2(1.0 + oracle_radar_sinr(scn, samples, w, m))


def oracle_bs_utility(scn, samples, w, m):
    rho = scn.rho_per_cell[m]
    return rho * oracle_comm_sum_rate(scn, samples, w, m) + (1.0 - rho) * oracle_radar_rate(scn, samples, w, m)


# ---------------------------------------------------------------------------
# channel draws: one generator per draw, one draw per call


def oracle_rician(rng: RngStream, rows: int, cols: int, k_factor: float, mean_power: float = 1.0) -> np.ndarray:
    """One Rician matrix from ``rng.generator()``: phase, then real and imaginary scatter."""
    gen = rng.generator()
    phi = gen.uniform(0.0, 2.0 * np.pi)
    los = np.exp(1j * phi) * np.ones((rows, cols))
    if k_factor >= PURE_LOS_K:
        return np.sqrt(mean_power) * los
    scatter = gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))
    scatter *= np.sqrt(0.5)
    h = np.sqrt(k_factor / (k_factor + 1.0)) * los + np.sqrt(1.0 / (k_factor + 1.0)) * scatter
    return np.sqrt(mean_power) * h


def oracle_rcs(rng: RngStream, alpha_s: float) -> complex:
    re, im = rng.generator().standard_normal(2)
    return complex(np.sqrt(alpha_s / 2.0) * (re + 1j * im))


def oracle_bs_dataset(scn: Scenario, m: int, n_samples: int, seed: int) -> dict[str, np.ndarray]:
    """The arrays of ``generate_bs_dataset`` built sample by sample, draw by draw.

    Keys name the arrays in file order; values are complex128/float64 before
    the float32 rounding that the dataset applies. The substream numbers are
    those of dataset format version 1.
    """
    k_m = scn.k_per_cell[m]
    others = [i for i in range(scn.n_cells) if i != m]
    out = {"comm_direct": np.empty((n_samples, k_m, scn.n_t), dtype=np.complex128)}
    out.update({f"comm_cross{i}": np.empty((n_samples, k_m, scn.n_t), dtype=np.complex128) for i in others})
    out["target_theta"] = np.empty(n_samples)
    out["target_beta"] = np.empty(n_samples, dtype=np.complex128)
    out.update({f"radar_cross{i}": np.empty((n_samples, scn.n_r, scn.n_t), dtype=np.complex128) for i in others})
    bs_rng = RngStream(seed).child(m)
    for s in range(n_samples):
        rng = bs_rng.child(s)
        for k in range(k_m):
            out["comm_direct"][s, k] = oracle_rician(rng.child(k), 1, scn.n_t, scn.rician_k)[0]
        for i in others:
            for k in range(k_m):
                draw = rng.child(1000 + i * scn.k_max + k)
                out[f"comm_cross{i}"][s, k] = oracle_rician(draw, 1, scn.n_t, scn.rician_k, scn.cross_power_ratio)[0]
        out["target_theta"][s] = rng.child(2000).generator().uniform(-np.pi / 2, np.pi / 2)
        out["target_beta"][s] = oracle_rcs(rng.child(2001), scn.alpha_s)
        for i in others:
            draw = rng.child(3000 + i)
            out[f"radar_cross{i}"][s] = oracle_rician(draw, scn.n_r, scn.n_t, scn.rician_k, scn.cross_power_ratio)
    return out


# ---------------------------------------------------------------------------
# random instance builders (seeded, shared across test modules)


def random_scenario(gen: np.random.Generator, max_cells=3, max_n=4, max_k=3) -> Scenario:
    m = int(gen.integers(1, max_cells + 1))
    return Scenario(
        n_cells=m,
        n_t=int(gen.integers(2, max_n + 1)),
        n_r=int(gen.integers(2, max_n + 1)),
        k_per_cell=tuple(int(gen.integers(1, max_k + 1)) for _ in range(m)),
        rho_per_cell=tuple(float(gen.uniform(0, 1)) for _ in range(m)),
        sigma_c_sq=float(gen.uniform(0.005, 0.05)),
        sigma_s_sq=float(gen.uniform(0.005, 0.05)),
        p_t=float(gen.uniform(0.5, 2.0)),
    )


def make_sample(scn: Scenario, m: int, rng: RngStream) -> ChannelSample:
    """One synthetic joint channel draw for cell m (test-local convention)."""
    k_m = scn.k_per_cell[m]
    gen = rng.generator()
    comm_direct = np.stack(
        [oracle_rician(rng.child(10 + k), 1, scn.n_t, scn.rician_k, 1.0)[0] for k in range(k_m)]
    )
    comm_cross = {
        i: np.stack(
            [
                oracle_rician(rng.child(100 + 10 * i + k), 1, scn.n_t, scn.rician_k, scn.cross_power_ratio)[0]
                for k in range(k_m)
            ]
        )
        for i in range(scn.n_cells)
        if i != m
    }
    radar_cross = {
        n: oracle_rician(rng.child(200 + n), scn.n_r, scn.n_t, scn.rician_k, scn.cross_power_ratio)
        for n in range(scn.n_cells)
        if n != m
    }
    return ChannelSample(
        cell=m,
        comm_direct=comm_direct,
        comm_cross=comm_cross,
        target_theta=float(gen.uniform(-np.pi / 2, np.pi / 2)),
        target_beta=oracle_rcs(rng.child(300), scn.alpha_s),
        radar_cross=radar_cross,
    )


def random_beamformers(scn: Scenario, gen: np.random.Generator, full_power=False) -> list[np.ndarray]:
    """Random feasible beamformer per BS (inside or on the power sphere)."""
    out = []
    for m in range(scn.n_cells):
        w = gen.standard_normal((scn.n_t, scn.k_per_cell[m])) + 1j * gen.standard_normal(
            (scn.n_t, scn.k_per_cell[m])
        )
        scale = math.sqrt(scn.p_t) / np.linalg.norm(w)
        if not full_power:
            scale *= float(gen.uniform(0.3, 1.0))
        out.append(w * scale)
    return out


def random_instance(seed: int, max_cells=3, max_n=4, max_k=3):
    """(scenario, per-BS samples, feasible beamformers) for one oracle check."""
    gen = np.random.default_rng(seed)
    scn = random_scenario(gen, max_cells, max_n, max_k)
    samples = [make_sample(scn, m, RngStream(seed, 77 + m)) for m in range(scn.n_cells)]
    w = random_beamformers(scn, gen)
    return scn, samples, w


# ---------------------------------------------------------------------------
# adapters from per-sample draws to the library's batched loss (not oracles:
# they run the library code under test)


def dataset_from_samples(scn: Scenario, m: int, samples) -> BsDataset:
    """Cell m's ``ChannelSample``s stacked into a ``BsDataset``, all of them training samples."""
    others = [i for i in range(scn.n_cells) if i != m]
    return BsDataset(
        scenario=scn,
        cell=m,
        seed=0,
        n_train=len(samples),
        comm_direct=np.stack([s.comm_direct for s in samples]),
        comm_cross={i: np.stack([s.comm_cross[i] for s in samples]) for i in others},
        radar_cross={i: np.stack([s.radar_cross[i] for s in samples]) for i in others},
        target_theta=np.array([s.target_theta for s in samples]),
        target_beta=np.array([s.target_beta for s in samples], dtype=np.complex128),
    )


def loss_and_grad(params, cfg, scn: Scenario, batch, m: int, peers_w):
    """Mean loss over a batch of samples and its exact parameter gradient.

    ``peers_w`` maps every other cell index to a (B, n_t, k_i) array of that
    BS's beamformers, one per batch sample; they are held constant.
    """
    ctx = LossContext(cfg, dataset_from_samples(scn, m, batch))
    loss, grad, _, _ = ctx.evaluate(params, np.arange(len(batch)), ctx.interference(peers_w))
    return loss, grad


# ---------------------------------------------------------------------------
# Frozen batched objective: LossContext.evaluate and the kernels it called,
# copied unchanged except that the power guard counts nothing and ``self`` is
# the context argument.


def _oracle_unpack(flat, cfg):
    out = {}
    offset = 0
    for name, (fi, fo) in layer_dims(cfg).items():
        w = flat[offset : offset + fi * fo].reshape(fi, fo)
        offset += fi * fo
        b = flat[offset : offset + fo]
        offset += fo
        out[name] = (w, b)
    return out


def _oracle_padded_reals(z, k_max):
    bsz, n_t, k = z.shape
    padded = np.zeros((bsz, n_t, k_max), dtype=np.complex128)
    padded[:, :, :k] = z
    return padded.view(np.float64).reshape(bsz, n_t * k_max * 2)


def _oracle_reshape_to_beams(y, cfg, k_m):
    return y.view(np.complex128).reshape(y.shape[0], cfg.n_t, cfg.k_max)[:, :, :k_m]


def _oracle_mlp_forward(p, xc, xs):
    zc = xc @ p["comm"][0] + p["comm"][1]
    zs = xs @ p["sens"][0] + p["sens"][1]
    af = np.concatenate([np.maximum(zc, 0.0), np.maximum(zs, 0.0)], axis=1)
    zf = af @ p["fusion"][0] + p["fusion"][1]
    f = np.maximum(zf, 0.0)
    y = f @ p["out"][0] + p["out"][1]
    return y, (xc, xs, zc, zs, af, zf, f)


def _oracle_mlp_backward(p, cache, g_y, cfg, out=None):
    xc, xs, zc, zs, af, zf, f = cache
    hidden = cfg.hidden
    grad = np.empty(param_count(cfg)) if out is None else out
    g = _oracle_unpack(grad, cfg)
    np.matmul(f.T, g_y, out=g["out"][0])
    np.sum(g_y, axis=0, out=g["out"][1])
    g_f = g_y @ p["out"][0].T
    g_zf = g_f * (zf > 0.0)
    np.matmul(af.T, g_zf, out=g["fusion"][0])
    np.sum(g_zf, axis=0, out=g["fusion"][1])
    g_af = g_zf @ p["fusion"][0].T
    g_zc = g_af[:, :hidden] * (zc > 0.0)
    g_zs = g_af[:, hidden:] * (zs > 0.0)
    np.matmul(xc.T, g_zc, out=g["comm"][0])
    np.sum(g_zc, axis=0, out=g["comm"][1])
    np.matmul(xs.T, g_zs, out=g["sens"][0])
    np.sum(g_zs, axis=0, out=g["sens"][1])
    return grad


def _oracle_project_batch(w_raw, p_t):
    norms = np.linalg.norm(w_raw, axis=(1, 2))
    positive = norms > 0.0
    scale = np.zeros_like(norms)
    scale[positive] = np.sqrt(p_t) / norms[positive]
    w = w_raw * scale[:, None, None]
    sq = np.sum(w.real**2 + w.imag**2, axis=(1, 2))
    assert np.all(sq <= p_t + 1e-9)
    return w, norms, scale


def oracle_evaluate(ctx: LossContext, params, idx, interference, want_grad=True, out=None):
    """(loss, grad, comm_rates, radar_rates) of ``ctx.evaluate`` as first written, unsplit and untrimmed."""
    idx = np.asarray(idx)
    if idx.size == 0:
        raise ValueError("empty batch")
    cfg, scn, k_m = ctx.cfg, ctx.scn, ctx.k_m
    bsz = idx.size
    rho = scn.rho_per_cell[ctx.m]
    cross_c, den_s = (term[idx] for term in interference)

    p = _oracle_unpack(params, cfg)
    y, cache = _oracle_mlp_forward(p, ctx.xc[idx], ctx.xs[idx])
    w_raw = _oracle_reshape_to_beams(y, cfg, k_m)
    w, norms, scale = _oracle_project_batch(w_raw, scn.p_t)

    h = ctx.h[idx]
    s_c = np.einsum("bkn,bnj->bkj", h.conj(), w)  # (B, k_m, k_m)
    p_c = s_c.real**2 + s_c.imag**2
    diag = np.arange(k_m)
    num = p_c[:, diag, diag]
    den = p_c.sum(axis=2) - num + cross_c + scn.sigma_c_sq
    gamma_c = num / den
    r_c = np.log1p(gamma_c).sum(axis=1) / _LN2  # (B,)

    u = ctx.u[idx]
    s_r = np.einsum("bn,bnj->bj", u.conj(), w)  # (B, k_m)
    p_num = np.sum(s_r.real**2 + s_r.imag**2, axis=1)
    gamma_s = scn.n_r * p_num / den_s
    r_s = np.log1p(gamma_s) / _LN2  # (B,)

    loss = float(-np.mean(rho * r_c + (1.0 - rho) * r_s))
    if not want_grad:
        return loss, None, r_c, r_s

    d_rc = -rho / bsz
    d_rs = -(1.0 - rho) / bsz
    d_gamma_c = d_rc / ((1.0 + gamma_c) * _LN2)     # (B, k_m)
    d_num = d_gamma_c / den
    d_den = -d_gamma_c * gamma_c / den
    gp = np.repeat(d_den[:, :, None], k_m, axis=2)
    gp[:, diag, diag] = d_num
    s_hat_c = 2.0 * gp * s_c
    g_w = np.einsum("bkn,bkj->bnj", h, s_hat_c)

    d_gamma_s = d_rs / ((1.0 + gamma_s) * _LN2)     # (B,)
    d_pnum = d_gamma_s * scn.n_r / den_s
    s_hat_r = 2.0 * d_pnum[:, None] * s_r
    g_w += np.einsum("bn,bj->bnj", u, s_hat_r)

    t_inner = np.sum(g_w.real * w_raw.real + g_w.imag * w_raw.imag, axis=(1, 2))
    positive = norms > 0.0
    coef = np.zeros_like(norms)
    coef[positive] = np.sqrt(scn.p_t) * t_inner[positive] / norms[positive] ** 3
    g_raw = scale[:, None, None] * g_w - coef[:, None, None] * w_raw

    grad = _oracle_mlp_backward(p, cache, _oracle_padded_reals(g_raw, cfg.k_max), cfg, out)
    return loss, grad, r_c, r_s
