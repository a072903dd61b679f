"""Dual-branch beamforming network and its reverse-mode gradient engine.

The network maps stacked real/imag channel features to a complex beamforming
matrix, which is rescaled onto the transmit-power sphere. The training loss is
the negated scalarized utility (comm rate + radar rate), and the backward pass
is written by hand for exactly this pipeline. :meth:`LossContext.evaluate`
gathers a batch and composes six module-level stages, each taking the batch
as its leading axis: ``_mlp_forward`` (four dense layers), ``_project_batch``
(the power projection), ``_rate_heads``, then backwards ``_rate_heads_backward``,
``_project_backward`` and ``_mlp_backward``. Complex quantities are
differentiated as independent real/imag pairs throughout.

Other base stations' beamformers enter the objective only through
interference terms and are treated as constants (no cross-BS gradient flow).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from isacfl.channel import RngStream, steering_vector
from isacfl.container import ContainerReader, DatasetFormatError, decoding, write_container
from isacfl.datagen import BsDataset
from isacfl.metrics import Scenario

_LN2 = float(np.log(2.0))

PARAMS_MAGIC = "isacfl-params"
ADAM_MAGIC = "isacfl-adam"
FORMAT_VERSION = 1

POWER_TOL = 1e-9

# Adam's fixed hyperparameters; an optimizer file written with others is refused.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
_ADAM_FIXED = {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS}

# Elements per chunk of an Adam work pair: two 256 KiB float64 vectors. A
# full-network step (168,768 parameters) on a 2-core Xeon with 2 MiB of L2
# per core took 1.15-1.23 ms with chunks of 8k-64k, 1.51 ms with one
# full-length pair, and 2.57 ms with two fresh full-length temporaries per
# step, which glibc hands back to the kernel and faults in again.
ADAM_CHUNK = 32768

_power_checks = 0


class PowerConstraintError(ArithmeticError):
    """A produced beamformer exceeded the transmit power budget."""


def power_checks_performed() -> int:
    """How many beamformer batches the inline power guard has validated."""
    return _power_checks


@dataclass(frozen=True)
class NetConfig:
    """Shape of the dual-branch beamforming network."""

    n_t: int
    k_max: int
    hidden: int

    def __post_init__(self):
        if self.n_t < 1 or self.k_max < 1 or self.hidden < 1:
            raise ValueError("all network dimensions must be >= 1")

    @property
    def comm_in_dim(self) -> int:
        return self.n_t * self.k_max * 2

    @property
    def sens_in_dim(self) -> int:
        return self.n_t * 2

    @property
    def out_dim(self) -> int:
        return self.n_t * self.k_max * 2


def layer_dims(cfg: NetConfig) -> dict[str, tuple[int, int]]:
    """(fan_in, fan_out) of each dense layer, in flat-packing order."""
    return {
        "comm": (cfg.comm_in_dim, cfg.hidden),
        "sens": (cfg.sens_in_dim, cfg.hidden),
        "fusion": (2 * cfg.hidden, cfg.hidden),
        "out": (cfg.hidden, cfg.out_dim),
    }


def param_count(cfg: NetConfig) -> int:
    return sum(fi * fo + fo for fi, fo in layer_dims(cfg).values())


@cache
def _layer_slices(cfg: NetConfig) -> tuple[tuple[str, slice, tuple[int, int], slice], ...]:
    """Each layer's weight slice, weight shape and bias slice in the flat vector, walked once per network."""
    out, offset = [], 0
    for name, (fi, fo) in layer_dims(cfg).items():
        out.append((name, slice(offset, offset + fi * fo), (fi, fo), slice(offset + fi * fo, offset + fi * fo + fo)))
        offset += fi * fo + fo
    return tuple(out)


def unpack(flat: np.ndarray, cfg: NetConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Views (no copies) of each layer's weight matrix and bias vector in the flat vector."""
    return {name: (flat[w].reshape(shape), flat[b]) for name, w, shape, b in _layer_slices(cfg)}


def init_params(cfg: NetConfig, rng: RngStream) -> np.ndarray:
    """Glorot-uniform weights, zero biases, deterministic per stream."""
    gen = rng.generator()
    flat = np.zeros(param_count(cfg))
    for w, _ in unpack(flat, cfg).values():
        bound = np.sqrt(6.0 / sum(w.shape))
        w[:] = gen.uniform(-bound, bound, size=w.shape)
    return flat


@dataclass
class AdamState:
    """Adam moments and step counter for one parameter vector; the learning rate is the run's."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, n_params: int) -> "AdamState":
        return cls(m=np.zeros(n_params), v=np.zeros(n_params))


def adam_work(n_params: int) -> tuple[np.ndarray, np.ndarray]:
    """An uninitialized work pair for :func:`adam_step` on ``n_params`` parameters: at most one chunk long."""
    size = max(1, min(n_params, ADAM_CHUNK))
    return np.empty(size), np.empty(size)


def work_chunks(n: int, work: tuple[np.ndarray, np.ndarray]):
    """Slices covering ``range(n)`` in steps of the pair's length, each with both work vectors cut to its length."""
    tmp, den = work
    size = min(tmp.size, den.size)
    if size < 1:
        raise ValueError("work vectors must hold at least one element")
    for start in range(0, n, size):
        stop = min(start + size, n)
        yield slice(start, stop), tmp[: stop - start], den[: stop - start]


def adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """One bias-corrected Adam update with learning rate ``lr``, in place.

    Overwrites ``params``, ``state.m`` and ``state.v`` and advances
    ``state.step``. The operations run in the order of the textbook
    expressions (``((1 - b2) * g) * g``, then ``lr * m_hat``, then the
    division by ``sqrt(v_hat) + eps``), so the result is bit-identical to
    evaluating them. They run chunk by chunk through ``work``, a pair of
    float64 vectors the caller owns and reuses (:func:`adam_work`); every
    operation is elementwise, so the chunk length does not change a bit.
    Without a pair, this call makes one.
    """
    if grad.shape != params.shape:
        raise ValueError("gradient length does not match parameter vector")
    if params.ndim != 1:
        raise ValueError("adam_step updates a flat parameter vector")
    if work is None:
        work = adam_work(params.size)
    t = state.step + 1
    m_corr = 1.0 - ADAM_BETA1**t
    v_corr = 1.0 - ADAM_BETA2**t
    for part, tmp, den in work_chunks(params.size, work):
        p, g, m, v = params[part], grad[part], state.m[part], state.v[part]
        np.multiply(m, ADAM_BETA1, out=m)
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        np.add(m, tmp, out=m)
        np.multiply(v, ADAM_BETA2, out=v)
        np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
        np.multiply(tmp, g, out=tmp)
        np.add(v, tmp, out=v)
        np.divide(m, m_corr, out=tmp)
        np.multiply(tmp, lr, out=tmp)
        np.divide(v, v_corr, out=den)
        np.sqrt(den, out=den)
        np.add(den, ADAM_EPS, out=den)
        np.divide(tmp, den, out=tmp)
        np.subtract(p, tmp, out=p)
    state.step = t


def sens_channel(theta: np.ndarray, beta: np.ndarray, scn: Scenario) -> np.ndarray:
    """Effective post-combining sensing channels beta * sqrt(n_r) * b(theta): (B, n_t).

    With the unit-norm matched combiner at the receiver, the target echo seen
    by the transmit side collapses to this n_t-vector per sample.
    """
    phase = 2.0 * np.pi * scn.element_spacing * np.outer(np.sin(theta), np.arange(scn.n_t))
    return np.sqrt(scn.n_r) * beta[:, None] * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Feature construction


def _padded_reals(z: np.ndarray, k_max: int) -> np.ndarray:
    """(B, n_t, k) complex matrices zero-padded to k_max columns, as their float64 view (B, n_t * k_max * 2).

    This is the network's real layout, (n_t, k_max, re/im) row-major, which is
    complex128's own memory order; :func:`_reshape_to_beams` inverts it.
    """
    bsz, n_t, k = z.shape
    padded = np.zeros((bsz, n_t, k_max), dtype=np.complex128)
    padded[:, :, :k] = z
    return padded.view(np.float64).reshape(bsz, n_t * k_max * 2)


def comm_features(comm_direct: np.ndarray, cfg: NetConfig) -> np.ndarray:
    """(B, k_m, n_t) direct channels as (B, n_t * k_max * 2) features, users zero-padded to k_max."""
    bsz, k_m, n_t = comm_direct.shape
    if n_t != cfg.n_t or k_m > cfg.k_max:
        raise ValueError("channel dimensions do not match the network config")
    return _padded_reals(np.transpose(comm_direct, (0, 2, 1)), cfg.k_max)


def sens_features(u: np.ndarray, cfg: NetConfig) -> np.ndarray:
    """(B, n_t) complex128 sensing channels as their (B, n_t * 2) float64 view."""
    if u.shape[1] != cfg.n_t:
        raise ValueError("sensing channel dimension does not match the network config")
    return np.ascontiguousarray(u, dtype=np.complex128).view(np.float64)


# ---------------------------------------------------------------------------
# Forward / backward core


def _mlp_forward(p: dict, xc: np.ndarray, xs: np.ndarray):
    zc = xc @ p["comm"][0]
    zc += p["comm"][1]
    zs = xs @ p["sens"][0]
    zs += p["sens"][1]
    af = np.concatenate([zc, zs], axis=1)
    np.maximum(af, 0.0, out=af)
    zf = af @ p["fusion"][0]
    zf += p["fusion"][1]
    f = np.maximum(zf, 0.0)
    y = f @ p["out"][0]
    y += p["out"][1]
    return y, (xc, xs, zc, zs, af, zf, f)


def _mlp_backward(p: dict, cache, g_y: np.ndarray, cfg: NetConfig, out: np.ndarray | None = None) -> np.ndarray:
    """Parameter gradient, each block written straight into one flat vector (``out`` if given)."""
    xc, xs, zc, zs, af, zf, f = cache
    hidden = cfg.hidden
    grad = np.empty(param_count(cfg)) if out is None else out
    g = unpack(grad, cfg)
    np.matmul(f.T, g_y, out=g["out"][0])
    np.add.reduce(g_y, axis=0, out=g["out"][1])
    g_f = g_y @ p["out"][0].T
    g_zf = g_f * (zf > 0.0)
    np.matmul(af.T, g_zf, out=g["fusion"][0])
    np.add.reduce(g_zf, axis=0, out=g["fusion"][1])
    g_af = g_zf @ p["fusion"][0].T
    g_zc = g_af[:, :hidden] * (zc > 0.0)
    g_zs = g_af[:, hidden:] * (zs > 0.0)
    np.matmul(xc.T, g_zc, out=g["comm"][0])
    np.add.reduce(g_zc, axis=0, out=g["comm"][1])
    np.matmul(xs.T, g_zs, out=g["sens"][0])
    np.add.reduce(g_zs, axis=0, out=g["sens"][1])
    return grad


def _reshape_to_beams(y: np.ndarray, cfg: NetConfig, k_m: int) -> np.ndarray:
    """The (B, n_t, k_m) complex view of network outputs in the :func:`_padded_reals` layout."""
    return y.view(np.complex128).reshape(y.shape[0], cfg.n_t, cfg.k_max)[:, :, :k_m]


def _project_batch(w_raw: np.ndarray, p_t: float):
    """Rescale each (n_t, k_m) beamformer onto ||W||_F^2 = p_t (norms as np.linalg.norm takes them); zeros stay zero."""
    norms = np.sqrt(np.add.reduce((w_raw.conj() * w_raw).real, axis=(1, 2)))
    scale = np.divide(np.sqrt(p_t), norms, out=np.zeros(len(norms)), where=norms > 0.0)
    w = w_raw * scale[:, None, None]
    check_power(w, p_t)
    return w, norms, scale


def _project_backward(g_w: np.ndarray, w_raw: np.ndarray, norms: np.ndarray, scale: np.ndarray, p_t: float):
    """Gradient w.r.t. ``w_raw`` of w = w_raw * sqrt(p_t) / ||w_raw||, given the gradient ``g_w`` w.r.t. w."""
    t_inner = np.add.reduce(g_w.real * w_raw.real + g_w.imag * w_raw.imag, axis=(1, 2))
    coef = np.divide(np.sqrt(p_t) * t_inner, norms**3, out=np.zeros(len(norms)), where=norms > 0.0)
    return scale[:, None, None] * g_w - coef[:, None, None] * w_raw


def _rate_heads(h: np.ndarray, u: np.ndarray, w: np.ndarray, cross_c: np.ndarray, den_s: np.ndarray, scn: Scenario):
    """Comm sum rates (B,) and radar rates (B,) of beamformers ``w``, and what the backward pass reads."""
    s_c = np.einsum("bkn,bnj->bkj", h.conj(), w)  # (B, k_m, k_m)
    p_c = s_c.real**2 + s_c.imag**2
    num = p_c.diagonal(axis1=1, axis2=2)
    den = np.add.reduce(p_c, axis=2) - num + cross_c + scn.sigma_c_sq
    gamma_c = num / den
    r_c = np.add.reduce(np.log1p(gamma_c), axis=1) / _LN2
    s_r = np.einsum("bn,bnj->bj", u.conj(), w)  # (B, k_m)
    p_num = np.add.reduce(s_r.real**2 + s_r.imag**2, axis=1)
    gamma_s = scn.n_r * p_num / den_s
    r_s = np.log1p(gamma_s) / _LN2
    return r_c, r_s, (s_c, den, gamma_c, s_r, gamma_s, den_s)


def _rate_heads_backward(h: np.ndarray, u: np.ndarray, heads: tuple, d_rc: float, d_rs: float, scn: Scenario):
    """Gradient w.r.t. w of ``d_rc * sum(r_c) + d_rs * sum(r_s)``, packed as d/d(re) + j * d/d(im)."""
    s_c, den, gamma_c, s_r, gamma_s, den_s = heads
    d_gamma_c = d_rc / ((1.0 + gamma_c) * _LN2)     # (B, k_m)
    d_num = d_gamma_c / den
    d_den = -d_gamma_c * gamma_c / den
    gp = np.empty(s_c.shape)
    gp[...] = d_den[:, :, None]
    gp.reshape(len(gp), -1)[:, :: gp.shape[2] + 1] = d_num  # the (k_m, k_m) diagonals
    s_hat_c = 2.0 * gp * s_c
    g_w = np.einsum("bkn,bkj->bnj", h, s_hat_c)
    d_gamma_s = d_rs / ((1.0 + gamma_s) * _LN2)     # (B,)
    d_pnum = d_gamma_s * scn.n_r / den_s
    s_hat_r = 2.0 * d_pnum[:, None] * s_r
    g_w += np.einsum("bn,bj->bnj", u, s_hat_r)
    return g_w


def check_power(w: np.ndarray, p_t: float) -> None:
    """Inline guard: every beamformer of a (B, n_t, k_m) batch must satisfy ||W||_F^2 <= p_t + tol."""
    global _power_checks
    _power_checks += 1
    sq = np.add.reduce(w.real**2 + w.imag**2, axis=(1, 2))
    if not (sq <= p_t + POWER_TOL).all():
        raise PowerConstraintError(f"beamformer power {np.max(sq)} exceeds budget {p_t}")


def forward_batch(params: np.ndarray, cfg: NetConfig, xc: np.ndarray, xs: np.ndarray, k_m: int, p_t: float) -> np.ndarray:
    """Beamformers for a feature batch: (B, n_t, k_m), each on the power sphere."""
    p = unpack(params, cfg)
    y, _ = _mlp_forward(p, xc, xs)
    w_raw = _reshape_to_beams(y, cfg, k_m)
    w, _, _ = _project_batch(w_raw, p_t)
    return w


class LossContext:
    """One BS's data, held in the form its training objective reads.

    Holds the direct/cross channels, network input features, the
    combiner-projected radar leakage rows and the train/eval split
    (``n_train`` and ``eval_indices``), so that repeated mini-batch
    evaluations only index and multiply. The dataset's radar channels, target
    angles and target coefficients are read here and not kept.
    """

    def __init__(self, cfg: NetConfig, ds: BsDataset):
        if ds.n_samples == 0:
            raise ValueError("empty sample set")
        scn, m = ds.scenario, ds.cell
        if not 0 <= m < scn.n_cells:
            raise IndexError(f"cell index {m} out of range")
        self.cfg = cfg
        self.scn = scn
        self.m = m
        self.k_m = scn.k_per_cell[m]
        self.n_samples = ds.n_samples
        self.n_train = ds.n_train
        self.eval_indices = np.arange(ds.n_train, ds.n_samples)
        self.h = ds.comm_direct  # (n, k_m, n_t)
        self.h_cross = ds.comm_cross
        self.u = sens_channel(ds.target_theta, ds.target_beta, scn)  # (n, n_t)
        # Unit-norm matched combiners, normed with the two dot products
        # np.linalg.norm takes of one complex vector, so each row is bit for
        # bit the reference combiner of the metrics module.
        a = steering_vector(ds.target_theta, scn.rx_steering())  # (n, n_r)
        sq = np.matmul(a.real[:, None, :], a.real[:, :, None]) + np.matmul(a.imag[:, None, :], a.imag[:, :, None])
        v = a / np.sqrt(sq[:, 0])
        # Combiner rows v^H G for every interfering BS; constant per sample.
        self.vg = {n_cell: np.einsum("br,brn->bn", v.conj(), g) for n_cell, g in ds.radar_cross.items()}
        self.xc = comm_features(self.h, cfg)
        self.xs = sens_features(self.u, cfg)

    def interference(self, pools: dict[int, np.ndarray], first: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Constant interference terms of every sample: (n, k_m) comm and (n,) radar denominators.

        ``pools`` maps other cells to their published (P_i, n_t, k_i)
        beamformers; sample s pairs with pool entry s % P_i, and an entry for
        this cell is ignored. Only samples ``first`` onwards are computed;
        earlier rows hold no peer terms and must not be read.
        """
        n = self.n_samples
        cross_c = np.zeros((n, self.k_m))
        den_s = np.full(n, self.scn.sigma_s_sq)
        rows = np.arange(first, n)
        for i, pool in pools.items():
            if i == self.m:
                continue
            w_i = pool[rows % pool.shape[0]]
            s_c = np.einsum("bkn,bnj->bkj", self.h_cross[i][first:].conj(), w_i)
            cross_c[first:] += np.sum(np.abs(s_c) ** 2, axis=2)
            s_r = np.einsum("bn,bnj->bj", self.vg[i][first:], w_i)
            den_s[first:] += np.sum(np.abs(s_r) ** 2, axis=1)
        return cross_c, den_s

    def evaluate(
        self,
        params: np.ndarray,
        idx: np.ndarray,
        interference: tuple[np.ndarray, np.ndarray],
        want_grad: bool = True,
        out: np.ndarray | None = None,
    ):
        """Mean loss over the indexed samples, with optional exact gradient.

        ``interference`` is :meth:`interference` of the peer pools; only its
        ``idx`` rows are read. Returns (loss, grad, comm_rates, radar_rates);
        ``grad`` is None when ``want_grad`` is false. Rates are per-sample
        arrays. With ``out``, a parameter-length float64 vector, the gradient
        is written into it and ``grad`` is ``out``.
        """
        idx = np.asarray(idx)
        if idx.size == 0:
            raise ValueError("empty batch")
        cfg, scn, bsz = self.cfg, self.scn, idx.size
        rho = scn.rho_per_cell[self.m]
        h, u = self.h[idx], self.u[idx]
        cross_c, den_s = interference[0][idx], interference[1][idx]

        p = unpack(params, cfg)
        y, cache = _mlp_forward(p, self.xc[idx], self.xs[idx])
        w_raw = _reshape_to_beams(y, cfg, self.k_m)
        w, norms, scale = _project_batch(w_raw, scn.p_t)
        r_c, r_s, heads = _rate_heads(h, u, w, cross_c, den_s, scn)
        loss = float(-(np.add.reduce(rho * r_c + (1.0 - rho) * r_s) / bsz))
        if not want_grad:
            return loss, None, r_c, r_s

        g_w = _rate_heads_backward(h, u, heads, -rho / bsz, -(1.0 - rho) / bsz, scn)
        g_raw = _project_backward(g_w, w_raw, norms, scale, scn.p_t)
        grad = _mlp_backward(p, cache, _padded_reals(g_raw, cfg.k_max), cfg, out)
        return loss, grad, r_c, r_s


# ---------------------------------------------------------------------------
# Serialization: the shared container (isacfl.container) with float64 arrays


def save_params(path, params: np.ndarray, cfg: NetConfig) -> None:
    header = {
        "format": PARAMS_MAGIC,
        "version": FORMAT_VERSION,
        "net": asdict(cfg),
        "layers": [[name, list(dims)] for name, dims in layer_dims(cfg).items()],
    }
    write_container(path, header, [params], "<f8")


def load_params(path, cfg: NetConfig) -> np.ndarray:
    """The parameter vector in ``path``, which must have been written for network ``cfg``."""
    with open(path, "rb") as fh, decoding(path):
        reader = ContainerReader(fh, path, PARAMS_MAGIC, FORMAT_VERSION, "<f8")
        dims = {key: reader.header["net"][key] for key in asdict(cfg)}
        if not all(isinstance(value, int) for value in dims.values()):
            raise DatasetFormatError(f"{path}: network dimensions must be integers, got {dims}")
        if dims != asdict(cfg):
            raise DatasetFormatError(f"{path}: written for network {dims}, this run has {cfg}")
        return reader.array(param_count(cfg)).astype(np.float64)


def save_adam(path, state: AdamState, lr: float) -> None:
    header = {
        "format": ADAM_MAGIC,
        "version": FORMAT_VERSION,
        "step": state.step,
        "lr": lr,
        **_ADAM_FIXED,
    }
    write_container(path, header, [state.m, state.v], "<f8")


def load_adam(path, n_params: int, lr: float) -> AdamState:
    """The optimizer state in ``path``: ``n_params`` values per moment, written with learning rate ``lr``."""
    with open(path, "rb") as fh, decoding(path):
        reader = ContainerReader(fh, path, ADAM_MAGIC, FORMAT_VERSION, "<f8")
        m = reader.array(n_params).astype(np.float64)
        v = reader.array(n_params).astype(np.float64)
        hyper = {key: reader.header[key] for key in ("step", "lr", *_ADAM_FIXED)}
        if not isinstance(hyper["step"], int) or not all(isinstance(value, (int, float)) for value in hyper.values()):
            raise DatasetFormatError(f"{path}: optimizer settings must be numbers, got {hyper}")
        for key, fixed in _ADAM_FIXED.items():
            if hyper[key] != fixed:
                raise DatasetFormatError(f"{path}: written with Adam {key} {hyper[key]}, this program uses {fixed}")
        if hyper["lr"] != lr:
            raise DatasetFormatError(f"{path}: written with learning rate {hyper['lr']}, this run has {lr}")
        return AdamState(m=m, v=v, step=hyper["step"])
