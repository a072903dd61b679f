"""Complex channel primitives: array steering, radar target responses, Rician draws.

All randomness flows through explicit :class:`RngStream` values so that every
draw is reproducible bit-for-bit regardless of thread count or call order.

Every draw is seeded from its own ``(seed, stream)``: the values are those of
``RngStream(seed, stream).generator()``. The batch samplers take an
:class:`RngStream` whose ``stream`` is a ``uint64`` array, compute the PCG64
start state of every stream in bulk (:func:`pcg64_start_states`), and re-seed
one generator per stream instead of building one. ``tests/test_channel.py``
checks the start states against numpy, and ``tests/test_datagen.py`` checks
whole datasets byte for byte against the one-generator-per-draw loop in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15

# numpy's SeedSequence (NEP 19) hash and mix constants, and the PCG64 LCG multiplier.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Treat the scattered component as exactly zero above this K-factor.
PURE_LOS_K = 1e12


def _splitmix64(z):
    """SplitMix64 finalizer of a Python int, or elementwise of a uint64 array."""
    z = (z + _GOLDEN64) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """Value-typed random stream: (seed, stream) fully determines all draws.

    ``stream`` is an int, or a 1-d ``uint64`` array for a batch of streams
    that :meth:`child` and the samplers below work on elementwise;
    :meth:`generator` needs an int stream.
    """

    seed: int
    stream: int | np.ndarray = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed & _MASK64, self.stream & _MASK64])))

    def child(self, index: int | np.ndarray) -> "RngStream":
        """Derive a statistically independent substream (pure integer mixing).

        ``index`` may be a ``uint64`` array: the child then holds one stream
        per entry.
        """
        return RngStream(self.seed, _splitmix64((((self.stream * _GOLDEN64) & _MASK64) + index + 1) & _MASK64))


def pcg64_start_states(seed: int, streams: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` that ``RngStream(seed, s).generator()`` starts from, for each ``s``.

    ``streams`` is a 1-d ``uint64`` array. This replays numpy's
    ``SeedSequence([seed & 2**64-1, s]).generate_state(4, uint64)`` (NEP 19)
    in uint32 arithmetic over all streams at once, then PCG64's two-step
    set-seed in Python 128-bit ints.
    """
    seed &= _MASK64
    seed_words = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed & _MASK32]
    # The entropy is the seed's words, then the stream's: one word below 2**32,
    # else two. SeedSequence hashes pool words past the entropy as 0, so a
    # one-word stream hashes as if its high word were 0 and every stream of
    # the batch fits one layout.
    words = np.zeros((_SS_POOL_SIZE, streams.size), dtype=np.uint32)
    words[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    words[len(seed_words)] = streams & _MASK32
    words[len(seed_words) + 1] = streams >> 32

    hash_const = _SS_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _SS_MULT_A) & _MASK32
        value = value * hash_const
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _SS_MIX_L - y * _SS_MIX_R
        return result ^ (result >> 16)

    pool = [hashmix(w) for w in words]
    for src in range(_SS_POOL_SIZE):
        for dst in range(_SS_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    # generate_state(4, uint64): 8 uint32 words, cycling over the pool
    hash_const = _SS_INIT_B
    state = []
    for i in range(8):
        value = pool[i % _SS_POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _SS_MULT_B) & _MASK32
        value = value * hash_const
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # ...viewed as uint64 little-endian: PCG64 takes words 0, 1 as its seed
    # (high, low) and words 2, 3 as its increment.
    seed_hi, seed_lo, inc_hi, inc_lo = (state[2 * k] | (state[2 * k + 1] << 32) for k in range(4))

    starts = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi.tolist(), seed_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        starts.append((((inc + ((s_hi << 64) | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return starts


def _generators(rng: RngStream):
    """One generator per stream of ``rng``, in order, each as ``generator()`` would build it.

    The first comes from :meth:`RngStream.generator`; it is then re-seeded in
    place for each further stream.
    """
    streams = np.asarray(rng.stream & _MASK64, dtype=np.uint64).reshape(-1)
    gen = RngStream(rng.seed, int(streams[0])).generator()
    yield gen
    if streams.size == 1:
        return
    bit_gen = gen.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for start, inc in pcg64_start_states(rng.seed, streams[1:]):
        pcg["state"], pcg["inc"] = start, inc
        bit_gen.state = state
        yield gen


def _per_stream(rng: RngStream, draws: np.ndarray):
    """``draws`` (one row per stream) shaped like ``rng.stream``: a batch keeps its axis, an int drops it."""
    return draws if np.ndim(rng.stream) else draws[0]


@dataclass(frozen=True)
class SteeringConfig:
    """Uniform linear array geometry."""

    n_elements: int
    element_spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        if not self.element_spacing_wavelengths > 0:
            raise ValueError(f"element spacing must be > 0, got {self.element_spacing_wavelengths}")


def steering_vector(theta: float | np.ndarray, cfg: SteeringConfig) -> np.ndarray:
    """ULA steering vector toward angle ``theta`` (radians, broadside = 0).

    Entry i is exp(j 2*pi * spacing * i * sin(theta)); entry 0 is always 1.
    A 1-d array of angles gives one vector per angle, shape (n, n_elements).
    """
    if not np.all((-np.pi / 2 <= theta) & (theta <= np.pi / 2)):
        raise ValueError(f"theta must lie in [-pi/2, pi/2], got {theta}")
    idx = np.arange(cfg.n_elements)
    phase = 2.0 * np.pi * cfg.element_spacing_wavelengths * idx * np.sin(theta)[..., None]
    return np.exp(1j * phase)


def target_response(beta: complex, theta: float, rx_cfg: SteeringConfig, tx_cfg: SteeringConfig) -> np.ndarray:
    """Rank-1 radar target channel: beta * a(theta) b(theta)^H, shape (N_R, N_T)."""
    a = steering_vector(theta, rx_cfg)
    b = steering_vector(theta, tx_cfg)
    return beta * np.outer(a, b.conj())


def sample_rician(rng: RngStream, rows: int, cols: int, k_factor: float, mean_power: float = 1.0) -> np.ndarray:
    """Draw one Rician-fading matrix per stream of ``rng`` with per-entry mean power ``mean_power``.

    The line-of-sight term is a single random phase shared by all entries of
    the matrix; the scattered term is circularly-symmetric complex Gaussian
    with unit variance. Draw order (phase first, then scatter: all real parts,
    then all imaginary parts) is part of the determinism contract. Returns
    (rows, cols) for an int stream and (n, rows, cols) for n streams.
    """
    if k_factor < 0:
        raise ValueError(f"k_factor must be >= 0, got {k_factor}")
    if not mean_power > 0:
        raise ValueError(f"mean_power must be > 0, got {mean_power}")
    n = np.size(rng.stream)
    unit = np.empty(n)
    normals = np.empty((n, 2, rows, cols)) if k_factor < PURE_LOS_K else None
    for j, gen in enumerate(_generators(rng)):
        unit[j] = gen.random()
        if normals is not None:
            gen.standard_normal(out=normals[j])
    # Generator.uniform(0, 2 pi) is 0 + 2 pi * random()
    h = np.exp(1j * (2.0 * np.pi * unit))[:, None, None] * np.ones((rows, cols))
    if normals is not None:
        # sqrt(K/(K+1)) * los + sqrt(1/(K+1)) * (re + 1j*im) * sqrt(1/2), in place:
        # IEEE + and * commute, so swapping operands keeps every bit.
        scatter = 1j * normals[:, 1]
        scatter += normals[:, 0]
        del normals
        scatter *= np.sqrt(0.5)
        scatter *= np.sqrt(1.0 / (k_factor + 1.0))
        h *= np.sqrt(k_factor / (k_factor + 1.0))
        h += scatter
    h *= np.sqrt(mean_power)
    return _per_stream(rng, h)


def sample_rcs(rng: RngStream, alpha_s: float):
    """Complex Gaussian radar cross section draw per stream of ``rng``, with E|beta|^2 = alpha_s.

    Returns a complex for an int stream and an (n,) complex array for n streams.
    """
    if not alpha_s > 0:
        raise ValueError(f"alpha_s must be > 0, got {alpha_s}")
    normals = np.empty((np.size(rng.stream), 2))
    for j, gen in enumerate(_generators(rng)):
        gen.standard_normal(out=normals[j])
    return _per_stream(rng, np.sqrt(alpha_s / 2.0) * (normals[:, 0] + 1j * normals[:, 1]))


def sample_uniform(rng: RngStream, low: float, high: float):
    """``Generator.uniform(low, high)`` per stream of ``rng``: a float, or an (n,) array for n streams."""
    unit = np.array([gen.random() for gen in _generators(rng)])
    # the formula Generator.uniform applies to one random()
    return _per_stream(rng, low + (high - low) * unit)
