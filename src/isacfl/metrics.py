"""Rate, SINR, and scalarized utility formulas for the multi-cell ISAC system.

These are the reference implementations that the training loss, which also
computes every reported rate (``isacfl.nn.LossContext``), must agree with.
Everything is a pure function of a :class:`Scenario`, per-BS
:class:`ChannelSample` draws, and a list of per-BS beamforming matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from isacfl.channel import SteeringConfig, steering_vector, target_response


@dataclass(frozen=True)
class Scenario:
    """Static description of a multi-cell ISAC deployment.

    ``k_per_cell`` and ``rho_per_cell`` have one entry per BS; all cells share
    the antenna counts, noise powers, and the per-BS power budget ``p_t``.
    ``cross_power_ratio`` attenuates every inter-cell channel relative to the
    unit-power direct channels (stand-in for distance-dependent pathloss).
    """

    n_cells: int
    n_t: int
    n_r: int
    k_per_cell: tuple[int, ...]
    rho_per_cell: tuple[float, ...]
    sigma_c_sq: float = 0.01
    sigma_s_sq: float = 0.01
    p_t: float = 1.0
    alpha_s: float = 1.0
    rician_k: float = 3.0
    element_spacing: float = 0.5
    cross_power_ratio: float = 0.1

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("antenna counts must be >= 1")
        if len(self.k_per_cell) != self.n_cells or len(self.rho_per_cell) != self.n_cells:
            raise ValueError("k_per_cell and rho_per_cell must have one entry per cell")
        if any(k < 1 for k in self.k_per_cell):
            raise ValueError("every cell must serve at least one user")
        if any(not 0.0 <= r <= 1.0 for r in self.rho_per_cell):
            raise ValueError("rho must lie in [0, 1]")
        for name in ("sigma_c_sq", "sigma_s_sq", "p_t", "alpha_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if self.rician_k < 0:
            raise ValueError("rician_k must be >= 0")
        if not self.cross_power_ratio > 0:
            raise ValueError("cross_power_ratio must be > 0")

    @property
    def k_max(self) -> int:
        return max(self.k_per_cell)

    def tx_steering(self) -> SteeringConfig:
        return SteeringConfig(self.n_t, self.element_spacing)

    def rx_steering(self) -> SteeringConfig:
        return SteeringConfig(self.n_r, self.element_spacing)


@dataclass
class ChannelSample:
    """One joint draw of every channel terminating at cell ``cell``.

    comm_direct[k]      -- (n_t,) channel from the own BS to user k
    comm_cross[i][k]    -- (n_t,) channel from interfering BS i (i != cell)
    radar_cross[n]      -- (n_r, n_t) echo channel from BS n into the radar rx
    target_theta / beta -- realized angle and RCS of the cell's radar target
    """

    cell: int
    comm_direct: np.ndarray            # (k_m, n_t) complex
    comm_cross: dict[int, np.ndarray]  # i -> (k_m, n_t) complex
    target_theta: float
    target_beta: complex
    radar_cross: dict[int, np.ndarray] = field(default_factory=dict)  # n -> (n_r, n_t)


BeamformerSet = Sequence[np.ndarray]  # per BS: (n_t, k_m) complex, ||W||_F^2 <= p_t


def _check_cell_user(scn: Scenario, m: int, k: int | None = None) -> None:
    if not 0 <= m < scn.n_cells:
        raise IndexError(f"cell index {m} out of range for {scn.n_cells} cells")
    if k is not None and not 0 <= k < scn.k_per_cell[m]:
        raise IndexError(f"user index {k} out of range for cell {m} with {scn.k_per_cell[m]} users")


def comm_sinr(scn: Scenario, samples: Sequence[ChannelSample], w: BeamformerSet, m: int, k: int) -> float:
    """Downlink SINR of user k in cell m under beamformers ``w``.

    Desired power over intra-cell leakage, inter-cell leakage, and noise.
    """
    _check_cell_user(scn, m, k)
    s = samples[m]
    h = s.comm_direct[k]
    signals = h.conj() @ w[m]                      # (k_m,) h^H w_j for all beams j
    num = abs(signals[k]) ** 2
    intra = float(np.sum(np.abs(signals) ** 2)) - num
    inter = 0.0
    for i, h_cross in s.comm_cross.items():
        inter += float(np.sum(np.abs(h_cross[k].conj() @ w[i]) ** 2))
    return num / (intra + inter + scn.sigma_c_sq)


def comm_sum_rate(scn: Scenario, samples: Sequence[ChannelSample], w: BeamformerSet, m: int) -> float:
    """Achievable sum rate of cell m: sum_k log2(1 + SINR_k)."""
    _check_cell_user(scn, m)
    return float(sum(np.log2(1.0 + comm_sinr(scn, samples, w, m, k)) for k in range(scn.k_per_cell[m])))


def mrc_combiner(theta: float, cfg: SteeringConfig) -> np.ndarray:
    """Receive combiner matched to the target direction, scaled to unit norm."""
    a = steering_vector(theta, cfg)
    return a / np.linalg.norm(a)


def radar_sinr(scn: Scenario, samples: Sequence[ChannelSample], w: BeamformerSet, m: int) -> float:
    """Post-combining radar SINR at BS m.

    The combiner is the unit-norm match to the target direction, so sigma_s_sq
    is the post-combining noise power and the leading n_r factor is the array
    gain left explicit.
    """
    _check_cell_user(scn, m)
    s = samples[m]
    v = mrc_combiner(s.target_theta, scn.rx_steering())
    g_m = target_response(s.target_beta, s.target_theta, scn.rx_steering(), scn.tx_steering())
    vg = v.conj() @ g_m                            # (n_t,)
    num = float(np.sum(np.abs(vg @ w[m]) ** 2))
    denom = scn.sigma_s_sq
    for n, g_cross in s.radar_cross.items():
        denom += float(np.sum(np.abs((v.conj() @ g_cross) @ w[n]) ** 2))
    return scn.n_r * num / denom


def radar_rate(scn: Scenario, samples: Sequence[ChannelSample], w: BeamformerSet, m: int) -> float:
    """Radar information rate of BS m: log2(1 + radar SINR)."""
    return float(np.log2(1.0 + radar_sinr(scn, samples, w, m)))


def bs_utility(scn: Scenario, samples: Sequence[ChannelSample], w: BeamformerSet, m: int) -> float:
    """Scalarized per-BS objective: rho * comm rate + (1 - rho) * radar rate."""
    rho = scn.rho_per_cell[m]
    return rho * comm_sum_rate(scn, samples, w, m) + (1.0 - rho) * radar_rate(scn, samples, w, m)


def system_utility(scn: Scenario, samples: Sequence[ChannelSample], w: BeamformerSet) -> tuple[float, list[float]]:
    """Network objective: sum of per-BS utilities, plus the per-BS breakdown."""
    per_bs = [bs_utility(scn, samples, w, m) for m in range(scn.n_cells)]
    return float(sum(per_bs)), per_bs
