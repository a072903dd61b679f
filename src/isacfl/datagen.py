"""Scenario presets, synthetic dataset generation, and dataset persistence.

Channels are drawn per sample from Rician fading (direct links at unit mean
power, inter-cell links attenuated by the scenario's cross-power ratio) and
stored at 32-bit precision; all computation happens in float64 on values that
are exactly representable in float32, so write/read round-trips are bitwise.

Each draw of sample s is still seeded from its own ``(seed, stream)``, as one
``RngStream.generator()`` per draw would seed it; the batch samplers of
:mod:`isacfl.channel` compute those start states in bulk and draw one draw
kind for all samples per call. ``tests/test_datagen.py`` holds the result to
the per-sample, per-draw loop in ``tests/oracles.py`` byte for byte.

A dataset's first ``n_train`` samples (90%) train and the rest evaluate; the
file records the split, and a run's :class:`isacfl.nn.LossContext` holds it.
Reading refuses any non-finite stored value and any target angle outside
[-pi/2, pi/2].
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isacfl.channel import RngStream, angles_out_of_range, sample_rcs, sample_rician, sample_uniform
# DatasetFormatError and DatasetVersionError are re-exported: callers catch them from here.
from isacfl.container import ContainerReader, DatasetFormatError, DatasetVersionError, decoding, write_container
from isacfl.metrics import Scenario

DATASET_MAGIC = "isacfl-dataset"
DATASET_VERSION = 1

# Fewest samples per BS that leave a non-empty 10% evaluation tail.
MIN_SAMPLES = 10

SCENARIO_VARIANTS = (
    "homogeneous",
    "heterogeneous",
    "equal_ue_homogeneous",
    "equal_ue_heterogeneous",
)

# rng stream sub-domains inside one sample
_DRAW_DIRECT = 0
_DRAW_CROSS = 1000
_DRAW_THETA = 2000
_DRAW_BETA = 2001
_DRAW_RADAR = 3000


def build_scenario(variant: str, n_t: int, n_r: int, **overrides) -> Scenario:
    """Three-cell deployment for a named experiment variant.

    Heterogeneous variants spread the comm/sensing trade-off weights across
    BSs; the equal-UE variants pin every cell to two users. ``overrides``
    (any :class:`Scenario` field) replace the preset's values.
    """
    if variant not in SCENARIO_VARIANTS:
        raise ValueError(f"unknown scenario variant {variant!r}; choose from {SCENARIO_VARIANTS}")
    preset = {
        "n_cells": 3,
        "n_t": n_t,
        "n_r": n_r,
        "k_per_cell": (2, 2, 2) if variant.startswith("equal_ue") else (2, 3, 4),
        "rho_per_cell": (0.2, 0.6, 0.8) if variant.endswith("heterogeneous") else (0.5, 0.5, 0.5),
    }
    return Scenario(**{**preset, **overrides})


@dataclass
class BsDataset:
    """All channel draws of one BS, stacked over samples.

    The first ``n_train`` samples are the training stream; the tail is the
    held-out evaluation slice (also used for the aggregation-weight posterior).
    """

    scenario: Scenario
    cell: int
    seed: int
    n_train: int
    comm_direct: np.ndarray             # (n, k_m, n_t) complex128, f32-exact
    comm_cross: dict[int, np.ndarray]   # i -> (n, k_m, n_t)
    radar_cross: dict[int, np.ndarray]  # n -> (n, n_r, n_t)
    target_theta: np.ndarray            # (n,) float64, f32-exact
    target_beta: np.ndarray             # (n,) complex128, f32-exact

    @property
    def n_samples(self) -> int:
        return self.comm_direct.shape[0]


def _f32_exact(arr: np.ndarray) -> np.ndarray:
    """Round to float32 precision but keep float64/complex128 dtype."""
    if np.iscomplexobj(arr):
        return arr.astype(np.complex64).astype(np.complex128)
    return arr.astype(np.float32).astype(np.float64)


def generate_bs_dataset(scn: Scenario, m: int, n_samples: int, seed: int) -> BsDataset:
    """Synthesize one BS's channel dataset, deterministic per (scenario, seed).

    Sample s draws each channel from its own substream of
    ``RngStream(seed).child(m).child(s)``; every draw kind is sampled for all
    samples in one batched call.
    """
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_SAMPLES} so the train/eval split is non-degenerate")
    k_m = scn.k_per_cell[m]
    others = [i for i in range(scn.n_cells) if i != m]
    rng = RngStream(seed).child(m).child(np.arange(n_samples, dtype=np.uint64))

    def links(draw: int, power: float) -> np.ndarray:
        """(n, k_m, n_t): one 1 x n_t Rician row per user, user k on stream ``draw + k``."""
        rows = [sample_rician(rng.child(draw + k), 1, scn.n_t, scn.rician_k, power)[:, 0] for k in range(k_m)]
        return np.stack(rows, axis=1)

    comm_direct = links(_DRAW_DIRECT, 1.0)
    comm_cross = {i: links(_DRAW_CROSS + i * scn.k_max, scn.cross_power_ratio) for i in others}
    theta = sample_uniform(rng.child(_DRAW_THETA), -np.pi / 2, np.pi / 2)
    beta = sample_rcs(rng.child(_DRAW_BETA), scn.alpha_s)
    radar_cross = {
        i: sample_rician(rng.child(_DRAW_RADAR + i), scn.n_r, scn.n_t, scn.rician_k, scn.cross_power_ratio)
        for i in others
    }
    n_train = int(n_samples * 0.9)
    return BsDataset(
        scenario=scn,
        cell=m,
        seed=seed,
        n_train=n_train,
        comm_direct=_f32_exact(comm_direct),
        comm_cross={i: _f32_exact(a) for i, a in comm_cross.items()},
        radar_cross={i: _f32_exact(a) for i, a in radar_cross.items()},
        target_theta=_f32_exact(theta),
        target_beta=_f32_exact(beta),
    )


def generate_dataset(scn: Scenario, n_samples: int, seed: int) -> list[BsDataset]:
    """Per-BS datasets for the whole deployment."""
    return [generate_bs_dataset(scn, m, n_samples, seed) for m in range(scn.n_cells)]


def check_deployment(datasets: list[BsDataset], where) -> Scenario:
    """The one scenario of ``datasets``: one dataset per cell 0..n_cells-1, in cell order, all with one seed."""
    first = datasets[0]
    if any((d.scenario, d.seed) != (first.scenario, first.seed) for d in datasets):
        raise DatasetFormatError(f"{where}: datasets come from different scenarios or seeds")
    cells = [d.cell for d in datasets]
    if cells != list(range(first.scenario.n_cells)):
        raise DatasetFormatError(f"{where}: expected cells 0..{first.scenario.n_cells - 1} in order, got {cells}")
    return first.scenario


# ---------------------------------------------------------------------------
# Persistence: the shared container (isacfl.container) with float32 arrays,
# complex values stored as interleaved re/im pairs.


def _scenario_from_dict(d: dict) -> Scenario:
    return Scenario(**{**d, "k_per_cell": tuple(d["k_per_cell"]), "rho_per_cell": tuple(d["rho_per_cell"])})


def _as_f32(arr: np.ndarray) -> np.ndarray:
    """Complex arrays as interleaved float32 re/im pairs; real ones as they are."""
    if np.iscomplexobj(arr):
        return np.ascontiguousarray(arr.astype(np.complex64)).view(np.float32)
    return arr


def write_bs_dataset(path, ds: BsDataset) -> None:
    header = {
        "format": DATASET_MAGIC,
        "version": DATASET_VERSION,
        "cell": ds.cell,
        "seed": ds.seed,
        "n_samples": ds.n_samples,
        "n_train": ds.n_train,
        "k_m": ds.scenario.k_per_cell[ds.cell],
        "scenario": dataclasses.asdict(ds.scenario),
    }
    arrays = [
        ds.comm_direct,
        *(ds.comm_cross[i] for i in sorted(ds.comm_cross)),
        ds.target_theta,
        ds.target_beta,
        *(ds.radar_cross[i] for i in sorted(ds.radar_cross)),
    ]
    write_container(path, header, (_as_f32(a) for a in arrays), "<f4")


def _read_f32(reader: ContainerReader, name: str, complex_: bool, shape: tuple[int, ...]) -> np.ndarray:
    flat = reader.array(math.prod(shape) * (2 if complex_ else 1))
    if not np.isfinite(flat).all():
        k = int(np.argmin(np.isfinite(flat)))
        raise DatasetFormatError(f"{reader.path}: {name} holds the non-finite value {flat[k]} at flat index {k}")
    arr = flat.view(np.complex64).astype(np.complex128) if complex_ else flat.astype(np.float64)
    return arr.reshape(shape)


def read_bs_dataset(path) -> BsDataset:
    with open(path, "rb") as fh, decoding(path):
        reader = ContainerReader(fh, path, DATASET_MAGIC, DATASET_VERSION, "<f4")
        header = reader.header
        scn = _scenario_from_dict(header["scenario"])
        m, n, seed, n_train = header["cell"], header["n_samples"], header["seed"], header["n_train"]
        if not 0 <= m < scn.n_cells:
            raise DatasetFormatError(f"{path}: cell {m} outside 0..{scn.n_cells - 1}")
        if not 0 < n_train < n:
            raise DatasetFormatError(f"{path}: n_train {n_train} does not split {n} samples")
        k_m = scn.k_per_cell[m]
        others = [i for i in range(scn.n_cells) if i != m]
        comm_direct = _read_f32(reader, "comm_direct", True, (n, k_m, scn.n_t))
        comm_cross = {i: _read_f32(reader, f"comm_cross[{i}]", True, (n, k_m, scn.n_t)) for i in others}
        theta = _read_f32(reader, "target_theta", False, (n,))
        bad = angles_out_of_range(theta)
        if bad.size:
            raise DatasetFormatError(f"{path}: target_theta holds the angle {theta[bad[0]]} outside [-pi/2, pi/2] at index {bad[0]}")
        beta = _read_f32(reader, "target_beta", True, (n,))
        radar_cross = {i: _read_f32(reader, f"radar_cross[{i}]", True, (n, scn.n_r, scn.n_t)) for i in others}
    return BsDataset(
        scenario=scn,
        cell=m,
        seed=seed,
        n_train=n_train,
        comm_direct=comm_direct,
        comm_cross=comm_cross,
        radar_cross=radar_cross,
        target_theta=theta,
        target_beta=beta,
    )


def write_dataset(directory, datasets: list[BsDataset]) -> list[Path]:
    """Write one ``bs<m>.ds`` file per BS under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for ds in datasets:
        path = directory / f"bs{ds.cell}.ds"
        write_bs_dataset(path, ds)
        paths.append(path)
    return paths


def read_dataset(directory) -> list[BsDataset]:
    """Read every ``bs<m>.ds`` file under ``directory``, ordered by cell."""
    directory = Path(directory)
    paths = sorted(directory.glob("bs*.ds"))
    if not paths:
        raise DatasetFormatError(f"no bs*.ds files under {directory}")
    datasets = [read_bs_dataset(p) for p in paths]
    datasets.sort(key=lambda d: d.cell)
    check_deployment(datasets, directory)
    return datasets
