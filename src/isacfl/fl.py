"""Federated orchestration: EM-weighted personalized aggregation and baselines.

One simulated communication round follows this order:

1. server broadcasts the global model;
2. each BS scores it against its own personalized model on held-out batches
   (posterior -> aggregation weight pi), or uses its strategy's fixed rule;
3. each BS mixes (1 - pi) * local + pi * global;
4. each BS runs local Adam epochs on its training stream;
5. the server averages the resulting personalized models;
6. utilities are recorded on each BS's evaluation slice with the model that
   BS would deploy: its own post-training model for the personalization
   strategies, the fresh global model for traditional federated averaging,
   and aggregated-shared-plus-local-head for FedPer.

Each strategy fills four choices into this round; ``STRATEGIES`` holds them.
FedAvg is FedPer with every layer owned by the server, so one merge (take the
server-owned layers from one model, the rest from another) serves the client
update, the server update and the deployed model of both.

Inter-cell interference is frozen at round boundaries: each BS publishes the
beamformers its current model produces on its evaluation slice, and peers pair
those with their own samples by index. Because the pools do not change within a
round, each BS computes its interference denominators for all its samples once
per round (``LossContext.interference``), and every pi batch, training step and
pFedMe inner step only indexes them; the round's evaluation does the same with
the deployed models' pools.

A BS's data lives only in its ``LossContext``: channels, cell index ``m`` and
the dataset's train/eval split (``n_train``, ``eval_indices``). The simulation
takes its scenario from the datasets and keeps none of them.
"""

from __future__ import annotations

import math
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isacfl.channel import RngStream
from isacfl.datagen import check_deployment
from isacfl.nn import (
    AdamState,
    LossContext,
    NetConfig,
    adam_step,
    forward_batch,
    init_params,
    load_adam,
    load_params,
    param_count,
    save_adam,
    save_params,
    unpack,
)


@dataclass(frozen=True)
class Strategy:
    """The choices that turn the shared round into one named strategy.

    ``mix`` is how a BS takes in the broadcast model: "posterior" mixes with
    the EM weight pi, "fixed" with ``RunConfig.pi_fixed``, "take" copies the
    server-owned layers (reported as pi = 1), and "keep" leaves the local
    model alone (pi = 0). ``proximal`` adds pFedMe's pull toward the global
    model, with ``RunConfig.inner_steps`` steps per batch, to the local objective.
    ``server_layers`` are the layers the server owns; each BS keeps the rest.
    A BS that takes the server-owned layers also deploys them over its own
    model; every other BS deploys its own model.
    """

    mix: str
    proximal: bool = False
    server_layers: tuple[str, ...] = ("comm", "sens", "fusion", "out")


STRATEGIES = {
    "em_pfl": Strategy(mix="posterior"),
    "fixed_pfl": Strategy(mix="fixed"),
    "fedavg": Strategy(mix="take"),
    "fedper": Strategy(mix="take", server_layers=("comm", "sens", "fusion")),
    "pfedme": Strategy(mix="keep", proximal=True),
    "local_only": Strategy(mix="keep"),
}

# A checkpoint directory is round_<t>; it is written as round_<t>.partial first.
_CHECKPOINT_NAME = re.compile(r"round_(\d+)")

# rng sub-domains of the master stream
_DOMAIN_INIT = 0
_DOMAIN_TRAIN = 1
_DOMAIN_PI = 2


class NumericalError(ArithmeticError):
    """A non-finite value surfaced in training or metrics."""


def e_step(loss_global: float, loss_local: float, kappa: float) -> float:
    """Posterior weight of the global model given both models' batch losses.

    Evaluated as sigmoid(kappa * (loss_local - loss_global)), which is the
    overflow-free form of the two-way softmax over negated scaled losses.
    """
    if not (math.isfinite(loss_global) and math.isfinite(loss_local)):
        raise NumericalError("non-finite loss passed to the posterior")
    x = kappa * (loss_local - loss_global)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def m_step(lambdas: list[float]) -> float:
    """Aggregation weight: plain average of the per-batch posteriors."""
    if not lambdas:
        raise ValueError("m_step needs at least one posterior value")
    if any(not 0.0 <= v <= 1.0 for v in lambdas):
        raise ValueError("posterior values must lie in [0, 1]")
    return float(sum(lambdas) / len(lambdas))


def mix_models(local: np.ndarray, global_: np.ndarray, pi: float) -> np.ndarray:
    """Convex combination (1 - pi) * local + pi * global."""
    if local.shape != global_.shape:
        raise ValueError("cannot mix models with different layouts")
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"pi must lie in [0, 1], got {pi}")
    return (1.0 - pi) * local + pi * global_


def fedavg_aggregate(client_params: list[np.ndarray], weights: list[float]) -> np.ndarray:
    """Weighted average of client models (weights are local dataset sizes)."""
    if not client_params:
        raise ValueError("nothing to aggregate")
    if len(weights) != len(client_params):
        raise ValueError("one weight per client required")
    if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
        raise ValueError("weights must be non-negative and not all zero")
    if any(p.shape != client_params[0].shape for p in client_params):
        raise ValueError("cannot aggregate models with different layouts")
    total = float(sum(weights))
    out = np.zeros_like(client_params[0])
    for p, w in zip(client_params, weights):
        out += (w / total) * p
    return out


@dataclass
class ClientState:
    """One BS: personalized model, optimizer, data (``ctx``, with the cell index ``ctx.m``), and its last pi."""

    params: np.ndarray
    adam: AdamState
    ctx: LossContext
    pi: float = 0.5


@dataclass
class RoundMetrics:
    """Per-round record of what every figure and CSV row is built from."""

    round_index: int
    pi: list[float]
    loss: list[float]
    comm_rate: list[float]
    radar_rate: list[float]
    utility: list[float]
    system_utility: float
    duration_sec: float = 0.0

    def check_finite(self) -> None:
        values = [self.system_utility, *self.pi, *self.loss, *self.comm_rate, *self.radar_rate, *self.utility]
        if not all(math.isfinite(v) for v in values):
            raise NumericalError(f"non-finite metric in round {self.round_index}")


@dataclass
class RunConfig:
    """Everything one experiment needs beyond the scenario and the data.

    ``kappa`` is the temperature of the aggregation-weight posterior, which
    scores both models on batches of ``eval_batch`` samples drawn from the
    first ``pi_eval_cap`` samples of each BS's evaluation slice.
    """

    strategy: str = "em_pfl"
    rounds: int = 100
    local_epochs: int = 5
    batch_size: int = 64
    lr: float = 1e-4
    kappa: float = 1.0
    eval_batch: int = 64
    pi_fixed: float = 0.5
    lambda_prox: float = 15.0
    inner_steps: int = 5
    hidden: int = 256
    pi_eval_cap: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; choose from {tuple(STRATEGIES)}")
        if self.rounds < 1 or self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("rounds, local_epochs, and batch_size must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if not 0.0 <= self.pi_fixed <= 1.0:
            raise ValueError("pi_fixed must lie in [0, 1]")
        if self.lambda_prox < 0:
            raise ValueError("lambda_prox must be >= 0")
        if self.inner_steps < 1:
            raise ValueError("inner_steps must be >= 1")
        if not self.kappa > 0:
            raise ValueError("kappa must be > 0")
        if self.eval_batch < 1 or self.pi_eval_cap < 1 or self.hidden < 1:
            raise ValueError("eval_batch, pi_eval_cap, and hidden must be >= 1")


def compute_pi(
    client: ClientState,
    global_params: np.ndarray,
    run: RunConfig,
    rng: RngStream,
    interference: tuple[np.ndarray, np.ndarray],
) -> float:
    """EM aggregation weight: how much of the global model this BS should take.

    Scores both models on re-shuffled mini-batches of a fixed evaluation
    slice (never the training stream) and averages the per-batch posteriors.
    ``interference`` is the client's ``ctx.interference`` of the round's pools.
    """
    if client.ctx.n_samples < run.eval_batch:
        raise ValueError(
            f"client dataset has {client.ctx.n_samples} samples; need at least eval_batch={run.eval_batch}"
        )
    subset = client.ctx.eval_indices[: run.pi_eval_cap]
    perm = rng.generator().permutation(subset.size)
    shuffled = subset[perm]
    lambdas = []
    for start in range(0, shuffled.size, run.eval_batch):
        idx = shuffled[start : start + run.eval_batch]
        loss_g, _, _, _ = client.ctx.evaluate(global_params, idx, interference, want_grad=False)
        loss_l, _, _, _ = client.ctx.evaluate(client.params, idx, interference, want_grad=False)
        lambdas.append(e_step(loss_g, loss_l, run.kappa))
    return m_step(lambdas)


def local_train(
    client: ClientState,
    run: RunConfig,
    interference: tuple[np.ndarray, np.ndarray],
    rng: RngStream,
    prox_ref: np.ndarray | None = None,
) -> None:
    """``run.local_epochs`` mini-batch Adam epochs over the training stream; mutates the client.

    ``interference`` is the client's ``ctx.interference`` of the round's
    pools. ``client.params`` and ``client.adam`` are updated in place, so they
    must not share memory with ``prox_ref`` or with another client. With
    ``prox_ref`` set, every gradient gains run.lambda_prox * (params - ref)
    and each batch is revisited ``run.inner_steps`` times (proximal local
    training); otherwise one step per batch.
    """
    n_train = client.ctx.n_train
    inner_steps = 1 if prox_ref is None else run.inner_steps
    for epoch in range(run.local_epochs):
        perm = rng.child(epoch).generator().permutation(n_train)
        for start in range(0, n_train, run.batch_size):
            idx = perm[start : start + run.batch_size]
            for _ in range(inner_steps):
                _, grad, _, _ = client.ctx.evaluate(client.params, idx, interference)
                if prox_ref is not None and run.lambda_prox != 0.0:
                    grad += run.lambda_prox * (client.params - prox_ref)
                adam_step(client.params, grad, client.adam, run.lr)


class FederatedSimulation:
    """Drives one experiment: clients, server state, metrics, checkpoints."""

    def __init__(self, datasets: list, run: RunConfig):
        """``datasets`` are one ``datagen.BsDataset`` per cell, in cell order; only their contexts are kept."""
        scn = check_deployment(datasets, "simulation")
        self.scn = scn
        self.run = run
        self.net = NetConfig(n_t=scn.n_t, k_max=scn.k_max, hidden=run.hidden)
        self.master = RngStream(run.seed)
        self.global_params = init_params(self.net, self.master.child(_DOMAIN_INIT))
        self.clients = [
            ClientState(
                params=self.global_params.copy(),
                adam=AdamState.fresh(param_count(self.net)),
                ctx=LossContext(self.net, ds),
            )
            for ds in datasets
        ]
        self.round_index = 0
        self.spec = STRATEGIES[run.strategy]
        self._server_mask = np.zeros(param_count(self.net), dtype=bool)
        for name, (w, b) in unpack(self._server_mask, self.net).items():
            w[...] = b[...] = name in self.spec.server_layers

    def _take_server_layers(self, base: np.ndarray, source: np.ndarray) -> np.ndarray:
        """``base`` with its server-owned layers replaced by those of ``source``."""
        merged = base.copy()
        merged[self._server_mask] = source[self._server_mask]
        return merged

    def _eval_pools(self, params_by_client: list[np.ndarray]) -> dict[int, np.ndarray]:
        """Each BS's beamformers on its evaluation slice (the published pool)."""
        pools = {}
        for client, params in zip(self.clients, params_by_client):
            idx = client.ctx.eval_indices
            pools[client.ctx.m] = forward_batch(
                params, self.net, client.ctx.xc[idx], client.ctx.xs[idx], client.ctx.k_m, self.scn.p_t
            )
        return pools

    def _client_round(self, client: ClientState, t: int, pools: dict[int, np.ndarray]) -> None:
        """Steps 2-4 for one client; independent of every other client."""
        run, spec = self.run, self.spec
        interference = client.ctx.interference(pools)
        if spec.mix == "take":
            client.pi = 1.0
            client.params = self._take_server_layers(client.params, self.global_params)
        elif spec.mix == "keep":
            client.pi = 0.0
        else:
            if spec.mix == "posterior":
                pi_rng = self.master.child(_DOMAIN_PI).child(t).child(client.ctx.m)
                client.pi = compute_pi(client, self.global_params, run, pi_rng, interference)
            else:
                client.pi = run.pi_fixed
            client.params = mix_models(client.params, self.global_params, client.pi)

        train_rng = self.master.child(_DOMAIN_TRAIN).child(t).child(client.ctx.m)
        local_train(client, run, interference, train_rng, prox_ref=self.global_params if spec.proximal else None)

    def run_round(self) -> RoundMetrics:
        """One full communication round; returns the recorded metrics."""
        t = self.round_index
        started = time.perf_counter()
        pools = self._eval_pools([c.params for c in self.clients])
        for client in self.clients:
            self._client_round(client, t, pools)

        new_global = fedavg_aggregate([c.params for c in self.clients], [c.ctx.n_train for c in self.clients])
        self.global_params = self._take_server_layers(self.global_params, new_global)

        metrics = self._evaluate_round(t)
        metrics.duration_sec = time.perf_counter() - started
        metrics.check_finite()
        self.round_index = t + 1
        return metrics

    def _deployed_params(self, client: ClientState) -> np.ndarray:
        """The model a BS actually runs after the round closes (module doc, step 6)."""
        if self.spec.mix == "take":
            return self._take_server_layers(client.params, self.global_params)
        return client.params

    def _evaluate_round(self, t: int) -> RoundMetrics:
        """Step 6: held-out utilities under each BS's deployed model."""
        deployed = [self._deployed_params(c) for c in self.clients]
        pools = self._eval_pools(deployed)
        pis, losses, comm, radar, util = [], [], [], [], []
        for client, params in zip(self.clients, deployed):
            idx = client.ctx.eval_indices
            interference = client.ctx.interference(pools, first=client.ctx.n_train)
            loss, _, r_c, r_s = client.ctx.evaluate(params, idx, interference, want_grad=False)
            pis.append(client.pi)
            losses.append(loss)
            comm.append(float(np.mean(r_c)))
            radar.append(float(np.mean(r_s)))
            util.append(-loss)
        return RoundMetrics(
            round_index=t,
            pi=pis,
            loss=losses,
            comm_rate=comm,
            radar_rate=radar,
            utility=util,
            system_utility=float(sum(util)),
        )

    # -- checkpointing ------------------------------------------------------

    def save_checkpoint(self, run_dir) -> Path:
        """Write round_<t> with the post-round server and client state.

        The files go into round_<t>.partial, which is renamed to round_<t>
        only when complete, so a crash never leaves a round_<t> directory
        that ``latest_checkpoint`` would trust.
        """
        t = self.round_index - 1
        if t < 0:
            raise ValueError("no completed round to checkpoint")
        cdir = Path(run_dir) / f"round_{t}"
        partial = cdir.with_name(cdir.name + ".partial")
        if partial.exists():
            shutil.rmtree(partial)
        partial.mkdir(parents=True)
        save_params(partial / "global.bin", self.global_params, self.net)
        for client in self.clients:
            save_params(partial / f"bs{client.ctx.m}.bin", client.params, self.net)
            save_adam(partial / f"bs{client.ctx.m}.opt.bin", client.adam, self.run.lr)
        if cdir.exists():
            shutil.rmtree(cdir)
        partial.rename(cdir)
        return cdir

    def restore_checkpoint(self, cdir) -> None:
        cdir = Path(cdir)
        t = int(cdir.name.removeprefix("round_"))
        self.global_params = load_params(cdir / "global.bin", self.net)
        for client in self.clients:
            client.params = load_params(cdir / f"bs{client.ctx.m}.bin", self.net)
            client.adam = load_adam(cdir / f"bs{client.ctx.m}.opt.bin", param_count(self.net), self.run.lr)
        self.round_index = t + 1

    @staticmethod
    def latest_checkpoint(run_dir) -> Path | None:
        """The round_<t> directory with the largest t; partial ones are ignored."""
        run_dir = Path(run_dir)
        if not run_dir.is_dir():
            return None
        rounds = [
            (int(match.group(1)), child)
            for child in run_dir.iterdir()
            if child.is_dir() and (match := _CHECKPOINT_NAME.fullmatch(child.name))
        ]
        return max(rounds)[1] if rounds else None

