"""NRE / BNRE training: batch construction, losses, and the epoch loop.

Each batch pairs n/2 joint samples (labels 1) with n/2 marginal samples
(labels 0). Joint samples sweep the training set without replacement once
per epoch; marginal pairs reuse the same parameters against observables from
a second, derangement-constrained pass over the data, so no parameter ever
meets its own observable and no extra simulation budget is spent. The
balanced variant adds lambda * (B - 1)^2 to the cross-entropy, where B is
the sum of the mean classifier outputs on the two halves; lambda = 0
recovers plain NRE. Losses are computed from logits via softplus, never
from probabilities.

Every training step runs the closed-form gradient :func:`bnre_loss_grads`,
which :func:`finite_diff_check` validates against central differences of
:func:`bnre_loss`. The reverse-mode tape (:func:`forward_on_tape`,
:func:`bnre_loss_var`) is only an independent reference for the tests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from . import autodiff
from .autodiff import Var
from .files import replacing
from .nets import (ClassifierNet, DivergenceError, OptimizerState, adam_step,
                   lr_schedule_update, one_blas_thread)
from .simulators import Benchmark, Dataset

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingDiverged",
    "epoch_index_pairs",
    "derangement_against",
    "bce_loss",
    "balance_statistic",
    "bnre_loss",
    "bnre_loss_grads",
    "finite_diff_check",
    "forward_on_tape",
    "bnre_loss_var",
    "train",
]

# marginal pairings averaged into the validation loss
VALIDATION_PAIRINGS = 4


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 100.0
    batch_size: int = 256
    epochs: int = 150
    learning_rate: float = 1e-3
    validation_fraction: float = 0.1
    seed: int = 0
    hidden_layers: int = 3
    hidden_units: int = 64

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ValueError("batch size must be even and >= 2")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation fraction must be in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass
class TrainHistory:
    """Per-epoch training record; length equals completed epochs."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    balance: list[float] = field(default_factory=list)
    lr: list[float] = field(default_factory=list)
    # gradient batches draw only from train_indices; the split is logged so
    # validation disjointness stays checkable after the fact
    train_indices: np.ndarray | None = None
    val_indices: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.train_loss)

    @property
    def best_epoch(self) -> int:
        return int(np.argmin(self.val_loss))

    def to_csv(self, path) -> None:
        with replacing(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "balance_B", "lr"])
            for e in range(len(self)):
                writer.writerow([e, repr(self.train_loss[e]), repr(self.val_loss[e]),
                                 repr(self.balance[e]), repr(self.lr[e])])


class TrainingDiverged(RuntimeError):
    """Training hit a NaN; carries the history up to the failure."""

    def __init__(self, message: str, history: TrainHistory):
        super().__init__(message)
        self.history = history


def derangement_against(reference: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permutation q of the same indices with q[t] != reference[t] for all t."""
    n = len(reference)
    if n < 2:
        raise ValueError("derangement needs at least two elements")
    while True:  # acceptance probability ~ 1/e independent of n
        q = rng.permutation(reference)
        if not np.any(q == reference):
            return q


def epoch_index_pairs(n_samples: int, batch_size: int,
                      rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index pairs (joint, marginal-x) for one epoch.

    The joint stream is a permutation chunked into batch_size/2 pieces (the
    tail chunk may be shorter); the marginal-x stream is a second permutation
    deranged against the first, so zero pairs share a dataset entry.
    """
    p = rng.permutation(n_samples)
    q = derangement_against(p, rng)
    half = batch_size // 2
    return [(p[i:i + half], q[i:i + half]) for i in range(0, n_samples, half)]


def bce_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy in softplus form."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if logits.shape != labels.shape:
        raise ValueError("logits and labels must have equal length")
    # label 1: softplus(-z), label 0: softplus(z)
    return float(np.mean(np.logaddexp(0.0, np.where(labels > 0.5, -logits, logits))))


def balance_statistic(probs_joint: np.ndarray, probs_marginal: np.ndarray) -> float:
    """B = mean(d_hat on joint pairs) + mean(d_hat on marginal pairs)."""
    pj = np.asarray(probs_joint, dtype=np.float64)
    pm = np.asarray(probs_marginal, dtype=np.float64)
    if pj.size == 0 or pm.size == 0:
        raise ValueError("both halves must be nonempty")
    return float(pj.mean() + pm.mean())


def forward_on_tape(x: np.ndarray, weight_vars: list[Var], bias_vars: list[Var]) -> Var:
    """Recorded batch forward (test reference); returns the logit vector as a Var."""
    h = autodiff.leaf(np.asarray(x, dtype=np.float64))
    for k, (w, b) in enumerate(zip(weight_vars, bias_vars)):
        h = autodiff.affine(h, w, b)
        if k < len(weight_vars) - 1:
            h = autodiff.relu(h)
    return autodiff.ravel(h)


def bnre_loss_var(logits_joint: Var, logits_marginal: Var, lam: float) -> Var:
    """Balanced loss on the tape (test reference for :func:`bnre_loss_grads`)."""
    bce_j = autodiff.mean(autodiff.softplus(autodiff.neg(logits_joint)))
    bce_m = autodiff.mean(autodiff.softplus(logits_marginal))
    loss = autodiff.scale(autodiff.add(bce_j, bce_m), 0.5)
    if lam > 0.0:
        b = autodiff.add(autodiff.mean(autodiff.sigmoid(logits_joint)),
                         autodiff.mean(autodiff.sigmoid(logits_marginal)))
        penalty = autodiff.scale(autodiff.square(autodiff.add_const(b, -1.0)), lam)
        loss = autodiff.add(loss, penalty)
    return loss


def _loss_and_balance(zj: np.ndarray, zm: np.ndarray, lam: float) -> tuple[float, float]:
    """Balanced loss and B from logits, in the tape's order of operations."""
    bce = (np.logaddexp(0.0, -zj).mean() + np.logaddexp(0.0, zm).mean()) * 0.5
    b = expit(zj).mean() + expit(zm).mean()
    return float(bce + (b - 1.0) * (b - 1.0) * lam), float(b)


def bnre_loss(logits_joint: np.ndarray, logits_marginal: np.ndarray, lam: float) -> float:
    """Value of the balanced loss for plain arrays (labels 1 joint, 0 marginal)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return _loss_and_balance(np.asarray(logits_joint, dtype=np.float64),
                             np.asarray(logits_marginal, dtype=np.float64), lam)[0]


def bnre_loss_grads(net: ClassifierNet, feats_j: np.ndarray, feats_m: np.ndarray,
                    lam: float) -> tuple[float, list[np.ndarray]]:
    """Balanced loss and its gradient in ``net.parameters()`` order.

    One forward over the stacked joint and marginal rows caches the hidden
    activations. With s = sigmoid(z) and n rows per half, the logit gradient
    is -expit(-z)/(2n) + 2 lambda (B - 1) s (1 - s)/n on joint rows and
    s/(2n) + 2 lambda (B - 1) s (1 - s)/n on marginal rows; backprop through
    the ReLU masks turns it into the parameter gradients.
    """
    nj, nm = len(feats_j), len(feats_m)
    hs = [np.concatenate([feats_j, feats_m], axis=0)]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = hs[-1] @ w.T
        h += b
        hs.append(np.maximum(h, 0.0, out=h))
    z = (hs[-1] @ net.weights[-1].T + net.biases[-1]).reshape(-1)
    loss, b = _loss_and_balance(z[:nj], z[nj:], lam)
    s = expit(z)
    pen = (2.0 * lam * (b - 1.0)) * s * (1.0 - s)
    g = np.concatenate([(pen[:nj] - 0.5 * expit(-z[:nj])) / nj,
                        (pen[nj:] + 0.5 * s[nj:]) / nm])[:, None]
    grad_w, grad_b = [], []
    for k in range(len(net.weights) - 1, -1, -1):
        grad_w.append(g.T @ hs[k])
        grad_b.append(g.sum(axis=0))
        if k:
            g = (g @ net.weights[k]) * (hs[k] > 0.0)
    return loss, grad_w[::-1] + grad_b[::-1]


def finite_diff_check(net: ClassifierNet, feats_j: np.ndarray, feats_m: np.ndarray,
                      lam: float, eps: float = 1e-5) -> float:
    """Max relative error of :func:`bnre_loss_grads` against central differences.

    The numeric side differentiates :func:`bnre_loss` on ``net.logits``.
    Relative error per parameter is |analytic - numeric| / max(1e-12, |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    _, analytic = bnre_loss_grads(net, feats_j, feats_m, lam)

    def loss_value() -> float:
        return bnre_loss(net.logits(feats_j), net.logits(feats_m), lam)

    worst = 0.0
    for arr, grad in zip(net.parameters(), analytic):
        flat = arr.reshape(-1)
        for i, g in enumerate(grad.reshape(-1)):
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_value()
            flat[i] = orig - eps
            numeric = (hi - loss_value()) / (2.0 * eps)
            flat[i] = orig
            worst = max(worst, abs(g - numeric) / max(1e-12, abs(numeric)))
    return worst


@one_blas_thread()
def train(benchmark: Benchmark, dataset: Dataset, config: TrainConfig
          ) -> tuple[ClassifierNet, TrainHistory]:
    """Minimize the balanced loss; return the best-validation-epoch network.

    The validation split is used only for the plateau learning-rate schedule
    and best-epoch selection; validation samples never contribute gradients.
    The scheduled quantity is the full loss including the lambda penalty.
    Numpy's BLAS runs on the calling thread alone for the whole loop.
    """
    if dataset.benchmark != benchmark.name:
        raise ValueError(
            f"dataset was generated for {dataset.benchmark!r}, not {benchmark.name!r}")
    if len(dataset) < config.batch_size:
        raise ValueError("dataset smaller than one batch")

    f_theta = benchmark.theta_features(dataset.theta[:, list(benchmark.inference_dims)])
    f_x = benchmark.x_features(dataset.x)

    rng_split = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    rng_init = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    rng_batch = np.random.default_rng(np.random.SeedSequence([config.seed, 2]))

    n = len(dataset)
    n_val = min(max(2, round(config.validation_fraction * n)), n - 2)
    order = rng_split.permutation(n)
    val_idx, train_idx = order[:n_val], order[n_val:]

    # fixed validation pairings keep the scheduled loss comparable across
    # epochs; averaging several derangements tames its variance on small
    # validation splits, which model selection and the plateau schedule need
    val_margs = [derangement_against(val_idx, rng_split)
                 for _ in range(VALIDATION_PAIRINGS)]
    joint_feats = np.concatenate([f_theta, f_x], axis=1)
    val_joint_feats = joint_feats[val_idx]
    val_marg_feats = np.concatenate(
        [np.concatenate([f_theta[val_idx], f_x[vm]], axis=1) for vm in val_margs], axis=0)

    init = ClassifierNet.initialize(benchmark.classifier_input_dim(),
                                    config.hidden_layers, config.hidden_units, rng_init)
    # net's parameters are views into flat: one Adam update moves them all
    shapes = [p.shape for p in init.parameters()]
    flat = np.concatenate([p.ravel() for p in init.parameters()])
    net = ClassifierNet.from_flat(flat, shapes)
    state = OptimizerState.for_params([flat], lr=config.learning_rate)

    history = TrainHistory(train_indices=train_idx.copy(), val_indices=val_idx.copy())
    best_loss = math.inf
    best_flat = flat.copy()
    n_train = len(train_idx)

    for _ in range(config.epochs):
        epoch_loss = 0.0
        for local_j, local_m in epoch_index_pairs(n_train, config.batch_size, rng_batch):
            ji, qi = train_idx[local_j], train_idx[local_m]
            feats_j = joint_feats[ji]
            feats_m = np.concatenate([f_theta[ji], f_x[qi]], axis=1)
            loss_value, grads = bnre_loss_grads(net, feats_j, feats_m, config.lam)
            if math.isnan(loss_value):
                raise TrainingDiverged("NaN training loss", history)
            try:
                adam_step([flat], [np.concatenate([g.ravel() for g in grads])], state)
            except DivergenceError as err:
                raise TrainingDiverged(str(err), history) from err
            epoch_loss += loss_value * len(ji)

        zj_val = net.logits(val_joint_feats)
        zm_val = net.logits(val_marg_feats)
        val_loss = bnre_loss(zj_val, zm_val, config.lam)
        if math.isnan(val_loss):
            raise TrainingDiverged("NaN validation loss", history)
        balance = balance_statistic(expit(zj_val), expit(zm_val))

        history.train_loss.append(epoch_loss / n_train)
        history.val_loss.append(val_loss)
        history.balance.append(balance)
        history.lr.append(state.lr)

        if val_loss < best_loss:
            best_loss = val_loss
            best_flat = flat.copy()
        lr_schedule_update(state, val_loss)

    return ClassifierNet.from_flat(best_flat, shapes), history
