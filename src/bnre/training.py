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
:func:`bnre_loss`. :func:`train` keeps the master weights, the Adam state,
the plateau schedule, the validation pass and the returned net in float64;
each step's forward and backward run in float32, on float32 copies of the
features and a float32 copy of the weights. A step gathers its rows into,
and computes in, :class:`StepBuffers` made once per :func:`train` call, and
Adam updates in place, so a step creates no array of its own. Numpy still
allocates its iterator buffers (8,192 elements each) for the broadcast bias
add of each hidden layer and for the output layer's broadcast product. The
reverse-mode tape (:func:`forward_on_tape`, :func:`bnre_loss_var`) is only
an independent reference for the tests.
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
from .nets import (ClassifierNet, DivergenceError, OptimizerState, _forward, adam_step,
                   lr_schedule_update, one_blas_thread)
from .simulators import Benchmark, Dataset

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingDiverged",
    "epoch_index_pairs",
    "derangement_against",
    "balance_statistic",
    "bnre_loss",
    "bnre_loss_grads",
    "StepBuffers",
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
        if not self.lam >= 0:  # also rejects NaN
            raise ValueError("lambda must be nonnegative")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ValueError("batch_size must be even and >= 2")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.hidden_layers < 0:
            raise ValueError("hidden_layers must be >= 0")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")


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

    @property
    def lr_drop_epochs(self) -> list[int]:
        """Epochs that ran at a lower learning rate than the epoch before."""
        return [e for e in range(1, len(self.lr)) if self.lr[e] < self.lr[e - 1]]

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


def bnre_loss(logits_joint: np.ndarray, logits_marginal: np.ndarray,
              lam: float) -> tuple[float, float]:
    """Balanced loss and B for plain arrays (labels 1 joint, 0 marginal)."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return _loss_and_balance(np.asarray(logits_joint, dtype=np.float64),
                             np.asarray(logits_marginal, dtype=np.float64), lam)


class StepBuffers:
    """Every array one training step writes, for a net and up to ``rows`` rows.

    ``rows`` holds the stacked joint and marginal inputs; ``acts[k]`` and
    ``backs[k]`` the output of hidden layer k and the loss gradient at its
    pre-activation; ``mask`` one hidden layer's ReLU mask (1 where a unit
    is active, else 0); ``z``, ``s``, ``g`` and ``tmp`` the logits, their
    sigmoids, the loss gradient at the logits and a scratch vector.
    ``grad`` is one flat gradient in the net's parameter layout
    (:meth:`ClassifierNet.from_flat`) and ``grads`` its views in
    ``net.parameters()`` order. Every array has the net's dtype. A step on
    fewer rows uses the leading rows of each buffer.
    """

    def __init__(self, net: ClassifierNet, rows: int):
        dtype = net.weights[0].dtype
        widths = [w.shape[0] for w in net.weights[:-1]]
        self.rows = np.empty((rows, net.input_dim), dtype)
        self.acts = [np.empty((rows, h), dtype) for h in widths]
        self.backs = [np.empty((rows, h), dtype) for h in widths]
        self.mask = np.empty(rows * max(widths, default=0), dtype)
        self.z, self.s, self.g, self.tmp = (np.empty(rows, dtype) for _ in range(4))
        shapes = [p.shape for p in net.parameters()]
        self.grad = np.empty(sum(math.prod(shape) for shape in shapes), dtype)
        self.grads = ClassifierNet.from_flat(self.grad, shapes).parameters()


def bnre_loss_grads(net: ClassifierNet, feats_j: np.ndarray, feats_m: np.ndarray,
                    lam: float, buffers: StepBuffers | None = None
                    ) -> tuple[float, list[np.ndarray]]:
    """Balanced loss and its gradient in ``net.parameters()`` order.

    One forward over the stacked joint and marginal rows caches the hidden
    activations. With s = sigmoid(z) and n rows per half, the logit gradient
    is -expit(-z)/(2n) + 2 lambda (B - 1) s (1 - s)/n on joint rows and
    s/(2n) + 2 lambda (B - 1) s (1 - s)/n on marginal rows; backprop through
    the ReLU masks turns it into the parameter gradients.

    Every array is written into ``buffers``, or into fresh ones sized to the
    inputs when none are given, and computed in the net's dtype. The
    returned gradients are views of ``buffers.grad``, which the next call on
    the same buffers overwrites.
    """
    nj, nm = len(feats_j), len(feats_m)
    n = nj + nm
    if buffers is None:
        buffers = StepBuffers(net, n)
    elif len(buffers.rows) < n:
        raise ValueError(f"buffers hold {len(buffers.rows)} rows, the step needs {n}")
    x = buffers.rows[:n]
    # numpy skips these copies when the inputs already are these rows, as in train
    x[:nj] = feats_j
    x[nj:] = feats_m
    z, s, g, tmp = buffers.z[:n], buffers.s[:n], buffers.g[:n], buffers.tmp[:n]
    hs = _forward(net, x, [act[:n] for act in buffers.acts], z)
    loss, b = _loss_and_balance(z[:nj], z[nj:], lam)
    # the formulas above, one operation at a time in their order of operations
    expit(z, out=s)
    np.multiply(2.0 * lam * (b - 1.0), s, out=g)
    g *= np.subtract(1.0, s, out=tmp)
    g[:nj] -= np.multiply(0.5, expit(np.negative(z[:nj], out=tmp[:nj]), out=tmp[:nj]),
                          out=tmp[:nj])
    g[:nj] /= nj
    g[nj:] += np.multiply(0.5, s[nj:], out=tmp[nj:])
    g[nj:] /= nm
    g = g[:, None]
    n_layers = len(net.weights)
    for k in range(n_layers - 1, -1, -1):
        np.matmul(g.T, hs[k], out=buffers.grads[k])
        np.sum(g, axis=0, out=buffers.grads[n_layers + k])
        if k:
            back = buffers.backs[k - 1][:n]
            if k == n_layers - 1:  # one logit: a broadcast product, cheaper than a K=1 matmul
                np.multiply(g, net.weights[k], out=back)
            else:
                np.matmul(g, net.weights[k], out=back)
            # hs[k] >= 0, so its sign is the ReLU mask, in the net's dtype
            back *= np.sign(hs[k], out=buffers.mask[:back.size].reshape(back.shape))
            g = back
    return loss, buffers.grads


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
        return bnre_loss(net.logits(feats_j), net.logits(feats_m), lam)[0]

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

    Each step runs :func:`bnre_loss_grads` in float32, on a copy of the
    float64 weights that Adam updates; validation and the returned net are
    float64.
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
    # steps read float32 rows
    joint_feats = joint_feats.astype(np.float32)
    f_x = f_x.astype(np.float32)

    init = ClassifierNet.initialize(benchmark.classifier_input_dim(),
                                    config.hidden_layers, config.hidden_units, rng_init)
    # net's parameters are views into flat: one Adam update moves them all
    shapes = [p.shape for p in init.parameters()]
    flat = np.concatenate([p.ravel() for p in init.parameters()])
    net = ClassifierNet.from_flat(flat, shapes)
    state = OptimizerState.for_params(flat, lr=config.learning_rate)
    # each step computes on a float32 copy of flat, and Adam reads its
    # gradient from a float64 copy
    flat32 = flat.astype(np.float32)
    net32 = ClassifierNet.from_flat(flat32, shapes)
    grad = np.empty_like(flat)
    # each step gathers its rows into, and computes in, arrays made once here
    buffers = StepBuffers(net32, config.batch_size)
    marginal_x = np.empty((config.batch_size // 2, f_x.shape[1]), np.float32)
    theta_cols = f_theta.shape[1]

    history = TrainHistory(train_indices=train_idx.copy(), val_indices=val_idx.copy())
    best_flat = flat.copy()
    n_train = len(train_idx)

    for _ in range(config.epochs):
        epoch_loss = 0.0
        for local_j, local_m in epoch_index_pairs(n_train, config.batch_size, rng_batch):
            ji, qi = train_idx[local_j], train_idx[local_m]
            half = len(ji)
            feats_j, feats_m = buffers.rows[:half], buffers.rows[half:2 * half]
            # mode="clip" writes straight into ``out``; "raise" would buffer
            # it, and the indices are in range by construction
            np.take(joint_feats, ji, axis=0, out=feats_j, mode="clip")
            feats_m[:, :theta_cols] = feats_j[:, :theta_cols]
            feats_m[:, theta_cols:] = np.take(f_x, qi, axis=0, out=marginal_x[:half],
                                              mode="clip")
            flat32[:] = flat
            loss_value, _ = bnre_loss_grads(net32, feats_j, feats_m, config.lam, buffers)
            if math.isnan(loss_value):
                raise TrainingDiverged("NaN training loss", history)
            grad[:] = buffers.grad
            try:
                adam_step(flat, grad, state)
            except DivergenceError as err:
                raise TrainingDiverged(str(err), history) from err
            epoch_loss += loss_value * half

        val_loss, balance = bnre_loss(net.logits(val_joint_feats),
                                      net.logits(val_marg_feats), config.lam)
        if math.isnan(val_loss):
            raise TrainingDiverged("NaN validation loss", history)

        history.train_loss.append(epoch_loss / n_train)
        history.val_loss.append(val_loss)
        history.balance.append(balance)
        history.lr.append(state.lr)

        # the schedule's best loss is the one tracker of the best epoch
        if lr_schedule_update(state, val_loss):
            best_flat[:] = flat

    return ClassifierNet.from_flat(best_flat, shapes), history
