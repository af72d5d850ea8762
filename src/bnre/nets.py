"""Fully connected logit classifiers and their training machinery.

The network maps a feature vector (parameters concatenated with an
observable) to a single unbounded logit; the sigmoid is applied downstream,
and all losses are computed in logit space; training gradients come from
:func:`bnre.training.bnre_loss_grads`. Everything runs in float64 on one
thread per training run, so identical (config, seed) pairs reproduce
bitwise-identical trajectories.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ClassifierNet",
    "OptimizerState",
    "DivergenceError",
    "adam_step",
    "lr_schedule_update",
    "save_weights",
    "load_weights",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PLATEAU_PATIENCE = 10
PLATEAU_FACTOR = 10.0

WEIGHTS_FORMAT = "bnre-weights"
WEIGHTS_VERSION = 1


class DivergenceError(RuntimeError):
    """Raised when a NaN/Inf gradient or parameter signals a diverged run."""


class ClassifierNet:
    """ReLU MLP with a single-logit head.

    Weights are stored as ``[out, in]`` matrices. Consecutive layer shapes
    must compose; construction rejects anything else.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray],
                 activation: str = "relu"):
        if activation != "relu":
            raise ValueError(f"unsupported activation: {activation!r}")
        if len(weights) != len(biases) or not weights:
            raise ValueError("need one bias vector per weight matrix")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError(f"layer {k}: weight {w.shape} and bias {b.shape} mismatch")
            if k > 0 and w.shape[1] != weights[k - 1].shape[0]:
                raise ValueError(
                    f"layer {k} input dim {w.shape[1]} != layer {k - 1} output dim "
                    f"{weights[k - 1].shape[0]}")
        if weights[-1].shape[0] != 1:
            raise ValueError("output layer must produce a single logit")
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.activation = activation
        # ping-pong buffers for the hidden layers of logits(), kept only while
        # the row count stays the same: freeing them when it changes lets
        # glibc raise its mmap/trim thresholds, which keeps the training
        # step's 128 KiB arrays off mmap (a grow-only workspace slowed
        # train() by about 20% through page faults)
        self._workspace = (np.empty(0), np.empty(0))

    @classmethod
    def initialize(cls, input_dim: int, hidden_layers: int, hidden_units: int,
                   rng: np.random.Generator) -> "ClassifierNet":
        """He-style uniform fan-in init (bound sqrt(6/fan_in)), zero biases.

        The output layer starts at zero so the initial classifier is exactly
        the uninformative d = 0.5: the implied density ratio is 1 and the
        initial posterior coincides with the prior. Training then moves from
        the prior toward the data, which keeps early-stopped small-budget
        runs conservative instead of frozen at a random overconfident tilt.
        """
        sizes = [input_dim] + [hidden_units] * hidden_layers + [1]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = math.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        weights[-1][:] = 0.0
        return cls(weights, biases)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def layer_shapes(self) -> list[tuple[int, int]]:
        return [w.shape for w in self.weights]

    @classmethod
    def from_flat(cls, flat: np.ndarray, shapes: list[tuple[int, ...]],
                  activation: str = "relu") -> "ClassifierNet":
        """Network whose weights, then biases, are views into one flat buffer."""
        sizes = [math.prod(s) for s in shapes]
        arrays = [a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
        return cls(arrays[:len(shapes) // 2], arrays[len(shapes) // 2:], activation)

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Batch forward: [n, input_dim] -> [n].

        Hidden layers alternate between two buffers the net keeps, so a
        grid of many rows allocates no per-layer temporaries; the returned
        logits are a fresh array that later calls never overwrite. The
        buffers make one net unsafe to evaluate from two threads at once.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected [n, {self.input_dim}] input, got {x.shape}")
        n = x.shape[0]
        size = n * max((w.shape[0] for w in self.weights[:-1]), default=0)
        if self._workspace[0].size != size:
            self._workspace = (np.empty(size), np.empty(size))
        h = x
        for k, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            out = self._workspace[k % 2][:n * w.shape[0]].reshape(n, w.shape[0])
            np.matmul(h, w.T, out=out)
            out += b
            h = np.maximum(out, 0.0, out=out)
        return (h @ self.weights[-1].T + self.biases[-1]).reshape(-1)

    def logit(self, v: np.ndarray) -> float:
        """Single-input forward: [input_dim] -> scalar logit."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.input_dim,):
            raise ValueError(f"expected length-{self.input_dim} input, got {v.shape}")
        return float(self.logits(v[None, :])[0])


@dataclass
class OptimizerState:
    """Adam accumulators plus the validation-plateau learning-rate schedule."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step_count: int = 0
    lr: float = 1e-3
    plateau_count: int = 0
    best_val_loss: float = field(default=math.inf)

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float) -> "OptimizerState":
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params], lr=lr)


def adam_step(params: list[np.ndarray], grads: list[np.ndarray],
              state: OptimizerState) -> None:
    """In-place Adam update (beta1=0.9, beta2=0.999, eps=1e-8).

    Raises :class:`DivergenceError` on non-finite gradients or parameters.
    """
    if len(params) != len(grads):
        raise ValueError("one gradient per parameter required")
    for p, g in zip(params, grads):
        if g is None or np.asarray(g).shape != p.shape:
            raise ValueError("gradient shape does not match parameter shape")
        if not np.all(np.isfinite(g)):
            raise DivergenceError("non-finite gradient; run aborted")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if not np.all(np.isfinite(p)):
            raise DivergenceError("non-finite parameter after update; run aborted")


def lr_schedule_update(state: OptimizerState, val_loss: float) -> None:
    """Divide the learning rate by 10 after 10 epochs without improvement."""
    if val_loss < state.best_val_loss:
        state.best_val_loss = val_loss
        state.plateau_count = 0
    else:
        state.plateau_count += 1
        if state.plateau_count >= PLATEAU_PATIENCE:
            state.lr /= PLATEAU_FACTOR
            state.plateau_count = 0


def save_weights(net: ClassifierNet, path) -> None:
    doc = {
        "format": WEIGHTS_FORMAT,
        "version": WEIGHTS_VERSION,
        "layer_shapes": [[int(o), int(i)] for o, i in net.layer_shapes],
        "weights": [float(v) for w in net.weights for v in w.reshape(-1)],
        "biases": [float(v) for b in net.biases for v in b.reshape(-1)],
        "activation": net.activation,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_weights(path) -> ClassifierNet:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != WEIGHTS_FORMAT:
        raise ValueError(f"not a {WEIGHTS_FORMAT} file: {path}")
    if doc.get("version") != WEIGHTS_VERSION:
        raise ValueError(
            f"unsupported weights version {doc.get('version')!r}, expected {WEIGHTS_VERSION}")
    shapes = [tuple(s) for s in doc["layer_shapes"]]
    wflat = np.asarray(doc["weights"], dtype=np.float64)
    bflat = np.asarray(doc["biases"], dtype=np.float64)
    if (wflat.size != sum(o * i for o, i in shapes)
            or bflat.size != sum(o for o, _ in shapes)):
        raise ValueError("weight payload does not match declared layer shapes")
    return ClassifierNet.from_flat(np.concatenate([wflat, bflat]),
                                   shapes + [(out,) for out, _ in shapes],
                                   doc.get("activation", "relu"))
