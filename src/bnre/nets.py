"""Fully connected logit classifiers and their training machinery.

The network maps a feature vector (parameters concatenated with an
observable) to a single unbounded logit; the sigmoid is applied downstream,
and all losses are computed in logit space; training gradients come from
:func:`bnre.training.bnre_loss_grads`. A net keeps the dtype of the arrays
it is built from, float32 or float64. Training keeps float64 master weights
and Adam state and runs only each step's forward and backward on a float32
copy of them; the grid forward, validation, every diagnostic and the
weights file use float64 nets. Numpy's OpenBLAS runs one thread per calling
thread (:func:`one_blas_thread`), so identical (config, seed) pairs
reproduce bitwise-identical trajectories.

:meth:`ClassifierNet.logits` evaluates its rows in blocks of
:data:`BLOCK_ROWS`, in order, on the calling thread. Callers that want
several cores evaluate independent inputs on threads of their own, as
``harness.diagnose_pairs`` does with test pairs; each block is computed the
same way on any thread, so the logits do not depend on the thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .files import replacing

__all__ = [
    "BLOCK_ROWS",
    "ClassifierNet",
    "OptimizerState",
    "DivergenceError",
    "adam_step",
    "lr_schedule_update",
    "save_weights",
    "load_weights",
    "one_blas_thread",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

PLATEAU_PATIENCE = 10
PLATEAU_FACTOR = 10.0

WEIGHTS_FORMAT = "bnre-weights"
WEIGHTS_VERSION = 1

# rows per block of ClassifierNet.logits: one block's hidden layer (1024 x 64
# float64, 512 KiB) fits the per-thread buffers and stays in cache
BLOCK_ROWS = 1024


@functools.cache
def _blas_threads_setter():
    """numpy's ``openblas_set_num_threads_local``, or None under another BLAS.

    The symbol is looked up through numpy's own extension module, whose
    dependency tree holds numpy's OpenBLAS only. scipy loads a second copy
    that exports the same name; pinning that copy would leave numpy's
    matmuls on all threads.
    """
    from numpy._core import _multiarray_umath as umath
    try:
        setter = ctypes.CDLL(umath.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@contextlib.contextmanager
def one_blas_thread():
    """Run the calling thread's numpy BLAS calls on that thread alone.

    Left alone, OpenBLAS hands part of each of these small matmuls to a
    second thread that spins without making them faster. The caller's
    previous setting is restored on exit.
    """
    setter = _blas_threads_setter()
    if setter is None:
        yield
        return
    previous = setter(1)
    try:
        yield
    finally:
        setter(previous)


# each thread's ping-pong buffers for the hidden layers of one block; they
# live as long as the thread, so the forward frees nothing large
_BUFFERS = threading.local()


def _block_bounds(n: int) -> list[int]:
    """Row offsets of the blocks of an n-row forward.

    Blocks hold BLOCK_ROWS rows. A tail shorter than half a block is merged
    with the block before it, and the two are split at a multiple of 64
    rows: BLAS multiplies a few rows with other kernels and other rounding
    than it uses for the same rows inside a larger product.
    """
    bounds = [0, *range(BLOCK_ROWS, n, BLOCK_ROWS), n]
    if len(bounds) > 2 and n - bounds[-2] < BLOCK_ROWS // 2:
        bounds[-2] = bounds[-3] + (n - bounds[-3]) // 128 * 64
    return bounds


def _forward(net: ClassifierNet, x: np.ndarray, hidden: list[np.ndarray],
             out: np.ndarray) -> list[np.ndarray]:
    """Logits of the rows of ``x`` into ``out``.

    The one forward pass: :meth:`ClassifierNet.logits` runs it on each
    block and the training step on its stacked rows. Hidden layer k is
    computed in place in ``hidden[k]``, an array of ``len(x)`` rows.
    Returns the input of each layer: ``x``, then the hidden activations.
    """
    hs = [x]
    for w, b, layer in zip(net.weights[:-1], net.biases[:-1], hidden):
        np.matmul(hs[-1], w.T, out=layer)
        layer += b
        hs.append(np.maximum(layer, 0.0, out=layer))
    np.matmul(hs[-1], net.weights[-1].T, out=out[:, None])
    out += net.biases[-1]
    return hs


class DivergenceError(RuntimeError):
    """Raised when a NaN/Inf gradient or parameter signals a diverged run."""


class ClassifierNet:
    """ReLU MLP with a single-logit head.

    Weights are stored as ``[out, in]`` matrices. Consecutive layer shapes
    must compose; construction rejects anything else. Parameters stay
    float32 when the first weight matrix is float32, and are float64
    otherwise; arrays already of that dtype are kept, not copied.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
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
        dtype = np.float32 if weights[0].dtype == np.float32 else np.float64
        self.weights = [np.asarray(w, dtype=dtype) for w in weights]
        self.biases = [np.asarray(b, dtype=dtype) for b in biases]

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
    def from_flat(cls, flat: np.ndarray, shapes: list[tuple[int, ...]]) -> "ClassifierNet":
        """Network whose weights, then biases, are views into one flat buffer."""
        sizes = [math.prod(s) for s in shapes]
        arrays = [a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]
        return cls(arrays[:len(shapes) // 2], arrays[len(shapes) // 2:])

    def parameters(self) -> list[np.ndarray]:
        return self.weights + self.biases

    def logits(self, x: np.ndarray) -> np.ndarray:
        """Batch forward: [n, input_dim] -> [n].

        Rows go through the net in blocks (:func:`_block_bounds`), in order
        on the calling thread under :func:`one_blas_thread`, its hidden
        layers alternating between two buffers that thread keeps, so a grid
        of many rows creates no per-layer arrays; numpy still allocates one
        iterator buffer (8,192 elements) for each hidden layer's broadcast
        bias add in each block. The returned logits are a fresh array, and
        one net may be evaluated from several threads at once.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected [n, {self.input_dim}] input, got {x.shape}")
        out = np.empty(x.shape[0])
        widths = [w.shape[0] for w in self.weights[:-1]]
        size = BLOCK_ROWS * max(widths, default=0)
        buffers = getattr(_BUFFERS, "pair", None)
        if buffers is None or buffers[0].size < size:
            buffers = _BUFFERS.pair = (np.empty(size), np.empty(size))
        bounds = _block_bounds(x.shape[0])
        with one_blas_thread():
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                # layer k reads layer k - 1's buffer and overwrites the other one
                hidden = [buffers[k % 2][:(hi - lo) * width].reshape(hi - lo, width)
                          for k, width in enumerate(widths)]
                _forward(self, x[lo:hi], hidden, out[lo:hi])
        return out


@dataclass
class OptimizerState:
    """Adam accumulators plus the validation-plateau learning-rate schedule.

    ``scratch`` holds two arrays the shape of the accumulators, where
    :func:`adam_step` builds its update without allocating.
    """

    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    lr: float = 1e-3
    plateau_count: int = 0
    best_val_loss: float = field(default=math.inf)
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty((2, *self.m.shape))

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float) -> "OptimizerState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(p: np.ndarray, g: np.ndarray, state: OptimizerState) -> None:
    """In-place Adam update of ``p`` by gradient ``g`` (beta1=0.9, beta2=0.999, eps=1e-8).

    The update ``lr * (m / bc1) / (sqrt(v / bc2) + eps)`` is built in
    ``state.scratch`` one operation at a time, in the order of that
    expression, so it rounds the same as the expression evaluated with
    temporaries. Raises :class:`DivergenceError` on non-finite gradients or
    parameters.
    """
    if np.shape(g) != p.shape:
        raise ValueError("gradient shape does not match parameter shape")
    if not np.all(np.isfinite(g)):
        raise DivergenceError("non-finite gradient; run aborted")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v, (step, denom) = state.m, state.v, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
    v *= ADAM_BETA2
    np.multiply(g, g, out=step)
    v += np.multiply(step, 1.0 - ADAM_BETA2, out=step)
    np.divide(m, bc1, out=step)
    step *= state.lr
    np.divide(v, bc2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    p -= np.divide(step, denom, out=step)
    if not np.all(np.isfinite(p)):
        raise DivergenceError("non-finite parameter after update; run aborted")


def lr_schedule_update(state: OptimizerState, val_loss: float) -> bool:
    """Divide the learning rate by 10 after 10 epochs without improvement.

    Returns whether ``val_loss`` is strictly below every earlier one.
    """
    if val_loss < state.best_val_loss:
        state.best_val_loss = val_loss
        state.plateau_count = 0
        return True
    state.plateau_count += 1
    if state.plateau_count >= PLATEAU_PATIENCE:
        state.lr /= PLATEAU_FACTOR
        state.plateau_count = 0
    return False


def save_weights(net: ClassifierNet, path) -> None:
    doc = {
        "format": WEIGHTS_FORMAT,
        "version": WEIGHTS_VERSION,
        "layer_shapes": [[int(o), int(i)] for o, i in net.layer_shapes],
        "weights": [float(v) for w in net.weights for v in w.reshape(-1)],
        "biases": [float(v) for b in net.biases for v in b.reshape(-1)],
        "activation": "relu",
    }
    with replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_weights(path) -> ClassifierNet:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != WEIGHTS_FORMAT:
        raise ValueError(f"not a {WEIGHTS_FORMAT} file: {path}")
    if doc.get("version") != WEIGHTS_VERSION:
        raise ValueError(
            f"unsupported weights version {doc.get('version')!r}, expected {WEIGHTS_VERSION}")
    if doc.get("activation", "relu") != "relu":
        raise ValueError(f"unsupported activation: {doc['activation']!r}")
    shapes = [tuple(s) for s in doc["layer_shapes"]]
    wflat = np.asarray(doc["weights"], dtype=np.float64)
    bflat = np.asarray(doc["biases"], dtype=np.float64)
    if (wflat.size != sum(o * i for o, i in shapes)
            or bflat.size != sum(o for o, _ in shapes)):
        raise ValueError("weight payload does not match declared layer shapes")
    return ClassifierNet.from_flat(np.concatenate([wflat, bflat]),
                                   shapes + [(out,) for out, _ in shapes])
