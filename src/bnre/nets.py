"""Fully connected logit classifiers and their training machinery.

The network maps a feature vector (parameters concatenated with an
observable) to a single unbounded logit; the sigmoid is applied downstream,
and all losses are computed in logit space; training gradients come from
:func:`bnre.training.bnre_loss_grads`. Everything runs in float64, and
numpy's OpenBLAS runs one thread per calling thread
(:func:`one_blas_thread`), so identical (config, seed) pairs reproduce
bitwise-identical trajectories.

:meth:`ClassifierNet.logits` evaluates its rows in blocks of
:data:`BLOCK_ROWS`. A call of several blocks splits them into contiguous
spans, one for the calling thread and one for each of a pool of worker
threads, one per further CPU the process may use. Rows are independent and
each block is computed the same way on any thread, so the logits do not
depend on the CPU count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
    "keep_blocks_on_caller",
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
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
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


# (pid, pool or None, threads per call): built on first use in each process,
# since a forked child has none of its parent's worker threads. Two threads
# that build it at once each get a working pool; the one not kept is
# collected after its call returns, and its threads then exit.
_POOL: tuple[int, ThreadPoolExecutor | None, int] | None = None

# each thread's ping-pong buffers for the hidden layers of one block; they
# live as long as the thread, so the forward frees nothing large
_BUFFERS = threading.local()


def keep_blocks_on_caller() -> None:
    """Evaluate every block on the calling thread, in this process.

    For processes that already share the cores, such as the harness's
    ``workers > 1`` pool.
    """
    global _POOL
    _POOL = (os.getpid(), None, 1)


def _block_pool() -> tuple[ThreadPoolExecutor | None, int]:
    """Pinned worker threads (one per further usable CPU) and threads per call."""
    global _POOL
    pid = os.getpid()
    if _POOL is None or _POOL[0] != pid:
        setter = _blas_threads_setter()
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        if setter is None or cpus < 2:
            _POOL = (pid, None, 1)
        else:
            _POOL = (pid, ThreadPoolExecutor(cpus - 1, "bnre-forward",
                                             initializer=setter, initargs=(1,)), cpus)
    return _POOL[1], _POOL[2]


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


def _forward_blocks(net: ClassifierNet, x: np.ndarray, out: np.ndarray,
                    bounds: list[int]) -> None:
    """Logits of the blocks between consecutive ``bounds`` into ``out``."""
    weights, biases = net.weights, net.biases
    size = BLOCK_ROWS * max((w.shape[0] for w in weights[:-1]), default=0)
    buffers = getattr(_BUFFERS, "pair", None)
    if buffers is None or buffers[0].size < size:
        buffers = _BUFFERS.pair = (np.empty(size), np.empty(size))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        h = x[lo:hi]
        for k, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
            layer = buffers[k % 2][:(hi - lo) * w.shape[0]].reshape(hi - lo, w.shape[0])
            np.matmul(h, w.T, out=layer)
            layer += b
            h = np.maximum(layer, 0.0, out=layer)
        np.matmul(h, weights[-1].T, out=out[lo:hi, None])
        out[lo:hi] += biases[-1]


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

        Rows go through the net in blocks (:func:`_block_bounds`), each
        thread's hidden layers alternating between two buffers that thread
        keeps, so a grid of many rows allocates no per-layer temporaries.
        The blocks of a multi-block call are split into contiguous spans
        between the calling thread and the worker pool. The returned logits
        are a fresh array, and one net may be evaluated from several
        threads at once.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected [n, {self.input_dim}] input, got {x.shape}")
        out = np.empty(x.shape[0])
        bounds = _block_bounds(x.shape[0])
        pool, threads = _block_pool() if len(bounds) > 2 else (None, 1)
        blocks = len(bounds) - 1
        cuts = [blocks * i // threads for i in range(threads + 1)]
        spans = [bounds[a:b + 1] for a, b in zip(cuts[:-1], cuts[1:]) if a < b]
        with one_blas_thread():
            futures = [pool.submit(_forward_blocks, self, x, out, span) for span in spans[1:]]
            _forward_blocks(self, x, out, spans[0])
            for future in futures:
                future.result()
        return out

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
    shapes = [tuple(s) for s in doc["layer_shapes"]]
    wflat = np.asarray(doc["weights"], dtype=np.float64)
    bflat = np.asarray(doc["biases"], dtype=np.float64)
    if (wflat.size != sum(o * i for o, i in shapes)
            or bflat.size != sum(o for o, _ in shapes)):
        raise ValueError("weight payload does not match declared layer shapes")
    return ClassifierNet.from_flat(np.concatenate([wflat, bflat]),
                                   shapes + [(out,) for out, _ in shapes],
                                   doc.get("activation", "relu"))
