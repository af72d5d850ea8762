"""Minimal reverse-mode differentiation over numpy arrays.

Operations record themselves on a :class:`Tape` in creation order, which is
a topological order of the computation graph; the reverse sweep therefore
visits each node exactly once. Only the primitives needed by fully connected
classifier losses are provided. Nodes whose inputs are all constants are
evaluated eagerly and never recorded, so the same functions double as plain
(loss-value) evaluation when no parameters are involved. Training runs the
closed-form gradient in :mod:`.training`; the tests use the tape as its reference.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

__all__ = [
    "Tape",
    "Var",
    "leaf",
    "backward",
    "affine",
    "relu",
    "sigmoid",
    "softplus",
    "neg",
    "add",
    "mul",
    "scale",
    "add_const",
    "square",
    "mean",
    "sum_all",
    "ravel",
]


class Tape:
    """Ordered record of operations from a forward pass."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)


class Var:
    """Array-valued node; ``grad`` is populated by the reverse sweep."""

    __slots__ = ("value", "grad", "tape", "requires_grad", "_backward")

    def __init__(self, value, tape=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.tape = tape
        self.requires_grad = requires_grad
        self._backward = None

    def _accumulate(self, g):
        self.grad = g if self.grad is None else self.grad + g


def leaf(value, tape=None, requires_grad=False) -> Var:
    """Input node. Parameters pass ``requires_grad=True`` and the tape that
    downstream operations should record on; plain data stays tape-less."""
    return Var(value, tape=tape, requires_grad=requires_grad)


def _node(value, parents, backward_fn):
    tape = None
    for p in parents:
        if p.tape is not None:
            if tape is None:
                tape = p.tape
            elif p.tape is not tape:
                raise ValueError("operands recorded on different tapes")
    out = Var(value, tape=tape, requires_grad=any(p.requires_grad for p in parents))
    if tape is not None and out.requires_grad:
        out._backward = backward_fn
        tape._nodes.append(out)
    return out


def backward(tape: Tape, loss: Var) -> None:
    """Reverse sweep seeding d(loss)/d(loss)=1; accumulates into ``.grad``."""
    if loss.value.ndim != 0:
        raise ValueError("loss must be a scalar")
    if loss.tape is not tape:
        raise ValueError("loss was not recorded on this tape")
    loss.grad = np.float64(1.0)
    for node in reversed(tape._nodes):
        if node.grad is not None:
            node._backward(node)


def affine(x: Var, w: Var, b: Var) -> Var:
    """x @ w.T + b for x [n, in], w [out, in], b [out]."""
    value = x.value @ w.value.T + b.value

    def bwd(out):
        g = out.grad
        if x.requires_grad:
            x._accumulate(g @ w.value)
        if w.requires_grad:
            w._accumulate(g.T @ x.value)
        if b.requires_grad:
            b._accumulate(g.sum(axis=0))

    return _node(value, (x, w, b), bwd)


def relu(x: Var) -> Var:
    value = np.maximum(x.value, 0.0)

    def bwd(out):
        if x.requires_grad:
            x._accumulate(out.grad * (x.value > 0.0))

    return _node(value, (x,), bwd)


def sigmoid(x: Var) -> Var:
    s = expit(x.value)

    def bwd(out):
        if x.requires_grad:
            x._accumulate(out.grad * s * (1.0 - s))

    return _node(s, (x,), bwd)


def softplus(x: Var) -> Var:
    # log(1 + e^z) == logaddexp(0, z), stable for large |z|
    value = np.logaddexp(0.0, x.value)

    def bwd(out):
        if x.requires_grad:
            x._accumulate(out.grad * expit(x.value))

    return _node(value, (x,), bwd)


def neg(x: Var) -> Var:
    def bwd(out):
        if x.requires_grad:
            x._accumulate(-out.grad)

    return _node(-x.value, (x,), bwd)


def add(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ValueError("add requires matching shapes")

    def bwd(out):
        if a.requires_grad:
            a._accumulate(out.grad)
        if b.requires_grad:
            b._accumulate(out.grad)

    return _node(a.value + b.value, (a, b), bwd)


def mul(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ValueError("mul requires matching shapes")

    def bwd(out):
        if a.requires_grad:
            a._accumulate(out.grad * b.value)
        if b.requires_grad:
            b._accumulate(out.grad * a.value)

    return _node(a.value * b.value, (a, b), bwd)


def scale(x: Var, c: float) -> Var:
    def bwd(out):
        if x.requires_grad:
            x._accumulate(out.grad * c)

    return _node(x.value * c, (x,), bwd)


def add_const(x: Var, c: float) -> Var:
    def bwd(out):
        if x.requires_grad:
            x._accumulate(out.grad)

    return _node(x.value + c, (x,), bwd)


def square(x: Var) -> Var:
    def bwd(out):
        if x.requires_grad:
            x._accumulate(out.grad * 2.0 * x.value)

    return _node(x.value * x.value, (x,), bwd)


def mean(x: Var) -> Var:
    n = x.value.size

    def bwd(out):
        if x.requires_grad:
            x._accumulate(np.full(x.value.shape, out.grad / n))

    return _node(x.value.mean(), (x,), bwd)


def sum_all(x: Var) -> Var:
    def bwd(out):
        if x.requires_grad:
            x._accumulate(np.full(x.value.shape, out.grad))

    return _node(x.value.sum(), (x,), bwd)


def ravel(x: Var) -> Var:
    shape = x.value.shape

    def bwd(out):
        if x.requires_grad:
            x._accumulate(out.grad.reshape(shape))

    return _node(x.value.reshape(-1), (x,), bwd)
