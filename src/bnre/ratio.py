"""Likelihood-to-evidence ratios and grid posteriors from a trained classifier.

A classifier trained to separate joint from product-of-marginal pairs
carries the log ratio log r(x|theta) in its raw logit; adding the log prior
gives the (unnormalized) log posterior. Posteriors are materialized on a
regular grid over the prior box of the inferred parameters, normalized
empirically so that sum(density) * cell_volume = 1. All manipulation happens
in log space until the final normalization, since trained logits routinely
reach +-30.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .nets import ClassifierNet
from .simulators import Benchmark, Tractable1D, tractable_posterior

__all__ = [
    "PosteriorGrid",
    "DegenerateGridError",
    "posterior_grid",
    "grid_axes",
    "tractable_posterior_grid",
]


class DegenerateGridError(RuntimeError):
    """Every grid cell evaluated to zero posterior density."""


@dataclass
class PosteriorGrid:
    """Empirically normalized posterior over a regular grid of cell centers."""

    axes: tuple[np.ndarray, ...]
    densities: np.ndarray

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=np.float64) for a in self.axes)
        self.densities = np.asarray(self.densities, dtype=np.float64)
        if self.densities.shape != tuple(len(a) for a in self.axes):
            raise ValueError("densities shape must match the grid axes")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def cell_widths(self) -> tuple[float, ...]:
        return tuple(float(a[1] - a[0]) if len(a) > 1 else 1.0 for a in self.axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_widths))

    @property
    def cell_masses(self) -> np.ndarray:
        return self.densities * self.cell_volume

    def locate(self, theta: np.ndarray) -> tuple[int, ...]:
        """Index of the cell containing theta (clipped to the grid)."""
        theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        idx = []
        for d, axis in enumerate(self.axes):
            width = self.cell_widths[d]
            i = int(math.floor((theta[d] - (axis[0] - 0.5 * width)) / width))
            idx.append(min(max(i, 0), len(axis) - 1))
        return tuple(idx)

    def density_at(self, theta: np.ndarray) -> float:
        return float(self.densities[self.locate(theta)])

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension posterior mean and second central moment.

        Both come from one pass over the grid's marginal masses.
        """
        masses = self.cell_masses
        means, moments = [], []
        for d, axis in enumerate(self.axes):
            others = [k for k in range(self.ndim) if k != d]
            m = np.apply_over_axes(np.sum, masses, others).reshape(-1)
            mu = float(m @ axis)
            means.append(mu)
            moments.append(float(m @ (axis - mu) ** 2))
        return np.array(means), np.array(moments)


@functools.cache
def _grid(kind: type[Benchmark]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A benchmark class's cell-center axes and its read-only grid theta-features.

    The axes split the inference box into ``kind.grid_shape`` equal cells;
    the features hold one row per cell, in C order over the axes.
    """
    benchmark = kind()
    box = benchmark.inference_prior
    axes = tuple(lo + (hi - lo) / n * (np.arange(n) + 0.5)
                 for lo, hi, n in zip(box.lower, box.upper, kind.grid_shape))
    mesh = np.meshgrid(*axes, indexing="ij")
    t_feats = benchmark.theta_features(np.stack([m.reshape(-1) for m in mesh], axis=1))
    t_feats.flags.writeable = False
    return axes, t_feats


def grid_axes(benchmark: Benchmark) -> tuple[np.ndarray, ...]:
    """Cell-center axes of ``benchmark.grid_shape``, covering exactly the inference box."""
    return _grid(type(benchmark))[0]


def posterior_grid(net: ClassifierNet, benchmark: Benchmark, x: np.ndarray) -> PosteriorGrid:
    """Approximate posterior on the grid, exp'd with max-subtraction.

    Grid-based credible regions are only computed for inference dimension
    <= 2; higher-dimensional gridding is rejected.
    """
    if len(benchmark.inference_dims) > 2:
        raise ValueError("grid posteriors support at most 2 inferred dimensions")
    axes, t_feats = _grid(type(benchmark))
    x_feat = benchmark.x_features(np.asarray(x, dtype=np.float64))
    x_tiled = np.broadcast_to(x_feat, (t_feats.shape[0], x_feat.size))
    feats = np.concatenate([t_feats, x_tiled], axis=1)
    log_post = net.logits(feats)  # + log prior, constant over the box
    finite = np.isfinite(log_post)
    if not finite.any():
        raise DegenerateGridError("posterior density is zero on every grid cell")
    peak = log_post[finite].max()
    dens = np.where(finite, np.exp(log_post - peak), 0.0)
    grid = PosteriorGrid(axes, dens.reshape(benchmark.grid_shape))
    total = grid.densities.sum() * grid.cell_volume
    if total <= 0.0 or not np.isfinite(total):
        raise DegenerateGridError("posterior density is zero on every grid cell")
    grid.densities /= total
    return grid


def tractable_posterior_grid(benchmark: Tractable1D, x: np.ndarray) -> PosteriorGrid:
    """Exact posterior grid for the tractable benchmark (calibration oracle)."""
    if not isinstance(benchmark, Tractable1D):
        raise ValueError("exact posterior is only available for tractable1d")
    axes = grid_axes(benchmark)
    return PosteriorGrid(axes, tractable_posterior(x, axes[0]))
