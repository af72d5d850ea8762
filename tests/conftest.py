import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import bnre
from bnre import TrainConfig, generate_dataset, get_benchmark, train
from bnre.rng import stable_seed


@pytest.fixture(scope="session")
def tractable_benchmark():
    return get_benchmark("tractable1d")


@pytest.fixture(scope="session")
def tractable_test_set(tractable_benchmark):
    return generate_dataset(tractable_benchmark, 500, seed=99, namespace="test")


@pytest.fixture(scope="session")
def tractable_nre_net(tractable_benchmark):
    """Well-trained plain-NRE classifier at budget 2^14 (shared, ~30 s)."""
    dataset = generate_dataset(tractable_benchmark, 2 ** 14, seed=0)
    config = TrainConfig(lam=0.0, epochs=150, seed=stable_seed("fixture", "nre14"))
    net, history = train(tractable_benchmark, dataset, config)
    return net


def random_net(rng, sizes):
    """Fully random small MLP (no zeroed head) for gradient checks."""
    from bnre.nets import ClassifierNet

    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-0.1, 0.1, size=fan_out))
    return ClassifierNet(weights, biases)


def total_variation(a, b) -> float:
    """TV distance between two posteriors on the same grid."""
    if a.densities.shape != b.densities.shape:
        raise ValueError("grids must share a shape")
    return float(0.5 * np.abs(a.cell_masses - b.cell_masses).sum())


def batch_away_from_kinks(net, rng, n_rows, margin=1e-3, max_tries=500):
    """Input batch whose hidden pre-activations all clear the ReLU kink."""
    for _ in range(max_tries):
        x = rng.uniform(-2.0, 2.0, size=(n_rows, net.input_dim))
        h = x
        ok = True
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            z = h @ w.T + b
            if np.min(np.abs(z)) <= margin:
                ok = False
                break
            h = np.maximum(z, 0.0)
        if ok:
            return x
    raise AssertionError("could not sample a batch away from ReLU kinks")


def run_fresh_python(code: str, timeout: float = 300.0):
    """Run ``code`` in a fresh interpreter that imports this bnre; return its
    last stdout line, parsed as JSON."""
    src = str(Path(bnre.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@dataclass
class HpdResult:
    """Highest-density credible region as a >=-threshold cell set."""

    threshold: float
    region: np.ndarray        # boolean mask over grid cells
    achieved_mass: float
    level: float
    flagged: bool             # ties forced the mass away from the level

    @property
    def cell_indices(self) -> np.ndarray:
        return np.flatnonzero(self.region.reshape(-1))


def hpd_threshold(grid, level: float) -> HpdResult:
    """Exact density threshold of the 1-alpha highest-density region.

    The oracle for ``diagnostics.coverage_indicators``: cells sorted by
    decreasing density are added until their cumulative mass reaches the
    level; the threshold is the density of the last cell added. Cells tied
    at the threshold are all included (conservative), which can leave the
    achieved mass above the smallest prefix reaching the level on flat
    regions; such results are flagged.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    dens = grid.densities.reshape(-1)
    masses = dens * grid.cell_volume
    order = np.argsort(dens)[::-1]
    k = min(int(np.searchsorted(np.cumsum(masses[order]), level)), dens.size - 1)
    threshold = float(dens[order[k]])
    region = grid.densities >= threshold
    achieved = float(masses[dens >= threshold].sum())
    return HpdResult(threshold, region, achieved, level,
                     flagged=int(region.sum()) > k + 1)
