"""Balanced neural ratio estimation for simulation-based inference.

Train amortized likelihood-to-evidence ratio classifiers (plain or with the
balancing penalty), evaluate grid posteriors, and diagnose them with
expected coverage, coverage AUC, expected log posterior, bias/variance, and
simulation-based calibration. Includes stochastic benchmark simulators and
an experiment harness with a CLI front end.
"""

from .diagnostics import (CoverageCurve, DiscreteToy, SbcResult, run_theorem_battery,
                          verify_balance_theorems)
from .harness import ExperimentConfig, ResultsTable, lambda_sweep, run_experiment
from .nets import ClassifierNet, load_weights, save_weights
from .ratio import PosteriorGrid, posterior_grid
from .simulators import (Benchmark, Dataset, benchmark_names, generate_dataset,
                         get_benchmark, load_dataset, save_dataset, simulate)
from .training import TrainConfig, TrainHistory, bnre_loss, train

__version__ = "0.1.0"

__all__ = [
    "Benchmark",
    "ClassifierNet",
    "CoverageCurve",
    "Dataset",
    "DiscreteToy",
    "ExperimentConfig",
    "PosteriorGrid",
    "ResultsTable",
    "SbcResult",
    "TrainConfig",
    "TrainHistory",
    "benchmark_names",
    "bnre_loss",
    "generate_dataset",
    "get_benchmark",
    "lambda_sweep",
    "load_dataset",
    "load_weights",
    "posterior_grid",
    "run_experiment",
    "run_theorem_battery",
    "save_dataset",
    "save_weights",
    "simulate",
    "train",
    "verify_balance_theorems",
]
