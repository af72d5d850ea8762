"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Operation ``k`` of a run with seed ``s`` uses the input seed ``1000 * s + k``
for both its training dataset and its held-out test set (the harness keeps
the two apart by stream namespace), so every operation of every run sees
fresh inputs and the same seed always gives the same inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bnre.harness
import bnre.simulators

import checks as C

LAMBDA = 100.0


def input_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


@dataclass
class Outcome:
    attempted: int
    failed: int
    out_dir: Path
    data: tuple = ()


class HarnessWorkload:
    """One ``run_experiment`` of BNRE at a single budget, seed and test set."""

    def __init__(self, name: str, benchmark: str, budget: int, n_test: int, epochs: int):
        self.name = name
        self.benchmark = benchmark
        self.budget = budget
        self.n_test = n_test
        self.epochs = epochs

    def inputs(self, seed: int, k: int, out_dir: Path) -> bnre.harness.ExperimentConfig:
        s = input_seed(seed, k)
        return bnre.harness.ExperimentConfig(
            benchmark=self.benchmark, budgets=(self.budget,), seeds=(s,), methods=("bnre",),
            lam=LAMBDA, n_test=self.n_test, test_seed=s, epochs=self.epochs,
            output_dir=str(out_dir))

    def run(self, config) -> Outcome:
        table = bnre.harness.run_experiment(config)
        return Outcome(len(table.rows), sum(r.status != "ok" for r in table.rows),
                       Path(config.output_dir))

    def artifacts(self, out_dir: Path) -> list[Path]:
        """The scientific outputs that must not depend on tracing."""
        return [out_dir / "results.csv", out_dir / "report.json",
                *sorted((out_dir / "weights").glob("*.json"))]

    def result_row(self, out_dir: Path) -> dict:
        rows = C.read_results(out_dir / "results.csv")
        C.require(len(rows) == 1, f"{self.name}: {len(rows)} rows in results.csv")
        row = rows[0]
        C.require(row["status"] == "ok", f"{self.name}: run {row['status']}: {row['error']}")
        C.require(row["method"] == "bnre" and float(row["lambda"]) == LAMBDA,
                  f"{self.name}: row is {row['method']} at lambda {row['lambda']}")
        return row

    def weights(self, out_dir: Path):
        files = sorted((out_dir / "weights").glob("*.json"))
        C.require(len(files) == 1, f"{self.name}: {len(files)} weight files")
        return C.read_mlp(files[0])


class Train1D(HarnessWorkload):
    """tractable1d, where training does almost all the work."""

    GRID = 1024

    def check(self, config, outcome: Outcome, last: bool = True) -> dict:
        row = self.result_row(outcome.out_dir)
        theta, x = C.tractable_pairs("test", config.test_seed, config.n_test)
        centers = C.cell_centers(-5.0, 5.0, self.GRID)
        w, b = self.weights(outcome.out_dir)
        masses = np.empty((len(x), self.GRID))
        for i, xi in enumerate(x):
            feats = np.column_stack([centers / 5.0, np.full(self.GRID, xi / 5.0)])
            masses[i] = C.masses_from_logits(C.mlp_logits(w, b, feats))
        C.check_agreement(C.summarize(masses, theta[:, None], (-5.0,), (5.0,), (self.GRID,)),
                          row, self.name)
        C.check_conservative(row["coverage_auc"], self.name)

        exact = C.tractable_exact_masses(x, self.GRID)
        tv, tv_prior = C.check_tv_to_exact(masses, exact, self.name)
        exact_var = float(np.mean(C.moments(exact, centers)[1])) / (100.0 / 12.0)
        C.check_variance_at_least_exact(row["variance"], exact_var, self.name)

        datasets = sorted((outcome.out_dir / "datasets").glob("*.bnre"))
        C.require(len(datasets) == 1, f"{self.name}: {len(datasets)} dataset files")
        _, rows = C.read_container(datasets[0])
        C.require(len(rows) == self.budget, f"{self.name}: dataset of {len(rows)} rows")
        C.check_standard_normal(rows[:, 1] - rows[:, 0], f"{self.name}: training residuals")
        return {"coverage_auc": row["coverage_auc"], "tv_exact": tv, "tv_prior": tv_prior,
                "variance": row["variance"], "variance_exact": exact_var}


class Eval2D(HarnessWorkload):
    """mg1 at a small budget, where 2-D grid evaluation dominates."""

    SHAPE = (128, 128)

    def check(self, config, outcome: Outcome, last: bool = True) -> dict:
        """Method properties on every operation; the re-evaluation, which
        costs as much as the program's own grid pass, on the last one only."""
        row = self.result_row(outcome.out_dir)
        C.check_conservative(row["coverage_auc"], self.name)
        C.check_beats_prior(row["expected_log_posterior"], -math.log(100.0), self.name)
        figures = {"coverage_auc": row["coverage_auc"], "elp": row["expected_log_posterior"]}
        if not last:
            return figures
        theta, x = C.mg1_pairs("test", config.test_seed, config.n_test)
        theta = theta[:, :2]
        axes = [C.cell_centers(0.0, 10.0, n) for n in self.SHAPE]
        mesh = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        theta_feats = (mesh - 5.0) / 5.0
        w, b = self.weights(outcome.out_dir)
        cells = theta_feats.shape[0]
        masses = np.empty((len(x), cells))
        for i, xi in enumerate(np.log1p(x)):
            feats = np.column_stack([theta_feats, np.broadcast_to(xi, (cells, xi.size))])
            masses[i] = C.masses_from_logits(C.mlp_logits(w, b, feats))
        C.check_agreement(C.summarize(masses, theta, (0.0, 0.0), (10.0, 10.0), self.SHAPE),
                          row, self.name)
        return figures


class SimulateLV:
    """lotka_volterra dataset: simulate, save, load; the Gillespie simulator works."""

    REDRAWN_ROWS = 3

    def __init__(self, name: str, budget: int):
        self.name = name
        self.budget = budget
        self.benchmark = bnre.simulators.get_benchmark("lotka_volterra")

    def inputs(self, seed: int, k: int, out_dir: Path):
        return input_seed(seed, k), out_dir / "lv.bnre"

    def run(self, spec) -> Outcome:
        seed, path = spec
        dataset = bnre.simulators.generate_dataset(self.benchmark, self.budget, seed,
                                                   namespace="train")
        bnre.simulators.save_dataset(dataset, path)
        loaded = bnre.simulators.load_dataset(path)
        return Outcome(self.budget, 0, path.parent, (dataset, loaded))

    def artifacts(self, out_dir: Path) -> list[Path]:
        return [out_dir / "lv.bnre"]

    def check(self, spec, outcome: Outcome, last: bool = True) -> dict:
        seed, path = spec
        dataset, loaded = outcome.data
        header, rows = C.read_container(path)
        C.check_lv_rows(rows, self.name)
        C.require(header == {"benchmark": "lotka_volterra", "budget": self.budget,
                             "failures": dataset.failures, "seed": seed,
                             "theta_dim": 4, "x_dim": 40}, f"{self.name}: header {header}")
        C.check_file_size(path, path.stat().st_size,
                          C.container_size(header, self.budget, 44), self.name)
        generated = np.hstack([dataset.theta, dataset.x])
        C.check_rows_equal(generated, rows, f"{self.name}: file against generated rows")
        C.check_rows_equal(generated, np.hstack([loaded.theta, loaded.x]),
                           f"{self.name}: save/load round trip")
        C.require((loaded.seed, loaded.failures) == (seed, dataset.failures),
                  f"{self.name}: provenance lost in the round trip")
        # the rows with the smallest populations are the cheapest to redraw
        for i in np.argsort(rows[:, 4:].sum(axis=1), kind="stable")[:self.REDRAWN_ROWS]:
            C.check_rows_equal(C.lotka_volterra_row("train", seed, int(i)), rows[i],
                               f"{self.name}: row {i} redrawn from its own stream")
        return {"regenerated": dataset.failures}


# the timed workloads are listed in BENCHMARK.json; see README.md for the sizes
WORKLOADS = {
    "train_1d": lambda: Train1D("train_1d", "tractable1d", budget=2 ** 13, n_test=1000, epochs=150),
    "eval_2d": lambda: Eval2D("eval_2d", "mg1", budget=2 ** 11, n_test=1000, epochs=150),
    "simulate_lv": lambda: SimulateLV("simulate_lv", budget=2 ** 8),
}
