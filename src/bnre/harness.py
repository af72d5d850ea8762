"""Experiment orchestration: budget sweeps, lambda sweeps, and reporting.

A run is keyed by (benchmark, budget, seed, lambda); its dataset, its
training streams, and all of its diagnostics derive their randomness from
that key, so tables are reproducible bitwise and independent of worker
count or scheduling. The method label follows the lambda: lambda = 0 is
plain NRE, anything larger is BNRE, which makes a lambda-sweep row at 0
coincide with the corresponding NRE row. Held-out test sets come from a
dedicated "test" stream namespace and therefore never overlap training
datasets. Wall-clock timings are recorded in a separate artifact so that
the scientific outputs stay byte-for-byte deterministic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .diagnostics import (DEFAULT_LEVELS, CoverageCurve, _auc_from_curve,
                          coverage_indicators, sbc_ranks)
from .files import replacing
from .nets import keep_blocks_on_caller, load_weights, save_weights
from .ratio import posterior_grid
from .rng import stable_seed, substream
from .simulators import (Benchmark, Dataset, generate_dataset, get_benchmark,
                         load_dataset, save_dataset)
from .training import TrainConfig, TrainingDiverged, derangement_against, train

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "AggregateRow",
    "ResultsTable",
    "run_experiment",
    "lambda_sweep",
    "evaluate_net",
    "write_report",
    "save_dataset",
    "load_dataset",
    "save_weights",
    "load_weights",
]

METRIC_FIELDS = ("coverage_auc", "coverage_auc_se", "expected_log_posterior",
                 "bias", "variance", "balance_gap")

RESULTS_COLUMNS = ("benchmark", "budget", "seed", "method", "lambda",
                   *METRIC_FIELDS, "status", "error")

# wall seconds of each phase of a run, written to timing.csv only
PHASE_FIELDS = ("simulate_s", "train_s", "evaluate_s", "persist_s")


@dataclass(frozen=True)
class ExperimentConfig:
    benchmark: str = "tractable1d"
    budgets: tuple[int, ...] = (1024, 4096, 16384)
    seeds: tuple[int, ...] = (0, 1, 2)
    methods: tuple[str, ...] = ("nre", "bnre")
    lam: float = 100.0
    levels: tuple[float, ...] = tuple(DEFAULT_LEVELS)
    n_test: int = 1000
    test_seed: int = 0
    epochs: int = 150
    batch_size: int = 256
    learning_rate: float = 1e-3
    validation_fraction: float = 0.1
    hidden_layers: int = 3
    hidden_units: int = 64
    sbc_samples: int = 0
    output_dir: str = "results"
    workers: int = 1

    def __post_init__(self):
        budgets = tuple(int(b) for b in self.budgets)
        if list(budgets) != sorted(budgets):
            raise ValueError("budgets must be sorted ascending")
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        methods = tuple(m.lower() for m in self.methods)
        if any(m not in ("nre", "bnre") for m in methods):
            raise ValueError("methods must be a subset of {'nre', 'bnre'}")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "levels", tuple(float(v) for v in self.levels))
        # invalid settings fail here, not as failed rows after datasets are written
        for ok, message in ((self.lam >= 0.0, "lambda must be nonnegative"),
                            (self.n_test >= 2, "n_test must be >= 2"),
                            (self.workers >= 1, "workers must be >= 1"),
                            (self.epochs >= 1, "epochs must be >= 1"),
                            (self.sbc_samples == 0 or self.sbc_samples >= 100,
                             "sbc_samples must be 0 (off) or >= 100")):
            if not ok:
                raise ValueError(message)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for key in ("budgets", "seeds", "methods", "levels"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)

    def to_json_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("budgets", "seeds", "methods", "levels"):
            out[key] = list(out[key])
        return out

    def train_config(self, budget: int, seed: int, lam: float) -> TrainConfig:
        return TrainConfig(
            lam=lam,
            batch_size=self.batch_size,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            validation_fraction=self.validation_fraction,
            seed=stable_seed("train", self.benchmark, budget, seed, float(lam)),
            hidden_layers=self.hidden_layers,
            hidden_units=self.hidden_units,
        )


@dataclass(frozen=True)
class RunResult:
    benchmark: str
    budget: int
    seed: int
    method: str
    lam: float
    coverage_auc: float = float("nan")
    coverage_auc_se: float = float("nan")
    expected_log_posterior: float = float("nan")
    bias: float = float("nan")
    variance: float = float("nan")
    balance_gap: float = float("nan")
    wall_time: float = 0.0
    status: str = "ok"
    error: str = ""
    simulate_s: float = 0.0
    train_s: float = 0.0
    evaluate_s: float = 0.0
    persist_s: float = 0.0

    def key(self) -> tuple:
        return (self.benchmark, self.budget, self.seed, self.method, self.lam)

    def comparable(self) -> tuple:
        """Everything but the wall-clock time; used for determinism checks."""
        return (self.benchmark, self.budget, self.seed, self.method, self.lam,
                self.coverage_auc, self.coverage_auc_se, self.expected_log_posterior,
                self.bias, self.variance, self.balance_gap, self.status, self.error)


@dataclass(frozen=True)
class AggregateRow:
    benchmark: str
    budget: int
    method: str
    lam: float
    n_runs: int
    n_failed: int
    means: dict
    stds: dict


@dataclass
class ResultsTable:
    rows: list[RunResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(r.status == "ok" for r in self.rows)

    def comparable_rows(self) -> list[tuple]:
        return [r.comparable() for r in sorted(self.rows, key=RunResult.key)]

    def select(self, **criteria) -> list[RunResult]:
        out = []
        for r in self.rows:
            if all(getattr(r, k) == v for k, v in criteria.items()):
                out.append(r)
        return out

    def aggregate(self) -> list[AggregateRow]:
        """Mean/std over seeds per (benchmark, budget, method, lambda) cell.

        Failed runs are excluded from the statistics and surfaced in
        ``n_failed``. Standard deviations use ddof=1 (0 for a single run).
        """
        groups: dict[tuple, list[RunResult]] = {}
        for r in self.rows:
            groups.setdefault((r.benchmark, r.budget, r.method, r.lam), []).append(r)
        out = []
        for (bench, budget, method, lam), rows in sorted(groups.items()):
            ok = [r for r in rows if r.status == "ok"]
            means, stds = {}, {}
            for m in METRIC_FIELDS:
                vals = np.array([getattr(r, m) for r in ok], dtype=np.float64)
                means[m] = float(vals.mean()) if len(vals) else float("nan")
                stds[m] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
            out.append(AggregateRow(bench, budget, method, lam, len(rows),
                                    len(rows) - len(ok), means, stds))
        return out

    def to_csv(self, path) -> None:
        lines = [",".join(RESULTS_COLUMNS)]
        for r in sorted(self.rows, key=RunResult.key):
            lines.append(",".join([
                r.benchmark, str(r.budget), str(r.seed), r.method, repr(r.lam),
                *[repr(getattr(r, m)) for m in METRIC_FIELDS],
                r.status, json.dumps(r.error),
            ]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def timing_to_csv(self, path) -> None:
        lines = [",".join(["benchmark", "budget", "seed", "method", "lambda", "wall_time_s",
                           *PHASE_FIELDS])]
        for r in sorted(self.rows, key=RunResult.key):
            seconds = [r.wall_time, *(getattr(r, f) for f in PHASE_FIELDS)]
            lines.append(",".join([r.benchmark, str(r.budget), str(r.seed), r.method,
                                   repr(r.lam), *(f"{t:.3f}" for t in seconds)]))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    def aggregate_to_csv(self, path) -> None:
        header = ["benchmark", "budget", "method", "lambda", "n_runs", "n_failed"]
        for m in METRIC_FIELDS:
            header += [f"{m}_mean", f"{m}_std"]
        lines = [",".join(header)]
        for a in self.aggregate():
            cells = [a.benchmark, str(a.budget), a.method, repr(a.lam),
                     str(a.n_runs), str(a.n_failed)]
            for m in METRIC_FIELDS:
                cells += [repr(a.means[m]), repr(a.stds[m])]
            lines.append(",".join(cells))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _method_for(lam: float) -> str:
    return "nre" if lam == 0.0 else "bnre"


def _slug(benchmark: str, budget: int, seed: int, lam: float | None = None) -> str:
    base = f"{benchmark}_b{budget}_s{seed}"
    if lam is None:
        return base
    return f"{base}_{_method_for(lam)}_lam{lam:g}"


def _dataset_path(out: Path, benchmark: str, budget: int, seed: int) -> Path:
    return out / "datasets" / f"{_slug(benchmark, budget, seed)}.bnre"


def _ensure_dataset(benchmark: Benchmark, budget: int, seed: int, out: Path) -> Dataset:
    """The cached training dataset if its header matches the request, else a new one.

    A cache file that is unreadable, truncated, or written for another
    benchmark, budget or seed is regenerated and overwritten.
    """
    path = _dataset_path(out, benchmark.name, budget, seed)
    if path.exists():
        try:
            cached = load_dataset(path)
        except (ValueError, KeyError):
            cached = None
        if cached is not None and (cached.benchmark, len(cached), cached.seed) == (
                benchmark.name, budget, seed):
            return cached
    dataset = generate_dataset(benchmark, budget, seed, namespace="train")
    path.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, path)
    return dataset


def _test_pairs(benchmark: Benchmark, dataset: Dataset) -> list[tuple[np.ndarray, np.ndarray]]:
    dims = list(benchmark.inference_dims)
    return [(dataset.theta[i, dims], dataset.x[i]) for i in range(len(dataset))]


def evaluate_net(net, benchmark: Benchmark, test_set: Dataset,
                 levels=DEFAULT_LEVELS, sbc_samples: int = 0,
                 sbc_rng: np.random.Generator | None = None,
                 balance_rng: np.random.Generator | None = None) -> dict:
    """All posterior diagnostics for one trained classifier in one grid pass.

    Returns coverage curve, coverage AUC (+ propagated SE), expected log
    posterior, scaled bias/variance, the classifier's balance gap |B - 1| on
    the test set, and optionally SBC ranks.
    """
    levels = np.asarray(levels, dtype=np.float64)
    pairs = _test_pairs(benchmark, test_set)
    indicators = []
    log_dens = []
    biases = []
    variances = []
    prior_var = benchmark.inference_prior.variances
    grids = []
    for theta_star, x in pairs:
        grid = posterior_grid(net, benchmark, x)
        indicators.append(coverage_indicators(grid, theta_star, levels))
        d = max(grid.density_at(theta_star), 1e-300)
        log_dens.append(np.log(d))
        mean = grid.mean()
        biases.append(float(np.sum((mean - theta_star) ** 2 / prior_var)))
        variances.append(float(np.sum(grid.second_central_moment() / prior_var)))
        if sbc_samples:
            grids.append(grid)

    indicators = np.asarray(indicators, dtype=np.float64)
    n = len(pairs)
    coverage = indicators.mean(axis=0)
    se = np.sqrt(coverage * (1.0 - coverage) / n)
    per_pair_auc = np.array([_auc_from_curve(levels, row) for row in indicators])
    curve = CoverageCurve(levels, coverage, n, se, float(per_pair_auc.mean()),
                          float(per_pair_auc.std(ddof=1) / np.sqrt(n)))

    # balance of the deployed classifier over the held-out set
    dims = list(benchmark.inference_dims)
    f_theta = benchmark.theta_features(test_set.theta[:, dims])
    f_x = benchmark.x_features(test_set.x)
    rng = balance_rng or np.random.default_rng(0)
    marg = derangement_against(np.arange(len(test_set)), rng)
    probs_joint = expit(net.logits(np.concatenate([f_theta, f_x], axis=1)))
    probs_marg = expit(net.logits(np.concatenate([f_theta, f_x[marg]], axis=1)))
    balance_gap = abs(float(probs_joint.mean() + probs_marg.mean()) - 1.0)

    result = {
        "curve": curve,
        "coverage_auc": curve.auc,
        "coverage_auc_se": curve.auc_se,
        "expected_log_posterior": float(np.mean(log_dens)),
        "bias": float(np.mean(biases)),
        "variance": float(np.mean(variances)),
        "balance_gap": balance_gap,
    }
    if sbc_samples:
        cache = iter(grids)
        result["sbc"] = sbc_ranks(lambda x: next(cache), pairs,
                                  sbc_rng or np.random.default_rng(1),
                                  samples_per_posterior=sbc_samples)
    return result


def _curve_to_csv(curve: CoverageCurve, path: Path) -> None:
    lines = ["level,coverage,se"]
    for lvl, cov, se in zip(curve.levels, curve.coverage, curve.se):
        lines.append(f"{repr(float(lvl))},{repr(float(cov))},{repr(float(se))}")
    with replacing(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _PhaseClock(dict):
    """Wall seconds per phase, accumulated by ``with clock("train"): ...``."""

    @contextlib.contextmanager
    def __call__(self, phase: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self[phase] = self.get(phase, 0.0) + time.perf_counter() - start


def execute_run(config: ExperimentConfig, budget: int, seed: int, lam: float) -> RunResult:
    """Train and diagnose one (budget, seed, lambda) cell, persisting artifacts."""
    out = Path(config.output_dir)
    benchmark = get_benchmark(config.benchmark)
    method = _method_for(lam)
    slug = _slug(config.benchmark, budget, seed, lam)
    key = dict(benchmark=config.benchmark, budget=budget, seed=seed, method=method, lam=lam)
    clock = _PhaseClock()
    started = time.perf_counter()
    try:
        with clock("simulate_s"):
            dataset = _ensure_dataset(benchmark, budget, seed, out)
            test_set = generate_dataset(benchmark, config.n_test, config.test_seed,
                                        namespace="test")
        with clock("train_s"):
            net, history = train(benchmark, dataset, config.train_config(budget, seed, lam))

        with clock("persist_s"):
            for sub in ("weights", "history", "curves", "runs"):
                (out / sub).mkdir(parents=True, exist_ok=True)
            save_weights(net, out / "weights" / f"{slug}.json")
            history.to_csv(out / "history" / f"{slug}.csv")

        with clock("evaluate_s"):
            metrics = evaluate_net(
                net, benchmark, test_set, levels=np.asarray(config.levels),
                sbc_samples=config.sbc_samples,
                sbc_rng=substream("sbc", config.benchmark, budget, seed, float(lam)),
                balance_rng=substream("balance", config.benchmark, budget, seed, float(lam)),
            )

        with clock("persist_s"):
            _curve_to_csv(metrics["curve"], out / "curves" / f"{slug}_coverage.csv")
            run_doc = {k: _json_safe(v) for k, v in key.items()}
            run_doc.update((m, _json_safe(metrics[m])) for m in METRIC_FIELDS)
            with replacing(out / "runs" / f"{slug}.json") as tmp:
                tmp.write_text(json.dumps(run_doc, sort_keys=True), encoding="utf-8")
        return RunResult(**key, **{m: metrics[m] for m in METRIC_FIELDS},
                         wall_time=time.perf_counter() - started, **clock)
    except (TrainingDiverged, RuntimeError, ValueError) as err:
        return RunResult(**key, wall_time=time.perf_counter() - started, **clock,
                         status="failed", error=f"{type(err).__name__}: {err}")


def _execute_many(config: ExperimentConfig, specs: list[tuple[int, int, float]]) -> list[RunResult]:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    benchmark = get_benchmark(config.benchmark)
    # materialize shared datasets up front so parallel runs never race on files
    for budget in sorted({b for b, _, _ in specs}):
        for seed in sorted({s for _, s, _ in specs}):
            _ensure_dataset(benchmark, budget, seed, out)
    if config.workers > 1:
        # the worker processes already share the cores: no forward splits its blocks
        with ProcessPoolExecutor(max_workers=config.workers,
                                 initializer=keep_blocks_on_caller) as pool:
            futures = [pool.submit(execute_run, config, *spec) for spec in specs]
            return [f.result() for f in futures]
    return [execute_run(config, *spec) for spec in specs]


def run_experiment(config: ExperimentConfig) -> ResultsTable:
    """Train and diagnose every (budget, seed, method) cell; emit artifacts.

    Produces results.csv / aggregate.csv / report.json plus per-run weights,
    history, and coverage curves under ``config.output_dir``. Wall-clock
    times go to timing.csv only.
    """
    specs = [(budget, seed, 0.0 if method == "nre" else config.lam)
             for budget in config.budgets
             for seed in config.seeds
             for method in config.methods]
    table = ResultsTable(_execute_many(config, specs))
    _write_outputs(config, table)
    return table


def lambda_sweep(config: ExperimentConfig, lambdas) -> ResultsTable:
    """One BNRE run per (lambda, seed) at a single fixed budget."""
    if len(config.budgets) != 1:
        raise ValueError("lambda sweep requires a single budget")
    budget = config.budgets[0]
    lambdas = [float(lam) for lam in lambdas]
    if not all(lam >= 0.0 for lam in lambdas):
        raise ValueError("lambda must be nonnegative")
    specs = [(budget, seed, lam) for lam in lambdas for seed in config.seeds]
    table = ResultsTable(_execute_many(config, specs))
    _write_outputs(config, table)
    return table


def _read_rows(out: Path) -> list[RunResult]:
    """Rows an earlier experiment left in ``out`` (report.json, timing.csv)."""
    if not (out / "report.json").exists():
        return []
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    timings = {}
    if (out / "timing.csv").exists():
        # older timing.csv files end at wall_time_s, without the phase columns
        for line in (out / "timing.csv").read_text(encoding="utf-8").splitlines()[1:]:
            bench, budget, seed, method, lam, *seconds = line.split(",")
            timings[bench, int(budget), int(seed), method, float(lam)] = dict(
                zip(("wall_time", *PHASE_FIELDS), map(float, seconds)))
    rows = []
    for r in doc["rows"]:
        key = (r["benchmark"], r["budget"], r["seed"], r["method"], r["lambda"])
        metrics = {m: float("nan") if r[m] is None else r[m] for m in METRIC_FIELDS}
        rows.append(RunResult(*key, **metrics, **timings.get(key, {}),
                              status=r["status"], error=r["error"]))
    return rows


def _write_outputs(config: ExperimentConfig, table: ResultsTable) -> None:
    """Merge ``table`` into the tables in the output directory, by run key.

    A row replaces an earlier one with the same key and leaves the others,
    so experiments that share an output directory keep each other's rows;
    report.json records the latest experiment's config. Each table is
    written to a temporary file that then replaces it.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    merged = {r.key(): r for r in _read_rows(out)}
    merged.update((r.key(), r) for r in table.rows)
    table = ResultsTable(list(merged.values()))
    for name, write in (("results.csv", table.to_csv),
                        ("aggregate.csv", table.aggregate_to_csv),
                        ("timing.csv", table.timing_to_csv),
                        ("report.json", lambda path: write_report(path, config, table))):
        with replacing(out / name) as tmp:
            write(tmp)


def _json_safe(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def write_report(path, config: ExperimentConfig, table: ResultsTable) -> None:
    doc = {
        "config": config.to_json_dict(),
        "rows": [
            {**{k: getattr(r, k) for k in ("benchmark", "budget", "seed", "method")},
             "lambda": r.lam,
             **{m: _json_safe(getattr(r, m)) for m in METRIC_FIELDS},
             "status": r.status, "error": r.error}
            for r in sorted(table.rows, key=RunResult.key)
        ],
        "aggregates": [
            {"benchmark": a.benchmark, "budget": a.budget, "method": a.method,
             "lambda": a.lam, "n_runs": a.n_runs, "n_failed": a.n_failed,
             "means": {k: _json_safe(v) for k, v in a.means.items()},
             "stds": {k: _json_safe(v) for k, v in a.stds.items()}}
            for a in table.aggregate()
        ],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1), encoding="utf-8")
