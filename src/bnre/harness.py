"""Experiment orchestration: budget sweeps, lambda sweeps, and reporting.

A run is keyed by (benchmark, budget, seed, lambda); its dataset, its
training streams, and all of its diagnostics derive their randomness from
that key, so tables are reproducible bitwise and independent of the number
of processes, threads or their scheduling. An experiment spreads its runs
over one process per usable CPU; a lone run spreads its test pairs over
one thread per usable CPU instead. The method label follows the lambda:
lambda = 0 is plain NRE, anything larger is BNRE, which makes a
lambda-sweep row at 0 coincide with the corresponding NRE row. Held-out
test sets come from a dedicated "test" stream namespace and therefore
never overlap training datasets. Wall-clock timings are recorded in a
separate artifact so that the scientific outputs stay byte-for-byte
deterministic.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from .diagnostics import (DEFAULT_LEVELS, CoverageCurve, coverage_curve,
                          coverage_indicators, mean_log_density, sbc_rank,
                          sbc_uniformity, scaled_bias_variance)
from .files import replacing
from .nets import _blas_threads_setter, one_blas_thread, save_weights
from .ratio import DegenerateGridError, posterior_grid
from .rng import stable_seed, substream
from .simulators import (Benchmark, Dataset, RegenerationExhausted, generate_dataset,
                         get_benchmark, load_dataset, save_dataset)
from .training import (TrainConfig, TrainingDiverged, balance_statistic, derangement_against,
                       train)

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "AggregateRow",
    "ResultsTable",
    "run_experiment",
    "lambda_sweep",
    "PairDiagnostics",
    "diagnose_pairs",
    "evaluate_net",
    "write_report",
    "save_dataset",
    "load_dataset",
    "save_weights",
]

METRIC_FIELDS = ("coverage_auc", "coverage_auc_se", "expected_log_posterior",
                 "bias", "variance", "balance_gap")

RESULTS_COLUMNS = ("benchmark", "budget", "seed", "method", "lambda",
                   *METRIC_FIELDS, "status", "error")

AGGREGATE_COLUMNS = ("benchmark", "budget", "method", "lambda", "n_runs", "n_failed",
                     *(f"{m}_{s}" for m in METRIC_FIELDS for s in ("mean", "std")))

# wall seconds of each phase of a run, written to timing.csv only
PHASE_FIELDS = ("simulate_s", "train_s", "evaluate_s", "persist_s")

TIMING_COLUMNS = ("benchmark", "budget", "seed", "method", "lambda", "wall_time_s",
                  *PHASE_FIELDS)


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
        # invalid settings fail here, not as failed rows after datasets are written;
        # TrainConfig checks the training fields
        self.train_config(0, 0, self.lam)
        for ok, message in ((self.n_test >= 2, "n_test must be >= 2"),
                            (all(b >= self.batch_size for b in budgets),
                             "budgets must each be >= batch_size"),
                            (self.levels and all(0.0 < v < 1.0 for v in self.levels),
                             "levels must be nonempty and lie strictly inside (0, 1)"),
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
        return cls(**raw)

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)

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


@dataclass
class PairDiagnostics:
    """Per-test-pair quantities from one grid posterior each.

    ``sbc_ranks`` is None unless SBC ranks were drawn.
    """

    theta_star: np.ndarray        # [n, d]
    indicators: np.ndarray        # [n, L] coverage indicators
    densities: np.ndarray         # [n] grid density at theta*
    means: np.ndarray             # [n, d] grid means
    moments: np.ndarray           # [n, d] grid second central moments
    sbc_ranks: np.ndarray | None  # [n]


def diagnose_pairs(posterior_fn, pairs, levels=DEFAULT_LEVELS, sbc_samples: int = 0,
                   sbc_rng: np.random.Generator | None = None,
                   threads: int = 1) -> PairDiagnostics:
    """Build each (theta*, x) pair's grid once and keep only its small results.

    ``posterior_fn`` maps an observable to a :class:`PosteriorGrid`; with
    ``threads`` > 1 it is called from several threads at once. The calling
    thread and ``threads - 1`` worker threads, each under
    :func:`one_blas_thread`, take pair indices in order from one lock. With
    ``sbc_samples`` > 0 each pair's SBC uniforms are drawn from ``sbc_rng``
    under that lock, in pair order, so the ranks do not depend on the
    threads. No grid outlives its pair. A pair that raises stops the
    handing-out; once every thread is done, the exception of the first pair
    that raised is re-raised, as a loop over the pairs in order would raise
    it.
    """
    if sbc_samples and sbc_samples < 100:
        raise ValueError("sbc_samples must be 0 (off) or >= 100")
    levels = np.asarray(levels, dtype=np.float64)
    pairs = list(pairs)
    rows, failures = [None] * len(pairs), {}
    lock = threading.Lock()
    handed_out = 0

    def take():
        nonlocal handed_out
        with lock:
            if failures or handed_out == len(pairs):
                return None
            handed_out += 1
            return handed_out - 1, sbc_rng.random(sbc_samples) if sbc_samples else None

    def work():
        with one_blas_thread():
            while (task := take()) is not None:
                i, uniforms = task
                try:
                    grid = posterior_fn(pairs[i][1])
                    theta = np.atleast_1d(np.asarray(pairs[i][0], dtype=np.float64))
                    rows[i] = (theta, coverage_indicators(grid, theta, levels),
                               grid.density_at(theta), *grid.moments(),
                               None if uniforms is None else sbc_rank(grid, theta, uniforms))
                except BaseException as err:  # re-raised below, on the calling thread
                    with lock:
                        failures[i] = err

    workers = [threading.Thread(target=work, name=f"bnre-pairs-{k}")
               for k in range(1, min(threads, len(pairs)))]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        with lock:
            handed_out = len(pairs)
        for worker in workers:
            worker.join()
    if failures:
        raise failures[min(failures)]
    thetas, indicators, densities, means, moments, ranks = list(zip(*rows)) or [()] * 6
    return PairDiagnostics(np.asarray(thetas), np.asarray(indicators, dtype=bool),
                           np.asarray(densities), np.asarray(means), np.asarray(moments),
                           np.asarray(ranks) if sbc_samples else None)


def evaluate_net(net, benchmark: Benchmark, test_set: Dataset,
                 levels=DEFAULT_LEVELS, sbc_samples: int = 0,
                 sbc_rng: np.random.Generator | None = None,
                 balance_rng: np.random.Generator | None = None, threads: int = 1) -> dict:
    """All posterior diagnostics for one trained classifier in one grid pass.

    Returns coverage curve, coverage AUC (+ propagated SE), expected log
    posterior and the number of floored test densities, scaled
    bias/variance, the classifier's balance gap |B - 1| on the test set,
    and optionally SBC ranks. The grid pass runs on ``threads`` threads
    (:func:`diagnose_pairs`); the results do not depend on them.
    """
    levels = np.asarray(levels, dtype=np.float64)
    per_pair = diagnose_pairs(lambda x: posterior_grid(net, benchmark, x),
                              _test_pairs(benchmark, test_set), levels, sbc_samples,
                              sbc_rng or np.random.default_rng(1), threads)
    curve = coverage_curve(per_pair.indicators, levels)
    elp, floored = mean_log_density(per_pair.densities)
    bias, variance = scaled_bias_variance(per_pair.theta_star, per_pair.means,
                                          per_pair.moments,
                                          benchmark.inference_prior.variances)

    # balance of the deployed classifier over the held-out set
    dims = list(benchmark.inference_dims)
    f_theta = benchmark.theta_features(test_set.theta[:, dims])
    f_x = benchmark.x_features(test_set.x)
    rng = balance_rng or np.random.default_rng(0)
    marg = derangement_against(np.arange(len(test_set)), rng)
    probs_joint = expit(net.logits(np.concatenate([f_theta, f_x], axis=1)))
    probs_marg = expit(net.logits(np.concatenate([f_theta, f_x[marg]], axis=1)))
    balance_gap = abs(balance_statistic(probs_joint, probs_marg) - 1.0)

    result = {
        "curve": curve,
        "coverage_auc": curve.auc,
        "coverage_auc_se": curve.auc_se,
        "expected_log_posterior": elp,
        "floored_densities": floored,
        "bias": bias,
        "variance": variance,
        "balance_gap": balance_gap,
    }
    if sbc_samples:
        result["sbc"] = sbc_uniformity(per_pair.sbc_ranks)
    return result


def _write_csv(path: Path, header, rows) -> None:
    """One line of comma-joined cells for the header and for each row, written atomically."""
    with replacing(path) as tmp:
        tmp.write_text("".join(",".join(cells) + "\n" for cells in (header, *rows)),
                       encoding="utf-8")


def _curve_to_csv(curve: CoverageCurve, path: Path) -> None:
    _write_csv(path, ("level", "coverage", "se"),
               [[repr(float(v)) for v in cells]
                for cells in zip(curve.levels, curve.coverage, curve.se)])


class _PhaseClock(dict):
    """Wall seconds per phase, accumulated by ``with clock("train"): ...``."""

    @contextlib.contextmanager
    def __call__(self, phase: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self[phase] = self.get(phase, 0.0) + time.perf_counter() - start


def execute_run(config: ExperimentConfig, budget: int, seed: int, lam: float,
                threads: int = 1) -> RunResult:
    """Train and diagnose one (budget, seed, lambda) cell, persisting artifacts.

    The test pairs are diagnosed on ``threads`` threads.
    """
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
                threads=threads,
            )

        with clock("persist_s"):
            _curve_to_csv(metrics["curve"], out / "curves" / f"{slug}_coverage.csv")
            run_doc = {k: _json_safe(v) for k, v in key.items()}
            run_doc.update((m, _json_safe(metrics[m])) for m in METRIC_FIELDS)
            best = history.best_epoch
            run_doc.update(best_epoch=best, lr_drop_epochs=history.lr_drop_epochs,
                           balance_at_best=_json_safe(history.balance[best]),
                           floored_densities=metrics["floored_densities"],
                           regenerated={"train": int(dataset.failures),
                                        "test": int(test_set.failures)})
            with replacing(out / "runs" / f"{slug}.json") as tmp:
                tmp.write_text(json.dumps(run_doc, sort_keys=True), encoding="utf-8")
        return RunResult(**key, **{m: metrics[m] for m in METRIC_FIELDS},
                         wall_time=time.perf_counter() - started, **clock)
    # the documented failure modes; anything else is a bug and propagates
    except (TrainingDiverged, DegenerateGridError, RegenerationExhausted) as err:
        return RunResult(**key, wall_time=time.perf_counter() - started, **clock,
                         status="failed", error=f"{type(err).__name__}: {err}")


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, which ``taskset`` narrows."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _execute_many(config: ExperimentConfig, specs: list[tuple[int, int, float]]) -> list[RunResult]:
    """Results of ``execute_run`` for each (budget, seed, lambda) spec, in spec order."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    benchmark = get_benchmark(config.benchmark)
    # materialize shared datasets up front so parallel runs never race on files
    for budget in sorted({b for b, _, _ in specs}):
        for seed in sorted({s for _, s, _ in specs}):
            _ensure_dataset(benchmark, budget, seed, out)
    processes = min(usable_cpus(), len(specs))
    if processes == 1:
        # one run keeps every core for its test pairs; without a way to pin
        # each thread's BLAS to one core, threads would only contend
        threads = usable_cpus() if _blas_threads_setter() is not None else 1
        return [execute_run(config, *spec, threads=threads) for spec in specs]
    # the processes already share the cores, so each evaluates on one thread;
    # the largest budgets start first, so that no long run starts last and runs alone
    with ProcessPoolExecutor(processes) as pool:
        futures = {i: pool.submit(execute_run, config, *specs[i])
                   for i in sorted(range(len(specs)), key=lambda i: -specs[i][0])}
        return [futures[i].result() for i in range(len(specs))]


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
    rows = sorted(table.rows, key=RunResult.key)
    _write_csv(out / "results.csv", RESULTS_COLUMNS,
               [[r.benchmark, str(r.budget), str(r.seed), r.method, repr(r.lam),
                 *(repr(getattr(r, m)) for m in METRIC_FIELDS), r.status, json.dumps(r.error)]
                for r in rows])
    _write_csv(out / "aggregate.csv", AGGREGATE_COLUMNS,
               [[a.benchmark, str(a.budget), a.method, repr(a.lam), str(a.n_runs),
                 str(a.n_failed),
                 *(repr(stat[m]) for m in METRIC_FIELDS for stat in (a.means, a.stds))]
                for a in table.aggregate()])
    _write_csv(out / "timing.csv", TIMING_COLUMNS,
               [[r.benchmark, str(r.budget), str(r.seed), r.method, repr(r.lam),
                 *(f"{getattr(r, f):.3f}" for f in ("wall_time", *PHASE_FIELDS))]
                for r in rows])
    with replacing(out / "report.json") as tmp:
        write_report(tmp, config, table)


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
