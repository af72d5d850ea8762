import json
import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from bnre import harness
from bnre.harness import (PHASE_FIELDS, ExperimentConfig, ResultsTable, RunResult,
                          _ensure_dataset, _test_pairs, diagnose_pairs, evaluate_net,
                          execute_run, lambda_sweep, run_experiment)
from bnre.nets import ClassifierNet
from bnre.ratio import DegenerateGridError, PosteriorGrid, grid_axes, posterior_grid
from bnre.rng import substream
from bnre.simulators import (RegenerationExhausted, generate_dataset, get_benchmark,
                             load_dataset, save_dataset)
from bnre.training import TrainingDiverged, TrainHistory


def tiny_config(out_dir, **overrides):
    defaults = dict(
        benchmark="tractable1d",
        budgets=(64, 128),
        seeds=(0, 1),
        methods=("nre", "bnre"),
        lam=100.0,
        levels=(0.1, 0.3, 0.5, 0.7, 0.9),
        n_test=40,
        epochs=3,
        batch_size=16,
        hidden_layers=1,
        hidden_units=8,
        output_dir=str(out_dir),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def table_bytes(config):
    """The bytes of an experiment's results.csv and aggregate.csv."""
    out = Path(config.output_dir)
    return [(out / name).read_bytes() for name in ("results.csv", "aggregate.csv")]


@pytest.fixture(scope="module")
def completed_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = tiny_config(out)
    table = run_experiment(config)
    return config, table


class TestRunExperiment:
    def test_all_cells_complete(self, completed_experiment):
        config, table = completed_experiment
        assert len(table.rows) == len(config.budgets) * len(config.seeds) * 2
        assert table.all_ok
        for row in table.rows:
            assert math.isfinite(row.coverage_auc)
            assert math.isfinite(row.expected_log_posterior)
            assert row.wall_time > 0.0

    def test_nre_rows_record_lambda_zero(self, completed_experiment):
        _, table = completed_experiment
        nre = [r for r in table.rows if r.method == "nre"]
        assert nre and all(r.lam == 0.0 for r in nre)
        bnre = [r for r in table.rows if r.method == "bnre"]
        assert bnre and all(r.lam == 100.0 for r in bnre)

    def test_artifacts_written(self, completed_experiment):
        config, _ = completed_experiment
        from pathlib import Path
        out = Path(config.output_dir)
        assert (out / "results.csv").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "report.json").exists()
        assert (out / "datasets" / "tractable1d_b64_s0.bnre").exists()
        assert (out / "weights" / "tractable1d_b64_s0_bnre_lam100.json").exists()
        assert (out / "curves" / "tractable1d_b128_s1_nre_lam0_coverage.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert len(report["rows"]) == 8
        assert report["config"]["benchmark"] == "tractable1d"

    def test_results_csv_has_documented_columns(self, completed_experiment):
        config, _ = completed_experiment
        from pathlib import Path
        header = (Path(config.output_dir) / "results.csv").read_text().splitlines()[0]
        assert header == ("benchmark,budget,seed,method,lambda,coverage_auc,"
                          "coverage_auc_se,expected_log_posterior,bias,variance,"
                          "balance_gap,status,error")

    def test_rerun_is_bitwise_identical(self, completed_experiment, tmp_path):
        config, table = completed_experiment
        rerun_config = tiny_config(tmp_path / "rerun")
        run_experiment(rerun_config)
        assert table_bytes(rerun_config) == table_bytes(config)
        first, second = Path(config.output_dir), Path(tmp_path / "rerun")
        for sub in ("datasets", "weights"):
            for path in sorted((first / sub).iterdir()):
                assert path.read_bytes() == (second / sub / path.name).read_bytes()

    def test_worker_pool_matches_serial(self, completed_experiment, tmp_path, monkeypatch):
        reference, _ = completed_experiment
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "usable_cpus", lambda cpus=cpus: cpus)
            config = tiny_config(tmp_path / f"cpus{cpus}")
            run_experiment(config)
            assert table_bytes(config) == table_bytes(reference)

    def test_worker_pool_after_a_multi_block_forward_matches_serial(self, tmp_path,
                                                                    monkeypatch):
        # each lone run diagnoses its 128x128 grids on two threads in this
        # process; the pool forked after them diagnoses on one thread each
        config = dict(benchmark="mg1", budgets=(64,), methods=("bnre",), n_test=4, epochs=2)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        for seed in (0, 1):
            assert run_experiment(tiny_config(tmp_path / "serial", seeds=(seed,),
                                              **config)).all_ok
        parallel_config = tiny_config(tmp_path / "par", seeds=(0, 1), **config)
        run_experiment(parallel_config)
        assert table_bytes(parallel_config) == table_bytes(
            tiny_config(tmp_path / "serial", seeds=(0, 1), **config))

    def test_pool_starts_the_largest_budgets_first_and_returns_spec_order(self, tmp_path,
                                                                         monkeypatch):
        submitted = []

        class InlinePool:
            def __init__(self, processes):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, config, budget, seed, lam):
                submitted.append((budget, seed, lam))
                future = Future()
                future.set_result(fn(config, budget, seed, lam))
                return future

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 2)
        table = run_experiment(tiny_config(tmp_path, seeds=(0,), epochs=1))
        specs = [(64, 0, 0.0), (64, 0, 100.0), (128, 0, 0.0), (128, 0, 100.0)]
        assert submitted == specs[2:] + specs[:2]
        assert [(r.budget, r.seed, r.lam) for r in table.rows] == specs

    def test_one_run_experiment_builds_no_process_pool(self, tmp_path, monkeypatch):
        # a lone run keeps every core for its grid forwards, however many there are
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-run experiment built a process pool")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 8)
        table = run_experiment(tiny_config(tmp_path / "one", budgets=(64,), seeds=(0,),
                                           methods=("bnre",)))
        assert len(table.rows) == 1 and table.all_ok

    def test_lone_run_diagnoses_on_every_cpu_only_with_blas_pinning(self, tmp_path,
                                                                    monkeypatch):
        # unpinned, each thread's BLAS would spread over the cores the other threads use
        seen = []

        def record_threads(config, budget, seed, lam, threads=1):
            seen.append(threads)
            return RunResult(config.benchmark, budget, seed, "bnre", lam)

        monkeypatch.setattr(harness, "execute_run", record_threads)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
        config = tiny_config(tmp_path, budgets=(64,), seeds=(0,), methods=("bnre",))
        monkeypatch.setattr(harness, "_blas_threads_setter", lambda: object())
        run_experiment(config)
        monkeypatch.setattr(harness, "_blas_threads_setter", lambda: None)
        run_experiment(config)
        assert seen == [3, 1]

    def test_timing_csv_records_phase_wall_times(self, completed_experiment):
        config, table = completed_experiment
        lines = (Path(config.output_dir) / "timing.csv").read_text().splitlines()
        assert lines[0] == ("benchmark,budget,seed,method,lambda,wall_time_s,"
                            "simulate_s,train_s,evaluate_s,persist_s")
        for line in lines[1:]:
            wall, *phases = map(float, line.split(",")[5:])
            assert len(phases) == 4 and min(phases) >= 0.0
            assert phases[1] > 0.0 and phases[2] > 0.0
            assert sum(phases) <= wall + 0.003
        for row in table.rows:
            assert sum(getattr(row, f) for f in PHASE_FIELDS) <= row.wall_time

    def test_datasets_are_reused_not_regenerated(self, completed_experiment):
        config, _ = completed_experiment
        from pathlib import Path
        path = Path(config.output_dir) / "datasets" / "tractable1d_b64_s0.bnre"
        before = path.stat().st_mtime_ns
        run_experiment(tiny_config(config.output_dir))
        assert path.stat().st_mtime_ns == before


class TestRunDocCounters:
    def test_run_doc_explains_its_training_and_data(self, tmp_path):
        config = tiny_config(tmp_path, budgets=(128,), seeds=(0,), methods=("bnre",),
                             epochs=20, learning_rate=1e-2)
        run_experiment(config)
        slug = "tractable1d_b128_s0_bnre_lam100"
        doc = json.loads((tmp_path / "runs" / f"{slug}.json").read_text())
        rows = [line.split(",") for line in
                (tmp_path / "history" / f"{slug}.csv").read_text().splitlines()[1:]]
        val_loss = [float(r[2]) for r in rows]
        lr = [float(r[4]) for r in rows]
        best = val_loss.index(min(val_loss))
        assert doc["best_epoch"] == best
        assert doc["balance_at_best"] == float(rows[best][3])
        assert doc["lr_drop_epochs"] == [e for e in range(1, len(lr)) if lr[e] < lr[e - 1]]
        assert doc["lr_drop_epochs"]  # this run's plateau schedule fires
        train_set = load_dataset(tmp_path / "datasets" / "tractable1d_b128_s0.bnre")
        test_set = generate_dataset(get_benchmark("tractable1d"), config.n_test,
                                    config.test_seed, namespace="test")
        assert doc["regenerated"] == {"train": train_set.failures,
                                      "test": test_set.failures}
        assert doc["floored_densities"] == 0

    def test_run_doc_counts_floored_test_densities(self, tmp_path, monkeypatch):
        # every grid is a point mass on the last cell: each test pair whose
        # truth lies elsewhere has density 0 there and is floored
        def point_mass(net, benchmark, x):
            axes = grid_axes(benchmark)
            dens = np.zeros(len(axes[0]))
            dens[-1] = 1.0 / (axes[0][1] - axes[0][0])
            return PosteriorGrid(axes, dens)

        monkeypatch.setattr(harness, "posterior_grid", point_mass)
        config = tiny_config(tmp_path, budgets=(64,), seeds=(0,), methods=("nre",))
        run_experiment(config)
        doc = json.loads((tmp_path / "runs" / "tractable1d_b64_s0_nre_lam0.json").read_text())
        benchmark = get_benchmark("tractable1d")
        test_set = generate_dataset(benchmark, config.n_test, config.test_seed,
                                    namespace="test")
        grid = point_mass(None, benchmark, test_set.x[0])
        expected = sum(grid.density_at(t) == 0.0 for t in test_set.theta)
        assert expected > 0
        assert doc["floored_densities"] == expected


def reference_sbc_ranks(net, benchmark, test_set, rng, samples):
    """SBC density ranks drawn after every grid is built, as a separate pass."""
    dims = list(benchmark.inference_dims)
    grids = [posterior_grid(net, benchmark, x) for x in test_set.x]
    ranks = []
    for grid, theta in zip(grids, test_set.theta[:, dims]):
        cum = np.cumsum(grid.cell_masses.reshape(-1))
        cells = np.minimum(np.searchsorted(cum, rng.random(samples) * cum[-1]), cum.size - 1)
        ranks.append(np.mean(grid.densities.reshape(-1)[cells] <= grid.density_at(theta)))
    return np.array(ranks)


def random_head_net(benchmark, seed):
    """A small net whose random output layer gives each test pair its own posterior."""
    net = ClassifierNet.initialize(benchmark.classifier_input_dim(), 2, 16,
                                   np.random.default_rng(seed))
    net.weights[-1][:] = np.random.default_rng(seed + 1).standard_normal(net.weights[-1].shape)
    return net


class TestDiagnosePairsThreads:
    @pytest.mark.parametrize("name, n_pairs", [("mg1", 40), ("tractable1d", 300)])
    def test_threads_give_the_one_thread_bits(self, name, n_pairs):
        benchmark = get_benchmark(name)
        net = random_head_net(benchmark, 3)
        pairs = _test_pairs(benchmark, generate_dataset(benchmark, n_pairs, seed=5,
                                                        namespace="test"))

        def diagnose(threads):
            return diagnose_pairs(lambda x: posterior_grid(net, benchmark, x), pairs,
                                  sbc_samples=128, sbc_rng=substream("sbc-threads", 0),
                                  threads=threads)

        reference = diagnose(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more threads than cores, switching often
        try:
            threaded = [diagnose(threads) for threads in (2, 5)]
        finally:
            sys.setswitchinterval(interval)
        assert np.ptp(reference.sbc_ranks) > 0.0
        for got in threaded:
            for field in ("theta_star", "indicators", "densities", "means", "moments",
                          "sbc_ranks"):
                assert np.array_equal(getattr(got, field), getattr(reference, field)), field

    @staticmethod
    def _failing_on_a_worker(monkeypatch, error):
        """Make the grids of worker threads raise ``error``.

        The calling thread's first grid waits until a worker has asked for
        one, so a worker is sure to get a pair.
        """
        caller = threading.current_thread()
        worker_started = threading.Event()

        def grid(net, benchmark, x):
            if threading.current_thread() is not caller:
                worker_started.set()
                raise error
            assert worker_started.wait(30)
            return posterior_grid(net, benchmark, x)

        monkeypatch.setattr(harness, "posterior_grid", grid)

    def test_degenerate_grid_on_a_worker_is_a_failed_row(self, tmp_path, monkeypatch):
        self._failing_on_a_worker(
            monkeypatch, DegenerateGridError("posterior density is zero on every grid cell"))
        result = execute_run(tiny_config(tmp_path, epochs=1), 64, 0, 0.0, threads=2)
        assert result.status == "failed"
        assert result.error == ("DegenerateGridError: posterior density is zero "
                                "on every grid cell")

    def test_programming_error_on_a_worker_propagates(self, tmp_path, monkeypatch):
        self._failing_on_a_worker(monkeypatch, KeyError("worker bug"))
        with pytest.raises(KeyError, match="worker bug"):
            execute_run(tiny_config(tmp_path, epochs=1), 64, 0, 0.0, threads=2)


class TestEvaluateNet:
    def test_sbc_keeps_no_grid_and_matches_a_separate_rank_pass(self):
        from scipy import stats  # imported up front: its import is not evaluate_net's memory

        benchmark = get_benchmark("mg1")
        test_set = generate_dataset(benchmark, 200, seed=5, namespace="test")
        net = ClassifierNet.initialize(benchmark.classifier_input_dim(), 2, 16,
                                       np.random.default_rng(3))
        net.weights[-1][:] = np.random.default_rng(4).standard_normal(net.weights[-1].shape)
        evaluate_net(net, benchmark, generate_dataset(benchmark, 2, seed=6, namespace="test"))
        tracemalloc.start()
        try:
            metrics = evaluate_net(net, benchmark, test_set, sbc_samples=256,
                                   sbc_rng=substream("sbc-mem", 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_bytes = 128 * 128 * 8
        assert peak < 50 * grid_bytes  # holding the 200 grids took 26 MiB
        sbc = metrics["sbc"]
        reference = reference_sbc_ranks(net, benchmark, test_set,
                                        substream("sbc-mem", 0), 256)
        assert np.array_equal(sbc.ranks, reference)
        ks = stats.kstest(reference, "uniform")
        assert (sbc.ks_distance, sbc.ks_pvalue) == (float(ks.statistic), float(ks.pvalue))


TABLES = ("results.csv", "aggregate.csv", "timing.csv", "report.json")


class TestSharedOutputDir:
    def _config(self, out, method):
        return tiny_config(out, budgets=(512,), seeds=(0,), methods=(method,), epochs=2)

    def test_second_experiment_keeps_first_experiments_rows(self, tmp_path):
        # the tables used to hold only the last experiment's rows
        bnre = run_experiment(self._config(tmp_path, "bnre"))
        nre = run_experiment(self._config(tmp_path, "nre"))
        assert [r.method for r in bnre.rows] == ["bnre"]
        assert [r.method for r in nre.rows] == ["nre"]
        for name in ("results.csv", "timing.csv"):
            methods = [line.split(",")[3]
                       for line in (tmp_path / name).read_text().splitlines()[1:]]
            assert methods == ["bnre", "nre"], name
        aggregate = (tmp_path / "aggregate.csv").read_text().splitlines()[1:]
        assert [line.split(",")[2] for line in aggregate] == ["bnre", "nre"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert [r["method"] for r in report["rows"]] == ["bnre", "nre"]
        assert [a["method"] for a in report["aggregates"]] == ["bnre", "nre"]
        ok = {r.method: r for r in bnre.rows + nre.rows}
        for row in report["rows"]:
            assert row["coverage_auc"] == ok[row["method"]].coverage_auc

    def test_rerun_replaces_its_rows_byte_identically(self, tmp_path):
        run_experiment(self._config(tmp_path, "bnre"))
        run_experiment(self._config(tmp_path, "nre"))
        before = {name: (tmp_path / name).read_bytes() for name in TABLES}
        run_experiment(self._config(tmp_path, "nre"))
        for name in ("results.csv", "aggregate.csv", "report.json"):
            assert (tmp_path / name).read_bytes() == before[name], name
        timing = (tmp_path / "timing.csv").read_text().splitlines()
        assert len(timing) == 3
        assert not list(tmp_path.glob(".*.tmp"))


    def test_six_column_timing_from_older_code_is_merged(self, tmp_path):
        run_experiment(self._config(tmp_path, "bnre"))
        timing = tmp_path / "timing.csv"
        old_lines = [",".join(line.split(",")[:6])
                     for line in timing.read_text().splitlines()]
        timing.write_text("\n".join(old_lines) + "\n")
        run_experiment(self._config(tmp_path, "nre"))
        lines = timing.read_text().splitlines()
        assert len(lines) == 3 and lines[0].endswith("persist_s")
        bnre_row = lines[1].split(",")
        assert bnre_row[3] == "bnre"
        assert bnre_row[5] == old_lines[1].split(",")[5]
        assert bnre_row[6:] == ["0.000"] * 4


class TestAtomicArtifacts:
    @pytest.mark.parametrize("artifact", ["weights", "history", "curves", "runs"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, artifact):
        config = dict(budgets=(64,), seeds=(0,), methods=("bnre",))
        run_experiment(tiny_config(tmp_path, epochs=2, **config))
        (path,) = (tmp_path / artifact).iterdir()
        before = path.read_bytes()
        replace = os.replace

        def crash_on_artifact(src, dst):
            if Path(dst).parent.name == artifact:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_on_artifact)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(tiny_config(tmp_path, epochs=3, **config))
        assert path.read_bytes() == before
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
        monkeypatch.setattr(os, "replace", replace)
        run_experiment(tiny_config(tmp_path, epochs=3, **config))
        assert path.read_bytes() != before


class TestDatasetCache:
    def _request(self, tmp_path):
        benchmark = get_benchmark("tractable1d")
        return benchmark, tmp_path / "datasets" / "tractable1d_b64_s0.bnre"

    def test_truncated_cache_file_is_regenerated(self, tmp_path):
        benchmark, path = self._request(tmp_path)
        fresh = _ensure_dataset(benchmark, 64, 0, tmp_path)
        path.write_bytes(path.read_bytes()[:-8])
        reloaded = _ensure_dataset(benchmark, 64, 0, tmp_path)
        assert np.array_equal(reloaded.theta, fresh.theta)
        assert np.array_equal(load_dataset(path).x, fresh.x)

    def test_cache_file_for_another_seed_is_regenerated(self, tmp_path):
        benchmark, path = self._request(tmp_path)
        path.parent.mkdir(parents=True)
        save_dataset(generate_dataset(benchmark, 64, seed=1), path)
        dataset = _ensure_dataset(benchmark, 64, 0, tmp_path)
        expected = generate_dataset(benchmark, 64, seed=0)
        assert dataset.seed == 0
        assert np.array_equal(dataset.theta, expected.theta)
        assert load_dataset(path).seed == 0

    def test_cache_file_for_another_budget_is_regenerated(self, tmp_path):
        benchmark, path = self._request(tmp_path)
        path.parent.mkdir(parents=True)
        save_dataset(generate_dataset(benchmark, 32, seed=0), path)
        assert len(_ensure_dataset(benchmark, 64, 0, tmp_path)) == 64
        assert len(load_dataset(path)) == 64


class TestHeldOutDisjointness:
    def test_test_set_shares_no_sample_with_training_data(self, completed_experiment):
        config, _ = completed_experiment
        benchmark = get_benchmark(config.benchmark)
        test = generate_dataset(benchmark, config.n_test, config.test_seed,
                                namespace="test")
        test_rows = {np.hstack([t, x]).tobytes()
                     for t, x in zip(test.theta, test.x)}
        for budget in config.budgets:
            for seed in config.seeds:
                ds = generate_dataset(benchmark, budget, seed)
                rows = {np.hstack([t, x]).tobytes()
                        for t, x in zip(ds.theta, ds.x)}
                assert not rows & test_rows


class TestAggregation:
    def _table(self):
        mk = lambda seed, auc, status="ok": RunResult(
            benchmark="tractable1d", budget=64, seed=seed, method="bnre", lam=100.0,
            coverage_auc=auc, coverage_auc_se=0.01, expected_log_posterior=-1.0,
            bias=0.1, variance=0.2, balance_gap=0.01, wall_time=1.0,
            status=status, error="" if status == "ok" else "boom")
        return ResultsTable([mk(0, 0.1), mk(1, 0.3), mk(2, float("nan"), "failed")])

    def test_mean_std_recompute_from_rows(self):
        agg = self._table().aggregate()
        assert len(agg) == 1
        a = agg[0]
        assert a.n_runs == 3
        assert a.n_failed == 1
        assert a.means["coverage_auc"] == pytest.approx(0.2)
        assert a.stds["coverage_auc"] == pytest.approx(np.std([0.1, 0.3], ddof=1))

    def test_failures_excluded_from_statistics(self):
        agg = self._table().aggregate()[0]
        assert math.isfinite(agg.means["coverage_auc"])

    def test_single_run_std_is_zero(self):
        table = ResultsTable([RunResult("tractable1d", 64, 0, "nre", 0.0,
                                        coverage_auc=0.5)])
        assert table.aggregate()[0].stds["coverage_auc"] == 0.0


class TestLambdaSweep:
    def test_lambda_zero_rows_match_nre_rows(self, completed_experiment, tmp_path):
        config, table = completed_experiment
        sweep_config = tiny_config(tmp_path / "sweep", budgets=(64,),
                                   methods=("bnre",))
        sweep = lambda_sweep(sweep_config, [0.0, 100.0])
        nre_rows = {r.seed: r for r in table.rows if r.method == "nre" and r.budget == 64}
        lam_zero = [r for r in sweep.rows if r.lam == 0.0]
        assert lam_zero
        for row in lam_zero:
            assert row.method == "nre"
            ref = nre_rows[row.seed]
            assert row.coverage_auc == ref.coverage_auc
            assert row.expected_log_posterior == ref.expected_log_posterior

    def test_multiple_budgets_rejected(self, tmp_path):
        config = tiny_config(tmp_path / "bad")
        with pytest.raises(ValueError, match="single budget"):
            lambda_sweep(config, [1.0])


class TestExperimentConfig:
    def test_json_round_trip(self, tmp_path):
        config = tiny_config(tmp_path / "x", sbc_samples=128, test_seed=7)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_json_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == config

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"benchmark": "mg1", "typo_field": 1}))
        with pytest.raises(ValueError, match="typo_field"):
            ExperimentConfig.from_json(path)

    def test_config_json_with_workers_rejected(self, tmp_path):
        # the process count follows the usable CPUs; a config cannot set it
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**tiny_config(tmp_path / "x").to_json_dict(),
                                    "workers": 2}))
        with pytest.raises(ValueError, match=r"unknown config fields: \['workers'\]"):
            ExperimentConfig.from_json(path)

    def test_unsorted_budgets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            ExperimentConfig(budgets=(1024, 256))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="methods"):
            ExperimentConfig(methods=("nre", "snre"))

    @pytest.mark.parametrize("field, value", [
        ("n_test", 1), ("lam", -1.0), ("lam", float("nan")), ("epochs", -1),
        ("epochs", 0), ("sbc_samples", 99), ("sbc_samples", -1), ("budgets", (8, 1024)),
        ("levels", (0.0, 0.5)), ("levels", (0.5, 1.0)), ("levels", ()), ("batch_size", 3),
        ("validation_fraction", 1.0), ("learning_rate", -1e-3), ("learning_rate", float("inf")),
        ("hidden_layers", -1), ("hidden_units", 0)])
    def test_out_of_range_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.replace("lam", "lambda")):
            ExperimentConfig(**{field: value})

    def test_boundary_values_accepted(self):
        ExperimentConfig(n_test=2, lam=0.0, epochs=1, sbc_samples=100)
        ExperimentConfig(sbc_samples=0)
        ExperimentConfig(budgets=(256,), batch_size=256)

    def test_single_test_sample_fails_before_any_file_is_written(self, tmp_path):
        # used to train, then record a failed row with a derangement error
        out = tmp_path / "n_test_1"
        with pytest.raises(ValueError, match="n_test"):
            run_experiment(tiny_config(out, n_test=1))
        assert not out.exists()

    def test_zero_hidden_units_fails_before_any_dataset_is_written(self, tmp_path):
        # used to write datasets/, then raise ZeroDivisionError out of run_experiment
        out = tmp_path / "hidden_units_0"
        with pytest.raises(ValueError, match="hidden_units"):
            run_experiment(tiny_config(out, hidden_units=0))
        assert not out.exists()

    def test_negative_lambda_fails_before_any_file_is_written(self, tmp_path):
        # used to write datasets/ and then record failed rows
        out = tmp_path / "negative_lambda"
        with pytest.raises(ValueError, match="lambda"):
            run_experiment(tiny_config(out, lam=-1.0))
        with pytest.raises(ValueError, match="lambda"):
            lambda_sweep(tiny_config(out, budgets=(64,)), [1.0, -1.0])
        assert not out.exists()


def diverge(benchmark, dataset, config):
    raise TrainingDiverged("NaN training loss", TrainHistory())


class TestFailureHandling:
    def test_failed_run_recorded_not_raised(self, tmp_path, monkeypatch):
        # a diverged training run is a documented failure mode
        monkeypatch.setattr(harness, "train", diverge)
        config = tiny_config(tmp_path / "fail", budgets=(64,), seeds=(0,), methods=("nre",))
        table = run_experiment(config)
        assert len(table.rows) == 1
        assert table.rows[0].status == "failed"
        assert table.rows[0].error == "TrainingDiverged: NaN training loss"
        assert not table.all_ok
        agg = table.aggregate()[0]
        assert agg.n_failed == 1

    @pytest.mark.parametrize("error", [ValueError, RuntimeError, KeyError])
    def test_programming_errors_propagate(self, tmp_path, monkeypatch, error):
        def broken_save_weights(net, path):
            raise error("bug")

        monkeypatch.setattr(harness, "save_weights", broken_save_weights)
        config = tiny_config(tmp_path / "bug", budgets=(64,), seeds=(0,), methods=("nre",))
        with pytest.raises(error, match="bug"):
            run_experiment(config)

    def test_exhausted_regeneration_is_a_failed_row(self, tmp_path, monkeypatch):
        def exhausted(*args, **kwargs):
            raise RegenerationExhausted("mg1: exceeded 1000 regeneration attempts")

        monkeypatch.setattr(harness, "generate_dataset", exhausted)
        out = tmp_path / "regen"
        out.mkdir()
        row = harness.execute_run(tiny_config(out, budgets=(64,), seeds=(0,)), 64, 0, 0.0)
        assert row.status == "failed"
        assert row.error.startswith("RegenerationExhausted")
