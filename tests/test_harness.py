import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from bnre import nets
from bnre.harness import (PHASE_FIELDS, ExperimentConfig, ResultsTable, RunResult,
                          _ensure_dataset, lambda_sweep, run_experiment)
from bnre.simulators import generate_dataset, get_benchmark, load_dataset, save_dataset


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
        nre = table.select(method="nre")
        assert nre and all(r.lam == 0.0 for r in nre)
        bnre = table.select(method="bnre")
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
        rerun = run_experiment(rerun_config)
        assert rerun.comparable_rows() == table.comparable_rows()
        from pathlib import Path
        first, second = Path(config.output_dir), Path(tmp_path / "rerun")
        assert ((first / "results.csv").read_bytes()
                == (second / "results.csv").read_bytes())
        for sub in ("datasets", "weights"):
            for path in sorted((first / sub).iterdir()):
                assert path.read_bytes() == (second / sub / path.name).read_bytes()

    def test_worker_pool_matches_serial(self, completed_experiment, tmp_path):
        _, serial = completed_experiment
        parallel = run_experiment(tiny_config(tmp_path / "par", workers=2))
        assert parallel.comparable_rows() == serial.comparable_rows()

    def test_worker_pool_after_a_multi_block_forward_matches_serial(self, tmp_path):
        # the serial run's 128x128 grids start this process's forward threads;
        # the forked workers must neither reuse nor wait for them
        config = dict(benchmark="mg1", budgets=(64,), seeds=(0, 1), methods=("bnre",),
                      n_test=4, epochs=2)
        serial = run_experiment(tiny_config(tmp_path / "serial", **config))
        assert nets._POOL is not None and nets._POOL[0] == os.getpid()
        parallel = run_experiment(tiny_config(tmp_path / "par", workers=2, **config))
        assert serial.all_ok
        assert parallel.comparable_rows() == serial.comparable_rows()

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
        nre_rows = {r.seed: r for r in table.select(method="nre", budget=64)}
        for row in sweep.select(lam=0.0):
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
        config = tiny_config(tmp_path / "x", workers=3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_json_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert loaded == config

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"benchmark": "mg1", "typo_field": 1}))
        with pytest.raises(ValueError, match="typo_field"):
            ExperimentConfig.from_json(path)

    def test_unsorted_budgets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            ExperimentConfig(budgets=(1024, 256))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="methods"):
            ExperimentConfig(methods=("nre", "snre"))

    @pytest.mark.parametrize("field, value", [
        ("n_test", 1), ("lam", -1.0), ("lam", float("nan")), ("workers", 0),
        ("epochs", 0), ("sbc_samples", 99), ("sbc_samples", -1)])
    def test_out_of_range_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field.replace("lam", "lambda")):
            ExperimentConfig(**{field: value})

    def test_boundary_values_accepted(self):
        ExperimentConfig(n_test=2, lam=0.0, workers=1, epochs=1, sbc_samples=100)
        ExperimentConfig(sbc_samples=0)

    def test_single_test_sample_fails_before_any_file_is_written(self, tmp_path):
        # used to train, then record a failed row with a derangement error
        out = tmp_path / "n_test_1"
        with pytest.raises(ValueError, match="n_test"):
            run_experiment(tiny_config(out, n_test=1))
        assert not out.exists()

    def test_negative_lambda_fails_before_any_file_is_written(self, tmp_path):
        # used to write datasets/ and then record failed rows
        out = tmp_path / "negative_lambda"
        with pytest.raises(ValueError, match="lambda"):
            run_experiment(tiny_config(out, lam=-1.0))
        with pytest.raises(ValueError, match="lambda"):
            lambda_sweep(tiny_config(out, budgets=(64,)), [1.0, -1.0])
        assert not out.exists()


class TestFailureHandling:
    def test_failed_run_recorded_not_raised(self, tmp_path):
        # budget smaller than one batch makes training fail fast
        config = tiny_config(tmp_path / "fail", budgets=(8,), seeds=(0,),
                             methods=("nre",), batch_size=16)
        table = run_experiment(config)
        assert len(table.rows) == 1
        assert table.rows[0].status == "failed"
        assert "smaller" in table.rows[0].error
        assert not table.all_ok
        agg = table.aggregate()[0]
        assert agg.n_failed == 1
