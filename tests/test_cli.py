import json

import numpy as np
import pytest

from bnre import cli, harness
from bnre.cli import main, parse_levels
from bnre.nets import ClassifierNet, save_weights
from bnre.simulators import load_dataset
from bnre.training import TrainingDiverged, TrainHistory


def test_parse_levels_inclusive_range():
    levels = parse_levels("0.05:0.95:0.05")
    assert len(levels) == 19
    assert levels[0] == pytest.approx(0.05)
    assert levels[-1] == pytest.approx(0.95)


def test_parse_levels_rejects_garbage():
    import argparse
    with pytest.raises(argparse.ArgumentTypeError):
        parse_levels("0.05-0.95")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_levels("0.0:1.5:0.5")


def test_simulate_train_diagnose_pipeline(tmp_path, capsys):
    data = tmp_path / "data.bnre"
    assert main(["simulate", "--benchmark", "tractable1d", "--budget", "128",
                 "--seed", "3", "--out", str(data)]) == 0
    ds = load_dataset(data)
    assert len(ds) == 128 and ds.seed == 3

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps(
        {"epochs": 3, "batch_size": 16, "hidden_layers": 1, "hidden_units": 8}))
    run_dir = tmp_path / "run"
    assert main(["train", "--dataset", str(data), "--method", "bnre",
                 "--lambda", "50", "--config", str(train_cfg),
                 "--out", str(run_dir)]) == 0
    assert (run_dir / "weights.json").exists()
    assert (run_dir / "history.csv").exists()

    diag_dir = tmp_path / "diag"
    assert main(["diagnose", "--weights", str(run_dir / "weights.json"),
                 "--benchmark", "tractable1d", "--n-test", "25",
                 "--levels", "0.1:0.9:0.2", "--out", str(diag_dir)]) == 0
    doc = json.loads((diag_dir / "diagnostics.json").read_text())
    assert "coverage_auc" in doc and "balance_gap" in doc
    curve_lines = (diag_dir / "coverage.csv").read_text().strip().splitlines()
    assert curve_lines[0] == "level,coverage,se"
    assert len(curve_lines) == 6
    first = curve_lines[1].split(",")
    assert float(first[0]) == pytest.approx(0.1)
    assert 0.0 <= float(first[1]) <= 1.0


def test_diagnose_serialization_error_keeps_previous_diagnostics(tmp_path, monkeypatch):
    weights = tmp_path / "weights.json"
    save_weights(ClassifierNet.initialize(2, 1, 8, np.random.default_rng(0)), weights)
    out = tmp_path / "diag"
    argv = ["diagnose", "--weights", str(weights), "--benchmark", "tractable1d",
            "--n-test", "10", "--levels", "0.1:0.9:0.2", "--out", str(out)]
    assert main(argv) == 0
    before = (out / "diagnostics.json").read_bytes()

    def unserializable_variance(*args, **kwargs):
        metrics = harness.evaluate_net(*args, **kwargs)
        metrics["variance"] = object()  # the last key: every other one is written first
        return metrics

    monkeypatch.setattr(cli, "evaluate_net", unserializable_variance)
    with pytest.raises(TypeError, match="not JSON serializable"):
        main(argv)
    assert (out / "diagnostics.json").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["coverage.csv", "diagnostics.json"]


def test_experiment_and_lambda_sweep_commands(tmp_path):
    config = {
        "benchmark": "tractable1d",
        "budgets": [64],
        "seeds": [0],
        "methods": ["nre", "bnre"],
        "levels": [0.25, 0.5, 0.75],
        "n_test": 20,
        "epochs": 2,
        "batch_size": 16,
        "hidden_layers": 1,
        "hidden_units": 8,
        "output_dir": str(tmp_path / "exp"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(config_path)]) == 0
    assert (tmp_path / "exp" / "results.csv").exists()

    config["output_dir"] = str(tmp_path / "sweep")
    config["methods"] = ["bnre"]
    config_path.write_text(json.dumps(config))
    assert main(["lambda-sweep", "--config", str(config_path),
                 "--lambdas", "1,100"]) == 0
    rows = (tmp_path / "sweep" / "results.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 lambda rows


def test_verify_theorems_command(capsys):
    assert main(["verify-theorems", "--toys", "10", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "tempered" in out


def test_diagnose_rejects_mismatched_weights(tmp_path):
    data = tmp_path / "data.bnre"
    main(["simulate", "--benchmark", "tractable1d", "--budget", "64",
          "--seed", "0", "--out", str(data)])
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 16,
                               "hidden_layers": 1, "hidden_units": 4}))
    run_dir = tmp_path / "run"
    main(["train", "--dataset", str(data), "--method", "nre",
          "--config", str(cfg), "--out", str(run_dir)])
    rc = main(["diagnose", "--weights", str(run_dir / "weights.json"),
               "--benchmark", "mg1", "--n-test", "5", "--out", str(tmp_path / "d")])
    assert rc == 1


def test_missing_file_is_reported_not_raised(tmp_path, capsys):
    rc = main(["train", "--dataset", str(tmp_path / "nope.bnre"),
               "--method", "nre", "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_failed_runs_exit_nonzero(tmp_path, monkeypatch):
    def diverge(benchmark, dataset, config):
        raise TrainingDiverged("NaN training loss", TrainHistory())

    monkeypatch.setattr(harness, "train", diverge)
    config = {
        "benchmark": "tractable1d",
        "budgets": [64],
        "seeds": [0],
        "methods": ["nre"],
        "n_test": 10,
        "epochs": 1,
        "batch_size": 16,
        "output_dir": str(tmp_path / "exp"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(path)]) == 1


def test_budget_below_a_batch_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"budgets": [8], "batch_size": 16,
                                "output_dir": str(tmp_path / "exp")}))
    assert main(["experiment", "--config", str(path)]) == 1
    assert "batch_size" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()
