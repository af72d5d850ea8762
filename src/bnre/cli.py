"""Command-line entry points.

Subcommands cover the full workflow: ``simulate`` writes a dataset,
``train`` fits a classifier on one, ``diagnose`` evaluates saved weights
against a fresh held-out test set, ``experiment`` / ``lambda-sweep`` run the
orchestrated sweeps from a JSON config, and ``verify-theorems`` executes the
exact discrete checks of the balancing theorems. Every command exits 0 only
if all requested work succeeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import diagnostics, harness
from .files import replacing
from .harness import ExperimentConfig, ResultsTable, evaluate_net, lambda_sweep, run_experiment
from .nets import load_weights, save_weights
from .rng import substream
from .simulators import generate_dataset, get_benchmark, load_dataset, save_dataset
from .training import TrainConfig, train

__all__ = ["main"]


def parse_levels(spec: str) -> np.ndarray:
    """Parse "start:stop:step" (inclusive stop) into an array of levels."""
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must look like 0.05:0.95:0.05, got {spec!r}") from None
    levels = np.round(np.arange(start, stop + step / 2.0, step), 10)
    if levels.size == 0 or np.any(levels <= 0.0) or np.any(levels >= 1.0):
        raise argparse.ArgumentTypeError("levels must lie strictly inside (0, 1)")
    return levels


def _cmd_simulate(args) -> int:
    benchmark = get_benchmark(args.benchmark)
    dataset = generate_dataset(benchmark, args.budget, args.seed)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset)} samples, {dataset.failures} regenerated")
    return 0


def _train_config_from(args) -> TrainConfig:
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        known = {f.name for f in dataclasses.fields(TrainConfig)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown training config fields: {sorted(unknown)}")
    lam = 0.0 if args.method == "nre" else args.lam
    overrides["lam"] = lam
    return TrainConfig(**overrides)


def _cmd_train(args) -> int:
    dataset = load_dataset(args.dataset)
    benchmark = get_benchmark(dataset.benchmark)
    config = _train_config_from(args)
    net, history = train(benchmark, dataset, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(net, out / "weights.json")
    history.to_csv(out / "history.csv")
    best = history.best_epoch
    print(f"trained {args.method} on {dataset.benchmark} "
          f"(budget {len(dataset)}, lambda {config.lam:g}): "
          f"best epoch {best}, val loss {history.val_loss[best]:.6f}, "
          f"|B-1| {abs(history.balance[best] - 1.0):.4f}")
    return 0


def _cmd_diagnose(args) -> int:
    net = load_weights(args.weights)
    benchmark = get_benchmark(args.benchmark)
    if net.input_dim != benchmark.classifier_input_dim():
        raise ValueError(
            f"weights consume {net.input_dim} features but {args.benchmark} "
            f"produces {benchmark.classifier_input_dim()}")
    test_set = generate_dataset(benchmark, args.n_test, args.seed, namespace="test")
    metrics = evaluate_net(
        net, benchmark, test_set, levels=args.levels,
        sbc_samples=args.sbc_samples,
        sbc_rng=substream("sbc", "diagnose", args.benchmark, args.seed),
        balance_rng=substream("balance", "diagnose", args.benchmark, args.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    curve = metrics.pop("curve")
    harness._curve_to_csv(curve, out / "coverage.csv")
    sbc = metrics.pop("sbc", None)
    doc = dict(metrics)
    if sbc is not None:
        doc["sbc_ks_distance"] = sbc.ks_distance
        doc["sbc_ks_pvalue"] = sbc.ks_pvalue
    with replacing(out / "diagnostics.json") as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
    print(f"coverage AUC {metrics['coverage_auc']:+.4f} "
          f"(se {metrics['coverage_auc_se']:.4f}), "
          f"E[log posterior] {metrics['expected_log_posterior']:.4f}, "
          f"|B-1| {metrics['balance_gap']:.4f}")
    return 0


def _report_sweep(config: ExperimentConfig, table: ResultsTable) -> int:
    """Print each failed run to stderr and a summary line; the exit status."""
    failed = [r for r in table.rows if r.status != "ok"]
    for row in failed:
        print(f"FAILED {row.benchmark} budget={row.budget} seed={row.seed} "
              f"{row.method} lambda={row.lam:g}: {row.error}", file=sys.stderr)
    print(f"{len(table.rows) - len(failed)}/{len(table.rows)} runs ok; "
          f"results in {config.output_dir}")
    return 0 if table.all_ok else 1


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    return _report_sweep(config, run_experiment(config))


def _cmd_lambda_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    lambdas = [float(v) for v in args.lambdas.split(",")]
    return _report_sweep(config, lambda_sweep(config, lambdas))


def _cmd_verify_theorems(args) -> int:
    started = time.perf_counter()
    result = diagnostics.run_theorem_battery(n_toys=args.toys, seed=args.seed)
    elapsed = time.perf_counter() - started
    for line in result.summary_lines():
        print(line)
    print(f"elapsed                          : {elapsed:.2f} s")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bnre",
                                     description="Balanced neural ratio estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate and store a dataset")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("train", help="train a classifier on a stored dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--method", choices=("nre", "bnre"), default="bnre")
    p.add_argument("--lambda", dest="lam", type=float, default=100.0)
    p.add_argument("--config", help="JSON file with TrainConfig overrides")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("diagnose", help="evaluate stored weights on a fresh test set")
    p.add_argument("--weights", required=True)
    p.add_argument("--benchmark", required=True)
    p.add_argument("--n-test", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=parse_levels, default=parse_levels("0.05:0.95:0.05"))
    p.add_argument("--sbc-samples", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("experiment", help="run a budget/seed/method sweep from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("lambda-sweep", help="run BNRE across a list of lambdas")
    p.add_argument("--config", required=True)
    p.add_argument("--lambdas", default="1,10,100,1000,32768")
    p.set_defaults(fn=_cmd_lambda_sweep)

    p = sub.add_parser("verify-theorems", help="exact balance-theorem checks on discrete toys")
    p.add_argument("--toys", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify_theorems)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
