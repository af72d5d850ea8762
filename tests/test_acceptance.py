"""Executable acceptance criteria.

Each test prints one PASS/FAIL line with its measured quantities, then
asserts. The heavyweight budget/seed sweeps are shared session fixtures, so
criteria 4, 5, and 7 reuse one set of trained runs. Expected total runtime
is roughly 15-25 minutes on one desktop core; the stated per-criterion
runtime bounds are asserted where the criteria pin them. All of them carry
the ``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the rest.
"""

import math
import time

import numpy as np
import pytest

from bnre.diagnostics import run_theorem_battery, sbc_ranks
from bnre.harness import ExperimentConfig, lambda_sweep, run_experiment
from bnre.ratio import tractable_posterior_grid
from bnre.rng import substream
from bnre.simulators import generate_dataset, get_benchmark
from bnre.training import finite_diff_check

from conftest import batch_away_from_kinks, random_net

BENCHMARKS = ("tractable1d", "weinberg", "mg1")
BUDGETS = (1024, 4096, 16384)
SEEDS = (0, 1, 2)

pytestmark = pytest.mark.acceptance


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def seed_mean_se(values):
    values = np.asarray(values, dtype=np.float64)
    se = values.std(ddof=1) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return float(values.mean()), float(se)


@pytest.fixture(scope="session")
def paper_experiment(tmp_path_factory):
    """BNRE across budgets plus NRE at the smallest budget, per benchmark."""
    tables = {}
    started = time.perf_counter()
    for name in BENCHMARKS:
        out = tmp_path_factory.mktemp(f"exp_{name}")
        bnre_cfg = ExperimentConfig(benchmark=name, budgets=BUDGETS, seeds=SEEDS,
                                    methods=("bnre",), lam=100.0, n_test=1000,
                                    epochs=150, output_dir=str(out))
        tables[name, "bnre"] = run_experiment(bnre_cfg)
        nre_cfg = ExperimentConfig(benchmark=name, budgets=BUDGETS[:1], seeds=SEEDS,
                                   methods=("nre",), n_test=1000, epochs=150,
                                   output_dir=str(out))
        tables[name, "nre"] = run_experiment(nre_cfg)
    tables["elapsed"] = time.perf_counter() - started
    return tables


@pytest.fixture(scope="session")
def sweep_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    config = ExperimentConfig(benchmark="tractable1d", budgets=(1024,), seeds=SEEDS,
                              methods=("bnre",), n_test=1000, epochs=150,
                              output_dir=str(out))
    started = time.perf_counter()
    table = lambda_sweep(config, [1.0, 10.0, 100.0, 1000.0, 32768.0])
    return table, time.perf_counter() - started


def test_criterion_1_theorem_suite():
    started = time.perf_counter()
    result = run_theorem_battery(n_toys=100, seed=0)
    elapsed = time.perf_counter() - started
    ok = (result.optimal_balance_worst <= 1e-10
          and result.tempered_joint_min >= 1.0 - 1e-12
          and result.tempered_marginal_min >= 1.0 - 1e-12
          and result.unbalanced_violations > 0
          and elapsed < 5.0)
    report(1, "theorem suite", ok,
           f"optimal |B-1| worst {result.optimal_balance_worst:.2e}, "
           f"tempered expectation mins {result.tempered_joint_min:.15f}/"
           f"{result.tempered_marginal_min:.15f}, "
           f"violations {result.unbalanced_violations}/100, {elapsed:.2f} s")
    assert ok


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for trial in range(20):
        rng = substream("acceptance-grad", trial)
        hidden = [int(rng.integers(4, 33)) for _ in range(int(rng.integers(1, 4)))]
        sizes = [int(rng.integers(2, 7))] + hidden + [1]
        net = random_net(rng, sizes)
        xj = batch_away_from_kinks(net, rng, 8)
        xm = batch_away_from_kinks(net, rng, 8)
        err = finite_diff_check(net, xj, xm, 100.0, eps=1e-5)
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and elapsed < 30.0
    report(2, "gradient correctness", ok,
           f"max relative error {worst:.3e} over 20 nets, {elapsed:.1f} s")
    assert ok


def test_criterion_3_oracle_calibration(tractable_benchmark):
    started = time.perf_counter()
    test = generate_dataset(tractable_benchmark, 2000, seed=0, namespace="test")
    pairs = list(zip(test.theta, test.x))
    posterior = lambda x: tractable_posterior_grid(tractable_benchmark, x)

    from bnre.diagnostics import expected_coverage
    curve = expected_coverage(posterior, pairs)
    outside = int(np.sum(np.abs(curve.coverage - curve.levels) > 3 * curve.se))
    auc_ok = abs(curve.auc) <= 3 * curve.auc_se

    sbc = sbc_ranks(posterior, pairs, substream("acceptance-sbc", 0),
                    samples_per_posterior=256)
    elapsed = time.perf_counter() - started
    ok = outside == 0 and auc_ok and sbc.ks_pvalue > 0.01 and elapsed < 300.0
    report(3, "oracle calibration", ok,
           f"{outside}/19 levels outside 3 SE, AUC {curve.auc:+.5f} "
           f"(3 SE {3 * curve.auc_se:.5f}), SBC KS p {sbc.ks_pvalue:.3f}, "
           f"{elapsed:.0f} s")
    assert ok


def test_criterion_4_bnre_coverage_auc_nonnegative(paper_experiment):
    rows = []
    for name in BENCHMARKS:
        rows.extend(paper_experiment[name, "bnre"].rows)
    failed = [r for r in rows if r.status != "ok"]
    worst = min(r.coverage_auc for r in rows if r.status == "ok")
    elapsed = paper_experiment["elapsed"]
    ok = not failed and len(rows) == 27 and worst >= -0.01 and elapsed <= 2.5 * 3600
    report(4, "BNRE coverage AUC above zero", ok,
           f"27 runs ({len(BENCHMARKS)} benchmarks x 3 budgets x 3 seeds), "
           f"min AUC {worst:+.4f} (bound -0.01), sweep wall time {elapsed / 60:.1f} min")
    assert ok


def test_criterion_5_conservativeness_sharpness_tradeoff(paper_experiment):
    details = []
    ok = True
    for name in BENCHMARKS:
        benchmark = get_benchmark(name)
        baseline = -math.log(benchmark.inference_prior.volume)
        bnre = [r.expected_log_posterior
                for r in paper_experiment[name, "bnre"].select(budget=1024)]
        nre = [r.expected_log_posterior
               for r in paper_experiment[name, "nre"].select(budget=1024)]
        mb, seb = seed_mean_se(bnre)
        mn, sen = seed_mean_se(nre)
        se_diff = math.hypot(seb, sen)
        not_sharper = mb <= mn + 2 * se_diff
        beats_prior = mb >= baseline - 2 * seb
        ok = ok and not_sharper and beats_prior
        details.append(f"{name}: BNRE {mb:.3f} vs NRE {mn:.3f} (2 SE {2 * se_diff:.3f}), "
                       f"prior {baseline:.3f}")
    report(5, "trade-off vs NRE and prior", ok, "; ".join(details))
    assert ok


def test_criterion_6_lambda_sweep(sweep_table):
    table, elapsed = sweep_table
    lambdas = [1.0, 10.0, 100.0, 1000.0, 32768.0]
    stats = []
    for lam in lambdas:
        gaps = [r.balance_gap for r in table.select(lam=lam)]
        stats.append(seed_mean_se(gaps))
    monotone = all(
        stats[i + 1][0] <= stats[i][0] + 2 * math.hypot(stats[i][1], stats[i + 1][1])
        for i in range(len(stats) - 1))
    elp_32768, _ = seed_mean_se(
        [r.expected_log_posterior for r in table.select(lam=32768.0)])
    collapse_gap = abs(elp_32768 - (-math.log(10.0)))
    ok = (table.all_ok and monotone and collapse_gap <= 0.1 and elapsed < 1800.0)
    report(6, "lambda sweep", ok,
           f"mean |B-1| by lambda {[round(m, 4) for m, _ in stats]}, "
           f"prior-collapse ELP gap {collapse_gap:.4f} (bound 0.1), "
           f"{elapsed / 60:.1f} min")
    assert ok


def test_criterion_7_variance_ordering(paper_experiment):
    bnre = [r.variance for r in paper_experiment["tractable1d", "bnre"].select(budget=1024)]
    nre = [r.variance for r in paper_experiment["tractable1d", "nre"].select(budget=1024)]
    mb, seb = seed_mean_se(bnre)
    mn, sen = seed_mean_se(nre)
    se_diff = math.hypot(seb, sen)
    ok = mb >= mn - 2 * se_diff
    report(7, "variance ordering", ok,
           f"BNRE variance {mb:.4f} vs NRE {mn:.4f} (2 SE {2 * se_diff:.4f})")
    assert ok


def test_criterion_8_experiment_determinism(tmp_path_factory):
    tables = []
    for attempt in range(2):
        out = tmp_path_factory.mktemp(f"det{attempt}")
        config = ExperimentConfig(benchmark="tractable1d", budgets=(512,),
                                  seeds=(0, 1), methods=("nre", "bnre"),
                                  n_test=100, epochs=10, batch_size=64,
                                  hidden_layers=2, hidden_units=16,
                                  output_dir=str(out))
        tables.append(run_experiment(config))
    identical = tables[0].comparable_rows() == tables[1].comparable_rows()
    ok = identical and tables[0].all_ok
    report(8, "determinism", ok,
           f"{len(tables[0].rows)} runs repeated bitwise-identically: {identical}")
    assert ok
