import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnre.diagnostics import (DEFAULT_LEVELS, DiscreteToy, coverage_curve, hpd_mass_at,
                              mean_log_density, run_theorem_battery, sbc_uniformity,
                              scaled_bias_variance, temper_to_balance,
                              verify_balance_theorems)
from bnre.harness import diagnose_pairs
from bnre.ratio import PosteriorGrid, tractable_posterior_grid
from bnre.rng import substream
from bnre.simulators import generate_dataset

from conftest import hpd_threshold, run_fresh_python


def grid_from_masses(masses):
    """1-d grid with unit cell volume whose densities are the given masses."""
    masses = np.asarray(masses, dtype=np.float64)
    axis = np.arange(masses.size, dtype=np.float64) + 0.5
    return PosteriorGrid((axis,), masses)


def exact_posterior(benchmark):
    return lambda x: tractable_posterior_grid(benchmark, x)


def coverage_of(posterior_fn, pairs, levels=DEFAULT_LEVELS):
    """The coverage curve from the per-pair loop that evaluate_net runs."""
    return coverage_curve(diagnose_pairs(posterior_fn, pairs, levels).indicators, levels)


def unscaled_bias_variance(posterior_fn, pairs):
    per_pair = diagnose_pairs(posterior_fn, pairs)
    return scaled_bias_variance(per_pair.theta_star, per_pair.means, per_pair.moments,
                                np.ones(per_pair.means.shape[1]))


def sbc(posterior_fn, pairs, rng, samples):
    ranks = diagnose_pairs(posterior_fn, pairs, sbc_samples=samples, sbc_rng=rng).sbc_ranks
    return sbc_uniformity(ranks)


def enumerate_hpd_placements(masses):
    """All achievable >=-threshold regions: tie-completed prefixes by density."""
    masses = np.asarray(masses, dtype=np.float64)
    out = []
    for gamma in sorted(set(masses), reverse=True):
        region = masses >= gamma
        out.append((frozenset(np.flatnonzero(region).tolist()), float(masses[region].sum())))
    return out


class TestHpdThreshold:
    def test_three_cell_example(self):
        grid = grid_from_masses([0.5, 0.3, 0.2])
        result = hpd_threshold(grid, 0.8)
        assert set(result.cell_indices) == {0, 1}
        assert result.achieved_mass == pytest.approx(0.8, abs=1e-12)
        assert not result.flagged

    def test_uniform_grid_conservatively_returns_everything(self):
        grid = grid_from_masses([0.25] * 4)
        result = hpd_threshold(grid, 0.5)
        assert set(result.cell_indices) == {0, 1, 2, 3}
        assert result.achieved_mass == pytest.approx(1.0)
        assert result.flagged

    def test_search_contract_at_095(self):
        rng = substream("hpd", 0)
        for _ in range(20):
            masses = rng.dirichlet(np.ones(rng.integers(3, 40)))
            result = hpd_threshold(grid_from_masses(masses), 0.95)
            assert result.achieved_mass >= 0.95 - 1e-3

    def test_matches_enumeration_oracle(self):
        rng = substream("hpd-oracle", 1)
        for _ in range(60):
            k = int(rng.integers(2, 30))
            masses = rng.dirichlet(np.ones(k))
            level = float(rng.uniform(0.05, 0.95))
            result = hpd_threshold(grid_from_masses(masses), level)
            placements = enumerate_hpd_placements(masses)
            achieved = (frozenset(result.cell_indices.tolist()), result.achieved_mass)
            assert any(region == achieved[0] and mass == pytest.approx(achieved[1])
                       for region, mass in placements)
            # conservative and no farther above the level than the search tolerance
            minimal = min(m for _, m in placements if m >= level)
            assert result.achieved_mass >= level - 1e-3
            assert result.achieved_mass <= minimal + 1e-3

    def test_region_is_the_smallest_tie_completed_prefix(self):
        rng = substream("hpd-exact", 3)
        for _ in range(60):
            masses = rng.dirichlet(np.ones(int(rng.integers(2, 30))))
            masses[: len(masses) // 3] = masses[0]  # a tie group
            masses /= masses.sum()
            level = float(rng.uniform(0.05, 0.95))
            result = hpd_threshold(grid_from_masses(masses), level)
            region, mass = min(((r, m) for r, m in enumerate_hpd_placements(masses)
                                if m >= level), key=lambda rm: rm[1])
            assert frozenset(result.cell_indices.tolist()) == region
            assert result.threshold in masses
            assert result.achieved_mass == pytest.approx(mass, abs=1e-12)

    def test_invalid_level_rejected(self):
        grid = grid_from_masses([0.6, 0.4])
        for level in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                hpd_threshold(grid, level)

    def test_regions_nest_across_levels(self):
        rng = substream("nest", 2)
        masses = rng.dirichlet(np.ones(25))
        grid = grid_from_masses(masses)
        previous = None
        for level in np.linspace(0.1, 0.9, 9):
            region = hpd_threshold(grid, float(level)).region
            if previous is not None:
                assert np.all(previous <= region)  # smaller level is a subset
            previous = region


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), level=st.floats(min_value=0.05, max_value=0.95))
def test_hpd_region_is_threshold_set(seed, level):
    masses = substream("prop", seed).dirichlet(np.ones(12))
    result = hpd_threshold(grid_from_masses(masses), level)
    assert np.array_equal(result.region, masses >= result.threshold)


class TestExpectedCoverage:
    def test_exact_oracle_tracks_the_diagonal(self, tractable_benchmark):
        test = generate_dataset(tractable_benchmark, 800, seed=11, namespace="test")
        pairs = list(zip(test.theta, test.x))
        curve = coverage_of(exact_posterior(tractable_benchmark), pairs)
        for level, cov, se in zip(curve.levels, curve.coverage, curve.se):
            assert abs(cov - level) <= 3 * se + 1e-9

    def test_prior_as_posterior_with_tie_rule_covers_everything(self, tractable_benchmark):
        flat = tractable_posterior_grid(tractable_benchmark, np.array([0.0]))
        flat.densities[:] = 0.1
        test = generate_dataset(tractable_benchmark, 50, seed=12, namespace="test")
        curve = coverage_of(lambda x: flat, list(zip(test.theta, test.x)))
        assert np.all(curve.coverage == 1.0)

    def test_single_pair_single_level(self, tractable_benchmark):
        test = generate_dataset(tractable_benchmark, 1, seed=13, namespace="test")
        curve = coverage_of(exact_posterior(tractable_benchmark),
                                  list(zip(test.theta, test.x)), levels=np.array([0.5]))
        assert curve.coverage[0] in (0.0, 1.0)

    def test_coverage_is_monotone_in_level(self, tractable_benchmark):
        test = generate_dataset(tractable_benchmark, 100, seed=14, namespace="test")
        curve = coverage_of(exact_posterior(tractable_benchmark),
                                  list(zip(test.theta, test.x)))
        assert np.all(np.diff(curve.coverage) >= 0.0)

    def test_indicator_consistent_with_hpd_region(self, tractable_benchmark):
        test = generate_dataset(tractable_benchmark, 30, seed=15, namespace="test")
        for theta, x in zip(test.theta, test.x):
            grid = tractable_posterior_grid(tractable_benchmark, x)
            strict, inclusive = hpd_mass_at(grid, theta)
            for level in (0.2, 0.5, 0.8):
                inside = grid.density_at(theta) >= hpd_threshold(grid, level).threshold
                indicator = (level > strict) or (level >= inclusive)
                assert inside == indicator


def coverage_auc(curve):
    """Oracle for ``CoverageCurve.auc``: the signed area between the averaged
    curve and the diagonal over [0, 1], by the trapezoid rule with the edge
    levels extended outward (0 calibrated, extremes +-1/2)."""
    xs = np.concatenate([[0.0], curve.levels, [1.0]])
    ys = np.concatenate([curve.coverage[:1], curve.coverage, curve.coverage[-1:]])
    return float(np.trapezoid(ys, xs)) - 0.5


class TestCoverageAuc:
    def _curve(self, indicators):
        return coverage_curve(np.asarray(indicators, dtype=bool), DEFAULT_LEVELS)

    def test_diagonal_curve_has_zero_auc(self):
        # pair i is covered from level i onwards: coverage (j + 1) / 20 = level j
        pairs = np.arange(20)[:, None] <= np.arange(19)[None, :]
        curve = self._curve(pairs)
        assert np.allclose(curve.coverage, DEFAULT_LEVELS)
        assert curve.auc == pytest.approx(0.0, abs=1e-12)
        assert curve.auc == pytest.approx(coverage_auc(curve), abs=1e-12)

    def test_always_covered_gives_half(self):
        curve = self._curve(np.ones((10, 19)))
        assert curve.auc == pytest.approx(0.5, abs=1e-12)
        assert curve.auc == pytest.approx(coverage_auc(curve), abs=1e-12)

    def test_never_covered_gives_minus_half(self):
        curve = self._curve(np.zeros((10, 19)))
        assert curve.auc == pytest.approx(-0.5, abs=1e-12)
        assert curve.auc == pytest.approx(coverage_auc(curve), abs=1e-12)

    def test_matches_per_pair_propagated_mean(self, tractable_benchmark):
        test = generate_dataset(tractable_benchmark, 60, seed=16, namespace="test")
        curve = coverage_of(exact_posterior(tractable_benchmark),
                                  list(zip(test.theta, test.x)))
        assert coverage_auc(curve) == pytest.approx(curve.auc, abs=1e-12)


class TestExpectedLogPosterior:
    def test_prior_as_posterior_gives_log_inverse_width(self, tractable_benchmark):
        flat = tractable_posterior_grid(tractable_benchmark, np.array([0.0]))
        flat.densities[:] = 0.1
        test = generate_dataset(tractable_benchmark, 40, seed=17, namespace="test")
        per_pair = diagnose_pairs(lambda x: flat, list(zip(test.theta, test.x)))
        value, floored = mean_log_density(per_pair.densities)
        assert value == pytest.approx(-math.log(10.0), abs=1e-12)
        assert floored == 0

    def test_oracle_beats_prior_baseline(self, tractable_benchmark):
        test = generate_dataset(tractable_benchmark, 300, seed=18, namespace="test")
        pairs = list(zip(test.theta, test.x))
        oracle, _ = mean_log_density(
            diagnose_pairs(exact_posterior(tractable_benchmark), pairs).densities)
        assert oracle >= -math.log(10.0)

    def test_zero_density_cells_are_floored_and_reported(self, tractable_benchmark):
        grid = tractable_posterior_grid(tractable_benchmark, np.array([0.0]))
        dens = np.zeros_like(grid.densities)
        dens[500] = 1.0 / grid.cell_volume
        point_mass = PosteriorGrid(grid.axes, dens)
        pairs = [(np.array([-4.9]), np.array([0.0]))]
        value, floored = mean_log_density(diagnose_pairs(lambda x: point_mass, pairs).densities)
        assert value == pytest.approx(math.log(1e-300))
        assert floored == 1
        # the pair whose truth sits in the point mass's cell is not floored
        pairs.append((grid.axes[0][500:501], np.array([0.0])))
        value, floored = mean_log_density(diagnose_pairs(lambda x: point_mass, pairs).densities)
        assert floored == 1
        assert value == pytest.approx((math.log(1e-300) - math.log(grid.cell_volume)) / 2)


class TestBiasVariance:
    def test_point_mass_grid_has_zero_variance(self, tractable_benchmark):
        grid = tractable_posterior_grid(tractable_benchmark, np.array([0.0]))
        dens = np.zeros_like(grid.densities)
        dens[512] = 1.0 / grid.cell_volume
        point = PosteriorGrid(grid.axes, dens)
        center = grid.axes[0][512]
        theta_star = np.array([1.0])
        bias, variance = unscaled_bias_variance(lambda x: point, [(theta_star, np.zeros(1))])
        assert variance == pytest.approx(0.0, abs=1e-18)
        assert bias == pytest.approx((center - 1.0) ** 2, rel=1e-9)

    def test_uniform_unit_box_toy_gives_one_twelfth(self):
        # prior-as-posterior on U(0, 1): bias = E[(1/2 - t)^2] = 1/12, variance = 1/12
        k = 256
        width = 1.0 / k
        axis = width * (np.arange(k) + 0.5)
        flat = PosteriorGrid((axis,), np.ones(k))
        thetas = np.linspace(0.0, 1.0, 4001)  # deterministic quadrature over theta*
        pairs = [(np.array([t]), np.zeros(1)) for t in thetas]
        bias, variance = unscaled_bias_variance(lambda x: flat, pairs)
        assert bias == pytest.approx(1.0 / 12.0, abs=2e-4)
        assert variance == pytest.approx(1.0 / 12.0, abs=2e-4)

    def test_scaling_divides_by_prior_variance(self, tractable_benchmark):
        test = generate_dataset(tractable_benchmark, 50, seed=19, namespace="test")
        pairs = list(zip(test.theta, test.x))
        per_pair = diagnose_pairs(exact_posterior(tractable_benchmark), pairs)
        moments = (per_pair.theta_star, per_pair.means, per_pair.moments)
        raw_b, raw_v = scaled_bias_variance(*moments, np.ones(1))
        scl_b, scl_v = scaled_bias_variance(*moments,
                                            tractable_benchmark.inference_prior.variances)
        prior_var = 100.0 / 12.0
        assert scl_b == pytest.approx(raw_b / prior_var, rel=1e-9)
        assert scl_v == pytest.approx(raw_v / prior_var, rel=1e-9)

    def test_oracle_matches_monte_carlo(self, tractable_benchmark):
        # independent MC evaluation with truncated-normal draws per test pair
        from scipy.stats import truncnorm
        test = generate_dataset(tractable_benchmark, 200, seed=20, namespace="test")
        pairs = list(zip(test.theta, test.x))
        grid_bias, grid_var = unscaled_bias_variance(exact_posterior(tractable_benchmark), pairs)
        rng = substream("mc-oracle", 0)
        draws_per_pair = 5000
        mc_bias, mc_var = [], []
        for theta_star, x in pairs:
            dist = truncnorm(a=(-5.0 - x[0]), b=(5.0 - x[0]), loc=x[0], scale=1.0)
            samples = dist.rvs(size=draws_per_pair, random_state=rng)
            mean = samples.mean()
            mc_bias.append((mean - theta_star[0]) ** 2)
            mc_var.append(samples.var())
        n = len(pairs)
        se_bias = np.std(mc_bias, ddof=1) / math.sqrt(n)
        se_var = np.std(mc_var, ddof=1) / math.sqrt(n)
        assert abs(grid_bias - np.mean(mc_bias)) <= 3 * se_bias
        assert abs(grid_var - np.mean(mc_var)) <= 3 * se_var


class TestSbcRanks:
    def test_rank_is_one_when_truth_has_max_density(self, tractable_benchmark):
        grid = tractable_posterior_grid(tractable_benchmark, np.array([0.0]))
        mode = grid.axes[0][np.argmax(grid.densities)]
        result = sbc(lambda x: grid, [(np.array([mode]), np.zeros(1))],
                     substream("sbc", 0), 200)
        assert result.ranks[0] == 1.0

    def test_exact_oracle_ranks_are_uniform(self, tractable_benchmark):
        test = generate_dataset(tractable_benchmark, 600, seed=21, namespace="test")
        result = sbc(exact_posterior(tractable_benchmark), list(zip(test.theta, test.x)),
                     substream("sbc-uniform", 0), 256)
        assert result.ks_pvalue > 0.01
        assert not result.degenerate

    def test_flat_grid_is_degenerate_with_rank_one(self, tractable_benchmark):
        flat = tractable_posterior_grid(tractable_benchmark, np.array([0.0]))
        flat.densities[:] = 0.1
        test = generate_dataset(tractable_benchmark, 20, seed=22, namespace="test")
        result = sbc(lambda x: flat, list(zip(test.theta, test.x)),
                     substream("sbc-flat", 0), 150)
        assert np.all(result.ranks == 1.0)
        assert result.degenerate

    def test_too_few_samples_rejected(self, tractable_benchmark):
        with pytest.raises(ValueError):
            diagnose_pairs(lambda x: None, [], sbc_samples=50, sbc_rng=substream("x", 0))

    def test_reports_kstests_exact_statistic_and_pvalue(self, tractable_benchmark):
        from scipy import stats

        test = generate_dataset(tractable_benchmark, 30, seed=24, namespace="test")
        result = sbc(exact_posterior(tractable_benchmark), list(zip(test.theta, test.x)),
                     substream("sbc-ks", 0), 100)
        ks = stats.kstest(result.ranks, "uniform")
        assert result.ks_distance == float(ks.statistic)
        assert result.ks_pvalue == float(ks.pvalue)

    def test_importing_bnre_does_not_import_scipy_stats(self):
        # sbc_uniformity imports it on first use; nothing else in bnre needs it
        loaded = run_fresh_python(
            "import json, sys\n"
            "import bnre, bnre.harness, bnre.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy.stats'))))")
        assert loaded == []


class TestBalanceTheorems:
    def test_bayes_optimal_is_balanced_with_unit_joint_expectation(self):
        rng = substream("thm", 0)
        for _ in range(25):
            toy = DiscreteToy.random(rng)
            report = verify_balance_theorems(toy, toy.bayes_optimal)
            assert report.is_balanced
            assert abs(report.balance_value - 1.0) <= 1e-10
            assert report.joint_expectation == 1.0  # identity ratio, exact
            assert report.marginal_expectation >= 1.0 - 1e-12

    def test_random_constant_half_classifier_is_balanced(self):
        rng = substream("thm-half", 0)
        for _ in range(100):
            toy = DiscreteToy.random(rng)
            report = verify_balance_theorems(toy, np.full(toy.joint.shape, 0.5))
            assert report.is_balanced
            assert report.joint_expectation >= 1.0 - 1e-12
            assert report.marginal_expectation >= 1.0 - 1e-12

    def test_tempered_random_classifiers_satisfy_both_inequalities(self):
        rng = substream("thm-temper", 0)
        for _ in range(100):
            toy = DiscreteToy.random(rng)
            raw = rng.uniform(0.05, 0.95, size=toy.joint.shape)
            tempered = temper_to_balance(raw, toy)
            report = verify_balance_theorems(toy, tempered)
            assert abs(report.balance_value - 1.0) <= 1e-12
            assert report.joint_expectation >= 1.0 - 1e-12
            assert report.marginal_expectation >= 1.0 - 1e-12

    def test_unbalanced_classifier_can_violate_an_inequality(self):
        rng = substream("thm-cube", 0)
        violated = False
        for _ in range(100):
            toy = DiscreteToy.random(rng)
            report = verify_balance_theorems(toy, toy.bayes_optimal ** 3)
            if not report.is_balanced and (report.joint_expectation < 1.0
                                           or report.marginal_expectation < 1.0):
                violated = True
                break
        assert violated

    def test_entries_outside_open_interval_rejected(self):
        toy = DiscreteToy.random(substream("thm-bad", 0))
        bad = np.full(toy.joint.shape, 0.5)
        bad[0, 0] = 1.0
        with pytest.raises(ValueError):
            verify_balance_theorems(toy, bad)

    def test_battery_runs_and_passes(self):
        result = run_theorem_battery(n_toys=25, seed=1)
        assert result.passed
        assert result.unbalanced_violations > 0


class TestDiscreteToy:
    def test_table_normalized_and_positive(self):
        toy = DiscreteToy.random(substream("toy", 0))
        assert toy.joint.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(toy.joint > 0.0)
        assert np.all((toy.bayes_optimal > 0.0) & (toy.bayes_optimal < 1.0))

    def test_marginals_are_consistent(self):
        toy = DiscreteToy(substream("toy", 1).gamma(1.0, size=(5, 9)))
        assert toy.p_theta.sum() == pytest.approx(1.0, abs=1e-12)
        assert toy.p_x.sum() == pytest.approx(1.0, abs=1e-12)
        assert toy.product.shape == (5, 9)

    def test_nonpositive_entries_rejected(self):
        with pytest.raises(ValueError):
            DiscreteToy(np.array([[0.5, 0.0], [0.2, 0.3]]))
