import math

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import norm

from bnre.nets import ClassifierNet
from bnre.ratio import (DegenerateGridError, _grid, grid_axes, posterior_grid,
                        tractable_posterior_grid)
from bnre.rng import substream
from bnre.simulators import SlcpMarginal, generate_dataset, get_benchmark

from conftest import hpd_threshold, random_net, total_variation


def zero_net(input_dim):
    return ClassifierNet([np.zeros((4, input_dim)), np.zeros((1, 4))],
                         [np.zeros(4), np.zeros(1)])


def point_features(benchmark, theta_sub, x):
    """Classifier input rows for (theta, x) pairs, as the grid and balance passes build them."""
    return np.concatenate([benchmark.theta_features(np.atleast_2d(theta_sub)),
                           benchmark.x_features(np.atleast_2d(x))], axis=1)


class TestClassifierProb:
    # the harness reads the classifier's probability as expit of its logits
    def test_zero_logit_gives_half(self, tractable_benchmark):
        net = zero_net(2)
        feats = point_features(tractable_benchmark, [0.3], [0.1])
        assert expit(net.logits(feats))[0] == 0.5

    def test_symmetric_logits_sum_to_one(self, tractable_benchmark):
        feats = point_features(tractable_benchmark, [0.0], [0.0])
        for z in (0.3, 2.0, 11.0):
            plus = ClassifierNet([np.zeros((1, 2))], [np.array([z])])
            minus = ClassifierNet([np.zeros((1, 2))], [np.array([-z])])
            p = expit(plus.logits(feats))[0]
            q = expit(minus.logits(feats))[0]
            assert p + q == pytest.approx(1.0, abs=1e-15)


class TestLogRatio:
    def test_uninformative_classifier_gives_unit_ratio(self, tractable_benchmark):
        net = zero_net(2)
        assert net.logits(point_features(tractable_benchmark, [1.0], [0.5]))[0] == 0.0
        grid = posterior_grid(net, tractable_benchmark, np.array([0.5]))
        np.testing.assert_allclose(grid.densities, 0.1, rtol=1e-12)  # the prior

    def test_logit_space_identity_no_probability_round_trip(self, tractable_benchmark):
        feats = point_features(tractable_benchmark, [0.0], [0.0])
        for z in (-30.0, 0.0, 30.0):
            net = ClassifierNet([np.zeros((1, 2))], [np.array([z])])
            assert net.logits(feats)[0] == z
            grid = posterior_grid(net, tractable_benchmark, np.array([0.0]))
            np.testing.assert_allclose(grid.densities, 0.1, rtol=1e-12)

    def test_trained_net_matches_quadrature_oracle(self, tractable_benchmark,
                                                   tractable_nre_net,
                                                   tractable_test_set):
        # log r(x|t) = log p(x|t) - log p(x) with p(x) by numerical integration
        grid = np.linspace(-5.0, 5.0, 20001)
        errors = []
        for theta, x in zip(tractable_test_set.theta, tractable_test_set.x):
            if abs(x[0] - theta[0]) > 1.0 or abs(theta[0]) > 4.0:
                continue  # high-likelihood, central pairs
            log_px = math.log(np.trapezoid(norm.pdf(x[0] - grid) * 0.1, grid))
            oracle = norm.logpdf(x[0] - theta[0]) - log_px
            est = tractable_nre_net.logits(point_features(tractable_benchmark, theta, x))[0]
            errors.append(abs(est - oracle))
            if len(errors) >= 40:
                break
        assert len(errors) >= 20
        assert max(errors) <= 0.5

    def test_wrong_theta_dimension_rejected(self):
        class ThreeInferred(SlcpMarginal):
            inference_dims = (0, 1, 2)
            grid_shape = (8, 8, 8)

        with pytest.raises(ValueError, match="at most 2 inferred dimensions"):
            posterior_grid(zero_net(11), ThreeInferred(), np.zeros(8))

    def test_feature_width_mismatch_rejected(self, tractable_benchmark):
        net = zero_net(7)
        with pytest.raises(ValueError, match=r"expected \[n, 7\] input, got \(1024, 2\)"):
            posterior_grid(net, tractable_benchmark, np.array([0.0]))


class TestLogPosteriorAt:
    def test_uniform_prior_flat_ratio_gives_log_inverse_volume(self, tractable_benchmark):
        grid = posterior_grid(zero_net(2), tractable_benchmark, np.array([0.0]))
        lp = math.log(grid.density_at(np.array([2.0])))
        assert lp == pytest.approx(-math.log(10.0), abs=1e-12)

    def test_log_posterior_differences_equal_logit_differences(self, tractable_benchmark):
        net = random_net(np.random.default_rng(1), [2, 16, 1])
        x = np.array([0.4])
        grid = posterior_grid(net, tractable_benchmark, x)
        (i1,), (i2,) = grid.locate(np.array([-1.0])), grid.locate(np.array([2.5]))
        dlp = math.log(grid.densities[i1]) - math.log(grid.densities[i2])
        z = net.logits(point_features(tractable_benchmark, grid.axes[0][[i1, i2], None],
                                      np.tile(x, (2, 1))))
        assert dlp == pytest.approx(z[0] - z[1], abs=1e-12)

    def test_grid_argmax_equals_logit_argmax(self, tractable_benchmark):
        net = random_net(np.random.default_rng(2), [2, 16, 1])
        x = np.array([1.2])
        grid = posterior_grid(net, tractable_benchmark, x)
        axis = grid.axes[0][::16]
        logits = net.logits(point_features(tractable_benchmark, axis[:, None],
                                           np.tile(x, (len(axis), 1))))
        assert np.argmax(grid.densities[::16]) == np.argmax(logits)


class TestPosteriorGrid:
    def test_constant_logit_net_gives_uniform_grid(self, tractable_benchmark):
        grid = posterior_grid(zero_net(2), tractable_benchmark, np.array([0.3]))
        np.testing.assert_allclose(grid.densities, 0.1, rtol=1e-12)

    def test_normalization_for_random_nets(self, tractable_benchmark):
        for seed in range(5):
            net = random_net(np.random.default_rng(seed), [2, 32, 32, 1])
            grid = posterior_grid(net, tractable_benchmark, np.array([0.7]))
            assert grid.cell_masses.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(grid.densities >= 0.0)

    def test_grid_covers_exactly_the_prior_box(self, tractable_benchmark):
        grid = posterior_grid(zero_net(2), tractable_benchmark, np.array([0.0]))
        axis = grid.axes[0]
        width = grid.cell_widths[0]
        assert axis[0] - width / 2 == pytest.approx(-5.0, abs=1e-12)
        assert axis[-1] + width / 2 == pytest.approx(5.0, abs=1e-12)

    def test_two_dimensional_grid(self):
        b = get_benchmark("mg1")
        net = zero_net(7)
        grid = posterior_grid(net, b, np.ones(5))
        assert grid.densities.shape == (128, 128)
        assert grid.cell_masses.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(grid.densities, 1.0 / 100.0, rtol=1e-12)

    def test_saturated_logits_give_a_finite_normalized_grid(self, tractable_benchmark):
        # logits run from -1000 to +1000 over the box: exp would overflow
        # without the max-subtraction
        net = ClassifierNet([np.array([[200.0, 0.0]])], [np.zeros(1)])
        grid = posterior_grid(net, tractable_benchmark, np.array([0.0]))
        assert np.all(np.isfinite(grid.densities))
        assert grid.cell_masses.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.argmax(grid.densities) == grid.densities.size - 1

    def test_degenerate_grid_rejected(self, tractable_benchmark):
        net = zero_net(2)
        with pytest.raises(DegenerateGridError):
            posterior_grid(net, tractable_benchmark, np.array([np.nan]))

    def test_trained_net_close_to_exact_posterior(self, tractable_benchmark,
                                                  tractable_nre_net,
                                                  tractable_test_set):
        # tolerance pinned by pilot runs at budget 2^14 (mean TV ~0.03)
        tvs = []
        for x in tractable_test_set.x[:64]:
            approx = posterior_grid(tractable_nre_net, tractable_benchmark, x)
            exact = tractable_posterior_grid(tractable_benchmark, x)
            tvs.append(total_variation(approx, exact))
        assert float(np.mean(tvs)) <= 0.1

    def test_hpd_regions_agree_between_densities_and_logits(self, tractable_benchmark):
        # uniform prior: density is a monotone transform of the logit
        net = random_net(np.random.default_rng(5), [2, 16, 1])
        x = np.array([0.9])
        grid = posterior_grid(net, tractable_benchmark, x)
        result = hpd_threshold(grid, 0.7)
        k = int(result.region.sum())
        by_logit = np.zeros_like(result.region)
        by_logit[np.argsort(grid.densities)[::-1][:k]] = True
        assert np.array_equal(result.region, by_logit)


def naive_posterior_densities(net, benchmark, x):
    """Grid densities from fresh features and a forward with fresh arrays per op."""
    axes = grid_axes(benchmark)
    mesh = np.meshgrid(*axes, indexing="ij")
    t_feats = benchmark.theta_features(np.stack([m.reshape(-1) for m in mesh], axis=1))
    x_feats = np.tile(benchmark.x_features(x), (len(t_feats), 1))
    h = np.concatenate([t_feats, x_feats], axis=1)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    z = (h @ net.weights[-1].T + net.biases[-1]).reshape(-1)
    dens = np.exp(z - z.max())
    dens /= dens.sum() * float(np.prod([a[1] - a[0] for a in axes]))
    return dens.reshape(tuple(len(a) for a in axes))


class TestGridWorkspace:
    @pytest.mark.parametrize("name", ["mg1", "tractable1d"])
    def test_densities_bitwise_equal_to_naive_reference(self, name):
        benchmark = get_benchmark(name)
        net = random_net(np.random.default_rng(3),
                         [benchmark.classifier_input_dim(), 64, 64, 64, 1])
        test = generate_dataset(benchmark, 3, seed=4, namespace="test")
        for x in test.x:  # later observations reuse the cached features and buffers
            grid = posterior_grid(net, benchmark, x)
            assert np.array_equal(grid.densities, naive_posterior_densities(net, benchmark, x))

    def test_cached_theta_features_are_read_only_and_shared(self):
        axes, first = _grid(type(get_benchmark("mg1")))
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
        again = get_benchmark("mg1")
        assert _grid(type(again))[1] is first
        assert grid_axes(again) is axes


class TestExactPosteriorGrid:
    def test_oracle_matches_tractable_density(self, tractable_benchmark):
        grid = tractable_posterior_grid(tractable_benchmark, np.array([1.0]))
        assert grid.cell_masses.sum() == pytest.approx(1.0, abs=1e-9)
        # mode at x (inside the box)
        assert grid.axes[0][np.argmax(grid.densities)] == pytest.approx(1.0, abs=0.01)

    def test_oracle_refuses_other_benchmarks(self):
        with pytest.raises(ValueError):
            tractable_posterior_grid(get_benchmark("weinberg"), np.array([0.0]))


class TestGridMoments:
    def test_moments_match_truncated_normal(self, tractable_benchmark):
        from scipy.stats import truncnorm
        x = np.array([1.7])
        grid = tractable_posterior_grid(tractable_benchmark, x)
        dist = truncnorm(a=(-5 - x[0]), b=(5 - x[0]), loc=x[0], scale=1.0)
        mean, moment = grid.moments()
        assert mean[0] == pytest.approx(dist.mean(), abs=1e-4)
        assert moment[0] == pytest.approx(dist.var(), abs=1e-4)

    def test_moments_equal_the_per_dimension_formulas_on_a_2d_grid(self):
        mg1 = get_benchmark("mg1")
        rng = substream("grid-moments", 0)
        net = random_net(rng, [mg1.classifier_input_dim(), 16, 16, 1])
        grid = posterior_grid(net, mg1, generate_dataset(mg1, 1, seed=0).x[0])
        assert grid.ndim == 2
        masses = grid.cell_masses
        means, moments = [], []
        for d, axis in enumerate(grid.axes):
            # each dimension's marginal, then its mean and second central moment
            m = np.apply_over_axes(np.sum, masses, [1 - d]).reshape(-1)
            mu = float(m @ axis)
            means.append(mu)
            moments.append(float(m @ (axis - mu) ** 2))
        got_means, got_moments = grid.moments()
        assert got_means.tobytes() == np.array(means).tobytes()
        assert got_moments.tobytes() == np.array(moments).tobytes()

    def test_locate_maps_theta_to_containing_cell(self, tractable_benchmark):
        grid = tractable_posterior_grid(tractable_benchmark, np.array([0.0]))
        rng = substream("locate", 0)
        width = grid.cell_widths[0]
        for theta in rng.uniform(-5, 5, size=50):
            (i,) = grid.locate(np.array([theta]))
            assert abs(grid.axes[0][i] - theta) <= width / 2 + 1e-12
