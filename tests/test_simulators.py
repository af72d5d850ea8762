import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnre.rng import substream
from bnre.simulators import (Dataset, SimulationCapExceeded, Tractable1D, benchmark_names,
                             draw_joint_sample, generate_dataset, get_benchmark,
                             gillespie_run, load_dataset, mg1_departures, mg1_quantiles,
                             save_dataset, simulate, tractable_posterior)

ALL_CHEAP = ["tractable1d", "weinberg", "slcp_marginal", "mg1"]


class TestPrior:
    def test_uniform_moments(self):
        b = get_benchmark("tractable1d")
        draws = b.prior.sample(substream("t", 0), 100_000)
        se = (10.0 / math.sqrt(12.0)) / math.sqrt(100_000)
        assert abs(draws.mean() - 0.0) < 3 * se

    @pytest.mark.parametrize("name", benchmark_names())
    def test_support(self, name):
        b = get_benchmark(name)
        draws = b.prior.sample(substream("s", name), 500)
        assert np.all(draws >= b.prior.lower)
        assert np.all(draws <= b.prior.upper)

    def test_fixed_seed_reproducible(self):
        b = get_benchmark("mg1")
        a = b.prior.sample(substream("r", 1), 4)
        c = b.prior.sample(substream("r", 1), 4)
        assert np.array_equal(a, c)

    def test_class_prior_is_shared_and_read_only(self):
        b = get_benchmark("mg1")
        assert b.prior is get_benchmark("mg1").prior
        with pytest.raises(ValueError):
            b.prior.lower[0] = 1.0

    def test_invalid_bounds_rejected(self):
        from bnre.simulators import BoxPrior
        with pytest.raises(ValueError):
            BoxPrior(np.array([1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            BoxPrior(np.array([0.0]), np.array([np.inf]))


class TestTractable1D:
    def test_fixed_seed_reproduces_recorded_draw(self):
        b = get_benchmark("tractable1d")
        x1 = simulate(b, np.array([0.0]), substream("demo", 7))
        x2 = simulate(b, np.array([0.0]), substream("demo", 7))
        assert np.array_equal(x1, x2)

    def test_gaussian_moments(self):
        b = get_benchmark("tractable1d")
        rng = substream("moments", 0)
        draws = np.array([simulate(b, np.array([0.0]), rng)[0] for _ in range(30_000)])
        n = draws.size
        assert abs(draws.mean()) < 3 / math.sqrt(n)
        # var of the sample variance of a N(0,1) is ~2/n
        assert abs(draws.var() - 1.0) < 3 * math.sqrt(2.0 / n)

    def test_theta_outside_box_rejected(self):
        b = get_benchmark("tractable1d")
        with pytest.raises(ValueError, match="outside"):
            simulate(b, np.array([7.0]), substream("x", 0))


class TestWeinberg:
    def test_outputs_lie_in_unit_interval(self):
        b = get_benchmark("weinberg")
        rng = substream("w", 0)
        for theta in b.prior.sample(rng, 200):
            c = simulate(b, theta, rng)[0]
            assert -1.0 <= c <= 1.0

    def test_empirical_mean_matches_analytic_asymmetry(self):
        # E[c] under (1 + c^2 + A c)/(8/3) on [-1, 1] is A/4
        b = get_benchmark("weinberg")
        g = 1.2
        rng = substream("wmean", 0)
        n = 40_000
        draws = np.array([simulate(b, np.array([g]), rng)[0] for _ in range(n)])
        expected = b._asymmetry(g) / 4.0
        assert abs(draws.mean() - expected) < 3 * draws.std() / math.sqrt(n)


class TestSlcpMarginal:
    def test_shape_and_finiteness(self):
        b = get_benchmark("slcp_marginal")
        rng = substream("slcp", 0)
        x = simulate(b, np.array([1.0, -1.0, 1.5, 0.5, 0.3]), rng)
        assert x.shape == (8,)
        assert np.all(np.isfinite(x))

    def test_point_cloud_matches_parameterized_gaussian(self):
        b = get_benchmark("slcp_marginal")
        theta = np.array([0.5, -0.5, 1.2, 0.8, 0.7])
        rng = substream("slcpm", 1)
        pts = np.array([simulate(b, theta, rng).reshape(4, 2) for _ in range(8000)])
        pts = pts.reshape(-1, 2)
        s1, s2, rho = theta[2] ** 2, theta[3] ** 2, np.tanh(theta[4])
        n = len(pts)
        assert abs(pts[:, 0].mean() - theta[0]) < 3 * s1 / math.sqrt(n)
        assert abs(pts[:, 1].mean() - theta[1]) < 3 * s2 / math.sqrt(n)
        cov = np.cov(pts.T)
        assert cov[0, 0] == pytest.approx(s1 ** 2, rel=0.1)
        assert cov[1, 1] == pytest.approx(s2 ** 2, rel=0.1)
        assert cov[0, 1] == pytest.approx(rho * s1 * s2, rel=0.15)


class TestMG1:
    def test_saturated_queue_gives_constant_quantiles(self):
        # theta2 = 0 and a saturated server: every inter-departure equals theta1
        b = get_benchmark("mg1")
        theta = np.array([4.0, 0.0, 1.0 / 3.0])
        rng = substream("sat", 0)
        arrivals = np.cumsum(rng.exponential(1e-8, size=50))
        services = np.full(50, theta[0])
        inter = np.diff(mg1_departures(arrivals, services), prepend=0.0)
        q = mg1_quantiles(inter)
        np.testing.assert_allclose(q, theta[0], atol=1e-6)

    def test_departures_match_event_driven_oracle(self):
        # independent discrete-event queue: explicit server/FIFO state machine
        def oracle(arrivals, services):
            departures = []
            queue = []
            server_free_at = 0.0
            for a, s in zip(arrivals, services):
                queue.append((a, s))
            for a, s in queue:
                start = max(a, server_free_at)
                server_free_at = start + s
                departures.append(server_free_at)
            return np.array(departures)

        rng = substream("queue-oracle", 0)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            arrivals = np.sort(rng.uniform(0, 20, size=n))
            services = rng.uniform(0, 3, size=n)
            np.testing.assert_allclose(mg1_departures(arrivals, services),
                                       oracle(arrivals, services), rtol=1e-12)

    def test_simulator_output_shape(self):
        b = get_benchmark("mg1")
        x = simulate(b, np.array([2.0, 1.0, 0.2]), substream("mg1", 0))
        assert x.shape == (5,)
        assert np.all(np.diff(x) >= 0)  # quantiles are sorted


class TestMg1Quantiles:
    def test_five_point_identity(self):
        np.testing.assert_allclose(mg1_quantiles([1, 2, 3, 4, 5]), [1, 2, 3, 4, 5])

    def test_constant_input(self):
        np.testing.assert_allclose(mg1_quantiles([3.3] * 7), [3.3] * 5)

    def test_two_point_linear_interpolation(self):
        np.testing.assert_allclose(mg1_quantiles([0.0, 10.0]), [0, 2.5, 5, 7.5, 10])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mg1_quantiles([])


class TestGillespie:
    def test_zero_rates_keep_populations_constant(self):
        series = gillespie_run(np.zeros(4), (50, 100), 30.0, 20, substream("g", 0))
        assert np.all(series[:, 0] == 50)
        assert np.all(series[:, 1] == 100)

    def test_pure_death_mean_decays_exponentially(self):
        # only predator mortality fires: the predators die off, the prey stay put
        mu, n0, horizon, points = 0.3, 100, 5.0, 6
        runs = 400
        trajectories = np.array([
            gillespie_run(np.array([0.0, mu, 0.0, 0.0]), (50, n0), horizon, points,
                          substream("death", i))
            for i in range(runs)
        ])
        assert np.all(trajectories[:, :, 0] == 50)
        series = trajectories[:, :, 1]
        t = np.linspace(0.0, horizon, points)
        expected = n0 * np.exp(-mu * t)
        se = series.std(axis=0, ddof=1) / math.sqrt(runs)
        # grid point 0 records the initial state exactly
        assert np.all(np.abs(series.mean(axis=0)[1:] - expected[1:]) < 3 * se[1:] + 1e-9)

    def test_fixed_seed_identical_trajectories(self):
        a = gillespie_run(np.full(4, 0.01), (50, 100), 10.0, 10, substream("same", 1))
        b = gillespie_run(np.full(4, 0.01), (50, 100), 10.0, 10, substream("same", 1))
        assert np.array_equal(a, b)

    def test_event_cap_raises(self):
        # fast prey growth explodes the event count long before the horizon
        rates = np.array([0.0, 0.0, 5.0, 0.0])
        with pytest.raises(SimulationCapExceeded):
            gillespie_run(rates, (50, 100), 30.0, 20, substream("boom", 0), event_cap=2000)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            gillespie_run(np.array([-1.0, 0, 0, 0]), (50, 100), 1.0, 5, substream("neg", 0))


class TestLotkaVolterra:
    def test_failed_draws_are_regenerated_and_counted(self):
        b = get_benchmark("lotka_volterra")
        b.EVENT_CAP = 500  # roughly half of prior draws exceed this
        failures = 0
        rng = substream("lv", 0)
        for _ in range(3):
            theta, x, discarded = draw_joint_sample(b, rng)
            assert x.shape == (40,)
            assert np.all(np.isfinite(x))
            failures += discarded
        assert failures >= 1

    def test_dataset_failures_sum_the_draws_discarded_per_sample(self):
        b = get_benchmark("lotka_volterra")
        b.EVENT_CAP = 500
        ds = generate_dataset(b, 6, seed=3)
        discarded = [draw_joint_sample(b, substream("sim", "train", b.name, 3, i))[2]
                     for i in range(6)]
        assert ds.failures == sum(discarded) >= 1
        # get_benchmark hands out fresh instances, so the lowered cap stays on b
        assert get_benchmark("lotka_volterra").EVENT_CAP == 100_000


class TestFiniteOutputs:
    @pytest.mark.parametrize("name", ALL_CHEAP)
    def test_ten_thousand_draws_finite(self, name):
        b = get_benchmark(name)
        rng = substream("finite", name)
        thetas = b.prior.sample(rng, 10_000)
        for theta in thetas:
            x = simulate(b, theta, rng)
            assert x.shape == (b.x_dim,)
            assert np.all(np.isfinite(x))

    def test_lotka_volterra_draws_finite(self):
        # runtime-bounded spot check; the benchmark is flag-gated in the harness
        b = get_benchmark("lotka_volterra")
        rng = substream("finite", "lv")
        for _ in range(60):
            theta, x, _ = draw_joint_sample(b, rng)
            assert x.shape == (b.x_dim,)
            assert np.all(np.isfinite(x))


class TestDatasetGeneration:
    def test_reproducible_and_chunking_invariant(self):
        b = get_benchmark("tractable1d")
        full = generate_dataset(b, 24, seed=5)
        again = generate_dataset(b, 24, seed=5)
        assert np.array_equal(full.theta, again.theta)
        assert np.array_equal(full.x, again.x)
        # per-sample streams make sample i independent of the total budget
        prefix = generate_dataset(b, 8, seed=5)
        assert np.array_equal(full.theta[:8], prefix.theta)
        assert np.array_equal(full.x[:8], prefix.x)

    def test_namespaces_are_disjoint(self):
        b = get_benchmark("tractable1d")
        train = generate_dataset(b, 64, seed=5, namespace="train")
        test = generate_dataset(b, 64, seed=5, namespace="test")
        train_rows = {row.tobytes() for row in np.hstack([train.theta, train.x])}
        test_rows = {row.tobytes() for row in np.hstack([test.theta, test.x])}
        assert not train_rows & test_rows

    def test_all_samples_inside_prior(self):
        b = get_benchmark("mg1")
        ds = generate_dataset(b, 128, seed=3)
        assert np.all(ds.theta >= b.prior.lower)
        assert np.all(ds.theta <= b.prior.upper)


class TestTractablePosterior:
    def _grid(self, n=1024):
        width = 10.0 / n
        return -5.0 + width * (np.arange(n) + 0.5)

    def test_normalization(self):
        grid = self._grid()
        dens = tractable_posterior(np.array([1.3]), grid)
        assert dens.sum() * (grid[1] - grid[0]) == pytest.approx(1.0, abs=1e-9)

    def test_uninformative_likelihood_recovers_prior(self, monkeypatch):
        monkeypatch.setattr(Tractable1D, "SIGMA_X", 1e6)
        grid = self._grid()
        dens = tractable_posterior(np.array([0.7]), grid)
        assert np.max(np.abs(dens - 0.1)) < 1e-4

    def test_mode_matches_dense_scan_oracle(self):
        x = np.array([2.4])
        grid = self._grid()
        dens = tractable_posterior(x, grid)
        scan = np.linspace(-5.0, 5.0, 1_000_001)
        oracle_mode = scan[np.argmax(np.exp(-0.5 * (x[0] - scan) ** 2))]
        grid_mode = grid[np.argmax(dens)]
        assert abs(grid_mode - oracle_mode) <= (grid[1] - grid[0])


class TestDatasetContainer:
    def _dataset(self):
        b = get_benchmark("mg1")
        return generate_dataset(b, 16, seed=1)

    def test_round_trip_value_identical(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.bnre"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.benchmark == ds.benchmark
        assert loaded.seed == ds.seed
        assert loaded.failures == ds.failures
        assert np.array_equal(loaded.theta, ds.theta)
        assert np.array_equal(loaded.x, ds.x)

    def test_resave_is_byte_identical(self, tmp_path):
        ds = self._dataset()
        p1, p2 = tmp_path / "a.bnre", tmp_path / "b.bnre"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected_cleanly(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.bnre"
        save_dataset(ds, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset(path)

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        ds = self._dataset()
        path = tmp_path / "data.bnre"
        save_dataset(ds, path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(generate_dataset(get_benchmark("mg1"), 8, seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["data.bnre"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "data.bnre"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_dataset(path)

    def test_version_bump_names_expected_version(self, tmp_path):
        ds = self._dataset()
        path = tmp_path / "data.bnre"
        save_dataset(ds, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 9  # little-endian version field
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="expected 1"):
            load_dataset(path)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=40))
def test_quantiles_are_sorted_and_bounded(times):
    q = mg1_quantiles(times)
    assert q[0] == pytest.approx(min(times))
    assert q[-1] == pytest.approx(max(times))
    assert np.all(np.diff(q) >= -1e-12)
