import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from bnre import autodiff, nets, training
from bnre.autodiff import Tape, backward, leaf
from bnre.diagnostics import DiscreteToy
from bnre.nets import ClassifierNet, OptimizerState, adam_step
from bnre.ratio import posterior_grid, tractable_posterior_grid
from bnre.rng import substream, stable_seed
from bnre.simulators import generate_dataset, get_benchmark
from bnre.training import (TrainConfig, TrainingDiverged, balance_statistic,
                           bnre_loss, bnre_loss_grads, bnre_loss_var,
                           derangement_against, epoch_index_pairs, forward_on_tape,
                           StepBuffers, TrainHistory, train)

from conftest import random_net, run_fresh_python, total_variation


def _cast(net, dtype):
    return ClassifierNet([w.astype(dtype) for w in net.weights],
                         [b.astype(dtype) for b in net.biases])


class TestBatchConstruction:
    def test_tiny_dataset_uses_every_sample_with_no_self_pairs(self):
        b = get_benchmark("tractable1d")
        ds = generate_dataset(b, 4, seed=0)
        pairs = epoch_index_pairs(len(ds), 4, substream("mb", 0))
        joint = np.concatenate([j for j, _ in pairs])
        assert sorted(joint.tolist()) == list(range(4))
        # marginal rows keep the joint row's parameter, paired with another x
        for ji, qi in pairs:
            for j, q in zip(ji, qi):
                assert not np.array_equal(ds.x[q], ds.x[j])

    def test_epoch_joint_union_is_dataset(self):
        pairs = epoch_index_pairs(20, 8, substream("u", 1))
        joint = np.concatenate([j for j, _ in pairs])
        assert sorted(joint.tolist()) == list(range(20))
        marginal = np.concatenate([m for _, m in pairs])
        assert sorted(marginal.tolist()) == list(range(20))

    def test_no_fixed_points_between_streams(self):
        for seed in range(10):
            pairs = epoch_index_pairs(17, 6, substream("fp", seed))
            for j, m in pairs:
                assert not np.any(j == m)

    def test_fixed_seed_gives_identical_batches(self):
        a = epoch_index_pairs(32, 8, substream("det", 5))
        b = epoch_index_pairs(32, 8, substream("det", 5))
        for (ja, ma), (jb, mb) in zip(a, b):
            assert np.array_equal(ja, jb)
            assert np.array_equal(ma, mb)

    def test_dataset_smaller_than_batch_rejected(self):
        b = get_benchmark("tractable1d")
        ds = generate_dataset(b, 8, seed=0)
        with pytest.raises(ValueError, match="smaller"):
            train(b, ds, TrainConfig(batch_size=16, epochs=1))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=200), seed=st.integers(0, 10_000))
def test_derangement_has_no_fixed_points(n, seed):
    reference = substream("dr", seed, "ref").permutation(n)
    q = derangement_against(reference, substream("dr", seed, "q"))
    assert sorted(q.tolist()) == sorted(reference.tolist())
    assert not np.any(q == reference)


class TestLosses:
    def test_all_zero_logits_give_log_two(self):
        loss, _ = bnre_loss(np.zeros(3), np.zeros(3), 0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_correct_logit_contribution(self):
        # a joint row at logit +20 and a marginal row at logit -20 each lose
        # softplus(-20)
        loss, _ = bnre_loss(np.array([20.0]), np.array([-20.0]), 0.0)
        assert loss == pytest.approx(np.logaddexp(0.0, -20.0), abs=1e-18)
        assert loss == pytest.approx(2.061e-09, rel=1e-3)

    def test_permutation_invariance(self):
        rng = substream("perm", 0)
        zj, zm = rng.standard_normal(10), rng.standard_normal(10)
        pj, pm = rng.permutation(10), rng.permutation(10)
        assert bnre_loss(zj, zm, 0.0)[0] == pytest.approx(
            bnre_loss(zj[pj], zm[pm], 0.0)[0], abs=1e-15)

    def test_balance_statistic_examples(self):
        assert balance_statistic([0.5] * 4, [0.5] * 4) == 1.0
        assert balance_statistic([1.0, 1.0], [0.0, 0.0]) == 1.0
        assert balance_statistic([0.8, 0.6], [0.3, 0.1]) == pytest.approx(0.9, abs=1e-15)

    def test_lambda_zero_reduces_to_bce(self):
        rng = substream("bnre0", 0)
        zj, zm = rng.standard_normal(8), rng.standard_normal(8)
        # mean binary cross-entropy in softplus form: softplus(-z) for label
        # 1 (joint), softplus(z) for label 0 (marginal)
        bce = np.mean([math.log1p(math.exp(-z)) for z in zj]
                      + [math.log1p(math.exp(z)) for z in zm])
        assert bnre_loss(zj, zm, 0.0)[0] == pytest.approx(bce, abs=1e-15)

    def test_returns_the_balance_statistic_of_the_sigmoids(self):
        rng = substream("bnre-balance", 0)
        for n in (1, 7, 4095):
            zj, zm = 3.0 * rng.standard_normal(n), 3.0 * rng.standard_normal(4 * n)
            _, b = bnre_loss(zj, zm, 100.0)
            assert np.float64(b).tobytes() == np.float64(
                balance_statistic(expit(zj), expit(zm))).tobytes()

    def test_balanced_batch_pays_no_penalty(self):
        loss, b = bnre_loss(np.zeros(4), np.zeros(4), 123.0)
        assert b == 1.0
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_penalty_arithmetic(self):
        # joint probs mean 0.7, marginal mean 0.2: penalty = 100 * (0.9 - 1)^2 = 1
        from scipy.special import logit as logit_fn
        zj = logit_fn(np.array([0.7, 0.7]))
        zm = logit_fn(np.array([0.2, 0.2]))
        expected_pen = 100.0 * (0.9 - 1.0) ** 2
        assert bnre_loss(zj, zm, 100.0)[0] - bnre_loss(zj, zm, 0.0)[0] == pytest.approx(
            expected_pen, abs=1e-12)

    def test_penalty_gradient_vanishes_on_balanced_batch(self):
        # symmetric logits give B = 1 exactly, so lambda cannot change gradients;
        # an identity linear net makes the logits equal to the features
        rng = substream("pgrad", 0)
        z_vals = rng.standard_normal(6)
        net = ClassifierNet([np.array([[1.0]])], [np.array([0.0])])
        grads = {lam: bnre_loss_grads(net, z_vals[:, None], -z_vals[:, None], lam)[1]
                 for lam in (0.0, 100.0)}
        for g0, g100 in zip(grads[0.0], grads[100.0]):
            np.testing.assert_allclose(g0, g100, atol=1e-15)


def _tape_loss_grads(net, feats_j, feats_m, lam):
    """Reference: the balanced loss and its gradients from the reverse-mode tape."""
    tape = Tape()
    pvars = [leaf(p, tape=tape, requires_grad=True) for p in net.parameters()]
    nw = len(net.weights)
    loss = bnre_loss_var(forward_on_tape(feats_j, pvars[:nw], pvars[nw:]),
                         forward_on_tape(feats_m, pvars[:nw], pvars[nw:]), lam)
    backward(tape, loss)
    return float(loss.value), [v.grad for v in pvars]


class TestFusedGradient:
    """bnre_loss_grads, which train runs, against the tape's gradients."""

    @pytest.mark.parametrize("lam", [0.0, 100.0])
    @pytest.mark.parametrize("n", [128, 5])  # a full half-batch and a short tail chunk
    def test_matches_tape(self, lam, n):
        for trial in range(5):
            rng = substream("fused-vs-tape", trial, n)
            hidden = [int(rng.integers(4, 65)) for _ in range(int(rng.integers(1, 4)))]
            net = random_net(rng, [int(rng.integers(2, 7))] + hidden + [1])
            feats_j = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
            feats_m = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
            loss, grads = bnre_loss_grads(net, feats_j, feats_m, lam)
            ref_loss, ref_grads = _tape_loss_grads(net, feats_j, feats_m, lam)
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            assert [g.shape for g in grads] == [p.shape for p in net.parameters()]
            for g, ref in zip(grads, ref_grads):
                # relative to the largest entry of each parameter's gradient
                assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("lam", [0.0, 100.0])
    @pytest.mark.parametrize("n", [128, 77])  # a full half-batch and a 2^13 dataset's tail chunk
    def test_float32_step_matches_float64(self, lam, n):
        # 64 eps of forward and backward rounding, plus the penalty
        # coefficient 2 lambda (B - 1), whose B carries about one eps of
        # rounding; 60 random nets measured at most 9e-7 at lambda 0 and
        # 8.2e-6 at lambda 100, against bounds of 7.6e-6 and 3.2e-5
        bound = np.finfo(np.float32).eps * (64 + 2 * lam)
        for trial in range(5):
            rng = substream("float32-step", trial, n)
            net = random_net(rng, [int(rng.integers(2, 7)), 64, 64, 64, 1])
            feats_j = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
            feats_m = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
            ref = StepBuffers(net, 2 * n)
            ref_loss, _ = bnre_loss_grads(net, feats_j, feats_m, lam, ref)
            net32 = _cast(net, np.float32)
            buffers = StepBuffers(net32, 2 * n)
            loss, _ = bnre_loss_grads(net32, feats_j, feats_m, lam, buffers)
            assert buffers.grad.dtype == np.float32
            assert abs(loss - ref_loss) <= bound * abs(ref_loss)
            # relative to the largest entry of the flat gradient Adam receives
            assert (np.max(np.abs(buffers.grad - ref.grad))
                    <= bound * np.max(np.abs(ref.grad)))


class TestStepBuffers:
    """bnre_loss_grads on buffers made once, as train calls it."""

    @staticmethod
    def _as_bytes(loss, grads):
        return [np.float64(loss).tobytes()] + [g.tobytes() for g in grads]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("lam", [0.0, 100.0])
    def test_buffered_calls_are_bitwise_equal_to_fresh_buffers(self, lam, dtype):
        rng = substream("step-buffers", int(lam))
        net = _cast(random_net(rng, [5, 64, 32, 48, 1]), dtype)
        buffers = StepBuffers(net, 256)
        assert buffers.rows.dtype == buffers.grad.dtype == dtype
        for n in (128, 77, 128):  # a tail chunk between two full half-batches
            feats_j = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
            feats_m = rng.uniform(-2.0, 2.0, size=(n, net.input_dim))
            fresh = self._as_bytes(*bnre_loss_grads(net, feats_j, feats_m, lam))
            loss, grads = bnre_loss_grads(net, feats_j, feats_m, lam, buffers)
            assert self._as_bytes(loss, grads) == fresh
            assert all(np.shares_memory(g, buffers.grad) for g in grads)
            # inputs gathered into the buffer's own rows, as in train
            buffers.rows[:n], buffers.rows[n:2 * n] = feats_j, feats_m
            in_place = bnre_loss_grads(net, buffers.rows[:n], buffers.rows[n:2 * n], lam,
                                       buffers)
            assert self._as_bytes(*in_place) == fresh

    @pytest.mark.parametrize("rows", [2, 77, 256])
    def test_step_leaves_the_logits_of_its_stacked_rows(self, rows):
        rng = substream("step-logits", rows)
        net = random_net(rng, [5, 64, 32, 48, 1])
        buffers = StepBuffers(net, 256)
        feats = rng.uniform(-2.0, 2.0, size=(rows, net.input_dim))
        with nets.one_blas_thread():  # as in train
            bnre_loss_grads(net, feats[:rows // 2], feats[rows // 2:], 100.0, buffers)
        assert buffers.z[:rows].tobytes() == net.logits(feats).tobytes()

    def test_too_small_buffers_rejected(self):
        net = random_net(substream("small-buffers", 0), [3, 8, 1])
        feats = np.zeros((5, 3))
        with pytest.raises(ValueError, match="rows"):
            bnre_loss_grads(net, feats, feats, 1.0, StepBuffers(net, 8))


class TestTabularOptimum:
    """NRE and BNRE share the cross-entropy optimum on exact discrete joints."""

    @pytest.mark.parametrize("lam", [0.0, 100.0])
    def test_tabular_classifier_converges_to_bayes_optimal(self, lam):
        toy = DiscreteToy(substream("tab", 3).gamma(1.0, size=(6, 6)))
        pj = toy.joint
        pm = toy.product
        z = np.zeros(pj.shape)
        state = OptimizerState.for_params(z, lr=0.1)
        for _ in range(4000):
            tape = Tape()
            zv = leaf(z, tape=tape, requires_grad=True)
            bce = autodiff.add(
                autodiff.sum_all(autodiff.mul(leaf(pj), autodiff.softplus(autodiff.neg(zv)))),
                autodiff.sum_all(autodiff.mul(leaf(pm), autodiff.softplus(zv))))
            if lam > 0:
                b = autodiff.sum_all(autodiff.mul(leaf(pj + pm), autodiff.sigmoid(zv)))
                loss = autodiff.add(bce, autodiff.scale(
                    autodiff.square(autodiff.add_const(b, -1.0)), lam))
            else:
                loss = bce
            backward(tape, loss)
            adam_step(z, zv.grad, state)
        assert np.max(np.abs(expit(z) - toy.bayes_optimal)) <= 1e-3


def test_lr_drop_epochs_are_the_epochs_that_ran_at_a_lower_rate():
    history = TrainHistory(lr=[1e-3, 1e-3, 1e-4, 1e-4, 1e-4, 1e-5])
    assert history.lr_drop_epochs == [2, 5]
    assert TrainHistory(lr=[1e-3]).lr_drop_epochs == []


class TestTrainConfig:
    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=255)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=-1.0)

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda"):
            TrainConfig(lam=float("nan"))

    def test_validation_fraction_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=1.0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", -1e-3), ("learning_rate", 0.0), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("hidden_layers", -1), ("hidden_units", 0)])
    def test_out_of_range_net_and_rate_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_linear_classifier_accepted(self):
        TrainConfig(hidden_layers=0, hidden_units=1)


@pytest.fixture(scope="module")
def tractable():
    return get_benchmark("tractable1d")


@pytest.fixture(scope="module")
def dataset_2_13(tractable):
    return generate_dataset(tractable, 2 ** 13, seed=0)


class TestTraining:
    def test_nre_beats_chance_at_2_13(self, tractable, dataset_2_13):
        config = TrainConfig(lam=0.0, epochs=60, seed=stable_seed("nre13"))
        net, history = train(tractable, dataset_2_13, config)
        assert min(history.val_loss) < math.log(2.0) - 0.01

    def test_bnre_is_balanced_at_2_13(self, tractable, dataset_2_13):
        config = TrainConfig(lam=100.0, epochs=60, seed=stable_seed("bnre13"))
        net, history = train(tractable, dataset_2_13, config)
        assert abs(history.balance[history.best_epoch] - 1.0) <= 0.05

    def test_huge_lambda_collapses_posterior_to_prior(self, tractable):
        dataset = generate_dataset(tractable, 2 ** 10, seed=0)
        config = TrainConfig(lam=float(2 ** 15), epochs=100, seed=stable_seed("collapse"))
        net, _ = train(tractable, dataset, config)
        test = generate_dataset(tractable, 20, seed=1, namespace="test")
        prior_grid = tractable_posterior_grid(tractable, np.array([0.0]))
        prior_grid.densities[:] = 0.1
        for x in test.x:
            approx = posterior_grid(net, tractable, x)
            assert total_variation(approx, prior_grid) <= 0.1

    def test_history_length_and_split_are_recorded(self, tractable):
        dataset = generate_dataset(tractable, 512, seed=2)
        config = TrainConfig(epochs=5, batch_size=64, seed=1)
        net, history = train(tractable, dataset, config)
        assert len(history) == 5
        assert len(history.lr) == len(history.balance) == 5
        train_set = set(history.train_indices.tolist())
        val_set = set(history.val_indices.tolist())
        assert not train_set & val_set
        assert train_set | val_set == set(range(512))
        assert len(val_set) == round(0.1 * 512)

    def test_identical_configs_give_bitwise_identical_nets(self, tractable):
        dataset = generate_dataset(tractable, 256, seed=3)
        config = TrainConfig(epochs=3, batch_size=32, seed=42, hidden_units=16)
        net_a, hist_a = train(tractable, dataset, config)
        net_b, hist_b = train(tractable, dataset, config)
        for pa, pb in zip(net_a.parameters(), net_b.parameters()):
            assert np.array_equal(pa, pb)
        assert hist_a.val_loss == hist_b.val_loss

    def test_training_steps_run_on_one_blas_thread(self, tractable, monkeypatch):
        setter = nets._blas_threads_setter()
        if setter is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        seen = []
        grads = training.bnre_loss_grads

        def recording(*args):
            previous = setter(1)
            setter(previous)
            seen.append(previous)
            return grads(*args)

        monkeypatch.setattr(training, "bnre_loss_grads", recording)
        original = setter(2)
        try:
            train(tractable, generate_dataset(tractable, 256, seed=6),
                  TrainConfig(epochs=2, batch_size=32))
            assert setter(2) == 2  # the caller's setting is back
        finally:
            setter(original)
        assert seen and set(seen) == {1}

    def test_steps_run_in_float32_and_return_float64_weights(self, tractable, monkeypatch):
        grads, seen = training.bnre_loss_grads, []

        def recording(net, feats_j, feats_m, lam, buffers):
            seen.append((net.weights[0].dtype, feats_j.dtype, feats_m.dtype,
                         buffers.grad.dtype))
            return grads(net, feats_j, feats_m, lam, buffers)

        monkeypatch.setattr(training, "bnre_loss_grads", recording)
        net, _ = train(tractable, generate_dataset(tractable, 256, seed=7),
                       TrainConfig(epochs=2, batch_size=32))
        assert seen and set(seen) == {(np.dtype(np.float32),) * 4}
        assert all(p.dtype == np.float64 for p in net.parameters())

    def test_each_epoch_validates_with_one_loss_call_and_two_forwards(self, tractable,
                                                                       monkeypatch):
        # the benchmark's tracer counts epochs from bnre_loss and times every
        # logits call under train as validation, so the steps must call neither
        calls = []
        for owner, name in ((training, "bnre_loss"), (training, "balance_statistic"),
                            (ClassifierNet, "logits")):
            def counting(*args, _fn=getattr(owner, name), _name=name):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(owner, name, counting)
        _, history = train(tractable, generate_dataset(tractable, 256, seed=9),
                           TrainConfig(epochs=3, batch_size=32))
        assert calls == ["logits", "logits", "bnre_loss"] * 3
        assert len(history.balance) == 3

    def test_steps_gather_joint_and_marginal_rows_into_their_buffers(self, tractable,
                                                                     monkeypatch):
        dataset = generate_dataset(tractable, 300, seed=8)
        config = TrainConfig(epochs=2, batch_size=32, seed=3)
        # train feeds the steps float32-rounded features
        f_theta = tractable.theta_features(
            dataset.theta[:, list(tractable.inference_dims)]).astype(np.float32)
        f_x = tractable.x_features(dataset.x).astype(np.float32)
        cols = f_theta.shape[1]
        grads, batches = training.bnre_loss_grads, []

        def checking(net, feats_j, feats_m, lam, buffers):
            fresh = grads(net, feats_j.copy(), feats_m.copy(), lam)
            loss, got = grads(net, feats_j, feats_m, lam, buffers)
            assert [np.float64(loss).tobytes()] + [g.tobytes() for g in got] == (
                [np.float64(fresh[0]).tobytes()] + [g.tobytes() for g in fresh[1]])
            batches.append((feats_j.copy(), feats_m.copy()))
            return loss, got

        monkeypatch.setattr(training, "bnre_loss_grads", checking)
        _, history = train(tractable, dataset, config)
        idx = history.train_indices
        per_epoch = math.ceil(len(idx) / (config.batch_size // 2))
        assert len(batches) == config.epochs * per_epoch
        assert len(batches[-1][0]) < config.batch_size // 2  # a tail chunk ran

        def rows(a):
            return sorted(map(tuple, a))

        for e in range(config.epochs):
            joint = np.concatenate([j for j, _ in batches[e * per_epoch:(e + 1) * per_epoch]])
            marg = np.concatenate([m for _, m in batches[e * per_epoch:(e + 1) * per_epoch]])
            assert rows(joint) == rows(np.concatenate([f_theta, f_x], axis=1)[idx])
            assert np.array_equal(marg[:, :cols], joint[:, :cols])
            assert rows(marg[:, cols:]) == rows(f_x[idx])
            assert not np.any(np.all(marg[:, cols:] == joint[:, cols:], axis=1))

    def test_training_steps_do_not_fault_memory_in(self):
        # A fresh process that has not imported scipy.stats keeps glibc's
        # default mmap and trim thresholds; arrays allocated and freed on
        # every step then fault their pages in again on every step. Epoch 1
        # is left out: its validation pass builds the forward's per-thread
        # buffers once per process.
        epochs, budget = 4, 2 ** 13
        out = run_fresh_python(
            "import json, resource, sys\n"
            "from bnre import training\n"
            "from bnre.simulators import generate_dataset, get_benchmark\n"
            "benchmark = get_benchmark('tractable1d')\n"
            f"dataset = generate_dataset(benchmark, {budget}, seed=0)\n"
            "faults, adam_step = [], training.adam_step\n"
            "def counting(*args):\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
            "    return adam_step(*args)\n"
            "training.adam_step = counting\n"
            f"training.train(benchmark, dataset, training.TrainConfig(epochs={epochs}))\n"
            "print(json.dumps({'faults': faults, 'scipy_stats': 'scipy.stats' in sys.modules}))")
        assert not out["scipy_stats"]
        faults = out["faults"]
        per_epoch = len(faults) // epochs
        assert len(faults) == epochs * per_epoch
        per_step = (faults[-1] - faults[per_epoch]) / (len(faults) - 1 - per_epoch)
        assert per_step <= 2.0

    def test_nan_input_aborts_with_history(self, tractable):
        dataset = generate_dataset(tractable, 256, seed=4)
        dataset.x[10, 0] = np.nan
        config = TrainConfig(epochs=3, batch_size=32, seed=0)
        with np.errstate(invalid="ignore"):  # the NaN is the point of the test
            with pytest.raises(TrainingDiverged) as excinfo:
                train(tractable, dataset, config)
        assert isinstance(excinfo.value.history.train_loss, list)

    def test_benchmark_mismatch_rejected(self, tractable):
        ds = generate_dataset(get_benchmark("weinberg"), 256, seed=0)
        with pytest.raises(ValueError, match="generated for"):
            train(tractable, ds, TrainConfig(epochs=1))

    def test_history_csv_round_trips(self, tractable, tmp_path):
        dataset = generate_dataset(tractable, 256, seed=5)
        net, history = train(tractable, dataset, TrainConfig(epochs=3, batch_size=32))
        path = tmp_path / "history.csv"
        history.to_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "epoch,train_loss,val_loss,balance_B,lr"
        assert len(rows) == 4
        first = rows[1].split(",")
        assert float(first[2]) == history.val_loss[0]
