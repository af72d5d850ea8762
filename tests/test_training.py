import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnre import autodiff, nets, training
from bnre.autodiff import Tape, backward, leaf
from bnre.diagnostics import DiscreteToy
from bnre.nets import ClassifierNet, OptimizerState, adam_step
from bnre.ratio import posterior_grid, total_variation, tractable_posterior_grid
from bnre.rng import substream, stable_seed
from bnre.simulators import generate_dataset, get_benchmark
from bnre.training import (TrainConfig, TrainingDiverged, balance_statistic,
                           bce_loss, bnre_loss, bnre_loss_grads, bnre_loss_var,
                           derangement_against, epoch_index_pairs, forward_on_tape,
                           train)

from conftest import random_net


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
        assert bce_loss(np.zeros(6), np.array([1, 1, 1, 0, 0, 0])) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_confident_correct_logit_contribution(self):
        # softplus(-20): the per-sample loss for label 1 at logit +20
        loss = bce_loss(np.array([20.0]), np.array([1.0]))
        assert loss == pytest.approx(np.logaddexp(0.0, -20.0), abs=1e-18)
        assert loss == pytest.approx(2.061e-09, rel=1e-3)

    def test_permutation_invariance(self):
        rng = substream("perm", 0)
        logits = rng.standard_normal(20)
        labels = (rng.random(20) < 0.5).astype(float)
        p = rng.permutation(20)
        assert bce_loss(logits, labels) == pytest.approx(
            bce_loss(logits[p], labels[p]), abs=1e-15)

    def test_balance_statistic_examples(self):
        assert balance_statistic([0.5] * 4, [0.5] * 4) == 1.0
        assert balance_statistic([1.0, 1.0], [0.0, 0.0]) == 1.0
        assert balance_statistic([0.8, 0.6], [0.3, 0.1]) == pytest.approx(0.9, abs=1e-15)

    def test_lambda_zero_reduces_to_bce(self):
        rng = substream("bnre0", 0)
        zj, zm = rng.standard_normal(8), rng.standard_normal(8)
        logits = np.concatenate([zj, zm])
        labels = np.concatenate([np.ones(8), np.zeros(8)])
        assert bnre_loss(zj, zm, 0.0) == pytest.approx(bce_loss(logits, labels), abs=1e-15)

    def test_balanced_batch_pays_no_penalty(self):
        assert bnre_loss(np.zeros(4), np.zeros(4), 123.0) == pytest.approx(
            math.log(2.0), abs=1e-15)

    def test_penalty_arithmetic(self):
        # joint probs mean 0.7, marginal mean 0.2: penalty = 100 * (0.9 - 1)^2 = 1
        from scipy.special import logit as logit_fn
        zj = logit_fn(np.array([0.7, 0.7]))
        zm = logit_fn(np.array([0.2, 0.2]))
        expected_pen = 100.0 * (0.9 - 1.0) ** 2
        assert bnre_loss(zj, zm, 100.0) - bnre_loss(zj, zm, 0.0) == pytest.approx(
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


class TestTabularOptimum:
    """NRE and BNRE share the cross-entropy optimum on exact discrete joints."""

    @pytest.mark.parametrize("lam", [0.0, 100.0])
    def test_tabular_classifier_converges_to_bayes_optimal(self, lam):
        toy = DiscreteToy.random(substream("tab", 3), shape=(6, 6))
        pj = toy.joint
        pm = toy.product
        z = np.zeros(pj.shape)
        state = OptimizerState.for_params([z], lr=0.1)
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
            adam_step([z], [zv.grad], state)
        from scipy.special import expit
        assert np.max(np.abs(expit(z) - toy.bayes_optimal)) <= 1e-3


class TestTrainConfig:
    def test_odd_batch_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=255)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=-1.0)

    def test_validation_fraction_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(validation_fraction=1.0)


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
        prior_grid = tractable_posterior_grid(tractable, np.array([0.0]), shape=(1024,))
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
