import json
import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from bnre import nets
from bnre.nets import (BLOCK_ROWS, ClassifierNet, DivergenceError, OptimizerState,
                       adam_step, load_weights, lr_schedule_update, one_blas_thread,
                       save_weights)
from bnre.training import finite_diff_check

from conftest import batch_away_from_kinks, random_net


class TestForward:
    def test_zero_net_gives_zero_logit(self):
        net = ClassifierNet([np.zeros((4, 3)), np.zeros((1, 4))],
                            [np.zeros(4), np.zeros(1)])
        assert net.logits(np.array([[1.0, -2.0, 3.0]]))[0] == 0.0

    def test_single_linear_layer(self):
        net = ClassifierNet([np.array([[2.0]])], [np.array([1.0])])
        assert net.logits(np.array([[3.0]]))[0] == 7.0

    def test_forward_is_deterministic_bitwise(self):
        rng = np.random.default_rng(0)
        net = random_net(rng, [5, 16, 16, 1])
        x = rng.standard_normal((1, 5))
        assert net.logits(x)[0] == net.logits(x)[0]

    def test_dimension_mismatch_rejected(self):
        net = random_net(np.random.default_rng(0), [3, 8, 1])
        with pytest.raises(ValueError):
            net.logits(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            net.logits(np.zeros((2, 5)))

    def test_incompatible_layer_shapes_rejected(self):
        with pytest.raises(ValueError, match="output dim"):
            ClassifierNet([np.zeros((4, 3)), np.zeros((1, 5))],
                          [np.zeros(4), np.zeros(1)])

    def test_logit_matches_hand_forward_and_batch(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [4, 8, 1])
        x = rng.standard_normal(4)
        hidden = np.maximum(net.weights[0] @ x + net.biases[0], 0.0)
        expected = float((net.weights[1] @ hidden + net.biases[1])[0])
        assert net.logits(x[None, :])[0] == pytest.approx(expected, rel=1e-14)
        assert net.logits(np.stack([x, -x]))[0] == pytest.approx(expected, rel=1e-14)

    def test_initialize_starts_at_uninformative_classifier(self):
        net = ClassifierNet.initialize(6, 3, 32, np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((10, 6))
        assert np.all(net.logits(x) == 0.0)


def naive_logits(net, x):
    """Forward with a fresh array per operation, as a reference for the workspace.

    It runs on one BLAS thread: with more, OpenBLAS splits a product's rows
    between threads and rounds the rows at the seams differently.
    """
    with one_blas_thread():
        h = x
        for w, b in zip(net.weights[:-1], net.biases[:-1]):
            h = np.maximum(h @ w.T + b, 0.0)
        return (h @ net.weights[-1].T + net.biases[-1]).reshape(-1)


class TestForwardWorkspace:
    def test_bitwise_equal_to_naive_forward_over_interleaved_row_counts(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, [7, 64, 32, 48, 1])  # unequal widths share the buffers
        counts = (1, 3, 1023, 1024, 1025, 16384, 16385, 3)
        inputs = [rng.uniform(-1.0, 1.0, size=(n, 7)) for n in counts]
        expected = [naive_logits(net, x) for x in inputs]
        for x, ref in zip(inputs, expected):
            assert np.array_equal(net.logits(x), ref), len(x)

    def test_returned_logits_and_input_survive_later_calls(self):
        rng = np.random.default_rng(8)
        net = random_net(rng, [4, 16, 16, 1])
        x = rng.standard_normal((50, 4))
        x_kept = x.copy()
        first = net.logits(x)
        kept = first.copy()
        net.logits(rng.standard_normal((50, 4)))
        net.logits(rng.standard_normal((200, 4)))
        assert np.array_equal(first, kept)
        assert np.array_equal(x, x_kept)

    def test_buffers_are_reused_while_the_row_count_stays_the_same(self):
        # the buffers belong to the thread and hold one block of any net
        rng = np.random.default_rng(10)
        net = random_net(rng, [3, 8, 8, 1])
        net.logits(rng.standard_normal((30, 3)))
        kept = nets._BUFFERS.pair
        assert kept[0].size >= BLOCK_ROWS * 8
        for n in (30, 20, 3 * BLOCK_ROWS + 5):
            net.logits(rng.standard_normal((n, 3)))
            assert nets._BUFFERS.pair is kept
        other = []
        thread = threading.Thread(target=lambda: (net.logits(np.ones((5, 3))),
                                                  other.append(nets._BUFFERS.pair)))
        thread.start()
        thread.join()
        assert other[0] is not kept and other[0][0].size == BLOCK_ROWS * 8
        wide = random_net(rng, [3, 8 * BLOCK_ROWS // 256, 1])
        wide.logits(rng.standard_normal((30, 3)))
        assert nets._BUFFERS.pair[0].size >= BLOCK_ROWS * wide.weights[0].shape[0]


class TestForwardThreads:
    def test_threads_sharing_one_net_get_the_serial_bits(self):
        # more callers than cores, switching often, all on one net
        rng = np.random.default_rng(11)
        net = random_net(rng, [5, 64, 64, 64, 1])
        inputs = [rng.standard_normal((n, 5)) for n in (5000, 16384, 700, 2049)]
        expected = [naive_logits(net, x) for x in inputs]
        start = threading.Barrier(4)
        results = {}

        def evaluate(name):
            start.wait()
            results[name] = [net.logits(x) for _ in range(3) for x in inputs]

        threads = [threading.Thread(target=evaluate, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4
        for got in results.values():
            assert all(np.array_equal(a, b) for a, b in zip(got, expected * 3))

    def test_pinning_restores_the_callers_blas_threads(self):
        setter = nets._blas_threads_setter()
        if setter is None:
            pytest.skip("numpy's BLAS is not OpenBLAS")
        net = random_net(np.random.default_rng(12), [3, 16, 1])
        original = setter(2)
        try:
            net.logits(np.ones((3000, 3)))
            assert setter(2) == 2
            with one_blas_thread():
                assert setter(1) == 1
            assert setter(2) == 2
        finally:
            setter(original)

    def test_large_matmul_in_a_pinned_scope_runs_on_one_core(self):
        # pinning scipy's OpenBLAS copy instead of numpy's leaves this at ~2
        if nets._blas_threads_setter() is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs OpenBLAS and two usable CPUs")
        a = np.random.default_rng(15).standard_normal((1000, 1000))
        with one_blas_thread():
            time.sleep(0.3)  # OpenBLAS's idle threads spin a while after a call
            cpu, wall = time.process_time(), time.perf_counter()
            for _ in range(5):
                a @ a
            ratio = (time.process_time() - cpu) / (time.perf_counter() - wall)
        assert ratio <= 1.3


class TestAdam:
    def _params_and_state(self, seed=0):
        # one flat vector holding a net's parameters, as train passes it
        net = random_net(np.random.default_rng(seed), [3, 8, 1])
        params = np.concatenate([p.ravel() for p in net.parameters()])
        return params, OptimizerState.for_params(params, lr=1e-3)

    def test_zero_gradients_leave_parameters_unchanged(self):
        params, state = self._params_and_state()
        before = params.copy()
        adam_step(params, np.zeros_like(params), state)
        assert state.step_count == 1
        assert np.array_equal(before, params)

    def test_first_step_moves_by_lr_times_sign(self):
        params, state = self._params_and_state()
        before = params.copy()
        grads = np.random.default_rng(7).standard_normal(params.shape)
        adam_step(params, grads, state)
        expected = -state.lr * np.sign(grads) * np.abs(grads) / (np.abs(grads) + 1e-8)
        np.testing.assert_allclose(params - before, expected, rtol=1e-12)

    def test_identical_runs_are_bitwise_identical(self):
        results = []
        for _ in range(2):
            params, state = self._params_and_state(seed=3)
            rng = np.random.default_rng(11)
            for _ in range(25):
                adam_step(params, rng.standard_normal(params.shape), state)
            results.append(params.copy())
        assert np.array_equal(results[0], results[1])

    def test_in_place_update_is_bitwise_equal_to_the_formula(self):
        def reference_step(p, g, m, v, t, lr):
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            m *= 0.9
            m += (1.0 - 0.9) * g
            v *= 0.999
            v += (1.0 - 0.999) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)

        # parameters start at zero, so the low bits of each update show in them
        params = np.zeros(33)
        state = OptimizerState.for_params(params, lr=1e-3)
        ref, ref_m, ref_v = np.zeros(33), np.zeros(33), np.zeros(33)
        rng = np.random.default_rng(13)
        for t in range(1, 41):
            grads = rng.standard_normal(33) * 10.0 ** rng.integers(-6, 3, size=33)
            if t == 20:
                state.lr /= 10.0
            adam_step(params, grads, state)
            reference_step(ref, grads, ref_m, ref_v, t, state.lr)
        for got, want in ((params, ref), (state.m, ref_m), (state.v, ref_v)):
            assert got.tobytes() == want.tobytes()

    def test_gradient_of_another_shape_rejected(self):
        params, state = self._params_and_state()
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, np.zeros(params.size - 1), state)
        assert state.step_count == 0

    def test_nan_gradient_aborts(self):
        params, state = self._params_and_state()
        grads = np.zeros_like(params)
        grads[0] = np.nan
        with pytest.raises(DivergenceError):
            adam_step(params, grads, state)

    def test_overflowing_parameter_aborts(self):
        params, state = self._params_and_state()
        # the first step moves each parameter by about lr, so this one overflows
        state.lr = params[0] = np.finfo(np.float64).max
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="parameter"):
            adam_step(params, -np.ones_like(params), state)

    def test_second_moments_stay_nonnegative(self):
        params, state = self._params_and_state()
        rng = np.random.default_rng(2)
        for _ in range(50):
            adam_step(params, rng.standard_normal(params.shape), state)
        assert np.all(state.v >= 0.0)


class TestLrSchedule:
    def test_strictly_decreasing_losses_keep_lr(self):
        state = OptimizerState.for_params(np.zeros(0), lr=1e-3)
        for e in range(50):
            lr_schedule_update(state, 1.0 - 0.01 * e)
        assert state.lr == 1e-3

    def test_ten_flat_epochs_divide_once(self):
        state = OptimizerState.for_params(np.zeros(0), lr=1e-3)
        lr_schedule_update(state, 0.5)
        for _ in range(10):
            lr_schedule_update(state, 0.5)
        assert state.lr == 1e-3 / 10.0
        assert state.plateau_count == 0

    def test_twenty_flat_epochs_divide_twice(self):
        state = OptimizerState.for_params(np.zeros(0), lr=1e-3)
        lr_schedule_update(state, 0.5)
        for _ in range(20):
            lr_schedule_update(state, 0.5)
        assert state.lr == 1e-3 / 10.0 / 10.0

    def test_lr_reconstructable_from_loss_sequence(self):
        # k completed 10-epoch plateaus  =>  lr = initial / 10^k (same division chain)
        rng = np.random.default_rng(4)
        losses = list(np.round(rng.uniform(0.3, 1.0, size=120), 3))
        state = OptimizerState.for_params(np.zeros(0), lr=1e-3)
        expected_lr, best, stall = 1e-3, math.inf, 0
        for loss in losses:
            # the returned flag is what train keeps its best weights on
            assert lr_schedule_update(state, loss) == (loss < best)
            if loss < best:
                best, stall = loss, 0
            else:
                stall += 1
                if stall == 10:
                    expected_lr /= 10.0
                    stall = 0
        assert state.lr == expected_lr


class TestFiniteDiff:
    """The closed-form training gradient against central differences."""

    def test_linear_net_bnre_gradients(self):
        rng = np.random.default_rng(0)
        net = ClassifierNet([rng.standard_normal((1, 3))], [rng.standard_normal(1)])
        xj, xm = rng.standard_normal((8, 3)), rng.standard_normal((8, 3))
        assert finite_diff_check(net, xj, xm, 100.0, eps=1e-5) <= 1e-7

    def test_relu_net_away_from_kinks(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, [3, 16, 16, 1])
        xj = batch_away_from_kinks(net, rng, 12)
        xm = batch_away_from_kinks(net, rng, 12)
        assert finite_diff_check(net, xj, xm, 0.0, eps=1e-5) <= 1e-4

    def test_bnre_loss_gradients(self):
        rng = np.random.default_rng(2)
        net = random_net(rng, [4, 12, 12, 1])
        xj = batch_away_from_kinks(net, rng, 8)
        xm = batch_away_from_kinks(net, rng, 8)
        assert finite_diff_check(net, xj, xm, 100.0, eps=1e-5) <= 1e-4

    def test_zero_eps_rejected(self):
        net = random_net(np.random.default_rng(0), [2, 4, 1])
        with pytest.raises(ValueError):
            finite_diff_check(net, np.zeros((2, 2)), np.zeros((2, 2)), 100.0, eps=0.0)


class TestWeightPersistence:
    def test_round_trip_is_value_identical(self, tmp_path):
        net = random_net(np.random.default_rng(8), [5, 16, 16, 1])
        path = tmp_path / "weights.json"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.layer_shapes == net.layer_shapes
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    def test_resave_is_byte_identical(self, tmp_path):
        net = random_net(np.random.default_rng(9), [3, 8, 1])
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_weights(net, p1)
        save_weights(load_weights(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ValueError, match="bnre-weights"):
            load_weights(path)

    def test_version_bump_names_expected_version(self, tmp_path):
        net = random_net(np.random.default_rng(10), [2, 4, 1])
        path = tmp_path / "weights.json"
        save_weights(net, path)
        doc = json.loads(path.read_text())
        doc["version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="expected 1"):
            load_weights(path)

    def test_payload_shape_mismatch_rejected(self, tmp_path):
        net = random_net(np.random.default_rng(11), [2, 4, 1])
        path = tmp_path / "weights.json"
        save_weights(net, path)
        doc = json.loads(path.read_text())
        doc["weights"] = doc["weights"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="payload"):
            load_weights(path)

    def test_activation_other_than_relu_rejected(self, tmp_path):
        net = random_net(np.random.default_rng(12), [2, 4, 1])
        path = tmp_path / "weights.json"
        save_weights(net, path)
        doc = json.loads(path.read_text())
        assert doc["activation"] == "relu"
        doc["activation"] = "tanh"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported activation: 'tanh'"):
            load_weights(path)
