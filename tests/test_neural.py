import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midistill import neural
from midistill.dataset import split
from midistill.errors import ConfigError, DivergenceDetected, TrainingError
from midistill.neural import (
    GATE_STEP,
    ae_encode,
    ae_new,
    ae_train,
    gate_predict,
    gate_train,
    mlp_new,
    mlp_predict,
    mlp_train,
)

from conftest import make_dataset, planted_dataset
from oracles import (
    _reference_loss,
    reference_forward,
    reference_gate_train,
    reference_hinge_loss_and_grads,
    reference_sgd_train,
)


def finite_diff_param_grads(loss_fn, weights, biases, h=1e-5):
    """Central finite differences of loss_fn() over every entry of the
    ``weights`` and ``biases`` arrays, which loss_fn() reads."""
    dWs, dbs = [], []
    for arrs, grads in ((weights, dWs), (biases, dbs)):
        for arr in arrs:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                lp = loss_fn()
                arr[idx] = old - h
                lm = loss_fn()
                arr[idx] = old
                g[idx] = (lp - lm) / (2 * h)
            grads.append(g)
    return dWs, dbs


def loss_and_grads(model, X, target, loss_kind):
    """(loss, dWs, dbs) at ``model``'s parameters, which criterion 8
    differentiates.  For "hinge", where ``model`` is the gate ``(w, b)``,
    the loss is the formula's (``reference_hinge_loss_and_grads``; the
    package computes none) and the gradient that of one epoch of the gate's
    ``_GateStep`` on the feature-major ``X.T``.  Else both come from one
    backward pass of the SGD step, on ``X`` as one batch, with the loss
    ``model``'s kind picks: against ``target``, 0/1 labels, for an MLP's
    "bce", against ``X`` itself for an autoencoder's "mse"."""
    if loss_kind == "hinge":
        dw, db = neural._GateStep(X.T, target)(*model)
        return reference_hinge_loss_and_grads(model, X, target)[0], [dw], [np.array([db])]
    step = neural._SGDStep(model)
    loss = step.backward(np.asarray(X, dtype=np.float64),
                         np.asarray(target, dtype=np.float64).reshape(len(X), -1))
    return loss, step.dW, step.db


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-6)
        assert np.max(np.abs(a - n) / denom) < rtol


class TestGate:
    def separable(self, n=60):
        x = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
        y = (x > 0.5).astype(int)
        return make_dataset({"x": x}, y)

    def test_separable_perfect_accuracy(self):
        data = self.separable()
        gate = gate_train(data.X.T, data.labels)
        preds = gate_predict(gate, data.X)
        assert np.mean(preds == data.labels) == 1.0

    def test_a_row_on_the_boundary_is_class_1(self):
        # the class is X @ w + b >= 0: a score of exactly 0 is class 1
        X = np.array([[0.5, 0.5], [0.5, 0.25], [0.25, 0.5]])
        gate = np.array([1.0, -1.0]), np.array([0.0])
        np.testing.assert_array_equal(gate_predict(gate, X), [1, 1, 0])

    @pytest.mark.parametrize("labels", [[1, 1, 1], [0, 0, 0], []])
    def test_single_class_error(self, labels):
        A = np.arange(len(labels), dtype=float)[None, :]
        with pytest.raises(TrainingError, match="^gate training needs both classes$"):
            gate_train(A, np.array(labels, dtype=np.int64))

    def test_random_labels_near_majority_rate(self):
        rng = np.random.default_rng(0)
        data = make_dataset({"x": rng.random(600)}, rng.integers(0, 2, 600))
        gate = gate_train(data.X.T, data.labels)
        acc = np.mean(gate_predict(gate, data.X) == data.labels)
        majority = max(np.mean(data.labels), 1 - np.mean(data.labels))
        assert abs(acc - majority) < 0.05 or acc > majority

    def test_duplicated_column_splits_weight_symmetrically(self, rng):
        x = rng.random(200)
        y = (x > 0.5).astype(int)
        single = make_dataset({"x": x}, y)
        double = make_dataset({"x": x, "x2": x}, y)
        # identical columns receive identical gradients at every step, so
        # their weights stay equal and the predicted classes agree with the
        # single-column model (decision values differ: duplicates double the
        # effective step along that direction)
        gd = gate_train(double.X.T, y)
        assert gd[0][0] == pytest.approx(gd[0][1], abs=1e-12)
        p1 = gate_predict(gate_train(single.X.T, y), single.X)
        p2 = gate_predict(gd, double.X)
        assert np.mean(p1 == p2) > 0.95  # disagreement confined to the margin
        assert np.mean(p2 == y) > 0.9

    def test_hinge_gradient_check(self, rng):
        data = make_dataset({"a": rng.random(16), "b": rng.random(16)},
                            rng.integers(0, 2, 16).tolist())
        gate = gate_train(data.X.T, data.labels, epochs=3)
        _, dWs, dbs = loss_and_grads(gate, data.X, data.labels, "hinge")
        fdW, fdb = finite_diff_param_grads(
            lambda: loss_and_grads(gate, data.X, data.labels, "hinge")[0], [gate[0]], [gate[1]])
        assert_grads_close(dWs, fdW)
        assert_grads_close(dbs, fdb)


class TestGateMatchesReference:
    """gate_train against the original loop of ``tests/oracles.py``.  The
    products sum in another order, so weights agree to rounding, not bits.
    The tables are continuous: on integer-coded values a margin can land
    exactly on 0, where a different rounding may legitimately flip one
    hinge."""

    @staticmethod
    def table(f, seed, n=400):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, f)) * rng.uniform(0.5, 3.0, f) + rng.uniform(-1.0, 1.0, f)
        y = (X @ rng.normal(size=f) + 0.5 * rng.normal(size=n) > 0).astype(int)
        return make_dataset({f"f{i}": X[:, i] for i in range(f)}, y)

    def assert_same_gate(self, data, **kwargs):
        gate = gate_train(data.X.T, data.labels, **kwargs)
        ref = reference_gate_train(data, **kwargs)
        (w, b), (ref_w, ref_b) = gate, ref
        assert w.shape == ref_w.shape == (data.n_features,)
        assert b.shape == ref_b.shape == (1,)
        assert w.dtype == b.dtype == np.float64
        np.testing.assert_array_equal(gate_predict(gate, data.X), gate_predict(ref, data.X))
        np.testing.assert_allclose(w, ref_w, rtol=1e-9)
        np.testing.assert_allclose(b, ref_b, rtol=1e-9)

    @pytest.mark.parametrize("epochs", [1, 3, 200])
    @pytest.mark.parametrize("f", [1, 2, 8])
    def test_continuous_table(self, f, epochs):
        self.assert_same_gate(self.table(f, seed=f), epochs=epochs)

    def test_duplicated_column(self):
        data = self.table(3, seed=7)
        X = np.column_stack([data.X, data.X[:, 1]])
        self.assert_same_gate(make_dataset({f"f{i}": X[:, i] for i in range(4)},
                                           data.labels))

    def test_planted_table(self):
        self.assert_same_gate(planted_dataset(6, 2, 600, seed=5))

    def test_noisy_table_flips_rows_late(self):
        # a fifth of the labels flipped: rows still cross the hinge after
        # epoch 100, so the gradient is corrected, not summed, to the end
        data = self.table(12, seed=12, n=5000)
        labels = data.labels.copy()
        noisy = np.random.default_rng(12).choice(5000, 1000, replace=False)
        labels[noisy] = 1 - labels[noisy]
        data = make_dataset({f"f{i}": data.X[:, i] for i in range(12)}, labels)
        step = neural._GateStep(data.X.T, labels)
        w, b, late = np.zeros(12), np.zeros(1), 0
        for epoch in range(200):
            dw, db = step(w, b)
            w, b = w - GATE_STEP * dw, b - GATE_STEP * db
            late += epoch > 100 and int(np.count_nonzero(step.flip))
        assert late > 0
        self.assert_same_gate(data)

    @pytest.mark.parametrize("w, b", [([0.5, -1.25], [0.25]), ([0.5, 0.0], [0.5])],
                             ids=["off_the_hinge", "on_the_hinge"])
    def test_loss_and_grads_equal_the_formula(self, w, b):
        # dyadic values, so both orders of summation are exact; at the
        # second weights row 0 lies on the hinge (t * s exactly 1), where
        # the formula takes the row as inactive.  The package computes no
        # loss, so only the gradients are compared.
        X = np.array([[1.0, 0.5], [0.0, -2.0], [-1.5, 1.0], [2.0, 0.25]])
        labels = np.array([1, 0, 0, 1])
        gate = np.array(w), np.array(b)
        _, dWs, dbs = loss_and_grads(gate, X, labels, "hinge")
        _, ref_dw, ref_db = reference_hinge_loss_and_grads(gate, X, labels)
        assert dWs[0].tobytes() == ref_dw.tobytes()
        assert dbs[0].tobytes() == ref_db.tobytes()

    def test_single_class(self):
        data = make_dataset({"x": [0.1, 0.5, 0.9]}, [0, 0, 0])
        for train in (lambda d: gate_train(d.X.T, d.labels), reference_gate_train):
            with pytest.raises(TrainingError, match="^gate training needs both classes$"):
                train(data)

    def test_divergence_at_the_same_epoch(self):
        data = self.table(3, seed=11)
        X = data.X * np.array([1.0, 1e200, 1.0])
        data = make_dataset({f"f{i}": X[:, i] for i in range(3)}, data.labels)
        epochs = []
        for train in (lambda d: gate_train(d.X.T, d.labels), reference_gate_train):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceDetected) as exc:
                    train(data)
            epochs.append(exc.value.epoch)
        assert epochs[0] == epochs[1] > 0

    def test_an_infinite_margin_on_its_labels_side_raises_only_here(self):
        # where one row's margin decides the checks apart: after epoch 0
        # every positive row's forward sum is +inf, on its label's side, so
        # its hinge is 0 and the formula's loss stays finite, but the
        # margins' sum is not
        x = np.array([1e155] * 20 + [0.0] * 20)
        data = make_dataset({"x": x}, [1] * 20 + [0] * 20)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceDetected) as exc:
                gate_train(data.X.T, data.labels)
            w, b = reference_gate_train(data)
        assert exc.value.epoch == 1
        assert np.isfinite(w).all() and np.isfinite(b).all()


class TestGateStepsAlongHingeGradient:
    """Criterion 8 checks the gradient of one call of ``_GateStep``;
    ``gate_train`` must step along exactly that gradient, bit for bit, one
    step object across the epochs."""

    @pytest.mark.parametrize("epochs", [1, 3, 200])
    @pytest.mark.parametrize("f, seed", [(1, 1), (2, 2), (8, 8), (33, 33)])
    def test_train_is_a_loop_over_the_gate_step(self, f, seed, epochs):
        data = TestGateMatchesReference.table(f, seed)
        step = neural._GateStep(data.X.T, data.labels)
        w, b = np.zeros(f), np.zeros(1)
        for _ in range(epochs):
            dw, db = step(w, b)
            w = w - GATE_STEP * dw
            b = b - GATE_STEP * db
        trained_w, trained_b = gate_train(data.X.T, data.labels, epochs=epochs)
        assert trained_w.tobytes() == w.tobytes()
        assert trained_b.tobytes() == b.tobytes()


class TestGateStepFlippedRows:
    """After its first call, ``_GateStep`` corrects the gradient by the rows
    whose hinge state flipped; at every point it must agree with a fresh
    step's full sum there."""

    @staticmethod
    def separable(f=5, n=300, seed=0):
        """Rows with |v . x| >= 0.1 and y = (v . x > 0): at ``1e3 * v`` every
        margin is below 0, at ``v = 0`` every one is 1."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1.0, 1.0, size=(4 * n, f))
        v = rng.normal(size=f)
        keep = np.abs(X @ v) >= 0.1
        X = X[keep][:n]
        return X, (X @ v > 0).astype(np.int64), v

    def test_each_call_matches_a_fresh_step(self):
        X, y, v = self.separable()
        rng = np.random.default_rng(1)
        zero = (np.zeros(len(v)), np.zeros(1))
        points = [zero, zero, (1e3 * v, np.zeros(1)), zero]  # repeat, then all flip twice
        points += [(rng.normal(size=len(v)), rng.normal(size=1)) for _ in range(20)]
        points += [(p[0] + 1e-3 * rng.normal(size=len(v)), p[1]) for p in points[-5:]]
        step = neural._GateStep(X.T, y)
        # a component the flips cancel to zero keeps a rounding residue
        atol = 1e-12 * np.abs(X).max()
        for w, b in points:
            dw, db = step(w, b)
            ref_dw, ref_db = neural._GateStep(X.T, y)(w, b)
            np.testing.assert_allclose(dw, ref_dw, rtol=1e-12, atol=atol)
            np.testing.assert_allclose(db, ref_db, rtol=1e-12, atol=atol)

    def test_every_row_flips(self):
        X, y, v = self.separable()
        step = neural._GateStep(X.T, y)
        step(np.zeros(len(v)), np.zeros(1))
        assert step.active.all()
        dw, db = step(1e3 * v, np.zeros(1))
        assert not step.active.any() and step.flip.all()
        np.testing.assert_allclose(dw, 2.0 * neural.GATE_LAMBDA * 1e3 * v, rtol=1e-12,
                                   atol=1e-12)
        assert abs(db) < 1e-12

    def test_no_flip_keeps_the_gradient_bits(self):
        data = TestGateMatchesReference.table(4, seed=4)
        step = neural._GateStep(data.X.T, data.labels)
        w, b = np.array([0.3, -0.2, 0.1, 0.05]), np.array([0.1])
        step(np.zeros(4), np.zeros(1))
        first = step(w, b)
        again = step(w, b)
        assert not step.flip.any()
        assert again[0].tobytes() == first[0].tobytes()
        assert np.float64(again[1]).tobytes() == np.float64(first[1]).tobytes()

    def test_a_call_does_not_change_the_gradient_it_returned(self):
        data = TestGateMatchesReference.table(3, seed=3)
        step = neural._GateStep(data.X.T, data.labels)
        dw, db = step(np.zeros(3), np.zeros(1))
        kept = dw.copy()
        step(np.array([5.0, -5.0, 5.0]), np.array([2.0]))
        assert dw.tobytes() == kept.tobytes()


class TestSgdMatchesReference:
    """SGD against the original loop of ``tests/oracles.py``: every
    operation and its order are the same, so weights, biases and curves
    must be equal bit for bit."""

    @staticmethod
    def tables(f, n, n_val, seed, scale=None):
        rng = np.random.default_rng(seed)
        X = rng.random((n + n_val, f))
        if scale is not None:
            X = X * scale
        data = make_dataset({f"f{i}": X[:, i] for i in range(f)},
                            rng.integers(0, 2, n + n_val))
        return data.take(np.arange(n)), data.take(np.arange(n, n + n_val))

    @staticmethod
    def models(kind, f, bottleneck, seed):
        if kind == "bce":
            return mlp_new(f, seed), mlp_new(f, seed)
        return ae_new(f, bottleneck, seed), ae_new(f, bottleneck, seed)

    @staticmethod
    def train(kind, model, learn, validation, epochs, batch):
        train = mlp_train if kind == "bce" else ae_train
        return train(model, learn, validation, epochs=epochs, batch=batch)

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["bce", "mse"]), f=st.integers(2, 12),
           bottleneck_frac=st.floats(0.0, 1.0), n=st.integers(1, 40),
           n_val=st.integers(1, 12), batch=st.integers(1, 50), epochs=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(kind="mse", f=5, bottleneck_frac=0.0, n=23, n_val=4, batch=1, epochs=2, seed=1)
    @example(kind="bce", f=3, bottleneck_frac=0.0, n=7, n_val=5, batch=10, epochs=2, seed=2)
    @example(kind="mse", f=9, bottleneck_frac=0.5, n=37, n_val=6, batch=10, epochs=3, seed=3)
    @example(kind="bce", f=4, bottleneck_frac=0.0, n=37, n_val=6, batch=10, epochs=0, seed=4)
    def test_same_bits(self, kind, f, bottleneck_frac, n, n_val, batch, epochs, seed):
        # batch 1, batch above n, a partial last batch and zero epochs are
        # pinned by the examples
        bottleneck = 1 + int(bottleneck_frac * (f - 2))
        learn, validation = self.tables(f, n, n_val, seed)
        model, ref = self.models(kind, f, bottleneck, seed % 1000)
        curve = self.train(kind, model, learn, validation, epochs, batch)
        expected = reference_sgd_train(ref, learn, validation, kind, epochs, batch, 0.05)
        assert curve.epochs == expected.epochs
        assert len(curve.epochs) == epochs
        for got, want in zip(model.weights + model.biases, ref.weights + ref.biases):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_divergence_at_the_same_epoch(self, kind):
        learn, validation = self.tables(3, 60, 20, seed=11, scale=np.array([1.0, 1e200, 1.0]))
        model, ref = self.models(kind, 3, 1, 5)
        # the suite turns warnings into errors, so the package trainer must
        # overflow silently; the reference loop warns on its way
        with pytest.raises(DivergenceDetected) as fused:
            self.train(kind, model, learn, validation, 4, 10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceDetected) as reference:
                reference_sgd_train(ref, learn, validation, kind, 4, 10, 0.05)
        assert fused.value.epoch == reference.value.epoch > 0


class TestSgdRewritesKeepTheBits:
    """The three places where ``_SGDStep`` computes what the reference loop
    computes by other operations, each on the values where the two could
    part, and the output delta each loss writes.  A NaN loss is compared as
    NaN: it only ever raises."""

    OUTPUTS = [0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0, np.nan]

    @staticmethod
    def bits(x: float):
        return "nan" if np.isnan(x) else np.float64(x).tobytes()

    @pytest.mark.parametrize("m", [1, 7, 10])
    def test_bce_loss_is_the_reference_loss(self, m):
        # every (output, label) pair, in every batch position of a size-m
        # window over their cycle
        pairs = [(o, y) for o in self.OUTPUTS for y in (0.0, 1.0)]
        for start in range(len(pairs)):
            window = [pairs[(start + k) % len(pairs)] for k in range(m)]
            out = np.array([[o] for o, _ in window])
            y = np.array([[y] for _, y in window])
            with np.errstate(invalid="ignore"):
                want, want_residual = _reference_loss(out, y[:, 0], "bce")
            # training passes a float label column, validation the int64 one
            for labels in (y, y.astype(np.int64)):
                residual, scratch = np.empty_like(out), np.empty_like(out)
                loss = neural._bce(out, None, labels, residual, scratch)
                assert self.bits(loss) == self.bits(want)
                assert residual.tobytes() == (want_residual / m).tobytes()

    @pytest.mark.parametrize("m", [1, 7, 10])
    def test_mse_loss_is_the_reference_loss(self, m):
        # every (output, input) pair, in every cell of a size-m window of
        # 3-wide rows over their cycle; 1e200 makes the squares overflow
        pairs = [(o, x) for o in self.OUTPUTS for x in (0.0, 0.3, 1.0, -2.5, 1e200)]
        for start in range(len(pairs)):
            window = [pairs[(start + k) % len(pairs)] for k in range(3 * m)]
            out = np.array([o for o, _ in window]).reshape(m, 3)
            x = np.array([x for _, x in window]).reshape(m, 3)
            delta, scratch = np.empty_like(out), np.empty_like(out)
            with np.errstate(over="ignore", invalid="ignore"):
                want, r = _reference_loss(out, x, "mse")
                # the output layer's delta in _reference_backprop
                want_delta = 2.0 * r / r.size * out * (1.0 - out)
                loss = neural._mse(out, x, None, delta, scratch)
            assert self.bits(loss) == self.bits(want)
            assert delta.tobytes() == want_delta.tobytes()

    def test_mse_scale_is_one_division(self):
        # ±0, subnormals, every binade up to DBL_MAX / 2, at an odd size
        rng = np.random.default_rng(0)
        r = np.ldexp(rng.uniform(0.5, 1.0, (7, 33)), rng.integers(-1074, 1024, (7, 33)))
        r[rng.random(r.shape) < 0.5] *= -1.0
        big = np.finfo(np.float64).max / 2
        r.flat[:10] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308,
                       -2.2250738585072e-308, big, -big, 1.0, -1.0]
        assert np.all(np.abs(r) <= big)
        assert np.divide(r, r.size / 2).tobytes() == (2.0 * r / r.size).tobytes()

    def test_relu_derivative_is_a_sign(self):
        z = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, np.inf, -np.inf])
        relu = np.maximum(z, 0.0)
        assert np.sign(relu).tobytes() == np.greater(relu, 0.0).astype(float).tobytes()


class TestValidationAfterTraining:
    """The validation set is scored once training has ended, on the
    parameters each epoch ended with: its products are large enough to wake
    BLAS worker threads, which must not spin next to the SGD steps."""

    @pytest.mark.parametrize("kind", ["bce", "mse"])
    def test_no_validation_output_before_the_last_step(self, monkeypatch, kind):
        calls = []
        backward, output = neural._SGDStep.backward, neural._output

        def record_backward(self, xb, targets):
            calls.append("backward")
            return backward(self, xb, targets)

        def record_output(model, X, n_layers=None):
            calls.append("output")
            return output(model, X, n_layers)

        monkeypatch.setattr(neural._SGDStep, "backward", record_backward)
        monkeypatch.setattr(neural, "_output", record_output)
        learn, validation = TestSgdMatchesReference.tables(5, 40, 12, seed=3)
        model, _ = TestSgdMatchesReference.models(kind, 5, 2, 3)
        curve = TestSgdMatchesReference.train(kind, model, learn, validation, 3, 10)
        # 3 epochs of 4 batches, then one validation pass per epoch
        assert calls == ["backward"] * 12 + ["output"] * 3
        assert len(curve.epochs) == 3

    def test_validation_divergence_keeps_its_epoch(self):
        # finite learn rows, so only the validation loss overflows
        learn, validation = TestSgdMatchesReference.tables(3, 60, 20, seed=11)
        X = validation.X * np.array([1.0, 1e200, 1.0])
        validation = make_dataset({f"f{i}": X[:, i] for i in range(3)}, validation.labels)
        model, ref = TestSgdMatchesReference.models("mse", 3, 1, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceDetected) as fused:
                ae_train(model, learn, validation, epochs=4, batch=10)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceDetected) as reference:
                reference_sgd_train(ref, learn, validation, "mse", 4, 10, 0.05)
        assert fused.value.epoch == reference.value.epoch == 1

    @pytest.mark.parametrize("val_scale, epoch", [(1.0, 2), (1e80, 1)])
    def test_earlier_validation_divergence_raises_first(self, val_scale, epoch):
        # one step per epoch on rows near 1e120: training diverges at epoch
        # 3, after the validation pass has overflowed, at epoch 2 on rows
        # near 1e120 and at epoch 1 on rows near 1e200
        learn, validation = TestSgdMatchesReference.tables(3, 10, 5, seed=11, scale=1e120)
        X = validation.X * val_scale
        validation = make_dataset({f"f{i}": X[:, i] for i in range(3)}, validation.labels)
        model, ref = TestSgdMatchesReference.models("bce", 3, 1, 5)
        with pytest.raises(DivergenceDetected) as fused:
            mlp_train(model, learn, validation, epochs=4, batch=10)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceDetected) as reference:
                reference_sgd_train(ref, learn, validation, "bce", 4, 10, 0.05)
        assert fused.value.epoch == reference.value.epoch == epoch


class TestMlp:
    def test_dims(self):
        assert mlp_new(11, 0).layer_dims == [11, 22, 22, 1]
        assert mlp_new(33, 0).layer_dims == [33, 66, 66, 1]
        assert mlp_new(1, 0).layer_dims == [1, 2, 2, 1]

    def test_init_range_and_determinism(self):
        a, b = mlp_new(5, 42), mlp_new(5, 42)
        for Wa, Wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(Wa, Wb)
            assert np.all(np.abs(Wa) <= 1.0 / np.sqrt(Wa.shape[0]))

    def test_train_loss_decreases_on_separable(self, rng):
        x = np.concatenate([rng.random(100) * 0.4, 0.6 + rng.random(100) * 0.4])
        y = (x > 0.5).astype(int)
        data = make_dataset({"x": x}, y)
        model = mlp_new(1, 3)
        curve = mlp_train(model, data, data, epochs=5, batch=10)
        losses = [tl for tl, _ in curve.epochs]
        assert all(losses[i + 1] < losses[i] for i in range(4))

    def test_zero_epochs_identity(self, rng):
        data = make_dataset({"x": rng.random(20)}, rng.integers(0, 2, 20))
        model = mlp_new(1, 0)
        before = [W.copy() for W in model.weights]
        curve = mlp_train(model, data, data, epochs=0)
        assert len(curve.epochs) == 0
        for W0, W1 in zip(before, model.weights):
            np.testing.assert_array_equal(W0, W1)

    def test_seeded_training_bitwise_identical(self, rng):
        x = rng.random(80)
        y = (x > 0.5).astype(int)
        data = make_dataset({"x": x}, y)
        curves = []
        for _ in range(2):
            model = mlp_new(1, 7)
            curves.append(mlp_train(model, data, data, epochs=3).epochs)
        assert curves[0] == curves[1]

    def test_predict_outputs_in_open_interval(self, rng):
        model = mlp_new(3, 1)
        data = make_dataset({"a": rng.random(30), "b": rng.random(30),
                             "c": rng.random(30)}, rng.integers(0, 2, 30))
        p = mlp_predict(model, data)
        assert np.all((p > 0) & (p < 1))

    def test_zero_weights_give_half(self):
        model = mlp_new(2, 0)
        for i in range(len(model.weights)):
            model.weights[i] = np.zeros_like(model.weights[i])
            model.biases[i] = np.zeros_like(model.biases[i])
        data = make_dataset({"a": [0.3, 0.7], "b": [0.1, 0.9]}, [0, 1])
        np.testing.assert_allclose(mlp_predict(model, data), [0.5, 0.5], atol=1e-15)

    def test_batch_of_one_matches_batch_of_many(self, rng):
        model = mlp_new(4, 5)
        data = make_dataset({f"f{i}": rng.random(10) for i in range(4)},
                            rng.integers(0, 2, 10))
        full = mlp_predict(model, data)
        rows = np.concatenate([mlp_predict(model, data.take(np.array([i])))
                               for i in range(10)])
        np.testing.assert_allclose(full, rows, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        model = mlp_new(3, 0)
        data = make_dataset({"a": rng.random(12)}, rng.integers(0, 2, 12))
        with pytest.raises(TrainingError, match="^model expects 3 features, got 1$"):
            mlp_train(model, data, data)

    def test_bce_gradient_check(self, rng):
        model = mlp_new(3, 11)
        X = rng.random((8, 3))
        y = rng.integers(0, 2, 8).astype(float)
        _, dWs, dbs = loss_and_grads(model, X, y, "bce")
        fdW, fdb = finite_diff_param_grads(
            lambda: loss_and_grads(model, X, y, "bce")[0], model.weights, model.biases)
        assert_grads_close(dWs, fdW)
        assert_grads_close(dbs, fdb)


class TestAutoencoder:
    def test_funnel_dims(self):
        assert ae_new(33, 11, 0).layer_dims == [33, 22, 11, 22, 33]
        assert ae_new(4, 2, 0).layer_dims == [4, 3, 2, 3, 4]

    def test_invalid_bottleneck(self):
        with pytest.raises(ConfigError, match=r"^bottleneck 8 not in \[1, input_dim 8\)$"):
            ae_new(8, 8, 0)
        with pytest.raises(ConfigError, match=r"^bottleneck 0 not in \[1, input_dim 8\)$"):
            ae_new(8, 0, 0)

    def test_constant_dataset_converges(self):
        X = np.full((200, 4), 0.5)
        data = make_dataset({f"f{i}": X[:, i] for i in range(4)},
                            np.arange(200) % 2)
        model = ae_new(4, 2, 0)
        curve = ae_train(model, data, data, epochs=10)
        assert curve.epochs[-1][0] < 0.01
        assert curve.epochs[-1][0] < curve.epochs[0][0]

    def test_loss_not_worse_after_training(self, rng):
        base = rng.random((300, 2))
        X = np.clip(np.column_stack([base, base @ rng.random((2, 4))]) / 3, 0, 1)
        data = make_dataset({f"f{i}": X[:, i] for i in range(6)},
                            rng.integers(0, 2, 300))
        model = ae_new(6, 2, 1)
        curve = ae_train(model, data, data, epochs=10)
        assert curve.epochs[-1][0] <= curve.epochs[0][0]

    def test_encode_shape_and_names(self, rng):
        data = make_dataset({f"f{i}": rng.random(40) for i in range(6)},
                            rng.integers(0, 2, 40))
        model = ae_new(6, 3, 2)
        latent = ae_encode(model, data)
        assert latent.feature_names == ("f1", "f2", "f3")
        assert latent.n_samples == 40
        np.testing.assert_array_equal(latent.labels, data.labels)

    def test_encode_needs_an_autoencoder(self, rng):
        # the model's kind is checked, not its shape: an MLP's layers would encode
        data = make_dataset({f"f{i}": rng.random(8) for i in range(3)}, rng.integers(0, 2, 8))
        with pytest.raises(TrainingError, match="^ae_encode needs an autoencoder model$"):
            ae_encode(mlp_new(3, 0), data)

    def test_encode_duplicated_rows(self, rng):
        row = rng.random(5)
        data = make_dataset({f"f{i}": [row[i], row[i]] for i in range(5)}, [0, 1])
        model = ae_new(5, 2, 3)
        latent = ae_encode(model, data)
        np.testing.assert_array_equal(latent.X[0], latent.X[1])

    def test_encode_dim_property(self, rng):
        for _ in range(10):
            d = int(rng.integers(3, 12))
            b = int(rng.integers(1, d))
            model = ae_new(d, b, int(rng.integers(0, 100)))
            data = make_dataset({f"f{i}": rng.random(8) for i in range(d)},
                                rng.integers(0, 2, 8))
            assert ae_encode(model, data).n_features == b

    def test_encode_equals_full_forward_bottleneck(self, rng):
        # the encoder half alone gives the full pass's bottleneck bit for bit
        data = make_dataset({f"f{i}": rng.random(300) for i in range(9)},
                            rng.integers(0, 2, 300))
        for input_dim, bottleneck in ((9, 3), (9, 8)):
            model = ae_new(input_dim, bottleneck, 5)
            ae_train(model, data, data, epochs=2)
            k = int(np.argmin(model.layer_dims[1:-1]))
            latent = ae_encode(model, data)
            assert latent.X.tobytes() == reference_forward(model, data.X)[k + 1].tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "autoencoder"])
    def test_val_loss_equals_the_sgd_step_loss(self, rng, kind):
        # the per-epoch validation loss is the loss of one SGD step on its rows
        X = rng.random((120, 5))
        data = make_dataset({f"f{i}": X[:, i] for i in range(5)},
                            (X[:, 0] > 0.5).astype(int))
        learn, validation = data.take(np.arange(80)), data.take(np.arange(80, 120))
        if kind == "mlp":
            model = mlp_new(5, 4)
            curve = mlp_train(model, learn, validation, epochs=2)
            expected = loss_and_grads(model, validation.X, validation.labels, "bce")[0]
        else:
            model = ae_new(5, 2, 4)
            curve = ae_train(model, learn, validation, epochs=2)
            expected = loss_and_grads(model, validation.X, validation.X, "mse")[0]
        assert curve.epochs[-1][1] == expected

    def test_validation_width_checked_before_training(self, rng):
        learn = make_dataset({f"f{i}": rng.random(20) for i in range(4)},
                             rng.integers(0, 2, 20))
        validation = make_dataset({f"f{i}": rng.random(20) for i in range(3)},
                                  rng.integers(0, 2, 20))
        model = ae_new(4, 2, 0)
        before = [W.copy() for W in model.weights]
        with pytest.raises(TrainingError, match="^model expects 4 features, got 3$"):
            ae_train(model, learn, validation, epochs=1)
        assert all((W == W0).all() for W, W0 in zip(model.weights, before))

    @pytest.mark.parametrize("train, new, message", [
        (mlp_train, lambda: ae_new(4, 2, 0), "^mlp training got a model of kind autoencoder$"),
        (ae_train, lambda: mlp_new(4, 0), "^autoencoder training got a model of kind mlp$"),
    ], ids=["mlp_train", "ae_train"])
    def test_each_trainer_refuses_the_other_kind(self, rng, train, new, message):
        data = make_dataset({f"f{i}": rng.random(20) for i in range(4)}, rng.integers(0, 2, 20))
        model = new()
        before = [p.copy() for p in model.weights + model.biases]
        with pytest.raises(TrainingError, match=message):
            train(model, data, data, epochs=1)
        after = model.weights + model.biases
        assert all(p.tobytes() == p0.tobytes() for p, p0 in zip(after, before, strict=True))

    def test_mse_gradient_check(self, rng):
        model = ae_new(4, 2, 13)
        X = rng.random((6, 4))
        _, dWs, dbs = loss_and_grads(model, X, X, "mse")
        fdW, fdb = finite_diff_param_grads(
            lambda: loss_and_grads(model, X, X, "mse")[0], model.weights, model.biases)
        assert_grads_close(dWs, fdW)
        assert_grads_close(dbs, fdb)


class TestSerialization:
    def test_curve_csv(self, rng):
        x = rng.random(40)
        data = make_dataset({"x": x}, (x > 0.5).astype(int))
        model = mlp_new(1, 0)
        curve = mlp_train(model, data, data, epochs=3)
        lines = curve.to_csv().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4
