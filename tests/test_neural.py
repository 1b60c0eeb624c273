import numpy as np
import pytest

from midistill.dataset import split
from midistill.errors import ConfigError, DivergenceDetected, TrainingError
from midistill.neural import (
    ae_encode,
    ae_new,
    ae_train,
    forward,
    gate_decision,
    gate_predict,
    gate_train,
    hinge_loss_and_grads,
    loss_and_gradients,
    mlp_new,
    mlp_predict,
    mlp_train,
)

from conftest import make_dataset, planted_dataset
from oracles import reference_gate_train


def finite_diff_param_grads(loss_fn, model, h=1e-5):
    """Central finite differences of loss_fn() over every model parameter."""
    dWs, dbs = [], []
    for arrs, grads in ((model.weights, dWs), (model.biases, dbs)):
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
        gate = gate_train(data)
        preds = gate_predict(gate, data.X)
        assert np.mean(preds == data.labels) == 1.0

    def test_single_class_error(self):
        data = make_dataset({"x": [0.0, 1.0, 2.0]}, [1, 1, 1])
        with pytest.raises(TrainingError, match="^gate training needs both classes$"):
            gate_train(data)

    def test_random_labels_near_majority_rate(self):
        rng = np.random.default_rng(0)
        data = make_dataset({"x": rng.random(600)}, rng.integers(0, 2, 600))
        gate = gate_train(data)
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
        gd = gate_train(double)
        assert gd.weights[0][0, 0] == pytest.approx(gd.weights[0][1, 0], abs=1e-12)
        p1 = gate_predict(gate_train(single), single.X)
        p2 = gate_predict(gd, double.X)
        assert np.mean(p1 == p2) > 0.95  # disagreement confined to the margin
        assert np.mean(p2 == y) > 0.9

    def test_hinge_gradient_check(self, rng):
        data = make_dataset({"a": rng.random(16), "b": rng.random(16)},
                            rng.integers(0, 2, 16).tolist())
        gate = gate_train(data, epochs=3)
        _, dWs, dbs = hinge_loss_and_grads(gate, data.X, data.labels)
        fdW, fdb = finite_diff_param_grads(
            lambda: hinge_loss_and_grads(gate, data.X, data.labels)[0], gate)
        assert_grads_close(dWs, fdW)
        assert_grads_close(dbs, fdb)


class TestGateMatchesReference:
    """gate_train against the original loop of ``tests/oracles.py``.  The
    products sum in another order, so weights agree to rounding, not bits.
    The tables are continuous: on integer-coded values a margin can land
    exactly on 0, where a different rounding may legitimately flip one
    hinge."""

    def table(self, f, seed, n=400):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, f)) * rng.uniform(0.5, 3.0, f) + rng.uniform(-1.0, 1.0, f)
        y = (X @ rng.normal(size=f) + 0.5 * rng.normal(size=n) > 0).astype(int)
        return make_dataset({f"f{i}": X[:, i] for i in range(f)}, y)

    def assert_same_gate(self, data, **kwargs):
        gate, ref = gate_train(data, **kwargs), reference_gate_train(data, **kwargs)
        assert gate.weights[0].shape == ref.weights[0].shape == (data.n_features, 1)
        assert gate.biases[0].shape == ref.biases[0].shape == (1,)
        np.testing.assert_array_equal(gate_predict(gate, data.X), gate_predict(ref, data.X))
        np.testing.assert_allclose(gate.weights[0], ref.weights[0], rtol=1e-9)
        np.testing.assert_allclose(gate.biases[0], ref.biases[0], rtol=1e-9)

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

    def test_single_class(self):
        data = make_dataset({"x": [0.1, 0.5, 0.9]}, [0, 0, 0])
        for train in (gate_train, reference_gate_train):
            with pytest.raises(TrainingError, match="^gate training needs both classes$"):
                train(data)

    def test_divergence_at_the_same_epoch(self):
        data = self.table(3, seed=11)
        X = data.X * np.array([1.0, 1e200, 1.0])
        data = make_dataset({f"f{i}": X[:, i] for i in range(3)}, data.labels)
        epochs = []
        for train in (gate_train, reference_gate_train):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceDetected) as exc:
                    train(data)
            epochs.append(exc.value.epoch)
        assert epochs[0] == epochs[1] > 0


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
        assert len(curve) == 0
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
        X = rng.random((10, 4))
        full = forward(model, X)[-1]
        rows = np.vstack([forward(model, X[i:i + 1])[-1] for i in range(10)])
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
        _, dWs, dbs = loss_and_gradients(model, X, y, "bce")
        fdW, fdb = finite_diff_param_grads(
            lambda: loss_and_gradients(model, X, y, "bce")[0], model)
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
            k = model.bottleneck_index()
            latent = ae_encode(model, data)
            assert latent.X.tobytes() == forward(model, data.X)[k + 1].tobytes()

    @pytest.mark.parametrize("kind", ["mlp", "autoencoder"])
    def test_val_loss_equals_loss_and_gradients(self, rng, kind):
        # the per-epoch validation loss is the loss of loss_and_gradients
        X = rng.random((120, 5))
        data = make_dataset({f"f{i}": X[:, i] for i in range(5)},
                            (X[:, 0] > 0.5).astype(int))
        learn, validation = data.take(np.arange(80)), data.take(np.arange(80, 120))
        if kind == "mlp":
            model = mlp_new(5, 4)
            curve = mlp_train(model, learn, validation, epochs=2)
            expected = loss_and_gradients(model, validation.X, validation.labels, "bce")[0]
        else:
            model = ae_new(5, 2, 4)
            curve = ae_train(model, learn, validation, epochs=2)
            expected = loss_and_gradients(model, validation.X, validation.X, "mse")[0]
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

    def test_mse_gradient_check(self, rng):
        model = ae_new(4, 2, 13)
        X = rng.random((6, 4))
        _, dWs, dbs = loss_and_gradients(model, X, X, "mse")
        fdW, fdb = finite_diff_param_grads(
            lambda: loss_and_gradients(model, X, X, "mse")[0], model)
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
