import numpy as np
import pytest

from midistill import rrw
from midistill.errors import DataError
from midistill.neural import gate_predict, gate_train, mlp_new, mlp_train
from midistill.ranking import FeatureRanking
from midistill.rrw import RRwWeights, apply_weights, avg_f1_cv, rrw_scores

from conftest import make_dataset, planted_dataset
from oracles import reference_forward


def ranking(algorithm, scores: dict) -> FeatureRanking:
    entries = sorted(scores.items(), key=lambda kv: -kv[1])
    return FeatureRanking(algorithm, tuple(entries))


class TestAvgF1:
    def test_perfectly_separable(self, rng):
        labels = rng.integers(0, 2, 300)
        data = make_dataset({"copy": labels.astype(float), "n": rng.random(300)},
                            labels)
        assert avg_f1_cv(data, k=5, seed=0) == pytest.approx(1.0, abs=1e-9)

    def test_uninformative_features_score_poorly(self):
        # with labels independent of the features the deterministic gate
        # drifts to a near-constant predictor, so F1 stays well below the
        # separable case (it does not hover at 0.5: predictions collapse
        # toward one class rather than splitting evenly)
        rng = np.random.default_rng(3)
        data = make_dataset({"a": rng.random(600), "b": rng.random(600)},
                            rng.integers(0, 2, 600))
        f1 = avg_f1_cv(data, k=5, seed=1)
        assert 0.0 <= f1 < 0.7

    def test_fold_count_stability_on_separable(self, rng):
        labels = rng.integers(0, 2, 200)
        data = make_dataset({"copy": labels.astype(float)}, labels)
        assert abs(avg_f1_cv(data, k=2, seed=0) - avg_f1_cv(data, k=5, seed=0)) < 0.05

    def test_folds_train_on_c_ordered_feature_major_rows(self, monkeypatch):
        # each fold arrives in the layout the gate reads, so the gate copies
        # it no further, and the held-out rows reach gate_predict C-ordered
        data = planted_dataset(3, 2, 200, seed=1)
        data = data.select_features(data.feature_names[1:])
        layouts = []

        def train(A, labels):
            layouts.append((A.shape, A.flags.c_contiguous))
            return gate_train(A, labels)

        def predict(model, X):
            layouts.append((X.shape, X.flags.c_contiguous))
            return gate_predict(model, X)

        monkeypatch.setattr(rrw, "gate_train", train)
        monkeypatch.setattr(rrw, "gate_predict", predict)
        avg_f1_cv(data, k=4, seed=0)
        assert layouts == [((4, 150), True), ((50, 4), True)] * 4

    def test_k_must_be_at_least_two(self, rng):
        data = make_dataset({"a": rng.random(20)}, rng.integers(0, 2, 20))
        with pytest.raises(DataError):
            avg_f1_cv(data, k=1)


class TestRRwScores:
    def test_single_ranking_collapse(self):
        w = rrw_scores([(ranking("mRMR", {"A": 0.4, "B": 0.2, "C": 0.1}), 1.0)])
        assert w.raw_scores == {"A": 0.4, "B": 0.2, "C": 0.1}
        assert w.weights["A"] == pytest.approx(1.0)
        assert all(v > 0 for v in w.weights.values())

    def test_two_ranking_hand_arithmetic(self):
        w = rrw_scores([
            (ranking("mRMR", {"A": 0.4, "B": 0.2}), 1.0),
            (ranking("MIFS", {"A": 0.3, "B": 0.1}), 1.0),
        ])
        assert w.raw_scores["A"] == pytest.approx(0.35)
        assert w.raw_scores["B"] == pytest.approx(0.15)
        assert w.weights["A"] == pytest.approx(1.0)
        assert 0.0 < w.weights["B"] < 1e-8

    def test_f1_weighting_enters_raw_scores(self):
        w = rrw_scores([
            (ranking("mRMR", {"A": 0.4, "B": 0.2}), 0.5),
            (ranking("MIFS", {"A": 0.2, "B": 0.4}), 1.0),
        ])
        assert w.raw_scores["A"] == pytest.approx((0.4 * 0.5 + 0.2 * 1.0) / 2)
        assert w.raw_scores["B"] == pytest.approx((0.2 * 0.5 + 0.4 * 1.0) / 2)

    def test_all_equal_degenerates_to_ones(self):
        w = rrw_scores([(ranking("mRMR", {"A": 0.3, "B": 0.3}), 1.0)])
        assert w.weights == {"A": 1.0, "B": 1.0}

    def test_ordering_preserved_by_normalization(self, rng):
        scores = {f"f{i}": float(v) for i, v in enumerate(rng.random(8))}
        w = rrw_scores([(ranking("mRMR", scores), 0.9)])
        by_raw = sorted(w.raw_scores, key=w.raw_scores.get)
        by_weight = sorted(w.weights, key=w.weights.get)
        assert by_raw == by_weight

    def test_errors(self):
        with pytest.raises(DataError, match="^no rankings$"):
            rrw_scores([])
        with pytest.raises(DataError, match="^rankings cover different feature sets$"):
            rrw_scores([(ranking("mRMR", {"A": 1.0}), 1.0),
                        (ranking("MIFS", {"B": 1.0}), 1.0)])
        with pytest.raises(DataError, match=r"^avg_f1 0\.0 outside \(0, 1\]$"):
            rrw_scores([(ranking("mRMR", {"A": 1.0}), 0.0)])


class TestApplyWeights:
    def weights(self, mapping):
        return RRwWeights(mapping, dict(mapping), (("mRMR", 1.0),))

    def test_unit_weights_identity(self, rng):
        data = make_dataset({"a": rng.random(10), "b": rng.random(10)},
                            rng.integers(0, 2, 10))
        out = apply_weights(data, self.weights({"a": 1.0, "b": 1.0}))
        np.testing.assert_array_equal(out.X, data.X)

    def test_halving_one_column(self, rng):
        data = make_dataset({"a": rng.random(10), "b": rng.random(10)},
                            rng.integers(0, 2, 10))
        out = apply_weights(data, self.weights({"a": 0.5, "b": 1.0}))
        a, b = (data.feature_names.index(name) for name in ("a", "b"))
        assert out.feature_names == data.feature_names
        np.testing.assert_allclose(out.X[:, a], data.X[:, a] * 0.5)
        np.testing.assert_array_equal(out.X[:, b], data.X[:, b])

    def test_missing_weight(self, rng):
        data = make_dataset({"a": rng.random(5)}, [0, 1, 0, 1, 0])
        with pytest.raises(DataError, match="^no weight for feature 'a'$"):
            apply_weights(data, self.weights({"b": 1.0}))

    def test_composition_equals_product(self, rng):
        data = make_dataset({"a": rng.random(15), "b": rng.random(15)},
                            rng.integers(0, 2, 15))
        w1 = self.weights({"a": 0.5, "b": 0.8})
        w2 = self.weights({"a": 0.25, "b": 0.5})
        w12 = self.weights({"a": 0.125, "b": 0.4})
        twice = apply_weights(apply_weights(data, w1), w2)
        once = apply_weights(data, w12)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-12)


class TestSensitivityLaw:
    def test_squared_gradient_scales_with_squared_weight(self, rng):
        # train a small MLP, then compare finite-difference input
        # sensitivities of f(w * x) against w_i^2 * sensitivities of f
        f = 4
        n = 200
        X = rng.random((n, f))
        y = (X.sum(axis=1) > f / 2).astype(int)
        data = make_dataset({f"c{i}": X[:, i] for i in range(f)}, y)
        model = mlp_new(f, 5)
        mlp_train(model, data, data, epochs=5, batch=10)

        w = np.array([0.9, 0.6, 0.4, 1.0])
        x0 = X[17]
        h = 1e-4

        def f_at(u):
            return reference_forward(model, u[None, :])[-1][0, 0]

        for i in range(f):
            e = np.zeros(f)
            e[i] = h
            u0 = w * x0
            base = (f_at(u0 + e) - f_at(u0 - e)) / (2 * h)
            weighted = (f_at(w * (x0 + e)) - f_at(w * (x0 - e))) / (2 * h)
            assert weighted ** 2 == pytest.approx((w[i] ** 2) * base ** 2, rel=1e-3)
