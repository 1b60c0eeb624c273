import json
import tracemalloc

import numpy as np
import pytest

from midistill import selection
from midistill.metrics import compute_metrics
from midistill.neural import gate_predict, gate_train
from midistill.dataset import (
    RESERVED_RANDOM_NAMES,
    apply_minmax,
    fit_minmax,
    folds,
    inject_random_features,
    split,
)
from midistill.errors import DataError
from midistill.infotheory import BinningConfig
from midistill.ranking import ALGORITHMS, CountTable, FeatureRanking, rank
from midistill.selection import LearnRows, backward_eliminate, tampering_audit

from conftest import make_dataset, planted_dataset
from oracles import reference_gate_train

BINNING = BinningConfig(10, "equal_frequency")


def ranking_of(names):
    return FeatureRanking("mRMR", tuple((n, 0.0) for n in names))


class TestTamperingAudit:
    def test_avg_ranks_are_the_fold_mean_positions(self):
        # 4 noise columns beside 3 informative ones move the random features
        # from fold to fold, so some means are not whole numbers
        raw = planted_dataset(3, 4, 300, seed=4)
        data = apply_minmax(raw, fit_minmax(raw))
        n_folds, seed = 4, 4
        audit = tampering_audit(data, ALGORITHMS, folds=n_folds, seed=seed, threshold=0.5,
                                binning=BINNING)
        tampered = inject_random_features(data, seed)
        tables = [CountTable(tampered.take(rows), BINNING)
                  for rows in folds(data.n_samples, n_folds, seed)]
        for alg in ALGORITHMS:
            orders = [rank(table, alg).features for table in tables]
            expected = {name: float(np.mean([order.index(name) + 1 for order in orders]))
                        for name in RESERVED_RANDOM_NAMES}
            record = audit.per_algorithm[alg]
            assert list(record["avg_ranks"].items()) == list(expected.items())
            assert record["pass"] is all(v > 0.5 * 10 for v in expected.values())
        assert any(v != int(v) for record in audit.per_algorithm.values()
                   for v in record["avg_ranks"].values())

    def test_vacuous_threshold_passes_everything(self):
        data = planted_dataset(3, 1, 200, seed=0)
        audit = tampering_audit(data, ("mRMR", "DISR"), folds=2, seed=0,
                                threshold=1.0, binning=BINNING)
        assert audit.passing() == ["mRMR", "DISR"]

    def test_rejects_dataset_already_tampered(self):
        from midistill.dataset import inject_random_features
        data = planted_dataset(2, 0, 100, seed=0)
        with pytest.raises(DataError, match="'__rand1' is reserved for the tampering audit"):
            tampering_audit(inject_random_features(data, 0), ("mRMR",), folds=2, seed=0)

    def test_mrmr_buries_random_features_on_informative_data(self):
        # 5 informative features + 3 injected randoms = 8 total; mRMR should
        # put the randoms in the bottom 3 in the clear majority of seeds
        wins = 0
        for seed in range(10):
            raw = planted_dataset(5, 0, 500, seed=seed)
            data = apply_minmax(raw, fit_minmax(raw))
            audit = tampering_audit(data, ("mRMR",), folds=5, seed=seed,
                                    threshold=0.375, binning=BINNING)
            ranks = audit.per_algorithm["mRMR"]["avg_ranks"]
            if all(v > 5 for v in ranks.values()):
                wins += 1
        assert wins >= 8

    @pytest.mark.parametrize("positions, passes", [
        ((5, 5, 5, 5, 5), False), ((4, 6, 5, 5, 5), False), ((6, 6, 6, 6, 5), True)])
    def test_mean_rank_at_the_cutoff_fails(self, monkeypatch, positions, passes):
        # 7 features and 3 random ones at threshold 0.5: the cutoff is rank
        # 5.0, and a random feature must average strictly above it
        def fixed_rank(table, algorithm, beta=1.0):
            order = [n for n in table.names if not n.startswith("__rand")]
            order.insert(positions[len(calls)] - 1, "__rand1")
            calls.append(algorithm)
            return ranking_of(order + ["__rand2", "__rand3"])

        calls = []
        monkeypatch.setattr(selection, "rank", fixed_rank)
        rng = np.random.default_rng(0)
        data = make_dataset({f"f{i}": rng.random(50) for i in range(7)},
                            rng.integers(0, 2, 50))
        audit = tampering_audit(data, ("mRMR",), folds=5, seed=0, threshold=0.5,
                                binning=BINNING)
        record = audit.per_algorithm["mRMR"]
        assert record["avg_ranks"]["__rand1"] == sum(positions) / 5
        assert record["pass"] is passes

    def test_serialization(self):
        data = planted_dataset(3, 0, 150, seed=2)
        audit = tampering_audit(data, ("mRMR",), folds=2, seed=2, binning=BINNING)
        doc = json.loads(json.dumps(audit.to_json()))
        assert doc["folds"] == 2
        assert set(doc["per_algorithm"]["mRMR"]["avg_ranks"]) == {
            "__rand1", "__rand2", "__rand3"}

    def test_too_few_folds(self):
        data = planted_dataset(2, 0, 100, seed=0)
        with pytest.raises(DataError):
            tampering_audit(data, ("mRMR",), folds=1, seed=0)


@pytest.fixture(scope="module")
def planted_norm():
    data = planted_dataset(4, 6, 500, seed=7)
    sp = split(data, 7)
    return apply_minmax(data, fit_minmax(data, sp.learn_idx)), sp


class TestBackwardEliminate:
    def test_perfect_feature_survives_alone(self, rng):
        labels = rng.integers(0, 2, 300)
        cols = {"perfect": labels.astype(float)}
        for i in range(4):
            cols[f"noise{i}"] = rng.random(300)
        data = make_dataset(cols, labels)
        sp = split(data, 0)
        trace = backward_eliminate(LearnRows(data, sp, BINNING), "mRMR", 0.97)
        assert trace.stopped_at is None
        assert trace.optimized_features == ("perfect",)
        assert trace.mdrt == 1
        # every removed feature was noise until only the perfect one remained
        assert all(s.removed_feature.startswith("noise") for s in trace.steps)

    def test_vacuous_gamma_runs_to_single_feature(self, rng):
        labels = rng.integers(0, 2, 200)
        cols = {"perfect": labels.astype(float),
                "n1": rng.random(200), "n2": rng.random(200)}
        data = make_dataset(cols, labels)
        trace = backward_eliminate(LearnRows(data, split(data, 1), BINNING), "mRMR", 0.0)
        assert trace.stopped_at is None
        assert len(trace.steps) == data.n_features - 1

    def test_one_feature_removed_per_step(self, planted_norm):
        data, sp = planted_norm
        trace = backward_eliminate(LearnRows(data, sp, BINNING), "mRMR", 0.9)
        current = set(data.feature_names)
        for step in trace.steps:
            assert step.removed_feature in current
            current.remove(step.removed_feature)
            assert step.n_features_after == len(current)

    def test_reproducible(self, planted_norm):
        data, sp = planted_norm
        a = backward_eliminate(LearnRows(data, sp, BINNING), "MIFS", 0.9)
        b = backward_eliminate(LearnRows(data, sp, BINNING), "MIFS", 0.9)
        assert a.to_json() == b.to_json()

    def test_shared_table_matches_per_step_ranking(self, planted_norm):
        # every step ranks a column subset of one learn-row table; the result
        # equals ranking each step's projected learn rows from scratch
        data, sp = planted_norm
        rows = LearnRows(data, sp, BINNING)
        for algorithm in ALGORITHMS:
            trace = backward_eliminate(rows, algorithm, 0.0)
            assert trace.ranking.entries == rank(
                CountTable(data.take(sp.learn_idx), BINNING), algorithm).entries
            current = list(data.feature_names)
            for step in trace.steps:
                projected = data.select_features(current).take(sp.learn_idx)
                assert rank(CountTable(projected, BINNING), algorithm).features[-1] == \
                    step.removed_feature
                current.remove(step.removed_feature)

    def test_metrics_follow_the_key_order(self, planted_norm):
        # a gate trains and predicts on the key's columns in the key's order
        data, sp = planted_norm
        key = ("inf2", "noise1", "inf0", "inf3", "inf1")
        reduced = data.select_features(key)
        gate = reference_gate_train(reduced.take(sp.learn_idx))
        test = reduced.take(sp.test_idx)
        expected = compute_metrics(gate_predict(gate, test.X), test.labels)
        assert LearnRows(data, sp, BINNING).metrics(key) == expected

    def test_gates_read_c_ordered_rows(self, planted_norm, monkeypatch):
        # the layouts the reports are pinned with: the epoch reads C-ordered
        # feature-major rows, and gate_predict C-ordered test rows
        data, sp = planted_norm
        layouts = []

        def train(A, labels):
            layouts.append(A.flags.c_contiguous)
            return gate_train(A, labels)

        def predict(model, X):
            layouts.append(X.flags.c_contiguous)
            return gate_predict(model, X)

        monkeypatch.setattr(selection, "gate_train", train)
        monkeypatch.setattr(selection, "gate_predict", predict)
        LearnRows(data, sp, BINNING).metrics(data.feature_names[1:])
        assert layouts == [True, True]

    def test_a_gate_holds_one_copy_of_the_learn_rows(self):
        # the full-set gate gathers every column of the feature-major learn
        # rows once; its buffers and the projected test rows are small
        data = planted_dataset(6, 27, 20000, seed=3)
        sp = split(data, 0)
        rows = LearnRows(apply_minmax(data, fit_minmax(data, sp.learn_idx)), sp, BINNING)
        one_copy = len(sp.learn_idx) * data.n_features * 8
        tracemalloc.start()
        try:
            rows.metrics(data.feature_names)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= one_copy * 3 // 2

    def test_ranks_once(self, planted_norm, monkeypatch):
        calls = []

        def counting_rank(*args, **kwargs):
            calls.append(args[1])
            return rank(*args, **kwargs)

        monkeypatch.setattr(selection, "rank", counting_rank)
        data, sp = planted_norm
        trace = backward_eliminate(LearnRows(data, sp, BINNING), "JMI", 0.0)
        assert len(trace.steps) == data.n_features - 1
        assert calls == ["JMI"]

    def test_shared_gate_cache_matches_own_gates(self, planted_norm):
        # one LearnRows serves every criterion; each trace equals the trace
        # made with learn rows of its own, to the last bit of every metric
        data, sp = planted_norm
        rows = LearnRows(data, sp, BINNING)
        for algorithm in ALGORITHMS:
            shared = backward_eliminate(rows, algorithm, 0.0)
            own = backward_eliminate(LearnRows(data, sp, BINNING), algorithm, 0.0)
            assert shared == own
            assert shared.to_json() == own.to_json()

    def test_mdrt_formula(self, planted_norm):
        data, sp = planted_norm
        trace = backward_eliminate(LearnRows(data, sp, BINNING), "mRMR", 0.95)
        if trace.stopped_at is not None:
            assert trace.mdrt == data.n_features - trace.stopped_at + 1
        else:
            assert trace.mdrt == 1

    def test_planted_features_mostly_retained(self):
        # statistical harness: informative features survive elimination
        hits = 0
        for seed in range(10):
            data = planted_dataset(4, 6, 400, seed=seed)
            sp = split(data, seed)
            norm = apply_minmax(data, fit_minmax(data, sp.learn_idx))
            trace = backward_eliminate(LearnRows(norm, sp, BINNING), "mRMR", 0.95)
            if trace.mdrt >= 4:
                hits += 1
        assert hits >= 9

    def test_metrics_csv_export(self, planted_norm):
        data, sp = planted_norm
        trace = backward_eliminate(LearnRows(data, sp, BINNING), "mRMR", 0.9)
        lines = trace.metrics_csv().strip().splitlines()
        assert lines[0] == "n_features,accuracy,precision,recall"
        assert len(lines) == len(trace.steps) + 1


class TestExtractOptimized:
    """The optimized dataset is the projection ``select_features`` makes."""

    def test_identity_projection(self, planted_norm):
        data, _ = planted_norm
        same = data.select_features(data.feature_names)
        np.testing.assert_array_equal(same.X, data.X)

    def test_single_feature(self, planted_norm):
        data, _ = planted_norm
        one = data.select_features(["inf0"])
        assert one.n_features == 1
        np.testing.assert_array_equal(one.labels, data.labels)

    def test_unknown_feature(self, planted_norm):
        data, _ = planted_norm
        with pytest.raises(DataError, match="^features not in the table: nope$"):
            data.select_features(["nope"])

    def test_commutes_with_minmax(self, rng):
        data = make_dataset({c: rng.random(60) * (i + 1)
                             for i, c in enumerate("abcd")},
                            rng.integers(0, 2, 60))
        subset = ["b", "d"]
        a = apply_minmax(data, fit_minmax(data)).select_features(subset)
        reduced = data.select_features(subset)
        b = apply_minmax(reduced, fit_minmax(reduced))
        np.testing.assert_allclose(a.X, b.X, atol=1e-12)
