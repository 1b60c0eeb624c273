import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midistill.dataset import Dataset
from midistill.errors import DataError
from midistill.infotheory import (
    BinningConfig,
    DiscreteColumn,
    conditional_mutual_information,
    discretize,
    joint_entropy,
    mutual_information,
    pair_column,
)
from midistill import ranking
from midistill.ranking import ALGORITHMS, CountTable, rank

from conftest import make_dataset
from oracles import (
    bf_cmi,
    bf_entropy,
    bf_greedy_ranking,
    bf_mi,
    reference_elimination_order,
)

BINNING = BinningConfig(4, "equal_frequency")
QUANTITIES = ("relevance", "single_sr", "mi", "cmi_pair_given_label",
              "cmi_label_given_feature", "symmetrical_relevance")


def random_discrete_dataset(rng, n_features=None, n_samples=None):
    f = n_features or int(rng.integers(2, 7))
    n = n_samples or int(rng.integers(16, 65))
    cols = {f"c{i}": rng.integers(0, int(rng.integers(2, 5)), n).astype(float)
            for i in range(f)}
    labels = rng.integers(0, 2, n)
    return make_dataset(cols, labels)


class TestGreedyOracleEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_selection_sequence_matches_bruteforce(self, algorithm, rng):
        for _ in range(25):
            data = random_discrete_dataset(rng)
            got = rank(CountTable(data, BINNING), algorithm)
            columns = [data.X[:, i].astype(int).tolist()
                       for i in range(data.n_features)]
            expected = bf_greedy_ranking(algorithm, columns, data.labels.tolist())
            got_order = [data.feature_names.index(n) for n in got.features]
            assert got_order == [i for i, _ in expected]
            for (_, escore), (_, gscore) in zip(expected, got.entries):
                assert gscore == pytest.approx(escore, abs=1e-9)


class TestCriterionBehaviour:
    def test_single_feature(self, rng):
        data = make_dataset({"only": rng.integers(0, 2, 32).astype(float)},
                            rng.integers(0, 2, 32))
        r = rank(CountTable(data, BINNING), "mRMR")
        assert len(r.entries) == 1
        assert r.entries[0][1] == pytest.approx(
            bf_mi(data.X[:, 0].astype(int).tolist(), data.labels.tolist()), abs=1e-12)

    def test_mrmr_penalizes_redundant_copy(self):
        labels = [0, 0, 0, 0, 1, 1, 1, 1]
        a = labels
        b = labels  # exact copy of a
        c = [0, 1, 0, 1, 1, 0, 1, 0]  # independent of labels
        data = make_dataset({"a": a, "b": b, "c": c}, labels)
        r = rank(CountTable(data, BINNING), "mRMR")
        assert r.features[0] == "a"
        # the redundant copy's selection-time score collapses to rel - penalty = 0
        score_b = dict(r.entries)["b"]
        assert score_b == pytest.approx(1.0 - 1.0, abs=1e-12)

    def test_mifs_beta_zero_sorts_by_relevance(self, rng):
        data = random_discrete_dataset(rng, n_features=5, n_samples=48)
        r = rank(CountTable(data, BINNING), "MIFS", beta=0.0)
        rels = [bf_mi(data.X[:, data.feature_names.index(n)].astype(int).tolist(),
                      data.labels.tolist())
                for n in r.features]
        assert all(rels[i] >= rels[i + 1] - 1e-12 for i in range(len(rels) - 1))

    def test_cife_recovers_xor_partner(self):
        x = [0, 0, 1, 1]
        y = [0, 1, 0, 1]
        c = [0, 1, 1, 0]  # x xor y
        z = [0, 0, 0, 0]
        data = make_dataset({"x": x, "y": y, "z": z}, c)
        r = rank(CountTable(data, BINNING), "CIFE")
        assert r.features[0] == "x"  # all relevances 0, tie to first column
        assert r.features[1] == "y"  # scores rel - mi + cmi = 1 bit
        assert dict(r.entries)["y"] == pytest.approx(1.0, abs=1e-12)

    def test_jmi_matches_cife_at_single_selected(self):
        x = [0, 0, 1, 1]
        y = [0, 1, 0, 1]
        c = [0, 1, 1, 0]
        data = make_dataset({"x": x, "y": y}, c)
        assert rank(CountTable(data, BINNING), "JMI").features == rank(CountTable(data, BINNING), "CIFE").features

    def test_cmim_drops_redundant_copy(self):
        labels = [0, 0, 1, 1, 0, 0, 1, 1]
        a = labels
        b = labels
        c = [0, 1, 0, 1, 1, 0, 1, 0]
        data = make_dataset({"a": a, "b": b, "c": c}, labels)
        r = rank(CountTable(data, BINNING), "CMIM")
        # after a is selected, I(b; label | a) = 0, so b's score is 0
        assert dict(r.entries)["b"] == pytest.approx(0.0, abs=1e-12)

    def test_disr_constant_feature_never_first(self):
        labels = [0, 0, 1, 1, 0, 1, 0, 1]
        data = make_dataset(
            {"const": np.zeros(8), "a": labels, "b": [0, 0, 1, 1, 0, 1, 1, 0]},
            labels)
        r = rank(CountTable(data, BINNING), "DISR")
        # alone, a constant carries no normalized relevance, so despite the
        # favourable tie position it cannot be selected first
        assert r.features[0] != "const"
        assert CountTable(data, BINNING).single_sr[0] == pytest.approx(0.0, abs=1e-12)


class TestEngineProperties:
    def test_completeness_and_determinism(self, rng):
        data = random_discrete_dataset(rng, n_features=6, n_samples=40)
        for algorithm in ALGORITHMS:
            a = rank(CountTable(data, BINNING), algorithm)
            b = rank(CountTable(data, BINNING), algorithm)
            assert sorted(a.features) == sorted(data.feature_names)
            assert a.entries == b.entries

    def test_first_pick_agreement(self, rng):
        for _ in range(10):
            data = random_discrete_dataset(rng, n_features=5, n_samples=48)
            firsts = {rank(CountTable(data, BINNING), alg).features[0] for alg in ALGORITHMS
                      if alg != "DISR"}
            # all criteria reduce to argmax I(X;c) at step one (DISR normalizes)
            assert len(firsts) == 1

    def test_mrmr_equals_mifs_with_dynamic_beta(self, rng):
        for _ in range(10):
            data = random_discrete_dataset(rng, n_features=6, n_samples=56)
            table = CountTable(data, BINNING)
            remaining = list(range(data.n_features))
            selected = []
            while remaining:
                redundancy = [sum(table.mi[i, j] for j in selected) for i in remaining]
                mrmr = [table.relevance[i] - (r / len(selected) if selected else 0.0)
                        for i, r in zip(remaining, redundancy)]
                beta = 1.0 / len(selected) if selected else 0.0
                mifs = [table.relevance[i] - beta * r
                        for i, r in zip(remaining, redundancy)]
                assert int(np.argmax(mrmr)) == int(np.argmax(mifs))
                selected.append(remaining.pop(int(np.argmax(mrmr))))
            # the greedy engine picks the same order as this hand-driven loop
            assert rank(table, "mRMR").features == [
                data.feature_names[i] for i in selected]

    @pytest.mark.parametrize("below, order", [(0, ["a", "b"]), (1, ["b", "a"])])
    def test_tie_tolerance_boundary(self, below, order):
        # a's score is max - TIE_TOLERANCE as rank computes it, so a ties with
        # b and wins on its smaller column index; one ulp lower, b wins
        top = np.float64(0.5)
        score = top - ranking.TIE_TOLERANCE
        for _ in range(below):
            score = np.nextafter(score, -np.inf)
        table = SimpleNamespace(names=("a", "b"), relevance=np.array([score, top]),
                                mi=np.zeros((2, 2)), binning=BINNING)
        assert rank(table, "mRMR").features == order

    def test_unknown_algorithm(self, rng):
        data = random_discrete_dataset(rng)
        with pytest.raises(DataError, match="^unknown ranking algorithm 'PCA'$"):
            rank(CountTable(data, BINNING), "PCA")

    def test_json_serialization(self, rng):
        data = random_discrete_dataset(rng, n_features=4, n_samples=32)
        doc = rank(CountTable(data, BINNING), "MIFS", beta=0.5).to_json()
        doc = json.loads(json.dumps(doc))
        assert doc["algorithm"] == "MIFS"
        assert doc["params"]["beta"] == 0.5
        assert [e["rank"] for e in doc["entries"]] == [1, 2, 3, 4]


def _codes(data, binning):
    return [discretize(data.X[:, i], binning).codes.tolist()
            for i in range(data.n_features)]


class TestCountTable:
    """Every quantity of the count table against the brute-force oracles."""

    def _check_against_oracles(self, data, binning):
        table = CountTable(data, binning)
        cols, label = _codes(data, binning), data.labels.tolist()
        f = data.n_features
        for i in range(f):
            assert table.relevance[i] == pytest.approx(bf_mi(cols[i], label), abs=1e-9)
            h = bf_entropy(cols[i], label)
            single = bf_mi(cols[i], label) / h if h > 0 else 0.0
            assert table.single_sr[i] == pytest.approx(single, abs=1e-9)
            for j in range(f):
                if i == j:
                    continue
                assert table.mi[i, j] == pytest.approx(bf_mi(cols[i], cols[j]), abs=1e-9)
                assert table.cmi_pair_given_label[i, j] == pytest.approx(
                    bf_cmi(cols[i], cols[j], label), abs=1e-9)
                assert table.cmi_label_given_feature[i, j] == pytest.approx(
                    bf_cmi(cols[i], label, cols[j]), abs=1e-9)
                pair = list(zip(cols[i], cols[j]))
                h = bf_entropy(pair, label)
                sr = bf_mi(pair, label) / h if h > 0 else 0.0
                assert table.symmetrical_relevance[i, j] == pytest.approx(sr, abs=1e-9)

    def test_quantities_match_oracles(self, rng):
        for _ in range(10):
            data = random_discrete_dataset(rng)
            self._check_against_oracles(data, BINNING)

    def test_quantities_equal_row_estimators_bit_for_bit(self, rng):
        # the counts feed the entropy the same vectors, in the same order, as
        # the row-level estimators, so equality is exact, not approximate
        for trial in range(8):
            data = random_discrete_dataset(rng)
            if trial % 2:
                data = make_dataset({f"x{i}": rng.random(70) for i in range(4)},
                                    rng.integers(0, 2, 70))
            table = CountTable(data, BINNING)
            cols = [discretize(data.X[:, i], BINNING) for i in range(data.n_features)]
            label = DiscreteColumn(data.labels, 2)
            for i in range(data.n_features):
                rel = mutual_information(cols[i], label)
                assert table.relevance[i] == rel
                h = joint_entropy(cols[i], label)
                assert table.single_sr[i] == (rel / h if h > 0 else 0.0)
                for j in range(data.n_features):
                    if i == j:
                        continue
                    a, b = cols[min(i, j)], cols[max(i, j)]
                    assert table.mi[i, j] == mutual_information(a, b)
                    assert table.cmi_pair_given_label[i, j] == \
                        conditional_mutual_information(a, b, label)
                    assert table.cmi_label_given_feature[i, j] == \
                        conditional_mutual_information(cols[i], label, cols[j])
                    pair = pair_column(a, b)
                    h = joint_entropy(pair, label)
                    assert table.symmetrical_relevance[i, j] == \
                        (mutual_information(pair, label) / h if h > 0 else 0.0)

    def test_binned_continuous_columns(self, rng):
        data = make_dataset({f"x{i}": rng.random(90) for i in range(4)},
                            rng.integers(0, 2, 90))
        self._check_against_oracles(data, BinningConfig(5, "equal_width"))

    def test_constant_column(self, rng):
        labels = rng.integers(0, 2, 40)
        data = make_dataset({"const": np.full(40, 2.5), "a": rng.integers(0, 3, 40),
                             "b": labels}, labels)
        table = CountTable(data, BINNING)
        assert table.k[0] == 1
        assert table.relevance[0] == 0.0
        assert table.mi[0, 1] == 0.0
        self._check_against_oracles(data, BINNING)

    def test_single_class_rows(self, rng):
        data = make_dataset({f"c{i}": rng.integers(0, 4, 30) for i in range(3)},
                            np.ones(30, dtype=int))
        table = CountTable(data, BINNING)
        assert table.relevance[1] == 0.0
        assert table.cmi_label_given_feature[0, 2] == 0.0
        self._check_against_oracles(data, BINNING)
        for algorithm in ALGORITHMS:
            assert sorted(rank(table, algorithm).features) == ["c0", "c1", "c2"]

    def test_counts_are_the_row_histograms(self, rng):
        data = random_discrete_dataset(rng, n_features=3, n_samples=50)
        table = CountTable(data, BINNING)
        cols = _codes(data, BINNING)
        assert table.n == 50
        assert table.label_counts.tolist() == np.bincount(data.labels, minlength=2).tolist()
        # cells past a column's k are padding and stay zero
        w = max(table.k)
        for i, col in enumerate(cols):
            expected = np.zeros((w, 2), dtype=np.int64)
            for x, c in zip(col, data.labels):
                expected[x, c] += 1
            assert table.marginal[i].tolist() == expected.tolist()

    @pytest.mark.parametrize("n_bins", [8, 9, 127, 128, 129])
    def test_narrow_codes_at_their_type_boundaries(self, rng, n_bins):
        # cells are counted in the narrowest signed type that holds
        # -2 * n_bins**2: int8 up to 8 bins, int16 up to 128, int32 above.
        # Every column takes all n_bins codes, and row 0 holds the top code
        # in each with label 1, so the largest pair cell 2 * w**2 - 1 counts
        n = 2 * n_bins + 5
        labels = rng.integers(0, 2, n)
        labels[0] = 1
        cols = {}
        for i in range(3):
            codes = rng.permutation(np.arange(n) % n_bins)
            codes[0] = n_bins - 1  # every code still occurs at least once
            cols[f"c{i}"] = codes.astype(float)
        data = make_dataset(cols, labels)
        assert CountTable(data, BinningConfig(n_bins)).k == (n_bins,) * 3
        self._check_against_oracles(data, BinningConfig(n_bins))

    def test_chunk_boundaries_keep_every_bit(self, rng, monkeypatch):
        # 8 columns give 28 pairs: chunks of 1 pair, then chunks of 3 with a
        # ragged last chunk of 1, against the default single chunk
        data = random_discrete_dataset(rng, n_features=8, n_samples=60)
        default = CountTable(data, BINNING)
        w = max(default.k)
        sizes = []
        pair_quantities = CountTable._pair_quantities

        def spy(table, a, b, cells):
            sizes.append(len(a))
            pair_quantities(table, a, b, cells)

        monkeypatch.setattr(CountTable, "_pair_quantities", spy)
        for per_chunk, expected_sizes in ((1, [1] * 28), (3, [3] * 9 + [1])):
            monkeypatch.setattr(ranking, "PAIR_CHUNK_CELLS", per_chunk * 2 * w * w)
            sizes.clear()
            chunked = CountTable(data, BINNING)
            assert sizes == expected_sizes
            for name in QUANTITIES:
                assert getattr(chunked, name).tobytes() == getattr(default, name).tobytes()
            self._check_against_oracles(data, BINNING)

    def test_state_holds_no_pair_counts(self, rng):
        # pair counts would take (F choose 2) * 2 * w^2 cells; what is kept
        # is at most F x F quantities or F x w x 2 marginal counts
        f = 12
        data = make_dataset({f"x{i}": rng.random(300) for i in range(f)},
                            rng.integers(0, 2, 300))
        table = CountTable(data, BinningConfig(64))
        w = max(table.k)
        assert w == 64
        arrays = {name: v for name, v in vars(table).items() if isinstance(v, np.ndarray)}
        assert "marginal" in arrays and "mi" in arrays
        for name, value in arrays.items():
            assert value.size <= max(f * f, 2 * f * w), name

    def test_zero_feature_table(self, rng):
        labels = rng.integers(0, 2, 30)
        table = CountTable(Dataset((), np.empty((30, 0)), labels), BINNING)
        assert table.relevance.shape == (0,)
        with pytest.raises(DataError, match="at least one feature"):
            rank(table, "JMI")

    def _check_equal_to_row_estimators(self, data, binning):
        table = CountTable(data, binning)
        cols = [discretize(data.X[:, i], binning) for i in range(data.n_features)]
        label = DiscreteColumn(data.labels, 2)
        for i in range(data.n_features):
            rel = mutual_information(cols[i], label)
            h = joint_entropy(cols[i], label)
            assert (table.relevance[i], table.single_sr[i]) == (rel, rel / h if h > 0 else 0.0)
            for j in range(data.n_features):
                if i == j:
                    continue
                a, b = cols[min(i, j)], cols[max(i, j)]
                pair = pair_column(a, b)
                h = joint_entropy(pair, label)
                assert (table.mi[i, j], table.cmi_pair_given_label[i, j],
                        table.cmi_label_given_feature[i, j],
                        table.symmetrical_relevance[i, j]) == (
                    mutual_information(a, b), conditional_mutual_information(a, b, label),
                    conditional_mutual_information(cols[i], label, cols[j]),
                    mutual_information(pair, label) / h if h > 0 else 0.0)

    @pytest.mark.parametrize("strategy, n_bins, one_class", [
        *((s, b, False) for s in ("equal_width", "equal_frequency") for b in (2, 10, 64)),
        ("equal_frequency", 10, True)])
    def test_paper_like_columns_equal_row_estimators(self, rng, strategy, n_bins, one_class):
        # the column kinds of a traffic table: an exact duplicate, a constant,
        # a 0/1 flag that agrees with the label on 90% of rows, a count, a
        # column that is 90% zeros and one spanning 1e-3 to 1e9
        n = 300
        labels = np.ones(n, dtype=int) if one_class else rng.integers(0, 2, n)
        informative = labels + rng.normal(0.0, 0.7, n)
        span = 10.0 ** rng.uniform(-3.0, 9.0, n)
        span[:2] = 1e-3, 1e9
        data = make_dataset({
            "inf": informative, "dup": informative.copy(), "const": np.full(n, 3.0),
            "flag": np.where(rng.permutation(n) < n // 10, 1 - labels, labels),
            "count": rng.poisson(3.0, n),
            "zeros": np.where(rng.permutation(n) < 9 * n // 10, 0.0, rng.exponential(5.0, n)),
            "span": span}, labels)
        binning = BinningConfig(n_bins, strategy)
        self._check_equal_to_row_estimators(data, binning)
        self._check_against_oracles(data, binning)


COLUMN_KINDS = ("random", "integer", "constant", "duplicate", "near_duplicate")


@st.composite
def elimination_tables(draw):
    """A table of 2-8 columns of mixed kinds: random reals leaning on the
    label, integer codes, constants, exact copies of an earlier column and
    copies with 1e-3 noise."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(20, 80))
    kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=2, max_size=8))
    labels = rng.integers(0, 2, n)
    cols = {}
    for i, kind in enumerate(kinds):
        earlier = list(cols.values())
        if kind == "integer":
            col = rng.integers(0, int(rng.integers(2, 6)), n) + labels * int(rng.integers(0, 2))
        elif kind == "constant":
            col = np.full(n, float(rng.integers(-3, 4)))
        elif kind != "random" and earlier:
            col = earlier[int(rng.integers(len(earlier)))]
            if kind == "near_duplicate":
                col = col + 1e-3 * rng.standard_normal(n)
        else:
            col = rng.random(n) + rng.random() * labels
        cols[f"c{i}"] = col
    return make_dataset(cols, labels)


class TestEliminationPath:
    """Backward elimination reads its whole path off one ranking: dropping
    a greedy ranking's last feature leaves the ranking of the rest."""

    @settings(max_examples=150, deadline=None)
    @given(data=elimination_tables(), algorithm=st.sampled_from(ALGORITHMS),
           strategy=st.sampled_from(["equal_width", "equal_frequency"]),
           n_bins=st.integers(2, 12), beta=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    def test_reversed_ranking_is_the_per_step_path(self, data, algorithm, strategy,
                                                   n_bins, beta):
        binning = BinningConfig(n_bins, strategy)
        path = rank(CountTable(data, binning), algorithm, beta=beta).features[:0:-1]
        assert path == reference_elimination_order(data, binning, algorithm, beta)
