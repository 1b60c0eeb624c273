import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from midistill.errors import DataError
from midistill.infotheory import (
    BINNING_STRATEGIES,
    BinningConfig,
    DiscreteColumn,
    conditional_mutual_information,
    discretize,
    entropy,
    _entropy_from_counts,
    joint_entropy,
    mutual_information,
    pair_column,
    row_entropies,
)

from oracles import bf_cmi, bf_entropy, bf_mi, reference_discretize

EW = BinningConfig(2, "equal_width")


def dc(codes, k=None):
    codes = np.asarray(codes)
    return DiscreteColumn(codes, k or int(codes.max()) + 1)


class TestBinningConfig:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="^unknown binning strategy 'kmeans'$"):
            BinningConfig(4, "kmeans")


def _edge_columns(n_bins):
    """The binning rule's edge cases at ``n_bins``, by name."""
    rng = np.random.default_rng(n_bins)
    # an outlier, so that binning these would not give each value its rank
    values = np.append(np.arange(n_bins - 1) - 5.0, 100.0 * n_bins)
    exact = rng.permutation(np.repeat(values, 2))
    return {
        "constant_integer": [4.0] * 6,
        "constant_fraction": [2.5] * 6,
        "n_bins_distinct": exact,
        "n_bins_plus_one_distinct": np.append(exact, -100.0),
        "negative_integers": -rng.integers(0, 2 * n_bins, 40).astype(np.float64),
        "signed_zeros": [0.0, -0.0, -0.0, 0.0, 0.0],
        "signed_zeros_and_fractions": [0.0, -0.0, 0.5, -0.0, 1.25, 0.0],
        "equal_width_edges": np.repeat(np.linspace(-1.5, 2.25, n_bins + 1), 2),
        "integer_equal_width_edges": np.arange(2 * n_bins + 1.0),
        "merged_quantiles": [0.5] * 50 + [1.5] * 5 + [2.5] * 5,
        "merged_integer_quantiles": [0.0] * 90 + list(range(1, n_bins + 2)),
        "one_row": [3.5],
        "one_negative_zero": [-0.0],
        "two_rows": [-0.25, 0.75],
        "two_integer_rows": [-2.0, 9.0],
    }


class TestDiscretize:
    def test_binary_passthrough(self):
        col = discretize([0, 1, 0, 1], BinningConfig(10, "equal_frequency"))
        assert col.codes.tolist() == [0, 1, 0, 1]
        assert col.k == 2

    def test_equal_width_right_closed(self):
        col = discretize([0, 0.2, 0.5, 1.0], EW)
        assert col.codes.tolist() == [0, 0, 0, 1]
        assert col.k == 2

    def test_constant_column(self):
        col = discretize([5.0, 5.0, 5.0], EW)
        assert col.k == 1
        assert col.codes.tolist() == [0, 0, 0]

    def test_equal_frequency_merges_ties(self):
        # heavy ties collapse quantile edges; codes must stay dense
        col = discretize([1.0] * 50 + [2.0] * 5 + [3.0] * 5,
                         BinningConfig(10, "equal_frequency"))
        assert col.codes.max() == col.k - 1
        assert col.k <= 10

    @pytest.mark.parametrize("values, binning", [
        ([0.0, 0.1, 0.2, 10.0], BinningConfig(4, "equal_width")),
        ([0.5, 0.5, 0.5, 10.5], BinningConfig(4, "equal_frequency")),
    ], ids=["equal_width", "equal_frequency"])
    def test_empty_bins_are_dropped(self, values, binning):
        # an outlier leaves the middle equal-width bins empty, and the top
        # quantile edge (3.0) falls between two values; codes stay dense
        col = discretize(values, binning)
        assert col.codes.tolist() == [0, 0, 0, 1]
        assert col.k == 2

    @pytest.mark.parametrize("strategy", BINNING_STRATEGIES)
    @pytest.mark.parametrize("n_bins", [2, 10, 64])
    def test_codes_and_k_equal_the_original_three_exit_rule(self, n_bins, strategy):
        config = BinningConfig(n_bins, strategy)
        for name, column in _edge_columns(n_bins).items():
            col = discretize(column, config)
            codes, k = reference_discretize(column, config)
            assert (col.codes.tolist(), col.k) == (codes.tolist(), k), name

    def test_empty_column(self):
        with pytest.raises(DataError, match="^column <anonymous> is empty$"):
            discretize([], EW)


class TestEntropy:
    def test_fair_binary(self):
        assert entropy(dc([0, 1, 0, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_constant(self):
        assert entropy(dc([0, 0, 0], k=1)) == 0.0

    def test_three_quarters(self):
        assert entropy(dc([0, 0, 0, 1])) == pytest.approx(0.8112781244591328, abs=1e-12)


class TestRowEntropies:
    def test_rows_equal_one_vector_entropies_bit_for_bit(self, rng):
        # widths past 8 and 128 reach numpy's blocked and recursive pairwise
        # sums; zero cells, dropped first, move the remaining cells' places
        for width in (1, 2, 7, 8, 9, 15, 16, 17, 40, 127, 128, 129, 200, 300):
            for density in (0.3, 1.0):
                counts = rng.integers(1, 5000, size=(200, width))
                counts *= rng.random((200, width)) < density
                counts[counts.sum(axis=1) == 0, 0] = 1
                expected = np.array([_entropy_from_counts(row) for row in counts])
                assert row_entropies(counts).tobytes() == expected.tobytes()

    def test_one_call_mixes_widths_and_zero_rows(self, rng):
        # every width from 0 to 300 cells, twice, in shuffled rows: a row's
        # cells keep their places, and a row of zeros reads +0.0, not -0.0
        widths = rng.permutation(np.repeat(np.arange(301), 2))
        counts = np.zeros((widths.size, 300), dtype=np.int64)
        for row, width in zip(counts, widths):
            row[rng.choice(300, width, replace=False)] = rng.integers(1, 5000, width)
        expected = np.array([_entropy_from_counts(row) if row.any() else 0.0 for row in counts])
        assert row_entropies(counts).tobytes() == expected.tobytes()

    def test_zero_row_is_zero(self):
        got = row_entropies(np.array([[0, 0, 0], [2, 0, 2]]))
        assert got.tobytes() == np.array([0.0, 1.0]).tobytes()

    def test_no_rows(self):
        got = row_entropies(np.zeros((0, 4), dtype=np.int64))
        assert got.shape == (0,) and got.dtype == np.float64


class TestJointEntropy:
    def test_self(self):
        x = dc([0, 1, 0, 1])
        assert joint_entropy(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_independent_bits(self):
        assert joint_entropy(dc([0, 0, 1, 1]), dc([0, 1, 0, 1])) == pytest.approx(2.0, abs=1e-12)

    def test_constant_x(self):
        y = dc([0, 1, 1, 0])
        assert joint_entropy(dc([0, 0, 0, 0], k=1), y) == pytest.approx(entropy(y), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="^columns differ in length: 2 vs 3$"):
            joint_entropy(dc([0, 1]), dc([0, 1, 0]))


class TestMutualInformation:
    def test_self_information(self):
        x = dc([0, 1, 0, 1])
        assert mutual_information(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_independent(self):
        assert mutual_information(dc([0, 0, 1, 1]), dc([0, 1, 0, 1])) == 0.0

    def test_partial_overlap(self):
        got = mutual_information(dc([0, 0, 1, 1]), dc([0, 1, 1, 1]))
        assert got == pytest.approx(0.3112781244591328, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(50):
            x = dc(rng.integers(0, 3, 32), k=3)
            y = dc(rng.integers(0, 4, 32), k=4)
            assert mutual_information(x, y) == pytest.approx(
                mutual_information(y, x), abs=1e-12)

    def test_deterministic_function(self, rng):
        # data-processing sanity: y = f(x) gives I(X;Y) = H(Y)
        codes = rng.integers(0, 4, 48)
        x = dc(codes, k=4)
        y = dc(codes % 2, k=2)
        assert mutual_information(x, y) == pytest.approx(entropy(y), abs=1e-12)


class TestConditionalMI:
    def test_constant_z_reduces_to_mi(self, rng):
        x = dc(rng.integers(0, 3, 40), k=3)
        y = dc(rng.integers(0, 3, 40), k=3)
        z = dc(np.zeros(40, dtype=int), k=1)
        assert conditional_mutual_information(x, y, z) == pytest.approx(
            mutual_information(x, y), abs=1e-12)

    def test_self_given_z_is_conditional_entropy(self, rng):
        for _ in range(20):
            codes = rng.integers(0, 3, 32)
            x = dc(codes, k=3)
            z = dc(rng.integers(0, 2, 32), k=2)
            expected = joint_entropy(x, z) - entropy(z)
            assert conditional_mutual_information(x, x, z) == pytest.approx(
                expected, abs=1e-9)

    def test_xor_triple(self):
        x = dc([0, 0, 1, 1])
        y = dc([0, 1, 0, 1])
        z = dc([0, 1, 1, 0])  # x xor y
        assert mutual_information(x, z) == 0.0
        assert conditional_mutual_information(x, z, y) == pytest.approx(1.0, abs=1e-12)

    def test_chain_identity(self, rng):
        # stratified computation agrees with the joint-entropy chain rule
        for _ in range(100):
            x = dc(rng.integers(0, 3, 48), k=3)
            y = dc(rng.integers(0, 4, 48), k=4)
            z = dc(rng.integers(0, 2, 48), k=2)
            chain = (joint_entropy(x, z) + joint_entropy(y, z)
                     - entropy(z) - joint_entropy(pair_column(x, y), z))
            assert conditional_mutual_information(x, y, z) == pytest.approx(
                chain, abs=1e-9)


class TestAgainstBruteForce:
    def test_random_pairs_and_triples(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 65))
            x = rng.integers(0, int(rng.integers(2, 5)), n)
            y = rng.integers(0, int(rng.integers(2, 5)), n)
            z = rng.integers(0, int(rng.integers(2, 5)), n)
            xc, yc, zc = (dc(v, int(v.max()) + 1) for v in (x, y, z))
            assert entropy(xc) == pytest.approx(bf_entropy(x), abs=1e-9)
            assert joint_entropy(xc, yc) == pytest.approx(bf_entropy(x, y), abs=1e-9)
            assert mutual_information(xc, yc) == pytest.approx(bf_mi(x, y), abs=1e-9)
            assert conditional_mutual_information(xc, yc, zc) == pytest.approx(
                bf_cmi(x, y, z), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_nonnegativity_property(data):
    n = data.draw(st.integers(4, 64))
    k = data.draw(st.integers(2, 4))
    draw = lambda: np.array(data.draw(
        st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    x, y, z = dc(draw(), k), dc(draw(), k), dc(draw(), k)
    assert entropy(x) >= 0.0
    assert mutual_information(x, y) >= 0.0
    assert conditional_mutual_information(x, y, z) >= 0.0
    assert joint_entropy(x, y) >= max(entropy(x), entropy(y)) - 1e-12
    assert joint_entropy(x, y) <= entropy(x) + entropy(y) + 1e-12
