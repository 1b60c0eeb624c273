import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_compute_metrics

from midistill.errors import DataError
from midistill.metrics import compute_metrics


class TestComputeMetrics:
    def test_perfect_predictions(self):
        m = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
        assert m.accuracy == m.precision == m.tpr == m.tnr == 1.0
        assert m.fpr == m.fnr == m.fdr == 0.0

    def test_all_positive_on_balanced(self):
        m = compute_metrics([1, 1, 1, 1], [1, 0, 1, 0])
        assert m.tpr == 1.0
        assert m.tnr == 0.0
        assert m.precision == 0.5
        assert m.fdr == 0.5

    def test_hand_confusion(self):
        # TP=3, FP=1, TN=4, FN=2
        preds = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        labels = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        m = compute_metrics(preds, labels)
        assert (m.tp, m.fp, m.tn, m.fn) == (3, 1, 4, 2)
        assert m.accuracy == pytest.approx(0.7)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.fdr == pytest.approx(0.25)

    def test_undefined_ratios_reported_absent(self):
        m = compute_metrics([0, 0], [0, 0])
        assert m.precision is None
        assert m.recall is None
        assert "precision" in m.undefined and "recall" in m.undefined
        assert m.tnr == 1.0

    def test_length_mismatch_and_empty(self):
        with pytest.raises(DataError, match=r"^shapes differ: predictions \(1,\), labels \(2,\)$"):
            compute_metrics([1], [1, 0])
        with pytest.raises(DataError, match="^no predictions$"):
            compute_metrics([], [])

    def test_passes_gate(self):
        m = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
        assert m.passes(0.97)
        undefined = compute_metrics([0, 0], [0, 0])
        assert not undefined.passes(0.0)  # undefined metric fails the gate


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_identities_on_random_confusions(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    preds = rng.integers(0, 2, n)
    labels = rng.integers(0, 2, n)
    m = compute_metrics(preds, labels)
    if m.tpr is not None:
        assert abs(m.tpr + m.fnr - 1.0) < 1e-12
    if m.tnr is not None:
        assert abs(m.tnr + m.fpr - 1.0) < 1e-12
    if m.f1 is not None:
        assert abs(m.f1 - 2 * m.precision * m.recall / (m.precision + m.recall)) < 1e-12
    if m.precision is not None and m.fdr is not None:
        assert abs(m.precision + m.fdr - 1.0) < 1e-12


def test_every_short_confusion_equals_the_eight_mask_original():
    # all 4**1 + ... + 4**6 = 5460 prediction/label pairs of length 1 to 6;
    # the JSON text compares the bytes of each float and the order of undefined
    cases = 0
    for n in range(1, 7):
        for preds in itertools.product((0, 1), repeat=n):
            for labels in itertools.product((0, 1), repeat=n):
                got = json.dumps(compute_metrics(preds, labels).to_json())
                assert got == json.dumps(reference_compute_metrics(preds, labels).to_json())
                cases += 1
    assert cases == 5460


@pytest.mark.parametrize("side", ["predictions", "labels"])
@pytest.mark.parametrize("value", [0.7, 2, -1, float("nan")], ids=["0.7", "2", "-1", "nan"])
def test_values_other_than_0_and_1_are_refused(side, value):
    # a probability was truncated to 0, and a 2 or a -1 counted in no cell
    good, bad = [1, 0, 1], [1, value, 0]
    args = (bad, good) if side == "predictions" else (good, bad)
    with pytest.raises(DataError, match=f"^{side} must be 0 or 1$"):
        compute_metrics(*args)
