"""Confusion-matrix metrics with the malware class (label 1) as positive."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ClassifierMetrics:
    """All fields are fractions in [0,1]; a field is None when its ratio is
    undefined (zero denominator), with the reason in ``undefined``."""

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None
    tpr: float | None
    tnr: float | None
    fpr: float | None
    fnr: float | None
    fdr: float | None
    undefined: dict = field(default_factory=dict)

    def passes(self, gamma: float) -> bool:
        """True iff accuracy, precision and recall are all defined and >= gamma."""
        return all(v is not None and v >= gamma
                   for v in (self.accuracy, self.precision, self.recall))

    def to_json(self) -> dict:
        doc = {k: getattr(self, k) for k in
               ("tp", "fp", "tn", "fn", "accuracy", "precision", "recall",
                "f1", "tpr", "tnr", "fpr", "fnr", "fdr")}
        doc["undefined"] = dict(self.undefined)
        return doc


def compute_metrics(predictions, labels) -> ClassifierMetrics:
    predictions = np.asarray(predictions).astype(np.int64)
    labels = np.asarray(labels).astype(np.int64)
    if predictions.shape != labels.shape:
        raise DataError(f"shapes differ: predictions {predictions.shape}, labels {labels.shape}")
    if predictions.size == 0:
        raise DataError("no predictions")

    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    tn = int(np.sum((predictions == 0) & (labels == 0)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))

    undefined: dict[str, str] = {}

    def ratio(num, denom, name, reason):
        if denom == 0:
            undefined[name] = reason
            return None
        return num / denom

    precision = ratio(tp, tp + fp, "precision", "no positive predictions")
    recall = ratio(tp, tp + fn, "recall", "no positive labels")
    tpr = recall
    if tpr is None:
        undefined["tpr"] = "no positive labels"
    tnr = ratio(tn, tn + fp, "tnr", "no negative labels")
    fpr = ratio(fp, fp + tn, "fpr", "no negative labels")
    fnr = ratio(fn, fn + tp, "fnr", "no positive labels")
    fdr = ratio(fp, fp + tp, "fdr", "no positive predictions")
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
        undefined["f1"] = "precision+recall undefined or zero"
    else:
        f1 = 2 * precision * recall / (precision + recall)

    return ClassifierMetrics(
        tp=tp, fp=fp, tn=tn, fn=fn,
        accuracy=(tp + tn) / predictions.size,
        precision=precision, recall=recall, f1=f1,
        tpr=tpr, tnr=tnr, fpr=fpr, fnr=fnr, fdr=fdr,
        undefined=undefined,
    )
