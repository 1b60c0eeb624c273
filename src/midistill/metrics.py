"""Confusion-matrix metrics with the malware class (label 1) as positive."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError


GATED = ("accuracy", "precision", "recall")  # kept >= gamma by a reduced set, in report order

# ratio: (numerator, the other count in its denominator, why it is undefined at 0)
RATIOS = {
    "precision": ("tp", "fp", "no positive predictions"),
    "recall": ("tp", "fn", "no positive labels"),
    "tpr": ("tp", "fn", "no positive labels"),
    "tnr": ("tn", "fp", "no negative labels"),
    "fpr": ("fp", "tn", "no negative labels"),
    "fnr": ("fn", "tp", "no positive labels"),
    "fdr": ("fp", "tp", "no positive predictions"),
}


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
        """True iff every ``GATED`` metric is defined and >= gamma."""
        values = [getattr(self, name) for name in GATED]
        return all(v is not None and v >= gamma for v in values)

    def to_json(self) -> dict:
        return asdict(self)


def compute_metrics(predictions, labels) -> ClassifierMetrics:
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    if predictions.shape != labels.shape:
        raise DataError(f"shapes differ: predictions {predictions.shape}, labels {labels.shape}")
    if predictions.size == 0:
        raise DataError("no predictions")
    for name, values in (("predictions", predictions), ("labels", labels)):
        if not np.all((values == 0) | (values == 1)):
            raise DataError(f"{name} must be 0 or 1")
    cells = np.bincount((2 * labels + predictions).astype(np.intp).ravel(), minlength=4)
    counts = dict(zip(("tn", "fp", "fn", "tp"), map(int, cells)))  # cell 2·label + prediction
    denoms = {name: counts[num] + counts[other] for name, (num, other, _) in RATIOS.items()}
    undefined = {name: why for name, (_, _, why) in RATIOS.items() if denoms[name] == 0}
    ratios = {name: counts[num] / denoms[name] if denoms[name] else None
              for name, (num, _, _) in RATIOS.items()}
    p, r = ratios["precision"], ratios["recall"]
    f1 = 2 * p * r / (p + r) if p is not None and r is not None and p + r != 0 else None
    if f1 is None:
        undefined["f1"] = "precision+recall undefined or zero"
    return ClassifierMetrics(**counts, accuracy=(counts["tp"] + counts["tn"]) / predictions.size,
                             f1=f1, **ratios, undefined=undefined)
