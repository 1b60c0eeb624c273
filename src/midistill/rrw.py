"""Rank-Relevance weighting: blend the surviving algorithms' per-feature
scores with cross-validated F1, min-max map onto (0,1], and rescale the
dataset columns so the classifier's sensitivity to a feature grows with
the square of its weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, folds
from .errors import ConfigError, DataError
from .metrics import compute_metrics
from .neural import gate_predict, gate_train

MINMAX_EPSILON = 1e-9


@dataclass(frozen=True)
class RRwWeights:
    weights: dict  # feature -> weight in (0, 1]
    raw_scores: dict  # feature -> pre-normalization value
    inputs: tuple  # ((algorithm, avg_f1), ...)

    def to_json(self) -> dict:
        return {
            "weights": {k: float(v) for k, v in self.weights.items()},
            "raw_scores": {k: float(v) for k, v in self.raw_scores.items()},
            "inputs": [{"algorithm": a, "avg_f1": float(f)} for a, f in self.inputs],
        }


def avg_f1_cv(dataset: Dataset, k: int = 5, seed: int = 0) -> float:
    """k-fold cross-validated F1 of the gate classifier, averaged over folds."""
    chunks = folds(dataset.n_samples, k, seed)
    scores = []
    for i, held in enumerate(chunks):
        rows = np.concatenate(chunks[:i] + chunks[i + 1:])
        # one copy: np.take gathers the fold feature-major and C-ordered, as the gate reads it
        gate = gate_train(np.take(dataset.X.T, rows, axis=1), dataset.labels[rows])
        m = compute_metrics(gate_predict(gate, dataset.X[held]), dataset.labels[held])
        scores.append(0.0 if m.f1 is None else m.f1)
    return float(np.mean(scores))


def rrw_scores(rankings) -> RRwWeights:
    """Per-feature weights from (FeatureRanking, avg_f1) pairs.

    raw(f) = mean over algorithms of score_i(f) * avg_f1_i, then min-max
    mapped onto (0,1] with a small epsilon so no weight is exactly zero.
    All-equal raw scores degenerate to all-ones.
    """
    rankings = list(rankings)
    if not rankings:
        raise DataError("no rankings")
    reference = set(rankings[0][0].features)
    for ranking, avg_f1 in rankings:
        if set(ranking.features) != reference:
            raise DataError("rankings cover different feature sets")
        if not 0.0 < avg_f1 <= 1.0:
            raise DataError(f"avg_f1 {avg_f1} outside (0, 1]")

    n = len(rankings)
    raw = {name: 0.0 for name in reference}
    for ranking, avg_f1 in rankings:
        for name, score in ranking.entries:
            raw[name] += score * avg_f1 / n

    # Python floats: a spread past the float range is inf, with no warning
    lo, hi = float(min(raw.values())), float(max(raw.values()))
    if not math.isfinite(hi - lo):
        raise ConfigError(f"the fs report's ranking scores span more than the float "
                          f"range ({lo!r} to {hi!r})")
    if hi - lo == 0.0:
        weights = {name: 1.0 for name in raw}
    else:
        weights = {
            name: (value - lo + MINMAX_EPSILON) / (hi - lo + MINMAX_EPSILON)
            for name, value in raw.items()
        }
    return RRwWeights(weights, raw, tuple((r.algorithm, f) for r, f in rankings))


def apply_weights(dataset: Dataset, w: RRwWeights) -> Dataset:
    """Multiply each feature column by its weight; labels untouched."""
    try:
        scale = np.array([w.weights[name] for name in dataset.feature_names])
    except KeyError as exc:
        raise DataError(f"no weight for feature {exc.args[0]!r}") from None
    meta = dict(dataset.meta)
    meta["rrw_weights"] = {k: float(v) for k, v in w.weights.items()}
    return Dataset(dataset.feature_names, dataset.X * scale, dataset.labels, meta)
