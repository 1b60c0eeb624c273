"""Greedy mutual-information feature ranking: mRMR, MIFS, CIFE, JMI, CMIM
and DISR on one shared forward-selection engine.

Each criterion scores every remaining candidate at every step; the argmax
(ties broken by smaller original column index) is appended to the ranking
with its score at selection time.  Running to exhaustion turns the greedy
selection order into a complete ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .infotheory import BinningConfig, discretize, row_entropies

ALGORITHMS = ("mRMR", "MIFS", "CIFE", "JMI", "CMIM", "DISR")

# scores within this distance of the step maximum count as tied; ties go to
# the smallest original column index, so rankings don't flip on last-ulp
# differences between equivalent arithmetic paths
TIE_TOLERANCE = 1e-12

# column pairs are counted and turned into quantities in chunks of about this
# many count cells, so no more than one chunk's counts is ever alive
PAIR_CHUNK_CELLS = 1 << 15


@dataclass(frozen=True)
class FeatureRanking:
    algorithm: str
    entries: tuple[tuple[str, float], ...]
    params: dict = field(default_factory=dict)

    @property
    def features(self) -> list[str]:
        return [name for name, _ in self.entries]

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "params": dict(self.params),
            "entries": [
                {"feature": name, "score": float(score), "rank": i}
                for i, (name, score) in enumerate(self.entries, start=1)
            ],
        }


class CountTable:
    """Every information quantity the six criteria take from one discretized
    row set, computed from its per-class marginal and pairwise counts.

    All six criteria are functions of I(X_i;c), I(X_i;X_j), I(X_i;X_j|c) and
    the (X_i,X_j,c) table (Brown et al., JMLR 2012), and per-class pairwise
    counts hold all four.  So one table, counted once with ``np.bincount``,
    serves every criterion: the audit ranks all criteria of a fold on one
    table, and elimination ranks each criterion once on one table of the
    learn rows.  Pair counts live one chunk at a time; the table keeps the
    marginal and label counts, each column's ``k`` and the quantities.

    Codes are padded to a common width; padded cells stay zero and entropies
    skip zero cells.  Each quantity feeds the entropy the same non-zero
    cells, in the same order, as the row-level estimators in ``infotheory``,
    so the values match them bit for bit: pairs in (min, max) column order,
    (x, label) cells interleaved as ``x*2+y``, and both conditional
    quantities one ascending cumulative sum over strata (classes or X_j's
    codes) weighted ``n_z / n``, to which an empty class adds +0.0.

    Quantities: ``relevance[i]`` = I(X_i;c), ``single_sr[i]`` = SR(X_i;c),
    and F x F matrices ``mi`` = I(X_i;X_j), ``cmi_pair_given_label`` =
    I(X_i;X_j|c), ``cmi_label_given_feature`` = I(X_i;c|X_j) (row i, column
    j) and ``symmetrical_relevance`` = SR((X_i,X_j);c).
    """

    def __init__(self, dataset: Dataset, binning: BinningConfig):
        self.binning = binning
        self.names = dataset.feature_names
        self.n = dataset.n_samples
        # each column is discretized and kept only as lo = x*2 + c and, once
        # w is known, hi = x*2w, so that a pair's cell (x_a*w + x_b)*2 + c is
        # hi[a] + lo[b]; since w <= n_bins, it fits the narrowest signed type
        # that holds -2 * n_bins**2
        y = dataset.labels
        f = len(self.names)
        lo = np.empty((f, self.n), dtype=np.min_scalar_type(-2 * binning.n_bins ** 2))
        k = []
        for i, name in enumerate(self.names):
            col = discretize(dataset.X[:, i], binning, name)
            lo[i] = col.codes * 2 + y
            k.append(col.k)
        self.k = tuple(k)
        w = max(self.k, default=1)
        hi = lo >> 1
        hi *= 2 * w
        # marginal[i, x, c] and, for a chunk's pairs p = (a, b) with a < b,
        # cells[p, x_a, x_b, c]
        self.label_counts = np.bincount(y, minlength=2)
        self.marginal = np.zeros((f, w, 2), dtype=np.int64)
        for i, cells in enumerate(lo):
            self.marginal[i] = np.bincount(cells, minlength=2 * w).reshape(w, 2)

        self._h_label = row_entropies(self.label_counts[None])[0]
        self._h = row_entropies(self.marginal.sum(axis=2))
        h_with_label = row_entropies(self.marginal.reshape(f, 2 * w))
        self.relevance = _clamp(self._h + self._h_label - h_with_label)
        self.single_sr = _ratio(self.relevance, h_with_label)
        # H(X_i | c) per class, and per stratum x_i = z: H(c | z) and n_z / n
        self._h_in_class = row_entropies(
            self.marginal.transpose(0, 2, 1).reshape(2 * f, w)).reshape(f, 2)
        self._h_label_in_stratum = row_entropies(self.marginal.reshape(f * w, 2)).reshape(f, w)
        self._stratum_weight = self.marginal.sum(axis=2) / self.n

        self.mi, self.cmi_pair_given_label, self.cmi_label_given_feature, \
            self.symmetrical_relevance = (np.zeros((f, f)) for _ in range(4))
        first, second = np.triu_indices(f, 1)
        chunk = max(1, PAIR_CHUNK_CELLS // (2 * w * w))
        for start in range(0, len(first), chunk):
            a, b = first[start:start + chunk], second[start:start + chunk]
            cells = np.stack([np.bincount(hi[i] + lo[j], minlength=2 * w * w)
                              for i, j in zip(a.tolist(), b.tolist())]).reshape(-1, w, w, 2)
            self._pair_quantities(a, b, cells)

    def _pair_quantities(self, a: np.ndarray, b: np.ndarray, cells: np.ndarray) -> None:
        m, w = len(cells), cells.shape[1]
        pair_counts = cells.sum(axis=3)
        h_ab = row_entropies(pair_counts.reshape(m, -1))
        h_abc = row_entropies(cells.reshape(m, -1))
        self.mi[a, b] = self.mi[b, a] = _clamp(self._h[a] + self._h[b] - h_ab)
        self.symmetrical_relevance[a, b] = self.symmetrical_relevance[b, a] = _ratio(
            _clamp(h_ab + self._h_label - h_abc), h_abc)

        in_class = row_entropies(cells.transpose(0, 3, 1, 2).reshape(2 * m, -1)).reshape(m, 2)
        self.cmi_pair_given_label[a, b] = self.cmi_pair_given_label[b, a] = _stratified(
            self.label_counts / self.n, self._h_in_class[a], self._h_in_class[b], in_class)

        # I(X_i; c | X_j) both ways; strata[p, z] holds the (x_i, c) cells
        # and x_counts[p, z] the x_i counts where X_j = z
        for i, j, strata, x_counts in (
                (a, b, cells.transpose(0, 2, 1, 3), pair_counts.transpose(0, 2, 1)),
                (b, a, cells, pair_counts)):
            h_x = row_entropies(x_counts.reshape(m * w, w)).reshape(m, w)
            h_xc = row_entropies(strata.reshape(m * w, 2 * w)).reshape(m, w)
            self.cmi_label_given_feature[i, j] = _stratified(
                self._stratum_weight[j], h_x, self._h_label_in_stratum[j], h_xc)


def _stratified(weight, h_a, h_b, h_ab) -> np.ndarray:
    """Per row, clamp(sum over strata s of weight_s * clamp(H(A|s) + H(B|s) - H(A,B|s))),
    added in ascending stratum order as the row-level estimator adds them."""
    return _clamp(np.cumsum(weight * _clamp(h_a + h_b - h_ab), axis=1)[:, -1])


def _clamp(v: np.ndarray) -> np.ndarray:
    """max(0.0, v) per element, the estimators' clamp against rounding."""
    return np.where(v > 0, v, 0.0)


def _ratio(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """num / denom where denom > 0, else 0."""
    return np.divide(num, denom, out=np.zeros_like(num), where=denom > 0)


def _pair_terms(table: CountTable, algorithm: str) -> np.ndarray:
    """The term each criterion adds per (candidate, selected) pair."""
    if algorithm in ("mRMR", "MIFS"):
        return table.mi
    if algorithm in ("CIFE", "JMI"):
        return table.mi - table.cmi_pair_given_label
    if algorithm == "CMIM":
        return table.cmi_label_given_feature
    return table.symmetrical_relevance


def criterion_score(algorithm: str, rel: np.ndarray, first: np.ndarray,
                    acc: np.ndarray, n_selected: int, beta: float = 1.0) -> np.ndarray:
    """Scores of the remaining candidates at one greedy step, from their
    relevance, their empty-set score and the running sum (CMIM: min) of
    their terms against the ``n_selected`` features already selected."""
    if algorithm == "MIFS":
        return rel - beta * acc
    if algorithm == "CIFE":
        return rel - acc
    if n_selected == 0:
        return first
    if algorithm in ("mRMR", "JMI"):
        return rel - acc / n_selected
    return acc


def rank(table: CountTable, algorithm: str, beta: float = 1.0) -> FeatureRanking:
    """Run one criterion's greedy forward selection to exhaustion on a count
    table; the ranking's params record the table's binning.

    Each candidate keeps a running sum (CMIM: a running min) of its terms
    against the selected features, added in selection order.
    """
    if algorithm not in ALGORITHMS:
        raise DataError(f"unknown ranking algorithm {algorithm!r}")
    if not table.names:
        raise DataError("need at least one feature to rank")

    rel = table.relevance
    first = table.single_sr if algorithm == "DISR" else rel
    terms = _pair_terms(table, algorithm)
    acc = np.full(len(rel), np.inf) if algorithm == "CMIM" else np.zeros(len(rel))
    remaining = list(range(len(rel)))
    entries: list[tuple[str, float]] = []
    for n_selected in range(len(rel)):
        cand = np.array(remaining)
        scores = criterion_score(algorithm, rel[cand], first[cand], acc[cand],
                                 n_selected, beta)
        best = int(np.argmax(scores >= scores.max() - TIE_TOLERANCE))
        pos = remaining.pop(best)
        acc = np.minimum(acc, terms[:, pos]) if algorithm == "CMIM" else acc + terms[:, pos]
        entries.append((table.names[pos], float(scores[best])))
    params = {"n_bins": table.binning.n_bins, "strategy": table.binning.strategy,
              "tie_rule": f"smallest_column_index(tol={TIE_TOLERANCE})"}
    if algorithm == "MIFS":
        params["beta"] = beta
    return FeatureRanking(algorithm, tuple(entries), params)
