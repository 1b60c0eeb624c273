"""Two-step feature selection: the random-feature tampering audit that
prunes unreliable ranking criteria, then backward feature elimination gated
by the linear classifier, yielding the minimal surviving feature set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .dataset import (
    RESERVED_RANDOM_NAMES,
    DataSplit,
    Dataset,
    folds as row_folds,
    inject_random_features,
)
from .errors import DataError
from .infotheory import BinningConfig
from .metrics import ClassifierMetrics, compute_metrics
from .neural import gate_predict, gate_train
from .ranking import CountTable, FeatureRanking, rank


@dataclass(frozen=True)
class TamperingAudit:
    per_algorithm: dict  # algorithm -> {"avg_ranks": {name: float}, "pass": bool}
    folds: int
    threshold: float
    seed: int
    n_features_total: int

    def passing(self) -> list[str]:
        return [a for a, rec in self.per_algorithm.items() if rec["pass"]]

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ElimStep:
    removed_feature: str
    n_features_after: int
    metrics: ClassifierMetrics


@dataclass(frozen=True)
class EliminationTrace:
    """Per-step record of backward elimination.

    Step i removes one feature and evaluates the gate on the reduced set;
    ``stopped_at`` is the 1-based index of the first failing evaluation
    (None if the gate never failed).  ``optimized_features`` is the feature
    set present at the last passing evaluation, of size ``mdrt``.
    ``ranking`` is the ranking of all initial features on the learn rows
    whose tail the steps removed; it is not part of ``to_json``.
    """

    algorithm: str
    gamma: float
    initial_features: tuple[str, ...]
    steps: tuple[ElimStep, ...]
    stopped_at: int | None
    optimized_features: tuple[str, ...]
    ranking: FeatureRanking = field(compare=False, repr=False)

    @property
    def mdrt(self) -> int:
        return len(self.optimized_features)

    def to_json(self) -> dict:
        doc = asdict(self)
        del doc["ranking"]
        return {**doc, "mdrt": self.mdrt}

    def metrics_csv(self) -> str:
        """(n_features, accuracy, precision, recall) per step, for re-plotting."""
        return "n_features,accuracy,precision,recall\n" + "".join(
            f"{s.n_features_after},{_cell(s.metrics.accuracy)},"
            f"{_cell(s.metrics.precision)},{_cell(s.metrics.recall)}\n" for s in self.steps)


def _cell(v) -> str:
    return "" if v is None else repr(float(v))


def tampering_audit(dataset: Dataset, algorithms, folds: int = 5, seed: int = 0,
                    threshold: float = 0.30,
                    binning: BinningConfig | None = None,
                    beta: float = 1.0) -> TamperingAudit:
    """Inject the three random features, rank each fold with each algorithm,
    and pass an algorithm iff all three random features' fold-averaged ranks
    fall in the bottom ``threshold`` fraction of positions.  Each fold is
    counted once, its table serves every algorithm, and only the random
    features' 1-based positions are summed."""
    binning = binning or BinningConfig()
    tampered = inject_random_features(dataset, seed)
    n_total = tampered.n_features
    position_sums = {alg: dict.fromkeys(RESERVED_RANDOM_NAMES, 0) for alg in algorithms}
    for rows in row_folds(tampered.n_samples, folds, seed):
        table = CountTable(tampered.take(rows), binning)
        for alg, sums in position_sums.items():
            features = rank(table, alg, beta=beta).features
            for name in RESERVED_RANDOM_NAMES:
                sums[name] += features.index(name) + 1
        del table  # one fold's table alive at a time

    cutoff = (1.0 - threshold) * n_total  # positions strictly above are "bottom"
    per_algorithm = {}
    for alg, sums in position_sums.items():
        means = {name: total / folds for name, total in sums.items()}
        per_algorithm[alg] = {"avg_ranks": means, "pass": all(v > cutoff for v in means.values())}
    return TamperingAudit(per_algorithm, folds, threshold, seed, n_total)


class LearnRows:
    """The learn rows of one dataset and split, as elimination sees them:
    their count table, and the gate's test-split metrics computed once per
    ordered feature tuple.

    A gate has zero init and full-batch descent, so the same columns in the
    same order, trained on the same learn rows, always give the same
    metrics on the same test rows.  Several criteria share one instance, so
    they share its table and their gates.  The memo stores only
    ``ClassifierMetrics``, never a model or a projected dataset.  Keys keep
    the caller's column order, which for elimination is dataset order.
    """

    def __init__(self, dataset: Dataset, split: DataSplit, binning: BinningConfig):
        learn = dataset.take(split.learn_idx)
        self.table = CountTable(learn, binning)
        self.A, self.labels = learn.X.T.copy(), learn.labels
        self.test = dataset.take(split.test_idx)
        self._metrics: dict[tuple[str, ...], ClassifierMetrics] = {}

    def metrics(self, features) -> ClassifierMetrics:
        key = tuple(features)
        if key not in self._metrics:
            cols = [self.table.names.index(name) for name in key]
            gate = gate_train(self.A[cols], self.labels)
            test_X = self.test.X.take(cols, axis=1)  # C-ordered, as the reports were pinned
            self._metrics[key] = compute_metrics(gate_predict(gate, test_X), self.test.labels)
        return self._metrics[key]


def backward_eliminate(rows: LearnRows, algorithm: str, gamma: float,
                       beta: float = 1.0) -> EliminationTrace:
    """Iteratively drop the lowest-ranked feature while the gate classifier
    keeps accuracy, precision and recall at or above gamma on the test split.

    A greedy score depends only on the features selected before it, so the
    whole path is one ranking of the learn rows' count table, read from its
    tail (up to ties within ``TIE_TOLERANCE``).  Each reduced set's metrics
    come from the learn rows' gate memo: gates train on the learn split and
    are scored on the test split.  The loop stops at the first failing
    evaluation or when a single feature remains.
    """
    if not 0 <= gamma < 1:
        raise DataError("gamma must be in [0, 1)")
    initial = rows.table.names
    if len(initial) < 2:
        raise DataError("need at least 2 features to eliminate")

    ranking = rank(rows.table, algorithm, beta=beta)
    current = list(initial)
    steps: list[ElimStep] = []
    stopped_at = None
    last_passing = list(current)
    for lowest in ranking.features[:0:-1]:
        current.remove(lowest)
        metrics = rows.metrics(current)
        steps.append(ElimStep(lowest, len(current), metrics))
        if not metrics.passes(gamma):
            stopped_at = len(steps)
            break
        last_passing = list(current)

    return EliminationTrace(
        algorithm=algorithm,
        gamma=gamma,
        initial_features=initial,
        steps=tuple(steps),
        stopped_at=stopped_at,
        optimized_features=tuple(last_passing),
        ranking=ranking,
    )
