"""Independent brute-force oracles used by the tests.

Deliberately naive: plain-Python counting over value tuples, no shared code
with the package's estimators or the greedy ranking engine.  The CSV
references are the package's original one-cell-at-a-time parse and its
original ``repr``-per-cell writer, and the gate reference the package's
original training loop.  The exceptions are the elimination path's per-step
definition, which ranks with the package's engine (that engine is checked
against the brute force above), and the gate reference, which steps along
``hinge_loss_and_grads``, the gradient that criterion 8 checks against
finite differences.
"""

import csv
import hashlib
import json
import math
import os
from collections import Counter

import numpy as np

from midistill import dataset as ds
from midistill.errors import (
    DataError,
    DivergenceDetected,
    NonBinaryLabel,
    NonNumericValue,
    TrainingError,
)
from midistill.neural import (
    GATE_EPOCHS,
    GATE_LAMBDA,
    GATE_STEP,
    gate_new,
    hinge_loss_and_grads,
)
from midistill.ranking import CountTable, rank


def bf_entropy(*columns) -> float:
    """Joint entropy in bits of one or more aligned code sequences."""
    rows = list(zip(*[list(c) for c in columns]))
    n = len(rows)
    counts = Counter(rows)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def bf_mi(x, y) -> float:
    return max(0.0, bf_entropy(x) + bf_entropy(y) - bf_entropy(x, y))


def bf_cmi(x, y, z) -> float:
    """I(X;Y|Z) via the chain rule on joint entropies."""
    return max(0.0, bf_entropy(x, z) + bf_entropy(y, z) - bf_entropy(z) - bf_entropy(x, y, z))


def _pair(xi, xj):
    return [(a, b) for a, b in zip(xi, xj)]


def bf_criterion_score(algorithm, columns, label, i, selected, beta=1.0):
    """Score candidate column i against the selected index list, computing
    every information quantity from scratch."""
    rel = bf_mi(columns[i], label)
    if algorithm == "mRMR":
        if not selected:
            return rel
        return rel - sum(bf_mi(columns[i], columns[j]) for j in selected) / len(selected)
    if algorithm == "MIFS":
        return rel - beta * sum(bf_mi(columns[i], columns[j]) for j in selected)
    if algorithm == "CIFE":
        return rel - sum(
            bf_mi(columns[i], columns[j]) - bf_cmi(columns[i], columns[j], label)
            for j in selected)
    if algorithm == "JMI":
        if not selected:
            return rel
        return rel - sum(
            bf_mi(columns[i], columns[j]) - bf_cmi(columns[i], columns[j], label)
            for j in selected) / len(selected)
    if algorithm == "CMIM":
        if not selected:
            return rel
        return min(bf_cmi(columns[i], label, columns[j]) for j in selected)
    if algorithm == "DISR":
        if not selected:
            h = bf_entropy(columns[i], label)
            return rel / h if h > 0 else 0.0
        total = 0.0
        for j in selected:
            pair = _pair(columns[i], columns[j])
            h = bf_entropy(pair, label)
            total += (bf_mi(pair, label) / h) if h > 0 else 0.0
        return total
    raise ValueError(algorithm)


def bf_greedy_ranking(algorithm, columns, label, beta=1.0, tie_tol=1e-12):
    """Exhaustive per-step evaluation of the criterion; scores within
    tie_tol of the maximum are tied, smallest original index wins."""
    remaining = list(range(len(columns)))
    selected = []
    order = []
    while remaining:
        scores = [bf_criterion_score(algorithm, columns, label, i, selected, beta)
                  for i in remaining]
        top = max(scores)
        best_pos = next(p for p, s in enumerate(scores) if s >= top - tie_tol)
        idx = remaining.pop(best_pos)
        selected.append(idx)
        order.append((idx, scores[best_pos]))
    return order


def reference_elimination_order(dataset, binning, algorithm, beta=1.0):
    """The features backward elimination drops, in order, by its per-step
    definition: each step ranks a fresh count table of the remaining columns
    and drops that ranking's last feature, until one feature is left."""
    current = list(dataset.feature_names)
    order = []
    while len(current) >= 2:
        table = CountTable(dataset.select_features(current), binning)
        order.append(rank(table, algorithm, beta=beta).features[-1])
        current.remove(order[-1])
    return order


def reference_gate_train(learn, lam=GATE_LAMBDA, epochs=GATE_EPOCHS, step=GATE_STEP):
    """The gate by its definition: full-batch gradient descent on the hinge
    loss from zero, one ``hinge_loss_and_grads`` call per epoch."""
    y = learn.labels
    if len(np.unique(y)) < 2:
        raise TrainingError("gate training needs both classes")
    model = gate_new(learn.n_features)
    X = learn.X
    for epoch in range(epochs):
        loss, dWs, dbs = hinge_loss_and_grads(model, X, y, lam)
        if not np.isfinite(loss):
            raise DivergenceDetected(epoch)
        model.weights[0] = model.weights[0] - step * dWs[0]
        model.biases[0] = model.biases[0] - step * dbs[0]
    return model


def reference_load_csv(path, label_column):
    """(names, X, labels, source_sha256) by a ``csv.reader`` and ``float()``
    for every cell, raising what the package's ``load_csv`` raises."""
    if not os.path.exists(path):
        raise DataError(f"input {path} does not exist")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file") from None
        if len(header) != len(set(header)) or any(not h.strip() for h in header):
            raise DataError("duplicate or blank column names")
        if label_column not in header:
            raise DataError(f"label column {label_column!r} not in header")
        label_pos = header.index(label_column)
        names = [h for i, h in enumerate(header) if i != label_pos]

        rows, labels = [], []
        for rownum, record in enumerate(reader, start=2):
            if len(record) != len(header):
                raise NonNumericValue(rownum, "<row length>")
            raw_label = record[label_pos].strip()
            if raw_label not in ("0", "1"):
                try:
                    lv = float(raw_label)
                except ValueError:
                    raise NonBinaryLabel(rownum, raw_label) from None
                if lv not in (0.0, 1.0):
                    raise NonBinaryLabel(rownum, raw_label)
            labels.append(int(float(raw_label)))
            values = []
            for i, cell in enumerate(record):
                if i == label_pos:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise NonNumericValue(rownum, header[i]) from None
                if not math.isfinite(v):
                    raise NonNumericValue(rownum, header[i])
                values.append(v)
            rows.append(values)

    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(names))
    with open(path, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()
    return tuple(names), X, np.asarray(labels, dtype=np.int64), sha256


def reference_write_csv(data, path, label_column):
    """The package's original writer: ``repr`` of every float, one cell at a
    time, plus the ``<name>.meta.json`` sidecar."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(data.feature_names) + [label_column])
        # a finite float's repr never needs quoting, so the rows skip
        # csv.writer; converting a block at a time bounds tolist()'s memory
        for start in range(0, data.n_samples, ds.WRITE_BLOCK_ROWS):
            block = slice(start, start + ds.WRITE_BLOCK_ROWS)
            fh.writelines(",".join(map(repr, row)) + f",{lab}\r\n"
                          for row, lab in zip(data.X[block].tolist(),
                                              data.labels[block].tolist()))
    with open(os.fspath(path) + ".meta.json", "w", newline="", encoding="utf-8") as fh:
        json.dump(data.meta, fh, indent=2, sort_keys=True)
