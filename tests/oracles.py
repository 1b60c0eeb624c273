"""Independent brute-force oracles used by the tests.

Deliberately naive: plain-Python counting over value tuples, no shared code
with the package's estimators or the greedy ranking engine.  The binning
reference is the package's original three-exit ``discretize``, the CSV
references are the package's original one-cell-at-a-time parse and its
original ``repr``-per-cell writer, the gate reference the package's
original training loop along its original hinge gradient
(``reference_hinge_loss_and_grads``, the only definition of the hinge
loss: the package computes none, and criterion 8 differentiates this loss
against the gradient of one call of the package's ``_GateStep``, the epoch
``gate_train`` runs), and
the SGD reference the package's original mini-batch loop with its own
forward pass (``reference_forward``, which tests also read layer outputs
from), losses and backpropagation.  The exception is the elimination
path's per-step definition, which ranks with the package's engine (that
engine is checked against the brute force above).
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
from midistill.neural import GATE_EPOCHS, GATE_LAMBDA, GATE_STEP, TrainingCurve
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


def reference_discretize(column, config):
    """The package's original binning as ``(codes, k)``: a constant column
    returns one code, an integer-coded column with at most n_bins distinct
    values returns each value's rank, and any other column is binned at
    equal-width or merged equal-frequency edges with empty bins dropped."""
    x = np.asarray(column, dtype=np.float64)
    lo, hi = x.min(), x.max()
    if lo == hi:
        return np.zeros(x.size, dtype=np.int64), 1
    if np.all(x == np.floor(x)):
        distinct = np.unique(x)
        if distinct.size <= config.n_bins:
            return np.searchsorted(distinct, x), distinct.size
    if config.strategy == "equal_width":
        edges = np.linspace(lo, hi, config.n_bins + 1)[1:-1]
    else:
        qs = np.arange(1, config.n_bins) / config.n_bins
        edges = np.unique(np.quantile(x, qs))
    codes = np.searchsorted(edges, x, side="left")
    filled = np.bincount(codes) > 0
    return (np.cumsum(filled) - 1)[codes], int(filled.sum())


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


def reference_hinge_loss_and_grads(gate, X, labels, lam=GATE_LAMBDA):
    """L2-regularized mean hinge loss of a linear gate ``(w, b)`` and its
    gradients ``dw`` and ``db``, by the formula on the row-major X."""
    w, b = gate
    t = 2.0 * np.asarray(labels, dtype=np.float64) - 1.0
    s = X @ w + b
    margin = 1.0 - t * s
    active = margin > 0.0
    loss = float(np.mean(np.maximum(margin, 0.0)) + lam * np.sum(w ** 2))
    ds = -(t * active) / len(t)
    dw = X.T @ ds + 2.0 * lam * w
    db = np.array([ds.sum()])
    return loss, dw, db


def reference_gate_train(learn, lam=GATE_LAMBDA, epochs=GATE_EPOCHS, step=GATE_STEP):
    """The gate by its definition: full-batch gradient descent on the hinge
    loss from zero, one ``reference_hinge_loss_and_grads`` call per epoch:
    the weights ``w``, one per feature, and the bias ``b`` of shape (1,)."""
    y = learn.labels
    if len(np.unique(y)) < 2:
        raise TrainingError("gate training needs both classes")
    w, b = np.zeros(learn.n_features), np.zeros(1)
    for epoch in range(epochs):
        loss, dw, db = reference_hinge_loss_and_grads((w, b), learn.X, y, lam)
        if not np.isfinite(loss):
            raise DivergenceDetected(epoch)
        w, b = w - step * dw, b - step * db
    return w, b


def _reference_activate(z, kind):
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {kind!r}")


def reference_forward(model, X):
    """All layer outputs, input first; result[-1] is the network output.
    Every layer is a relu but the output layer, a sigmoid."""
    outs = [X]
    top = len(model.weights) - 1
    for layer, (W, b) in enumerate(zip(model.weights, model.biases)):
        outs.append(_reference_activate(outs[-1] @ W + b, "sigmoid" if layer == top else "relu"))
    return outs


def _reference_loss(out, target, loss_kind):
    """Mean loss of the network output and its residual ``out - target``."""
    if loss_kind == "bce":
        y = np.asarray(target, dtype=np.float64).reshape(-1, 1)
        p = np.clip(out, 1e-12, 1.0 - 1e-12)
        terms = -y * np.log(p) - (1.0 - y) * np.log(1.0 - p)
        return float(terms.sum() / terms.size), out - y
    if loss_kind == "mse":
        diff = out - np.asarray(target, dtype=np.float64)
        squares = diff ** 2
        return float(squares.sum() / squares.size), diff
    raise ValueError(f"unknown loss {loss_kind!r}")


def _reference_backprop(model, outs, target, loss_kind):
    out = outs[-1]
    loss, residual = _reference_loss(out, target, loss_kind)
    # delta is the gradient w.r.t. the output layer's pre-activation
    if loss_kind == "bce":
        delta = residual / out.shape[0]
    else:
        delta = 2.0 * residual / residual.size
        delta = delta * out * (1.0 - out)  # the sigmoid output's derivative

    dWs = [None] * len(model.weights)
    dbs = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        a_cur = outs[layer + 1]
        if layer < len(model.weights) - 1:  # a relu layer
            delta = delta * (a_cur > 0.0)
        dWs[layer] = outs[layer].T @ delta
        dbs[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
    return loss, dWs, dbs


def reference_sgd_train(model, learn, validation, loss_kind, epochs, batch, step):
    """Seeded mini-batch SGD by the original loop: one fancy-index gather,
    one allocating forward and backward pass and one update per parameter
    array at every step.  'mse' reconstructs the input, 'bce' fits the
    labels."""
    for data in (learn, validation):
        if data.n_features != model.layer_dims[0]:
            raise TrainingError(
                f"model expects {model.layer_dims[0]} features, got {data.n_features}")
    X, Xval = learn.X, validation.X
    target, val_target = (X, Xval) if loss_kind == "mse" else (learn.labels, validation.labels)
    rng = np.random.default_rng(model.seed)
    n = X.shape[0]
    curve = TrainingCurve()
    for epoch in range(epochs):
        order = rng.permutation(n)
        seen, acc = 0, 0.0
        for start in range(0, n, batch):
            rows = order[start:start + batch]
            xb = X[rows]
            tb = xb if target is X else target[rows]
            loss, dWs, dbs = _reference_backprop(
                model, reference_forward(model, xb), tb, loss_kind)
            if not np.isfinite(loss):
                raise DivergenceDetected(epoch + 1)
            for i in range(len(model.weights)):
                model.weights[i] = model.weights[i] - step * dWs[i]
                model.biases[i] = model.biases[i] - step * dbs[i]
            acc += loss * len(rows)
            seen += len(rows)
        train_loss = acc / seen
        val_loss, _ = _reference_loss(
            reference_forward(model, Xval)[-1], val_target, loss_kind)
        if not np.isfinite(val_loss):
            raise DivergenceDetected(epoch + 1)
        curve.epochs.append((train_loss, val_loss))
    return curve


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
