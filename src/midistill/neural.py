"""From-scratch differentiable models with seeded deterministic training:
a linear hinge-loss gate classifier, the rectangle MLP detector and the
bottleneck autoencoder.  numpy only, full IEEE doubles; the products other
than the gate's full-batch einsum run on as many threads as BLAS uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, DivergenceDetected, TrainingError

GATE_LAMBDA = 1e-4
GATE_EPOCHS = 200
GATE_STEP = 0.1
MLP_STEP = 0.05

MODEL_FORMAT_VERSION = 1


@dataclass
class NeuralModel:
    """Dense feed-forward network: relu layers under a sigmoid output."""

    kind: str  # mlp | autoencoder
    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int


@dataclass
class TrainingCurve:
    """Per-epoch (train_loss, validation_loss) pairs."""

    epochs: list[tuple[float, float]] = field(default_factory=list)

    def to_csv(self) -> str:
        return "epoch,train_loss,val_loss\n" + "".join(
            f"{i},{tl!r},{vl!r}\n" for i, (tl, vl) in enumerate(self.epochs, start=1))

    def to_json(self) -> list[dict]:
        return [{"epoch": i, "train_loss": tl, "val_loss": vl}
                for i, (tl, vl) in enumerate(self.epochs, start=1)]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) in place, one operation at a time."""
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(1.0, z, out=z)
    return np.divide(1.0, z, out=z)


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0, out=z)


def _activations(n_layers: int) -> list:
    """The activation of each of ``n_layers`` layers: relu, then a sigmoid output."""
    return [_relu] * (n_layers - 1) + [_sigmoid]


def _forward(a: np.ndarray, layers) -> np.ndarray:
    """The output of ``a`` through ``(W, b, out, activation)`` layers, each
    written into its ``out``: the product, the bias, the activation."""
    for W, b, out, activation in layers:
        np.dot(a, W, out=out)
        np.add(out, b, out=out)
        a = activation(out)
    return a


def _output(model: NeuralModel, X: np.ndarray, n_layers: int | None = None) -> np.ndarray:
    """The output of the first ``n_layers`` layers (default: all), with at
    most two layer outputs alive; a sigmoid's exp overflows on its way to 0."""
    layers = zip(model.weights[:n_layers], model.biases, _activations(len(model.weights)))
    with np.errstate(over="ignore"):
        return _forward(X, ((W, b, np.empty((len(X), W.shape[1])), act)
                            for W, b, act in layers))


def _init_layers(dims: list[int], rng: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-limit, limit, size=fan_out))
    return weights, biases


# --- linear hinge-loss gate ------------------------------------------------

def gate_predict(gate: tuple, X: np.ndarray) -> np.ndarray:
    w, b = gate
    return (X @ w + b >= 0.0).astype(np.int64)


class _GateStep:
    """Gradient of the L2-regularized mean hinge loss of a linear gate, on
    the feature-major rows ``A`` (features x rows).  The first call sums the
    gradient over all rows in one einsum, whose sums no BLAS thread splits;
    a later call adds only the rows whose hinge state flipped since the
    last.  Each call leaves the margins t * (w @ A + b) in ``margin``."""

    def __init__(self, A: np.ndarray, labels: np.ndarray):
        self.A = np.ascontiguousarray(A, dtype=np.float64)
        n = self.A.shape[1]
        self.t = 2.0 * np.asarray(labels, dtype=np.float64) - 1.0
        self.c = -self.t / n  # ds = c * active is -(t * active) / n, signed zeros included
        self.margin = np.empty(n)
        self.active, self.prev, self.flip = (np.empty(n, dtype=bool) for _ in range(3))
        self.g = None

    def __call__(self, w: np.ndarray, b: np.ndarray):
        """(dw, db) at the weight vector ``w`` and the bias ``b``."""
        margin = self.margin
        np.matmul(w, self.A, out=margin)
        margin += b
        margin *= self.t
        self.active, self.prev = self.prev, self.active
        active = np.less(margin, 1.0, out=self.active)
        if self.g is None:
            ds = self.c * active
            self.g, self.db = np.einsum("fn,n->f", self.A, ds), ds.sum()
        else:
            idx = np.not_equal(active, self.prev, out=self.flip).nonzero()[0]
            if idx.size:  # d = c for a row that joined the hinge, -c for one that left
                d = self.c.take(idx) * np.where(active.take(idx), 1.0, -1.0)
                self.g += self.A.take(idx, axis=1) @ d
                self.db += d.sum()
        return self.g + 2.0 * GATE_LAMBDA * w, self.db


def gate_train(A: np.ndarray, labels: np.ndarray, epochs: int = GATE_EPOCHS) -> tuple:
    """Weights (F,) and bias (1,) by full-batch hinge-loss descent from zero on ``A`` (F x n)."""
    if not 0 < labels.sum() < labels.size:
        raise TrainingError("gate training needs both classes")
    gate = _GateStep(A, labels)
    w, b = np.zeros(len(gate.A)), np.zeros(1)
    for epoch in range(epochs):
        dw, db = gate(w, b)
        if not np.isfinite(gate.margin.sum()):
            raise DivergenceDetected(epoch)
        w -= GATE_STEP * dw
        b -= GATE_STEP * db
    return w, b


# --- MLP detector ----------------------------------------------------------

def mlp_new(f: int, seed: int) -> NeuralModel:
    """Rectangle MLP [f, 2f, 2f, 1]: relu hidden layers, sigmoid output."""
    if f < 1:
        raise TrainingError("need at least one feature")
    dims = [f, 2 * f, 2 * f, 1]
    weights, biases = _init_layers(dims, np.random.default_rng(seed))
    return NeuralModel("mlp", dims, weights, biases, seed)


def _bce(out: np.ndarray, x: np.ndarray, y: np.ndarray, delta: np.ndarray,
         scratch: np.ndarray) -> float:
    """Mean cross-entropy of ``out`` against the labels ``y``; its gradient
    w.r.t. the output's pre-activation, (out - y) / m, is left in ``delta``."""
    # np.clip(out, 1e-12, 1 - 1e-12): the same selections, without
    # np.clip's Python-level argument handling
    p = np.minimum(np.maximum(out, 1e-12, out=delta), 1.0 - 1e-12, out=delta)
    q = np.subtract(1.0, p, out=scratch)  # each row's own-class probability
    np.putmask(q, y, p)
    total = -np.add.reduce(np.log(q, out=q), axis=None)
    np.divide(np.subtract(out, y, out=delta), len(out), out=delta)
    return float(total / out.size)


def _mse(out: np.ndarray, x: np.ndarray, y: np.ndarray, delta: np.ndarray,
         scratch: np.ndarray) -> float:
    """Mean squared error of ``out`` against the input ``x``; its gradient w.r.t.
    the pre-activation, (out - x) / (size / 2) * out * (1 - out), is left in ``delta``."""
    np.subtract(out, x, out=delta)
    total = np.add.reduce(np.multiply(delta, delta, out=scratch), axis=None)
    np.divide(delta, delta.size / 2, out=delta)
    np.multiply(delta, out, out=delta)
    np.multiply(delta, np.subtract(1.0, out, out=scratch), out=delta)
    return float(total / out.size)


class _SGDStep:
    """Loss and gradient of a relu network with a sigmoid output, one batch
    at a time, on the loss its kind picks once (``_bce`` for the MLP, ``_mse``
    for the autoencoder), in a fixed sequence of numpy calls into buffers.

    The weights and biases are views into one flat ``theta`` and their
    gradients views into one flat ``grad``, so an update is two calls.
    Products are ``np.dot`` with ``out=``, the ``cblas_dgemm`` call of
    ``@`` at less dispatch cost.  Each batch size gets one plan: the layer
    outputs and deltas it writes into and the transposed views its backward
    products read, so a step builds no list and allocates no buffer but the
    m-byte mask ``np.putmask`` casts from the bce labels.  Each operation
    and its order is that of the reference loop in ``tests/oracles.py``, or
    gives its bits: bce drops the other class's term, 0 * log(p or 1 - p),
    a signed zero; r / (size / 2) and 2r / size round the same real and
    differ only when |r| > DBL_MAX / 2, where r * r is inf; relu' as
    np.sign or as greater(relu, 0) cast to float agree on every relu output
    but NaN, which makes the output NaN.  In both exceptions the batch loss
    is not finite, so the step raises ``DivergenceDetected`` before its update."""

    def __init__(self, model: NeuralModel):
        self.loss = _bce if model.kind == "mlp" else _mse
        self.dims = model.layer_dims
        self.theta = np.concatenate(
            [p.ravel() for W, b in zip(model.weights, model.biases) for p in (W, b)])
        self.grad = np.empty_like(self.theta)
        self.weights, self.biases = self._layers(self.theta)
        self.dW, self.db = self._layers(self.grad)
        self._plans: dict[int, tuple] = {}

    def _layers(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        Ws, bs, at = [], [], 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            Ws.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
            at += fan_in * fan_out
            bs.append(flat[at:at + fan_out])
            at += fan_out
        return Ws, bs

    def _plan(self, m: int) -> tuple:
        """Buffers and views for batches of ``m`` rows: the ``_forward``
        layers, the output's delta, a scratch array, and the backward pass's
        ``(delta, relu output, transposed input, dW, db, transposed W, delta
        below)`` per layer, output layer first; that layer has no relu
        output, and the first layer reads the batch and writes no delta."""
        widths = self.dims[1:]
        top = len(widths) - 1
        outs = [np.empty((m, d)) for d in widths]
        deltas = [np.empty((m, d)) for d in widths]
        forward = tuple(zip(self.weights, self.biases, outs, _activations(len(widths))))
        backward = tuple(
            (deltas[l], outs[l] if l < top else None, outs[l - 1].T if l else None,
             self.dW[l], self.db[l], self.weights[l].T, deltas[l - 1] if l else None)
            for l in range(top, -1, -1))
        return self._plans.setdefault(m, (forward, deltas[-1], np.empty((m, widths[-1])), backward))

    def backward(self, xb: np.ndarray, yb: np.ndarray) -> float:
        """The loss of the batch ``xb`` with labels ``yb``; its gradient is left in ``grad``."""
        forward, delta, scratch, layers = self._plans.get(len(xb)) or self._plan(len(xb))
        loss = self.loss(_forward(xb, forward), xb, yb, delta, scratch)
        for delta, relu, a_T, dW, db, W_T, below in layers:
            if relu is not None:
                # relu'(z) as 1.0 or +0.0, written over this layer's output,
                # which the layer above has already used
                np.multiply(delta, np.sign(relu, out=relu), out=delta)
            np.dot(xb.T if a_T is None else a_T, delta, out=dW)
            np.add.reduce(delta, axis=0, out=db)
            if below is not None:
                np.dot(delta, W_T, out=below)
        return loss


def _check_width(model: NeuralModel, n_features: int) -> None:
    if n_features != model.layer_dims[0]:
        raise TrainingError(f"model expects {model.layer_dims[0]} features, got {n_features}")


def _sgd_train(model: NeuralModel, kind: str, learn: Dataset, validation: Dataset,
               epochs: int, batch: int) -> TrainingCurve:
    """Seeded mini-batch SGD of a model of ``kind``, on its kind's loss.
    The model's weights and biases become views of the step's parameter
    vector, so they follow every update.

    Each epoch gathers the learn rows and their labels in shuffled order
    into one buffer each, whose batch views are made once.  The validation
    set is scored after training, by the same loss (its output delta is
    discarded), on a copy of the parameters kept at the end of each epoch:
    its products are large enough for the BLAS library to wake worker
    threads, which would then spin next to the single-threaded steps."""
    if model.kind != kind:
        raise TrainingError(f"{kind} training got a model of kind {model.kind}")
    for data in (learn, validation):
        _check_width(model, data.n_features)
    sgd = _SGDStep(model)
    model.weights, model.biases = sgd.weights, sgd.biases
    theta, grad, scaled = sgd.theta, sgd.grad, np.empty_like(sgd.theta)
    n = learn.n_samples
    labels = learn.labels.reshape(-1, 1).astype(np.float64)
    X, y = np.empty_like(learn.X), np.empty_like(labels)
    batches = [(X[s:s + batch], y[s:s + batch]) for s in range(0, n, batch)]
    snapshots = np.empty((epochs, theta.size))
    train_losses = []
    rng = np.random.default_rng(model.seed)
    diverged = None
    # a diverging run overflows on its way to the non-finite loss that
    # raises DivergenceDetected; the warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for epoch in range(epochs):
                # mode="clip" writes straight into X; "raise" gathers into a copy first
                order = rng.permutation(n)
                np.take(learn.X, order, axis=0, out=X, mode="clip")
                np.take(labels, order, axis=0, out=y, mode="clip")
                acc = 0.0
                for xb, yb in batches:
                    loss = sgd.backward(xb, yb)
                    if not math.isfinite(loss):
                        raise DivergenceDetected(epoch + 1)
                    np.subtract(theta, np.multiply(MLP_STEP, grad, out=scaled), out=theta)
                    acc += loss * len(xb)
                train_losses.append(acc / n)
                snapshots[epoch] = theta
        except DivergenceDetected as exc:
            diverged = exc
        # an epoch whose validation loss is non-finite raises before a
        # later training divergence, as when each epoch ended with its
        # validation pass
        trained = theta.copy()
        val_labels = validation.labels.reshape(-1, 1)
        curve = TrainingCurve()
        for epoch, train_loss in enumerate(train_losses):
            theta[:] = snapshots[epoch]
            out = _output(model, validation.X)
            val_loss = sgd.loss(out, validation.X, val_labels, *np.empty((2, *out.shape)))
            if not math.isfinite(val_loss):
                raise DivergenceDetected(epoch + 1)
            curve.epochs.append((train_loss, val_loss))
        theta[:] = trained
    if diverged is not None:
        raise diverged
    return curve


def mlp_train(model: NeuralModel, learn: Dataset, validation: Dataset,
              epochs: int = 10, batch: int = 10) -> TrainingCurve:
    """Mini-batch SGD on binary cross-entropy; records TLC/VLC per epoch."""
    return _sgd_train(model, "mlp", learn, validation, epochs, batch)


def mlp_predict(model: NeuralModel, dataset: Dataset) -> np.ndarray:
    """Sigmoid output probabilities, one per sample; class = p >= 0.5."""
    return _output(model, dataset.X)[:, 0]


# --- autoencoder -----------------------------------------------------------

def ae_new(input_dim: int, bottleneck: int, seed: int) -> NeuralModel:
    """Symmetric funnel AE; intermediate layer size is the midpoint."""
    if not 1 <= bottleneck < input_dim:
        raise ConfigError(f"bottleneck {bottleneck} not in [1, input_dim {input_dim})")
    mid = int(round((input_dim + bottleneck) / 2))
    dims = [input_dim, mid, bottleneck, mid, input_dim]
    weights, biases = _init_layers(dims, np.random.default_rng(seed))
    return NeuralModel("autoencoder", dims, weights, biases, seed)


def ae_train(model: NeuralModel, learn: Dataset, validation: Dataset,
             epochs: int = 10, batch: int = 10) -> TrainingCurve:
    """Mini-batch SGD on mean squared reconstruction error."""
    return _sgd_train(model, "autoencoder", learn, validation, epochs, batch)


def ae_encode(model: NeuralModel, dataset: Dataset) -> Dataset:
    """Bottleneck activations as a new Dataset with anonymous names f1..fk.
    Only the encoder half runs: the layers up to the bottleneck."""
    if model.kind != "autoencoder":
        raise TrainingError("ae_encode needs an autoencoder model")
    _check_width(model, dataset.n_features)
    latent = _output(model, dataset.X, int(np.argmin(model.layer_dims[1:-1])) + 1)
    names = tuple(f"f{i + 1}" for i in range(latent.shape[1]))
    meta = dict(dataset.meta)
    meta["encoder"] = {"kind": "autoencoder", "seed": model.seed,
                       "bottleneck": latent.shape[1]}
    return Dataset(names, latent, dataset.labels, meta)


# --- serialization ---------------------------------------------------------

def model_to_json(model: NeuralModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": model.kind,
        "layer_dims": list(model.layer_dims),
        "activations": ["relu"] * (len(model.weights) - 1) + ["sigmoid"],
        "seed": int(model.seed),
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }

