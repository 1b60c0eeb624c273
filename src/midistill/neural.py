"""From-scratch differentiable models with seeded deterministic training:
a linear hinge-loss gate classifier, the rectangle MLP detector and the
bottleneck autoencoder.  numpy only, full IEEE doubles; the matrix
products run on as many threads as the BLAS library uses.
"""

from __future__ import annotations

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
    """Dense feed-forward network: per-layer weights, biases, activations."""

    kind: str  # linear_gate | mlp | autoencoder
    layer_dims: list[int]
    activations: list[str]  # one per non-input layer: relu | sigmoid | linear
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def bottleneck_index(self) -> int:
        """Index (into non-input layers) of the unique minimal hidden layer."""
        hidden = self.layer_dims[1:-1]
        if not hidden:
            raise TrainingError("model has no hidden layers")
        return int(np.argmin(hidden))


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

    def __len__(self) -> int:
        return len(self.epochs)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def forward(model: NeuralModel, X: np.ndarray) -> list[np.ndarray]:
    """All layer outputs, input first; result[-1] is the network output."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.input_dim:
        raise TrainingError(f"expected {model.input_dim} inputs, got {X.shape[1]}")
    return _layer_outputs(model, X)


def _layer_outputs(model: NeuralModel, X: np.ndarray) -> list[np.ndarray]:
    outs = [X]
    for W, b, act in zip(model.weights, model.biases, model.activations):
        outs.append(_activate(outs[-1] @ W + b, act))
    return outs


def _output(model: NeuralModel, X: np.ndarray, n_layers: int | None = None) -> np.ndarray:
    """The output of the first ``n_layers`` layers (default: all), computed
    as ``forward`` computes it but keeping no other layer."""
    a = X
    for W, b, act in zip(model.weights[:n_layers], model.biases, model.activations):
        a = _activate(a @ W + b, act)
    return a


def _init_layers(dims: list[int], rng: np.random.Generator):
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-limit, limit, size=fan_out))
    return weights, biases


# --- linear hinge-loss gate ------------------------------------------------

def gate_new(n_features: int) -> NeuralModel:
    return NeuralModel(
        kind="linear_gate",
        layer_dims=[n_features, 1],
        activations=["linear"],
        weights=[np.zeros((n_features, 1))],
        biases=[np.zeros(1)],
        seed=0,
    )


def gate_decision(model: NeuralModel, X: np.ndarray) -> np.ndarray:
    return _output(model, X)[:, 0]


def gate_predict(model: NeuralModel, X: np.ndarray) -> np.ndarray:
    return (gate_decision(model, X) >= 0.0).astype(np.int64)


def hinge_loss_and_grads(model: NeuralModel, X: np.ndarray, labels: np.ndarray,
                         lam: float = GATE_LAMBDA):
    """L2-regularized mean hinge loss and its parameter gradients."""
    t = 2.0 * np.asarray(labels, dtype=np.float64) - 1.0
    s = gate_decision(model, X)
    margin = 1.0 - t * s
    active = margin > 0.0
    loss = float(np.mean(np.maximum(margin, 0.0)) + lam * np.sum(model.weights[0] ** 2))
    ds = -(t * active) / len(t)
    dW = X.T @ ds[:, None] + 2.0 * lam * model.weights[0]
    db = np.array([ds.sum()])
    return loss, [dW], [db]


def gate_train(learn: Dataset, lam: float = GATE_LAMBDA, epochs: int = GATE_EPOCHS,
               step: float = GATE_STEP) -> NeuralModel:
    """Full-batch gradient descent on the hinge loss, zero init, deterministic.

    The arithmetic of ``hinge_loss_and_grads`` on a feature-major copy of X:
    both products read contiguous rows, the signs are derived once, and each
    epoch writes into the same n-length buffers."""
    y = learn.labels
    if len(np.unique(y)) < 2:
        raise TrainingError("gate training needs both classes")
    A = np.ascontiguousarray(learn.X.T)
    n = A.shape[1]
    t = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    c = -t / n  # ds = c * active is -(t * active) / n, signed zeros included
    w, b = np.zeros(A.shape[0]), np.zeros(1)
    s, margin, ds = np.empty(n), np.empty(n), np.empty(n)
    active = np.empty(n, dtype=bool)
    for epoch in range(epochs):
        np.matmul(w, A, out=s)
        s += b
        np.multiply(t, s, out=margin)
        np.subtract(1.0, margin, out=margin)
        loss = np.maximum(margin, 0.0, out=s).sum() / n + lam * np.sum(w ** 2)
        if not np.isfinite(loss):
            raise DivergenceDetected(epoch)
        np.greater(margin, 0.0, out=active)
        np.multiply(c, active, out=ds)
        w -= step * (A @ ds + 2.0 * lam * w)
        b -= step * ds.sum()
    model = gate_new(A.shape[0])
    model.weights[0], model.biases[0] = w[:, None], b
    return model


# --- MLP detector ----------------------------------------------------------

def mlp_new(f: int, seed: int) -> NeuralModel:
    """Rectangle MLP [f, 2f, 2f, 1]: relu hidden layers, sigmoid output."""
    if f < 1:
        raise TrainingError("need at least one feature")
    dims = [f, 2 * f, 2 * f, 1]
    weights, biases = _init_layers(dims, np.random.default_rng(seed))
    return NeuralModel("mlp", dims, ["relu", "relu", "sigmoid"], weights, biases, seed)


def loss_and_gradients(model: NeuralModel, X: np.ndarray, target: np.ndarray,
                       loss_kind: str):
    """Loss plus per-layer parameter gradients via backpropagation.

    loss_kind 'bce' expects a 0/1 target vector against a sigmoid output;
    'mse' expects a target matrix shaped like the output.
    """
    return _backprop(model, forward(model, X), target, loss_kind)


def _loss(out: np.ndarray, target: np.ndarray, loss_kind: str):
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


def _backprop(model: NeuralModel, outs: list[np.ndarray], target: np.ndarray,
              loss_kind: str):
    out = outs[-1]
    loss, residual = _loss(out, target, loss_kind)
    # delta is the gradient w.r.t. the output layer's pre-activation
    if loss_kind == "bce":
        delta = residual / out.shape[0]
    else:
        delta = 2.0 * residual / residual.size
        if model.activations[-1] == "sigmoid":
            delta = delta * out * (1.0 - out)

    dWs = [None] * len(model.weights)
    dbs = [None] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        a_cur = outs[layer + 1]
        if layer < len(model.weights) - 1:
            act = model.activations[layer]
            if act == "relu":
                delta = delta * (a_cur > 0.0)
            elif act == "sigmoid":
                delta = delta * a_cur * (1.0 - a_cur)
        dWs[layer] = outs[layer].T @ delta
        dbs[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
    return loss, dWs, dbs


def _sgd_train(model: NeuralModel, learn: Dataset, validation: Dataset, loss_kind: str,
               epochs: int, batch: int, step: float) -> TrainingCurve:
    """Seeded mini-batch SGD.  'mse' reconstructs the input (autoencoder),
    'bce' fits the labels."""
    for data in (learn, validation):
        if data.n_features != model.input_dim:
            raise TrainingError(
                f"model expects {model.input_dim} features, got {data.n_features}")
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
            loss, dWs, dbs = _backprop(model, _layer_outputs(model, xb), tb, loss_kind)
            if not np.isfinite(loss):
                raise DivergenceDetected(epoch + 1)
            for i in range(len(model.weights)):
                model.weights[i] = model.weights[i] - step * dWs[i]
                model.biases[i] = model.biases[i] - step * dbs[i]
            acc += loss * len(rows)
            seen += len(rows)
        train_loss = acc / seen
        val_loss, _ = _loss(_output(model, Xval), val_target, loss_kind)
        if not np.isfinite(val_loss):
            raise DivergenceDetected(epoch + 1)
        curve.epochs.append((train_loss, val_loss))
    return curve


def mlp_train(model: NeuralModel, learn: Dataset, validation: Dataset,
              epochs: int = 10, batch: int = 10, step: float = MLP_STEP) -> TrainingCurve:
    """Mini-batch SGD on binary cross-entropy; records TLC/VLC per epoch."""
    return _sgd_train(model, learn, validation, "bce", epochs, batch, step)


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
    return NeuralModel("autoencoder", dims, ["relu", "relu", "relu", "sigmoid"],
                       weights, biases, seed)


def ae_train(model: NeuralModel, learn: Dataset, validation: Dataset,
             epochs: int = 10, batch: int = 10, step: float = MLP_STEP) -> TrainingCurve:
    """Mini-batch SGD on mean squared reconstruction error."""
    return _sgd_train(model, learn, validation, "mse", epochs, batch, step)


def ae_encode(model: NeuralModel, dataset: Dataset) -> Dataset:
    """Bottleneck activations as a new Dataset with anonymous names f1..fk.
    Only the encoder half runs: the layers up to the bottleneck."""
    if model.kind != "autoencoder":
        raise TrainingError("ae_encode needs an autoencoder model")
    if dataset.n_features != model.input_dim:
        raise TrainingError(
            f"model expects {model.input_dim} features, got {dataset.n_features}")
    latent = _output(model, dataset.X, model.bottleneck_index() + 1)
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
        "activations": list(model.activations),
        "seed": int(model.seed),
        "weights": [W.tolist() for W in model.weights],
        "biases": [b.tolist() for b in model.biases],
    }

