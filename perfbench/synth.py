"""Seeded synthetic flow tables for the benchmark workloads.

A planted table has ``informative`` uniform columns whose sum decides the
label (rows inside a margin band around the threshold are rejected, so a
linear gate can separate the classes), and ``weak`` heavy-tailed columns
that carry a small label-dependent shift.  Weak columns are deliberately
not label-independent noise: the tampering audit cannot tell plain noise
from its own injected random features.  ``label_noise`` flips that share of
labels after the weak columns were drawn, which caps every classifier's
accuracy near ``1 - label_noise``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WEAK_SHIFT = 0.3  # log-scale shift of weak columns for label 1
MARGIN = 0.3  # half-width of the rejected band around the label threshold


@dataclass(frozen=True)
class TableSpec:
    rows: int
    informative: int
    weak: int
    label_noise: float = 0.0

    @property
    def names(self) -> tuple[str, ...]:
        return (tuple(f"inf{i}" for i in range(self.informative))
                + tuple(f"weak{i}" for i in range(self.weak)))


def planted_table(spec: TableSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix (rows, informative + weak) and 0/1 labels for ``seed``."""
    rng = np.random.default_rng(seed)
    target = spec.informative / 2.0
    kept, total = [], 0
    while total < spec.rows:
        batch = rng.random((2 * spec.rows, spec.informative))
        batch = batch[np.abs(batch.sum(axis=1) - target) > MARGIN]
        kept.append(batch)
        total += len(batch)
    informative = np.concatenate(kept)[:spec.rows]
    labels = (informative.sum(axis=1) > target).astype(np.int64)
    weak = np.exp(rng.standard_normal((spec.rows, spec.weak)) + WEAK_SHIFT * labels[:, None])
    if spec.label_noise:
        labels = labels ^ (rng.random(spec.rows) < spec.label_noise)
    return np.column_stack([informative, weak]), labels.astype(np.int64)


def write_table(path, names, X: np.ndarray, labels: np.ndarray) -> None:
    """CSV with a header row and a trailing ``label`` column; every value is
    written with 17 significant digits, so parsing returns the same double."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(list(names) + ["label"]) + "\n")
        np.savetxt(fh, np.column_stack([X, labels]),
                   fmt=["%.17g"] * X.shape[1] + ["%d"], delimiter=",")
