"""Plug-in (histogram) estimators for entropy, mutual information and
conditional mutual information over discretized columns.

Everything is computed in bits (log base 2) from empirical bin frequencies,
with 0*log(0) := 0 and small negative rounding results clamped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError


class BinningStrategy(str, Enum):
    EQUAL_WIDTH = "equal_width"
    EQUAL_FREQUENCY = "equal_frequency"


@dataclass(frozen=True)
class BinningConfig:
    n_bins: int = 10
    strategy: BinningStrategy = BinningStrategy.EQUAL_FREQUENCY

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        object.__setattr__(self, "strategy", BinningStrategy(self.strategy))


@dataclass(frozen=True)
class DiscreteColumn:
    """Integer codes in 0..k-1 for one discretized feature."""

    codes: np.ndarray
    k: int
    origin: str = ""

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "codes", codes)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if codes.size and (codes.min() < 0 or codes.max() >= self.k):
            raise ValueError("codes out of range")
        codes.setflags(write=False)

    def __len__(self) -> int:
        return self.codes.size


def discretize(column, config: BinningConfig, origin: str = "") -> DiscreteColumn:
    """Bin a numeric column into integer codes.

    Columns that are already integer-coded with at most n_bins distinct
    values pass through unchanged (codes = rank of distinct value).
    Equal-width bins are right-closed, so a value sitting exactly on an
    interior edge falls in the lower bin; equal-frequency edges come from
    empirical quantiles, merging duplicate edges (k may shrink).
    """
    x = np.asarray(column, dtype=np.float64)
    if x.size == 0:
        raise DataError(f"column {origin or '<anonymous>'} is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("column contains non-finite values")

    distinct = np.unique(x)
    if distinct.size == 1:
        return DiscreteColumn(np.zeros(x.size, dtype=np.int64), 1, origin)
    if distinct.size <= config.n_bins and np.all(distinct == np.floor(distinct)):
        codes = np.searchsorted(distinct, x)
        return DiscreteColumn(codes, distinct.size, origin)

    if config.strategy is BinningStrategy.EQUAL_WIDTH:
        edges = np.linspace(x.min(), x.max(), config.n_bins + 1)[1:-1]
    else:
        qs = np.arange(1, config.n_bins) / config.n_bins
        edges = np.unique(np.quantile(x, qs))
    codes = np.searchsorted(edges, x, side="left")
    # drop empty bins so codes stay dense in 0..k-1
    _, codes = np.unique(codes, return_inverse=True)
    k = int(codes.max()) + 1
    return DiscreteColumn(codes.astype(np.int64), k, origin)


def _entropy_from_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def row_entropies(counts: np.ndarray) -> np.ndarray:
    """``_entropy_from_counts`` of every row of a 2-D count array, bit for bit.

    Zero cells are dropped as there; rows left with the same number of cells
    are stacked and summed along their last axis, which numpy sums pairwise
    row by row exactly as it sums one 1-D array.  A row of zeros gives 0.
    """
    out = np.zeros(len(counts))
    nonzero = counts > 0
    widths = nonzero.sum(axis=1)
    totals = counts.sum(axis=1)
    for width in np.unique(widths[widths > 0]):
        rows = np.flatnonzero(widths == width)
        p = counts[rows][nonzero[rows]].reshape(rows.size, width) / totals[rows, None]
        out[rows] = -(p * np.log2(p)).sum(axis=1)
    return out


def entropy(x: DiscreteColumn) -> float:
    """Shannon entropy H(X) in bits of the empirical bin distribution."""
    return _entropy_from_counts(np.bincount(x.codes, minlength=x.k))


def _pair_codes(x: DiscreteColumn, y: DiscreteColumn) -> np.ndarray:
    if len(x) != len(y):
        raise DataError(f"columns differ in length: {len(x)} vs {len(y)}")
    return x.codes * y.k + y.codes


def pair_column(x: DiscreteColumn, y: DiscreteColumn) -> DiscreteColumn:
    """Product-coded joint variable (X, Y) as a single discrete column."""
    return DiscreteColumn(_pair_codes(x, y), x.k * y.k, f"({x.origin},{y.origin})")


def joint_entropy(x: DiscreteColumn, y: DiscreteColumn) -> float:
    """H(X,Y) in bits from the joint empirical histogram."""
    return _entropy_from_counts(np.bincount(_pair_codes(x, y), minlength=x.k * y.k))


def mutual_information(x: DiscreteColumn, y: DiscreteColumn) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y), clamped at 0 against rounding."""
    return max(0.0, entropy(x) + entropy(y) - joint_entropy(x, y))


def conditional_mutual_information(
    x: DiscreteColumn, y: DiscreteColumn, z: DiscreteColumn
) -> float:
    """I(X;Y|Z) = sum_z p(z) I(X;Y | Z=z), computed per stratum."""
    if len(x) != len(y) or len(x) != len(z):
        raise DataError(f"columns differ in length: {len(x)}, {len(y)} and {len(z)}")
    n = len(z)
    total = 0.0
    for zv in np.unique(z.codes):
        mask = z.codes == zv
        xs = DiscreteColumn(x.codes[mask], x.k)
        ys = DiscreteColumn(y.codes[mask], y.k)
        total += (mask.sum() / n) * mutual_information(xs, ys)
    return max(0.0, total)
