"""Plug-in (histogram) estimators for entropy, mutual information and
conditional mutual information over discretized columns.

Everything is computed in bits (log base 2) from empirical bin frequencies,
with 0*log(0) := 0 and small negative rounding results clamped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

BINNING_STRATEGIES = ("equal_width", "equal_frequency")


@dataclass(frozen=True)
class BinningConfig:
    n_bins: int = 10
    strategy: str = "equal_frequency"  # one of BINNING_STRATEGIES

    def __post_init__(self):
        if self.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        if self.strategy not in BINNING_STRATEGIES:
            raise ValueError(f"unknown binning strategy {self.strategy!r}")


@dataclass(frozen=True)
class DiscreteColumn:
    """Integer codes in 0..k-1 for one discretized feature."""

    codes: np.ndarray
    k: int

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
    """Bin a numeric column into integer codes by one rule.

    The edges are the column's distinct values when it is integer-coded with
    at most n_bins of them, and otherwise the interior cuts of n_bins
    equal-width bins over [min, max] or the column's empirical quantiles,
    duplicate edges merged.  A value's code is the number of edges below it,
    so a value sitting exactly on an edge falls in the lower bin, and empty
    bins are dropped (k may shrink, to 1 for a constant column).
    """
    x = np.asarray(column, dtype=np.float64)
    if x.size == 0:
        raise DataError(f"column {origin or '<anonymous>'} is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("column contains non-finite values")

    # distinct values and quantiles read the column sorted; equal-width cuts
    # of a non-integer column need no sort, which would cost them more
    integer = np.all(x == np.floor(x))
    s = np.sort(x) if integer or config.strategy == "equal_frequency" else x
    edges = s[np.concatenate(([True], s[1:] != s[:-1]))] if integer else None
    if edges is None or edges.size > config.n_bins:
        if config.strategy == "equal_width":
            edges = np.linspace(x.min(), x.max(), config.n_bins + 1)[1:-1]
        else:
            edges = np.unique(np.quantile(s, np.arange(1, config.n_bins) / config.n_bins))
    codes = np.searchsorted(edges, x, side="left")
    # drop empty bins so codes stay dense in 0..k-1: each bin's new code is
    # the number of filled bins below it
    filled = np.bincount(codes) > 0
    return DiscreteColumn((np.cumsum(filled) - 1)[codes], int(filled.sum()))


def _entropy_from_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log2(p)).sum())


def row_entropies(counts: np.ndarray) -> np.ndarray:
    """``_entropy_from_counts`` of every row of a 2-D count array, bit for bit.

    Zero cells are dropped as there.  Rows are sorted by how many cells they
    keep, so each such width's cells form one contiguous block, which is
    summed along its last axis; numpy sums pairwise row by row exactly as it
    sums one 1-D array.  A row of zeros gives +0.0.
    """
    nonzero = counts > 0
    widths = nonzero.sum(axis=1)
    order = np.argsort(widths)
    # a row of zeros divides by 1 and keeps no cell
    p = (counts / np.maximum(counts.sum(axis=1), 1)[:, None])[order][nonzero[order]]
    terms = np.log2(p)
    terms *= p
    out = np.zeros(len(counts))
    row = cell = 0
    for width, n_rows in enumerate(np.bincount(widths).tolist()):
        if width and n_rows:
            block = terms[cell:cell + n_rows * width].reshape(n_rows, width)
            out[order[row:row + n_rows]] = -block.sum(axis=1)
        row, cell = row + n_rows, cell + n_rows * width
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
    return DiscreteColumn(_pair_codes(x, y), x.k * y.k)


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
