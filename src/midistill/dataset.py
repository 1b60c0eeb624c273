"""Tabular dataset container: CSV ingestion, splitting, normalization and
the random-feature tampering columns.

A Dataset is an immutable bundle of named numeric columns plus a binary
label vector (1 = malware, 0 = legitimate).  All transformations return new
Dataset instances and record what they did in ``meta``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import DataError, NonBinaryLabel, NonNumericValue

RESERVED_RANDOM_NAMES = ("__rand1", "__rand2", "__rand3")

VALIDATION_FRACTION = 0.15
TEST_FRACTION = 0.15
WRITE_BLOCK_ROWS = 1024
# a block's rows are Python floats until they are copied into X: larger
# blocks keep more of them alive and raise peak RSS, smaller ones cost calls
READ_BLOCK_CHARS = 1 << 14
# "-0" that no fraction or exponent follows (the exponent "e-0" matches too,
# which only sends such a body to the per-cell parse)
_BARE_MINUS_ZERO = re.compile(rb"-0(?![.0-9eE])")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n_samples, n_features), column-aligned names, labels."""

    feature_names: tuple[str, ...]
    X: np.ndarray
    labels: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        labels = np.asarray(self.labels)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "X", X)
        if X.ndim != 2:
            raise DataError("feature matrix must be 2-dimensional")
        if len(self.feature_names) != X.shape[1]:
            raise DataError("feature_names not aligned with columns")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("duplicate feature names")
        if labels.shape != (X.shape[0],):
            raise DataError("labels length must equal n_samples")
        if X.size and not (np.isfinite(X.min()) and np.isfinite(X.max())):
            raise DataError("NaN/infinite values in feature matrix")
        # checked as given: the int64 cast would turn 0.5 into 0 and warn on NaN
        if not np.all((labels == 0) | (labels == 1)):
            raise DataError("labels must be 0/1")
        object.__setattr__(self, "labels", labels.astype(np.int64))
        X.setflags(write=False)
        self.labels.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    def select_features(self, names, note: str | None = None) -> "Dataset":
        """Project onto the given feature columns, preserving sample order."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise DataError(f"features not in the table: {', '.join(missing)}")
        idx = [self.feature_names.index(n) for n in names]
        meta = dict(self.meta)
        meta["selected_features"] = list(names)
        if note:
            meta["selection_note"] = note
        return Dataset(tuple(names), self.X[:, idx], self.labels, meta)

    def take(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(self.feature_names, self.X[rows], self.labels[rows], dict(self.meta))


@dataclass(frozen=True)
class DataSplit:
    """Disjoint learn/test/validation index sets covering all samples."""

    learn_idx: np.ndarray
    test_idx: np.ndarray
    validation_idx: np.ndarray


def load_csv(path, label_column: str, check_digest=None) -> Dataset:
    """Read an RFC-4180 CSV with a header row into a Dataset; a
    ``check_digest(sha256)`` may refuse the file before it is parsed.

    Rows with missing or unparseable numeric values are hard errors; the
    source is expected to be a fully preprocessed numeric table.  orjson
    parses the body a block of lines at a time; a body it cannot take as is
    (quoted cells, blank lines, spellings JSON reads otherwise, a bad value)
    is re-read one cell at a time through ``float()``, which returns the
    same table or raises the error for the first bad row.
    """
    if not os.path.exists(path):
        raise DataError(f"input {path} does not exist")
    if not os.path.isfile(path):
        raise DataError(f"input {path} is not a regular file")
    sha256, n_lines = _file_digest(path)
    if check_digest is not None:
        check_digest(sha256)
    try:
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
            body = _parse_body(fh, len(header), label_pos, n_lines - reader.line_num)
        # a body that is not UTF-8 is re-read too, so the per-cell parse
        # raises its decode error, or the error of a bad row before it
        X, labels = body or _parse_cells(path, header, label_pos)
    except UnicodeDecodeError as exc:
        raise DataError(f"input {path} is not valid UTF-8: {exc.reason}") from None
    meta = {
        "source_path": str(path),
        "source_sha256": sha256,
        "label_column": label_column,
        "transforms": [],
    }
    return Dataset(tuple(names), X, labels, meta)


def _parse_body(fh, n_columns: int, label_pos: int, n_rows: int):
    """(X, labels) of the ``n_rows`` lines left in ``fh``, or None unless
    every line is a row of ``n_columns`` JSON numbers with a 0/1 label.

    Each block of ``_blocks`` becomes one JSON array of rows for one
    ``orjson.loads`` call, whose doubles are the correctly rounded ones
    ``float()`` returns, and goes straight into ``X`` and ``labels``.  A
    block must hold nothing but digits, ``eE+-.,`` and line ends: no quotes,
    blanks or words that JSON reads otherwise or not at all, and no bare
    ``-0``, which JSON reads as the integer 0 without its sign.  Rows split
    at "\\n" only and JSON skips a "\\r" as blank, so a lone "\\r" inside the
    body leaves fewer rows than the line count and sends it to the per-cell
    parse, as does a spelling JSON refuses (``+1``, ``.5``, ``007``), a
    blank or ragged line, or a bad value."""
    # a row on this path takes at least two bytes a cell, so a body of
    # blank lines cannot make the allocation below outgrow the file
    if 2 * n_columns * n_rows > os.fstat(fh.fileno()).st_size + 1:
        return None
    X = np.empty((n_rows, n_columns - 1))
    labels = np.empty(n_rows, dtype=np.int64)
    done = 0
    try:
        for block in _blocks(fh):
            if block.translate(None, b"0123456789eE+-.,\r\n") or _BARE_MINUS_ZERO.search(block):
                return None
            rows = b"[[" + block.removesuffix(b"\n").replace(b"\n", b"],[") + b"]]"
            table = np.array(orjson.loads(rows), dtype=np.float64)
            end = done + len(table)
            if table.shape[1] != n_columns or end > n_rows or not np.isfinite(table).all():
                return None
            label = table[:, label_pos]
            if not ((label == 0.0) | (label == 1.0)).all():
                return None
            X[done:end, :label_pos] = table[:, :label_pos]
            X[done:end, label_pos:] = table[:, label_pos + 1:]
            labels[done:end] = label
            done = end
    except ValueError:  # not ASCII, not JSON, or ragged rows
        return None
    return (X, labels) if done == n_rows else None


def _blocks(fh):
    """The text left in ``fh`` as bytes, in blocks of about
    ``READ_BLOCK_CHARS`` cut after their last "\\n"; only the last block
    may end elsewhere.  Text that is not ASCII raises a ``UnicodeError``."""
    pending = []
    for text in iter(lambda: fh.read(READ_BLOCK_CHARS), ""):
        data = text.encode("ascii")
        cut = data.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, data[:cut]])
            pending = []
        pending.append(data[cut:])
    tail = b"".join(pending)
    if tail:
        yield tail


def _parse_cells(path, header: list[str], label_pos: int):
    """(X, labels) of the rows after the header, one cell at a time through
    ``float()``: the reference parse, which names the first bad row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
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
    X = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header) - 1)
    return X, np.asarray(labels)


def write_csv(dataset: Dataset, path, label_column: str) -> None:
    """Write the dataset to CSV, every cell ``repr`` of its float, plus a
    ``<name>.meta.json`` sidecar.  Newlines are not translated, so the bytes
    are the same on every platform."""
    if label_column in dataset.feature_names:
        raise DataError(f"label column {label_column!r} is also a feature name")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(list(dataset.feature_names) + [label_column])
        # a finite float's repr never needs quoting, so the rows skip
        # csv.writer; formatting a block at a time bounds the cells' memory
        ends = (",0\r\n", ",1\r\n")
        for start in range(0, dataset.n_samples, WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            labels = dataset.labels[block].tolist()
            # a table without features writes one empty cell per row
            columns = [_column_cells(col) for col in dataset.X[block].T] or [[""] * len(labels)]
            fh.writelines(",".join(row) + ends[lab] for row, lab in zip(zip(*columns), labels))
    with open(os.fspath(path) + ".meta.json", "w", newline="", encoding="utf-8") as fh:
        json.dump(dataset.meta, fh, indent=2, sort_keys=True)


def _column_cells(col: np.ndarray) -> list[str]:
    """``repr`` of each value.  orjson prints the same shortest round-trip
    digits, positionally for 1e-5 <= |v| < 1e16 and with an exponent outside
    that band, which only needs repr's spelling.  repr uses an exponent below
    1e-4 too, so cells with 1e-5 <= |v| < 1e-4 use repr."""
    values = col.tolist()
    # a "," after every cell, the last one too, ends each exponent
    text = orjson.dumps(values)[1:-1].decode() + ","
    if "e" in text:
        # exponents from -5 to 15 never occur; repr signs the rest (1e+16)
        # and writes them with two digits at least (1e-09)
        text = text.replace("e", "e+").replace("+-", "-")
        for digit in "6789":
            text = text.replace(f"e-{digit},", f"e-0{digit},")
    cells = text.split(",")[:-1]
    magnitude = np.abs(col)
    for i in np.flatnonzero((magnitude >= 1e-5) & (magnitude < 1e-4)).tolist():
        cells[i] = repr(values[i])
    return cells


def split(dataset: Dataset, seed: int) -> DataSplit:
    """Deterministic learn/test/validation split.

    validation = 15% of all samples; of the remainder, test = 15% and learn
    the rest.  Fractional counts round up, the remainder goes to learn,
    which reproduces the 46639/8231/9684 partition of a 64554-sample table.
    """
    n = dataset.n_samples
    if n < 10:
        raise DataError(f"need at least 10 samples, got {n}")
    n_val = math.ceil(VALIDATION_FRACTION * n)
    n_test = math.ceil(TEST_FRACTION * (n - n_val))
    perm = np.random.default_rng(seed).permutation(n)
    val = np.sort(perm[:n_val])
    test = np.sort(perm[n_val:n_val + n_test])
    learn = np.sort(perm[n_val + n_test:])
    return DataSplit(learn, test, val)


def folds(n_samples: int, k: int, seed: int) -> list[np.ndarray]:
    """``k`` disjoint row-index folds covering ``range(n_samples)``: a seeded
    permutation cut into parts whose sizes differ by at most one."""
    if not 2 <= k <= n_samples:
        raise DataError(f"cannot split {n_samples} rows into {k} folds: "
                        f"need at least 2 folds and no more folds than rows")
    return np.array_split(np.random.default_rng(seed).permutation(n_samples), k)


def fit_minmax(dataset: Dataset, rows=None) -> dict:
    """Per-column min/max parameters, optionally fit on a row subset."""
    X = dataset.X if rows is None else dataset.X[np.asarray(rows, dtype=np.int64)]
    return dict(zip(dataset.feature_names, zip(X.min(axis=0).tolist(),
                                               X.max(axis=0).tolist())))


def apply_minmax(dataset: Dataset, params: dict) -> Dataset:
    """Affinely map each column to [0,1] using stored (min, max) parameters.

    Constant columns (max == min) map to 0.  Out-of-range held-out values
    are clipped so downstream sigmoid/AE inputs stay in [0,1]; one so far out
    that its offset or quotient overflows clips the same way.  A column
    whose max - min overflows has no scale and is refused.
    """
    lo, hi = np.array([params[name] for name in dataset.feature_names]).reshape(-1, 2).T
    with np.errstate(over="ignore"):
        span = hi - lo
        if not np.isfinite(span).all():
            i = int(np.argmin(np.isfinite(span)))
            raise DataError(f"column {dataset.feature_names[i]!r} spans {float(lo[i])!r} to "
                            f"{float(hi[i])!r}, wider than the float range")
        live = hi > lo
        X = dataset.X - lo
        X /= np.where(live, span, 1.0)
    np.clip(X, 0.0, 1.0, out=X)
    X[:, ~live] = 0.0
    meta = dict(dataset.meta)
    meta["transforms"] = [*meta.get("transforms", []), "minmax"]
    meta["minmax_params"] = {k: list(v) for k, v in params.items()}
    return Dataset(dataset.feature_names, X, dataset.labels, meta)


def inject_random_features(dataset: Dataset, seed: int) -> Dataset:
    """Append the three label-independent tampering columns.

    1. standard Gaussian draws (quantile-class generator shape),
    2. a mixture of three isotropic Gaussian clusters at -5/0/+5,
    3. uniform samples on [0, 1).
    """
    for name in RESERVED_RANDOM_NAMES:
        if name in dataset.feature_names:
            raise DataError(f"feature name {name!r} is reserved for the tampering audit")
    n = dataset.n_samples
    rng = np.random.default_rng(seed)
    rand1 = rng.standard_normal(n)
    centers = np.array([-5.0, 0.0, 5.0])
    rand2 = centers[rng.integers(0, 3, size=n)] + rng.standard_normal(n)
    rand3 = rng.random(n)
    X = np.column_stack([dataset.X, rand1, rand2, rand3])
    meta = dict(dataset.meta)
    meta["random_features_seed"] = int(seed)
    return Dataset(dataset.feature_names + RESERVED_RANDOM_NAMES, X, dataset.labels, meta)


def _file_digest(path) -> tuple[str, int]:
    """The file's sha256 and its line count, with lines split as text mode
    with ``newline=""`` splits them: at "\\r\\n", "\\r" or "\\n"; an
    unterminated last line counts too."""
    h = hashlib.sha256()
    breaks, last = 0, b""
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            breaks += chunk.count(b"\n")
            cr = chunk.count(b"\r")
            if cr:
                breaks += cr - chunk.count(b"\r\n")
            if last == b"\r" and chunk[:1] == b"\n":
                breaks -= 1  # a CRLF split across two chunks
            last = chunk[-1:]
    return h.hexdigest(), breaks + (last not in (b"", b"\r", b"\n"))

