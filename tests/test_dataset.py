import csv
import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from midistill import dataset as dataset_module
from midistill.dataset import (
    Dataset,
    apply_minmax,
    fit_minmax,
    folds,
    inject_random_features,
    load_csv,
    split,
    write_csv,
)
from midistill.errors import DataError, NonBinaryLabel, NonNumericValue
from midistill.infotheory import BinningConfig, DiscreteColumn, discretize, mutual_information

from conftest import make_dataset
from oracles import reference_load_csv, reference_write_csv


def write_lines(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write_lines(tmp_path, ["a,b,label", "1,2,0", "3,4,1", "5,6,0", "7,8,1"])
        data = load_csv(path, "label")
        assert data.feature_names == ("a", "b")
        assert data.n_samples == 4
        assert data.labels.tolist() == [0, 1, 0, 1]
        assert data.column("a").tolist() == [1, 3, 5, 7]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match=r"nope\.csv does not exist$"):
            load_csv(tmp_path / "nope.csv", "label")

    def test_nonbinary_label(self, tmp_path):
        path = write_lines(tmp_path, ["a,label", "1,0", "2,2"])
        with pytest.raises(NonBinaryLabel):
            load_csv(path, "label")

    def test_nonnumeric_value(self, tmp_path):
        path = write_lines(tmp_path, ["a,label", "1,0", "oops,1"])
        with pytest.raises(NonNumericValue) as err:
            load_csv(path, "label")
        assert err.value.row == 3
        assert err.value.column == "a"

    def test_missing_value_is_error(self, tmp_path):
        path = write_lines(tmp_path, ["a,b,label", "1,2,0", "3,,1"])
        with pytest.raises(NonNumericValue):
            load_csv(path, "label")

    def test_duplicate_header(self, tmp_path):
        path = write_lines(tmp_path, ["a,a,label", "1,2,0"])
        with pytest.raises(DataError, match="^duplicate or blank column names$"):
            load_csv(path, "label")

    def test_label_column_missing(self, tmp_path):
        path = write_lines(tmp_path, ["a,b", "1,2"])
        with pytest.raises(DataError, match="^label column 'label' not in header$"):
            load_csv(path, "label")

    def test_round_trip(self, tmp_path, rng):
        original = make_dataset(
            {"x": rng.random(20), "y": rng.standard_normal(20) * 1e6},
            rng.integers(0, 2, 20))
        out = tmp_path / "rt.csv"
        write_csv(original, out, "label")
        reloaded = load_csv(out, "label")
        assert reloaded.feature_names == original.feature_names
        np.testing.assert_array_equal(reloaded.X, original.X)
        np.testing.assert_array_equal(reloaded.labels, original.labels)
        assert json.loads((tmp_path / "rt.csv.meta.json").read_text()) is not None

    def test_write_matches_csv_writer_oracle(self, tmp_path, monkeypatch):
        # the rows bypass csv.writer; their bytes must equal what it writes
        # for repr(float(v)), and a header name with a comma is still quoted;
        # blocks of two rows put a block boundary inside the table
        monkeypatch.setattr(dataset_module, "WRITE_BLOCK_ROWS", 2)
        values = [0.1, 1e-05, 1e16, -0.0, 5e-324, 123456789.125]
        data = Dataset(("plain", "bytes,out"),
                       np.array(values).reshape(3, 2), np.array([0, 1, 1]))
        write_csv(data, tmp_path / "fast.csv", "label")
        with open(tmp_path / "oracle.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["plain", "bytes,out", "label"])
            for row, lab in zip(data.X, data.labels):
                writer.writerow([repr(float(v)) for v in row] + [int(lab)])
        written = (tmp_path / "fast.csv").read_bytes()
        assert written == (tmp_path / "oracle.csv").read_bytes()
        assert written.startswith(b'plain,"bytes,out",label\r\n')
        reloaded = load_csv(tmp_path / "fast.csv", "label")
        assert reloaded.X.tobytes() == data.X.tobytes()


# Python's repr switches to exponent form outside 1e-4 <= |v| < 1e16; the
# edges of that band, the smallest subnormal and a large negative
BAND_EDGES = (1e-4, math.nextafter(1e-4, 0), math.nextafter(1e16, 0), 1e16, 5e-324, -1.5e300)
# an RRw-weighted table: the weakest weight is about MINMAX_EPSILON / spread
WEAK_WEIGHTS = np.column_stack([np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 7) * 5e-9])


@st.composite
def write_tables(draw):
    """(X, labels) with any finite doubles, subnormals and -0.0 included."""
    n_rows, n_columns = draw(st.integers(0, 40)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          min_size=n_rows * n_columns, max_size=n_rows * n_columns))
    labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    return np.array(cells, dtype=np.float64).reshape(n_rows, n_columns), labels


def _written(writer, data, path):
    """The bytes a writer leaves in the CSV and in its meta sidecar."""
    writer(data, path, "label")
    return path.read_bytes(), path.with_name(path.name + ".meta.json").read_bytes()


class TestWriteCsv:
    """The writer against the original ``repr``-per-cell writer."""

    @pytest.fixture(scope="class")
    def out_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("write")

    @settings(max_examples=300, deadline=None)
    @given(table=write_tables(), block_rows=st.integers(1, 5))
    @example(table=(np.array([BAND_EDGES]).T, [0, 1, 1, 0, 1, 0]), block_rows=4)
    @example(table=(-np.array([BAND_EDGES]), [1]), block_rows=1)
    @example(table=(WEAK_WEIGHTS, [0, 1, 0, 1, 0, 1, 1]), block_rows=3)
    def test_matches_reference(self, out_dir, table, block_rows):
        X, labels = table
        data = Dataset(tuple(f"c{i}" for i in range(X.shape[1])), X,
                       np.array(labels, dtype=np.int64), {"note": "drawn"})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset_module, "WRITE_BLOCK_ROWS", block_rows)
            assert (_written(write_csv, data, out_dir / "fast.csv")
                    == _written(reference_write_csv, data, out_dir / "reference.csv"))

    def test_random_bits_match_repr(self, tmp_path):
        # 2**20 doubles: half with every bit random, half with an exponent
        # from 2**-16 to 2**55, so both edges of the band are crossed often;
        # guards against an orjson release that changes digits or forms
        rng = np.random.default_rng(1012)
        bits = rng.integers(0, 2**64, size=2**20, dtype=np.uint64)
        exponents = rng.integers(1023 - 16, 1023 + 56, size=2**19, dtype=np.uint64)
        bits[::2] = (bits[::2] & ~np.uint64(0x7FF << 52)) | (exponents << np.uint64(52))
        values = bits.view(np.float64)
        values[~np.isfinite(values)] = 0.5
        data = Dataset(tuple(f"c{i}" for i in range(8)), values.reshape(-1, 8),
                       rng.integers(0, 2, 2**17))
        fast = _written(write_csv, data, tmp_path / "fast.csv")[0].split(b"\r\n")
        reference = _written(reference_write_csv, data, tmp_path / "reference.csv")[0]
        reference = reference.split(b"\r\n")
        assert len(fast) == len(reference) == 2**17 + 2
        assert [(a, b) for a, b in zip(fast, reference) if a != b][:3] == []

    def test_table_without_features(self, tmp_path):
        data = Dataset((), np.zeros((3, 0)), np.array([0, 1, 1]))
        assert (_written(write_csv, data, tmp_path / "fast.csv")
                == _written(reference_write_csv, data, tmp_path / "reference.csv"))


# spellings for the differential test; a "clean" table draws only from the
# first five, which JSON reads as float() does (but a zero may come out as a
# bare -0); the next five are numbers JSON refuses or, for -0, reads as an
# integer without its sign
CELL_SPELLINGS = ("repr", "g17", "int", "exp", "tiny", "minus_zero", "plus", "zeros",
                  "lead_dot", "trail_dot", "padded", "quoted", "underscore", "inf", "nan",
                  "empty", "word")
LABEL_SPELLINGS = ("0", "1", "1.0", "-0", "0.0", " 1", '"1"', "2", "nan", "x")
LINE_KINDS = ("row", "row", "row", "blank", "comment", "ragged")
N_CLEAN = 5


def _cell(kind: str, value: float) -> str:
    return {"repr": repr(value), "g17": f"{value:.17g}", "int": str(int(value)),
            "exp": f"{value:.5E}", "tiny": f"{value * 1e-310:.17g}", "minus_zero": "-0",
            "plus": f"+{abs(value)!r}", "zeros": "007", "lead_dot": ".5", "trail_dot": "5.",
            "padded": f" {value!r}\t", "quoted": f'"{value!r}"', "underscore": "1_000",
            "inf": "-inf", "nan": "nan", "empty": "", "word": "abc"}[kind]


@st.composite
def csv_files(draw):
    """The bytes of a small CSV in one of many spellings; the label column is
    named ``label``.  Half the tables are clean, so both parses get tested."""
    clean = draw(st.booleans())
    cell_kinds = st.sampled_from(CELL_SPELLINGS[:N_CLEAN] if clean else CELL_SPELLINGS)
    label_kinds = st.sampled_from(LABEL_SPELLINGS[:5] if clean else LABEL_SPELLINGS)
    n_features = draw(st.integers(0, 3))
    names = [f"c{i}" for i in range(n_features)]
    label_pos = draw(st.integers(0, n_features))
    header = names[:label_pos] + ["label"] + names[label_pos:]
    lines = [",".join(header)]
    values = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    for _ in range(draw(st.sampled_from((0, 1, 1, 2, 3, 5)))):
        kind = "row" if clean else draw(st.sampled_from(LINE_KINDS))
        if kind == "blank":
            lines.append(draw(st.sampled_from(("", " "))))
            continue
        if kind == "comment":
            lines.append("#" + ",".join(["1"] * len(header)))
            continue
        cells = [_cell(draw(cell_kinds), draw(values)) for _ in names]
        cells.insert(label_pos, draw(label_kinds))
        if kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = newline.join(lines) + draw(st.sampled_from((newline, "")))
    # a BOM sticks to the first column name, so a leading label goes missing
    bom = "\ufeff" if draw(st.integers(0, 4)) == 4 else ""
    return (bom + text).encode("utf-8")


def _outcome(load, path):
    """What a loader gives: the table, or the error type and message."""
    try:
        return load(path)
    except DataError as exc:
        return type(exc), str(exc)


class TestLoadCsvParse:
    """The block parse against the per-cell reference, and when each runs."""

    @pytest.fixture(scope="class")
    def table_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("parse") / "table.csv"

    @settings(max_examples=400, deadline=None)
    @given(content=csv_files(),
           block_chars=st.sampled_from((1, 2, 5, 16, 64, dataset_module.READ_BLOCK_CHARS)))
    def test_matches_reference(self, table_path, content, block_chars):
        table_path.write_bytes(content)

        def load(p):
            data = load_csv(p, "label")
            return (data.feature_names, data.X.shape, data.X.tobytes(),
                    data.labels.dtype, data.labels.tolist(), data.meta["source_sha256"])

        def reference(p):
            names, X, labels, sha256 = reference_load_csv(p, "label")
            return names, X.shape, X.tobytes(), labels.dtype, labels.tolist(), sha256

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset_module, "READ_BLOCK_CHARS", block_chars)
            assert _outcome(load, table_path) == _outcome(reference, table_path)

    def _count_fallbacks(self, monkeypatch):
        calls = []
        original = dataset_module._parse_cells

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(dataset_module, "_parse_cells", counted)
        return calls

    def test_write_csv_output_takes_fast_path(self, tmp_path, monkeypatch, rng):
        calls = self._count_fallbacks(monkeypatch)
        X = np.vstack([[0.1, 1e-05, 1e16], [-0.0, 5e-324, -1.5e300], rng.random((50, 3))])
        data = Dataset(("plain", "with,comma", "x"), X, rng.integers(0, 2, len(X)))
        write_csv(data, tmp_path / "t.csv", "label")
        # the benchmark's tables: 17 significant digits, "\n" line ends
        G = np.vstack([[0.1, 1e-05, 1e16], [2.5e-7, 5e-324, -1.5e300],
                       rng.random((50, 3)), np.exp(rng.standard_normal((50, 3)))])
        g17 = Dataset(("a", "b", "c"), G, rng.integers(0, 2, len(G)))
        with open(tmp_path / "g17.csv", "w", encoding="ascii") as fh:
            fh.write("a,b,c,label\n")
            np.savetxt(fh, np.column_stack([G, g17.labels]), fmt=["%.17g"] * 3 + ["%d"],
                       delimiter=",")
        for written, path in ((data, tmp_path / "t.csv"), (g17, tmp_path / "g17.csv")):
            reloaded = load_csv(path, "label")
            assert reloaded.feature_names == written.feature_names
            assert reloaded.X.tobytes() == written.X.tobytes()
            assert reloaded.labels.tolist() == written.labels.tolist()
        assert calls == []

    @pytest.mark.parametrize("body, rows", [
        (["1,0", "", "2,1"], None),        # blank line: row 3 has the wrong length
        (['"1",0', "2,1"], [[1.0], [2.0]]),  # quoted cell
        (["1_000,1"], [[1000.0]]),          # underscore, which only float() reads
        (["1,0", "nan,1"], None),          # non-finite value at row 3
        (["-0,1", "2,0"], [[-0.0], [2.0]]),  # bare -0, which JSON reads as the integer 0
        (["+1,0"], [[1.0]]),                # plus sign, which JSON refuses
        ([" 1.5\t,1"], [[1.5]]),            # padded cell
    ])
    def test_other_bodies_fall_back(self, tmp_path, monkeypatch, body, rows):
        calls = self._count_fallbacks(monkeypatch)
        path = write_lines(tmp_path, ["a,label"] + body)
        if rows is None:
            with pytest.raises(NonNumericValue) as err:
                load_csv(path, "label")
            assert err.value.row == 3
        else:
            assert load_csv(path, "label").X.tobytes() == np.array(rows).tobytes()
        assert len(calls) == 1

    def _load_spellings(self, tmp_path, monkeypatch, tokens, width=1):
        """The features read from ``tokens`` laid out ``width`` to a row, each
        row labelled 0, and how many times the per-cell parse ran."""
        calls = self._count_fallbacks(monkeypatch)
        header = ",".join([f"c{i}" for i in range(width)] + ["label"])
        rows = (",".join(tokens[i:i + width]) + ",0" for i in range(0, len(tokens), width))
        path = tmp_path / "spellings.csv"
        path.write_text("\n".join([header, *rows]) + "\n", encoding="ascii")
        return load_csv(path, "label").X.ravel(), len(calls)

    @pytest.mark.parametrize("spell", [repr, "{:.17g}".format], ids=["repr", "g17"])
    def test_random_bits_read_as_float_does(self, tmp_path, monkeypatch, spell):
        # 2**20 doubles with every bit random, the way the benchmark and
        # write_csv spell them; guards against an orjson release that rounds
        # differently from float()
        values = np.random.default_rng(1313).integers(0, 2**64, 2**20, dtype=np.uint64)
        values = values.view(np.float64)
        values[~np.isfinite(values)] = 0.5
        tokens = [spell(v) for v in values.tolist()]
        X, fallbacks = self._load_spellings(tmp_path, monkeypatch, tokens, width=8)
        assert fallbacks == 0
        assert X.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    def test_mantissas_and_exponents_read_as_float_does(self, tmp_path, monkeypatch):
        # 1 to 25 significant digits at every exponent from -345 to 310: the
        # subnormals, underflow to zero and the edge of overflow
        draw = random.Random(1314)
        tokens = ["1e-400", "-1e-400"]
        for digits in range(1, 26):
            for exponent in range(-345, 311):
                m = str(draw.randrange(10 ** (digits - 1), 10 ** digits))
                sign = draw.choice(("", "-"))
                tokens += [f"{sign}{m}e{exponent}", f"{sign}{m[0]}.{m[1:] or 0}E{exponent:+d}",
                           f"{sign}0.{m}e{exponent}"]
        tokens = [t for t in tokens if math.isfinite(float(t))]
        X, fallbacks = self._load_spellings(tmp_path, monkeypatch, tokens)
        assert fallbacks == 0
        assert X.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    def test_integers_and_zeros_read_as_float_does(self, tmp_path, monkeypatch):
        tokens = [str(v) for v in (2**53 + 1, 2**53 + 3, -(2**53) - 1, 2**64 - 1, 2**64,
                                   2**64 + 1, -(2**63), -(2**63) - 1, -(2**64) - 1,
                                   10**25 + 1, int("9" * 40))]
        tokens += ["0", "0e5", "-0.0", "-0e0", "-0.0E-7"]
        X, fallbacks = self._load_spellings(tmp_path, monkeypatch, tokens)
        assert fallbacks == 0
        assert X.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    def test_refused_numbers_fall_back(self, tmp_path, monkeypatch):
        # JSON reads a bare -0 as the integer 0; the per-cell parse keeps its sign
        X, fallbacks = self._load_spellings(tmp_path, monkeypatch, ["1.5", "-0"])
        assert fallbacks == 1
        assert X.tobytes() == np.array([1.5, -0.0]).tobytes()
        # past the largest double: the per-cell parse names the cell
        with pytest.raises(NonNumericValue) as err:
            self._load_spellings(tmp_path, monkeypatch, ["1.5", "1e400"])
        assert (err.value.row, err.value.column) == (3, "c0")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("last", ["terminated", "unterminated"])
    def test_rows_across_block_edges(self, tmp_path, monkeypatch, newline, last):
        # blocks of 1 to 64 characters split rows, cells and the "\r\n" of
        # a line end, and hold no line end at all while a row is longer
        calls = self._count_fallbacks(monkeypatch)
        lines = ["a,label,b", "0.5,1,-2.5e-07", "12,0,3", "1.0E+5,1,0.125",
                 "-0.0,0,7e300", "0.30000000000000004,1,123456789012345678901234567890"]
        path = tmp_path / "edges.csv"
        path.write_bytes((newline.join(lines) + (newline if last == "terminated" else "")).encode())
        names, X, labels, _ = reference_load_csv(path, "label")
        for block_chars in range(1, 65):
            monkeypatch.setattr(dataset_module, "READ_BLOCK_CHARS", block_chars)
            data = load_csv(path, "label")
            assert (data.feature_names, data.X.tobytes(), data.labels.tolist()) == (
                names, X.tobytes(), labels.tolist())
        assert calls == []

    @pytest.mark.parametrize("body", ["1,\r2,0\n", "1,2\r,0\n", "1,2,0\r3,4,1\n",
                                      "1,2,0\r\n3,4\r,1\r\n"])
    def test_lone_carriage_return_falls_back(self, tmp_path, monkeypatch, body):
        # the line count takes a lone "\r" for a line end, as csv.reader does
        calls = self._count_fallbacks(monkeypatch)
        path = tmp_path / "cr.csv"
        path.write_bytes(b"a,b,label\n" + body.encode())
        for block_chars in (1, 3, dataset_module.READ_BLOCK_CHARS):
            monkeypatch.setattr(dataset_module, "READ_BLOCK_CHARS", block_chars)
            assert (_outcome(lambda p: load_csv(p, "label").X.tolist(), path)
                    == _outcome(lambda p: reference_load_csv(p, "label")[1].tolist(), path))
        assert len(calls) == 3

    def test_peak_memory_is_the_table_and_a_few_blocks(self, tmp_path, rng):
        n_rows, n_features = 20000, 33
        X, labels = rng.random((n_rows, n_features)), rng.integers(0, 2, n_rows)
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join([f"c{i}" for i in range(n_features)] + ["label"]) + "\n")
            np.savetxt(fh, np.column_stack([X, labels]),
                       fmt=["%.17g"] * n_features + ["%d"], delimiter=",")
        tracemalloc.start()
        try:
            data = load_csv(path, "label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.X.tobytes() == X.tobytes()
        # X, the mask of Dataset's finiteness check (a byte a cell), the
        # labels twice, and 16 blocks for the text, its JSON and the rows
        assert peak <= X.nbytes * 9 // 8 + 16 * n_rows + 16 * dataset_module.READ_BLOCK_CHARS

    def test_blank_lines_allocate_no_table(self, tmp_path):
        # 10000 lines cannot hold 10000 rows of 2001 cells; a table of that
        # shape would take 160 MB before the first block is read
        path = tmp_path / "blank.csv"
        path.write_text(",".join(f"c{i}" for i in range(2000)) + ",label\n" + "\n" * 10000)
        tracemalloc.start()
        try:
            with pytest.raises(NonNumericValue) as err:
                load_csv(path, "label")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.row == 2
        assert peak < 10_000_000

    def test_header_only(self, tmp_path):
        for text in ("a,b,label", "a,b,label\n", "a,b,label\r\n"):
            path = tmp_path / "h.csv"
            path.write_bytes(text.encode())
            data = load_csv(path, "label")
            assert data.X.shape == (0, 2)
            assert data.labels.shape == (0,)

    def test_directory_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError, match="not a regular file"):
            load_csv(tmp_path, "label")


class TestInvariants:
    def test_rejects_nan(self):
        with pytest.raises(DataError):
            make_dataset({"a": [1.0, np.nan]}, [0, 1])

    def test_rejects_bad_labels(self):
        with pytest.raises(DataError):
            make_dataset({"a": [1.0, 2.0]}, [0, 3])

    @pytest.mark.parametrize("labels", [[0.5, 1.7, -0.2], [0.0, np.nan, 1.0],
                                        [0.0, 1.0, 1.0 + 2**-52]])
    def test_rejects_labels_that_are_not_zero_or_one(self, labels):
        # checked before the int64 cast, which would round them and warn on NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="labels must be 0/1"):
                Dataset(("a",), np.zeros((3, 1)), np.array(labels))

    def test_accepts_float_zero_one_labels(self):
        data = Dataset(("a",), np.zeros((3, 1)), np.array([0.0, 1.0, -0.0]))
        assert data.labels.dtype == np.int64
        assert data.labels.tolist() == [0, 1, 0]

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError):
            Dataset(("a", "a"), np.ones((2, 2)), np.array([0, 1]))


class TestSplit:
    def test_reference_sample_counts(self):
        data = make_dataset({"a": np.arange(64554, dtype=float)},
                            np.arange(64554) % 2)
        sp = split(data, seed=7)
        assert len(sp.validation_idx) == 9684
        assert len(sp.test_idx) == 8231
        assert len(sp.learn_idx) == 46639

    def test_hundred_samples(self):
        data = make_dataset({"a": np.arange(100, dtype=float)}, np.arange(100) % 2)
        sp = split(data, seed=0)
        assert (len(sp.validation_idx), len(sp.test_idx), len(sp.learn_idx)) == (15, 13, 72)

    def test_deterministic(self):
        data = make_dataset({"a": np.arange(50, dtype=float)}, np.arange(50) % 2)
        a, b = split(data, seed=3), split(data, seed=3)
        np.testing.assert_array_equal(a.learn_idx, b.learn_idx)
        np.testing.assert_array_equal(a.test_idx, b.test_idx)
        np.testing.assert_array_equal(a.validation_idx, b.validation_idx)

    def test_too_few_samples(self):
        data = make_dataset({"a": np.arange(9, dtype=float)},
                            [0, 1, 0, 1, 0, 1, 0, 1, 0])
        with pytest.raises(DataError, match="^need at least 10 samples, got 9$"):
            split(data, seed=0)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(10, 500), seed=st.integers(0, 2**31))
    def test_partition_property(self, n, seed):
        data = make_dataset({"a": np.arange(n, dtype=float)}, np.arange(n) % 2)
        sp = split(data, seed)
        merged = np.concatenate([sp.learn_idx, sp.test_idx, sp.validation_idx])
        assert sorted(merged.tolist()) == list(range(n))


class TestFolds:
    def test_cover_every_row_once(self):
        parts = folds(23, 5, seed=4)
        assert sorted(np.concatenate(parts).tolist()) == list(range(23))
        assert sorted(len(p) for p in parts) == [4, 4, 5, 5, 5]

    def test_seeded(self):
        for a, b in zip(folds(30, 3, seed=1), folds(30, 3, seed=1)):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k", [0, 1, 24])
    def test_fold_count_out_of_range(self, k):
        with pytest.raises(DataError, match=f"23 rows into {k} folds"):
            folds(23, k, seed=0)


class TestMinmax:
    def test_basic(self):
        data = make_dataset({"a": [2.0, 4.0, 6.0]}, [0, 1, 0])
        normalized = apply_minmax(data, fit_minmax(data))
        assert normalized.column("a").tolist() == [0.0, 0.5, 1.0]

    def test_constant_column(self):
        data = make_dataset({"a": [5.0, 5.0, 5.0]}, [0, 1, 0])
        assert apply_minmax(data, fit_minmax(data)).column("a").tolist() == [0.0, 0.0, 0.0]

    def test_stored_transform_applies_to_new_data(self):
        fit = make_dataset({"a": [2.0, 6.0]}, [0, 1])
        params = fit_minmax(fit)
        new = make_dataset({"a": [4.0, 2.0]}, [0, 1])
        assert apply_minmax(new, params).column("a").tolist() == [0.5, 0.0]

    def test_idempotent(self, rng):
        data = make_dataset({"a": rng.random(30) * 9, "b": rng.standard_normal(30)},
                            rng.integers(0, 2, 30))
        once = apply_minmax(data, fit_minmax(data))
        twice = apply_minmax(once, fit_minmax(once))
        np.testing.assert_allclose(twice.X, once.X, atol=1e-12)

    def test_transform_recorded_in_meta(self):
        data = make_dataset({"a": [2.0, 6.0]}, [0, 1])
        normalized = apply_minmax(data, fit_minmax(data))
        assert normalized.meta["minmax_params"]["a"] == [2.0, 6.0]
        assert "minmax" in normalized.meta["transforms"]


class TestInjectRandomFeatures:
    def test_adds_three_columns(self, rng):
        data = make_dataset({f"f{i}": rng.random(50) for i in range(33)},
                            rng.integers(0, 2, 50))
        tampered = inject_random_features(data, seed=1)
        assert tampered.n_features == 36
        assert tampered.feature_names[-3:] == ("__rand1", "__rand2", "__rand3")

    def test_deterministic(self, rng):
        data = make_dataset({"a": rng.random(40)}, rng.integers(0, 2, 40))
        a = inject_random_features(data, seed=9)
        b = inject_random_features(data, seed=9)
        np.testing.assert_array_equal(a.X, b.X)

    def test_name_collision(self):
        data = make_dataset({"__rand1": [1.0, 2.0]}, [0, 1])
        with pytest.raises(DataError, match="'__rand1' is reserved for the tampering audit"):
            inject_random_features(data, seed=0)

    def test_label_independence(self):
        n = 10000
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, n)
        data = make_dataset({"a": rng.random(n)}, labels)
        tampered = inject_random_features(data, seed=2)
        label_col = DiscreteColumn(labels, 2)
        binning = BinningConfig(10, "equal_frequency")
        for name in ("__rand1", "__rand2", "__rand3"):
            col = tampered.column(name)
            r = np.corrcoef(col, labels)[0, 1]
            assert abs(r) < 0.05
            mi = mutual_information(discretize(col, binning), label_col)
            assert mi < 0.01
