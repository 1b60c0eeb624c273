"""Hypothesis fuzz of the CLI's exit-code contract.

Every run exits 0, 1, 2 or 3, and raises no warning.  A nonzero exit
prints exactly one stderr line, starting with the prefix of its error
family, and no traceback, and adds nothing to ``--out``.  The inputs are
bad or edge flag values, malformed and edge-case CSVs (among them columns
that overflow min-max scaling and subnormal columns), truncated, foreign,
non-object or mistyped fs reports, one whose ranking names a feature twice,
lacks one or names one its trace lacks, one made from another input, one
whose scores span more than the float range, and, on the output side,
directories that already exist at artifact paths or at ``<name>.tmp``, which
no run writes.  Runs are in-process and desk scale: at most 40 rows, 64 bins,
50 folds and 2 epochs.
"""

import contextlib
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from midistill.cli import main as cli_main

PREFIX = {1: "configuration error: ", 2: "data error: ", 3: "training failure: "}

BAD_NUMBERS = ("abc", "", "1.5", "nan", "inf", "-inf", "1e309", "0x10")
MISSING = "<missing>"  # --fs-report names a file that does not exist

# a separable table with columns f0, f1, on which rrw and ae get past
# loading and training to the fields they read
CLEAN_CSV = ("f0,f1,label\n" + "".join(f"{(i - 20) / 8!r},{i % 7 / 8!r},{int(i >= 20)}\n"
                                       for i in range(40))).encode("utf-8")

# an fs report in the shape rrw and ae read, made from CLEAN_CSV
FS_REPORT = {
    "mode": "fs",
    "final_suite": ["mRMR"],
    "mdrt": 2,
    "optimized_features": ["f0", "f1"],
    "traces": {"mRMR": {"initial_features": ["f0", "f1"], "optimized_features": ["f0", "f1"]}},
    "rankings": {"mRMR": {"entries": [{"feature": "f0", "score": 0.5},
                                      {"feature": "f1", "score": 0.25}]}},
    "source_sha256": hashlib.sha256(CLEAN_CSV).hexdigest(),
}

# one field of FS_REPORT, by its path, set to a value of the wrong type, or
# (the ninth) a ranking entry set to a feature the ranking already names
MISTYPED = (
    (("rankings", "mRMR", "entries", 0, "score"), "x"),
    (("rankings", "mRMR", "entries", 1, "feature"), 7),
    (("optimized_features", 1), 7),
    (("traces", "mRMR", "optimized_features", 0), ["f0"]),
    (("mdrt",), "two"),
    (("rankings", "mRMR", "entries", 0, "score"), 10**400),
    (("rankings", "mRMR", "entries", 0, "score"), float("nan")),
    (("rankings", "mRMR", "entries", 0, "score"), float("inf")),
    (("rankings", "mRMR", "entries", 1, "feature"), "f0"),
    (("source_sha256",), 7),
    (("traces", "mRMR", "initial_features"), "f0"),
    (("traces", "mRMR", "initial_features", 1), None),
)

# the ranking without its last entry, or naming a feature its trace lacks
RANKING_MISSING = json.dumps({**FS_REPORT, "rankings": {"mRMR": {"entries": [
    {"feature": "f0", "score": 0.5}]}}})
RANKING_FOREIGN = json.dumps({**FS_REPORT, "rankings": {"mRMR": {"entries": [
    {"feature": "f0", "score": 0.5}, {"feature": "g1", "score": 0.25}]}}})

# FS_REPORT as if made from another input
FOREIGN_INPUT = json.dumps({**FS_REPORT, "source_sha256": hashlib.sha256(b"other").hexdigest()})

# well-typed reports that the input or their own fields contradict
CONTRADICTED = {"foreign_input": FOREIGN_INPUT, "ranking_missing": RANKING_MISSING,
                "ranking_foreign": RANKING_FOREIGN}

# finite scores whose spread is past the float range
WIDE_SCORES = json.dumps({**FS_REPORT, "rankings": {"mRMR": {"entries": [
    {"feature": "f0", "score": 1.7e308}, {"feature": "f1", "score": -1.7e308}]}}})

# CLEAN_CSV with f0 spread from -1e308 to 1e308: past the float range for
# min-max scaling, and, unnormalized, large enough that an untrained MLP's
# sigmoid overflows exp
HUGE_CSV = ("f0,f1,label\n" + "".join(f"{(i - 20) / 20 * 1e308!r},{i % 7 / 8!r},{int(i >= 20)}\n"
                                      for i in range(40))).encode("utf-8")

# a label column and no feature: the audit passes on its random columns alone
LABEL_ONLY_CSV = ("label\n" + "".join(f"{i % 2}\n" for i in range(40))).encode("utf-8")


# every artifact a mode writes into --out
ARTIFACTS = (
    "fs_report.json", "optimized.csv", "optimized.csv.meta.json",
    *(f"elimination_{alg}.csv" for alg in ("mRMR", "MIFS", "CIFE", "JMI", "CMIM", "DISR")),
    "rrw_report.json", "rrw_optimized.csv", "rrw_optimized.csv.meta.json",
    "rrw_weights.json", "ae_report.json", "ae_generated.csv", "ae_generated.csv.meta.json",
    "ae_curve.csv", "ae_model.json", "evaluate_report.json", "mlp_curve.csv",
)


def _mistyped(path, value) -> str:
    doc = json.loads(json.dumps(FS_REPORT))
    *parents, last = path
    field = doc
    for key in parents:
        field = field[key]
    field[last] = value
    return json.dumps(doc)


def _int_flag(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(BAD_NUMBERS))


def _float_flag():
    return st.one_of(st.floats(-1.0, 2.0).map(repr), st.sampled_from(BAD_NUMBERS))


FLAGS = {
    "--seed": _int_flag(-3, 2**40),
    "--bins": _int_flag(-1, 64),
    "--folds": _int_flag(-1, 50),
    "--epochs": _int_flag(-1, 2),
    "--batch": _int_flag(-1, 20),
    "--bottleneck": _int_flag(-1, 6),
    "--gamma": _float_flag(),
    "--tamper-threshold": _float_flag(),
    "--beta": _float_flag(),
    "--binning": st.sampled_from(["equal_width", "equal_frequency", "kmeans"]),
    "--algorithms": st.sampled_from(["mRMR", "JMI,CMIM", "DISR,MIFS,CIFE", ",", "PCA"]),
    "--label": st.sampled_from(["label", "f0", "f1", "nope"]),
}


# column f0's cells in the numeric-edge kinds: a min-max span past the float
# range; a finite span from -1e308 to 0 that one row at 1e308 overflows
# unless it is a learn row; subnormal values
EDGE_COLUMNS = {
    "huge_span": st.integers(-50, 50).map(lambda v: repr(v / 50 * 1e308)),
    "huge_offset": st.integers(-50, 0).map(lambda v: repr(v / 50 * 1e308)),
    "subnormal": st.integers(-50, 50).map(lambda v: repr(v * 5e-324)),
}


@st.composite
def csv_bytes(draw):
    # the kind is drawn first: drawn after the cells, it is starved
    kind = draw(st.sampled_from(["clean", "report_input", "empty", "header_only", "ragged",
                                 "bom", "quoted", "single_class", "non_utf8", *EDGE_COLUMNS]))
    if kind == "empty":
        return b""
    if kind == "report_input":  # the table FS_REPORT was made from
        return CLEAN_CSV
    n = 0 if kind == "header_only" else draw(st.integers(0, 40))
    f = draw(st.integers(0, 4))
    header = ",".join([f"f{i}" for i in range(f)] + ["label"])
    cells = st.integers(-50, 50).map(lambda v: repr(v / 8))
    rows = [[draw(cells) for _ in range(f)] + [str(draw(st.integers(0, 1)))]
            for _ in range(n)]
    if kind == "ragged" and rows:
        rows[draw(st.integers(0, n - 1))].pop(0)
    elif kind == "quoted" and rows:
        rows[0] = [f'"{c}"' for c in rows[0]]
    elif kind == "single_class":
        for row in rows:
            row[-1] = "0"
    elif kind in EDGE_COLUMNS and f and rows:
        for row in rows:
            row[0] = draw(EDGE_COLUMNS[kind])
        if kind == "huge_offset":
            rows[draw(st.integers(0, n - 1))][0] = "1e+308"
    text = "\n".join([header] + [",".join(r) for r in rows]) + "\n"
    data = text.encode("utf-8")
    if kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "non_utf8":
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def fs_report_text(draw):
    text = json.dumps(FS_REPORT)
    kind = draw(st.sampled_from(["valid", "truncated", "foreign_mode", "foreign_csv",
                                 *CONTRADICTED, "list", "mistyped", "missing", "absent"]))
    if kind == "mistyped":
        return _mistyped(*draw(st.sampled_from(MISTYPED)))
    if kind in CONTRADICTED:
        return CONTRADICTED[kind]
    if kind == "truncated":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "foreign_mode":
        return json.dumps({"mode": "evaluate", "metrics": {"accuracy": 0.5}})
    if kind == "foreign_csv":
        return text.replace('"f0"', '"g0"').replace('"f1"', '"g1"')
    if kind == "list":
        return json.dumps([FS_REPORT])
    if kind == "missing":
        return MISSING
    return text if kind == "valid" else None


# directories at up to two artifact paths, each the artifact's own path or
# "<name>.tmp": a run stages its files in a directory of its own, so a
# directory at "<name>.tmp" must have no effect
BLOCKED = st.lists(st.tuples(st.sampled_from(ARTIFACTS), st.sampled_from(["", ".tmp"]))
                   .map("".join), unique=True, max_size=2)


# each mistyped field also runs once on a table that rrw or ae can load and
# train on, so the run reaches every place that reads the field
@settings(max_examples=300, deadline=None)
@example(mode="fs", data=LABEL_ONLY_CSV, report=None,
         flags={"--tamper-threshold": "0.99"}, blocked=[])
@example(mode="ae", data=CLEAN_CSV, report=_mistyped(*MISTYPED[4]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[0]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[1]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[2]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[3]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[5]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[6]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[7]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[8]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[9]), flags={}, blocked=[])
@example(mode="ae", data=CLEAN_CSV, report=_mistyped(*MISTYPED[10]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=_mistyped(*MISTYPED[11]), flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=WIDE_SCORES, flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=RANKING_MISSING, flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=RANKING_FOREIGN, flags={}, blocked=[])
@example(mode="rrw", data=CLEAN_CSV, report=FOREIGN_INPUT, flags={}, blocked=[])
@example(mode="ae", data=CLEAN_CSV, report=FOREIGN_INPUT, flags={"--bottleneck": "1"},
         blocked=[])
@example(mode="evaluate", data=HUGE_CSV, report=None, flags={"--epochs": "0"}, blocked=[])
@example(mode="fs", data=HUGE_CSV, report=None, flags={}, blocked=[])
@example(mode="fs", data=CLEAN_CSV, report=None, flags={}, blocked=["fs_report.json"])
@example(mode="fs", data=CLEAN_CSV, report=None, flags={}, blocked=["fs_report.json.tmp"])
@example(mode="evaluate", data=CLEAN_CSV, report=None, flags={"--epochs": "1"},
         blocked=["mlp_curve.csv", "evaluate_report.json.tmp"])
@given(mode=st.sampled_from(["fs", "rrw", "ae", "evaluate"]), data=csv_bytes(),
       report=fs_report_text(),
       flags=st.lists(st.sampled_from(sorted(FLAGS)), unique=True, max_size=4)
       .flatmap(lambda keys: st.fixed_dictionaries({k: FLAGS[k] for k in keys})),
       blocked=BLOCKED)
def test_exit_code_contract(mode, data, report, flags, blocked):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "in.csv").write_bytes(data)
        for name in blocked:
            (work / "out" / name).mkdir(parents=True)
        argv = [mode, "--input", str(work / "in.csv"), "--out", str(work / "out")]
        if report is not None:
            if report != MISSING:
                (work / "fs_report.json").write_text(report, encoding="utf-8")
            argv += ["--fs-report", str(work / "fs_report.json")]
        for flag, value in flags.items():
            argv.append(f"{flag}={value}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(argv)
        out_dir = work / "out"
        left = sorted(p.name for p in out_dir.iterdir()) if out_dir.exists() else []
        # each drawn directory is left empty, and no staging directory is left
        assert not any(any((out_dir / name).iterdir()) for name in blocked), (argv, left)
        assert not [name for name in left if name.startswith(".staging-")], (argv, left)
        if code:
            # a failed run publishes nothing
            assert left == sorted(blocked), (argv, left)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err
    # outside a test runner, each warning would print two more stderr lines
    assert not caught, (argv, [str(w.message) for w in caught])
    if code:
        assert err.startswith(PREFIX[code]), (argv, err)
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
