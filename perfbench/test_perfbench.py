"""The benchmark's own tests: a desk-scale pass of every workload, and for
every output check a corrupted artifact that the check must reject."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import synth
import verify
from layers import UNITS, per_layer
from workloads import OUT, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """One traced desk run per workload: an untraced round, then a traced one."""
    runs = {}
    for name, workload in WORKLOADS.items():
        workdir = tmp_path_factory.mktemp("perfbench") / name
        runs[name] = (harness.run(ROOT, workload.desk(), SEED, 0.0, True, workdir), workdir)
    return runs


def _context(workload_name, out) -> verify.Context:
    workload = WORKLOADS[workload_name].desk()
    X, labels = synth.planted_table(workload.table, SEED)
    table = verify.Table(workload.table.names, X, labels)
    return verify.Context(table, out, workload.tamper_threshold)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_desk_pass_has_no_failed_operation(desk, name):
    result, _ = desk[name]
    assert result.failures == []
    ops_per_round = len(WORKLOADS[name].invocations) + len(WORKLOADS[name].checks)
    assert result.attempted == 2 * ops_per_round


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_round_reports_every_per_layer_metric(desk, name):
    result, _ = desk[name]
    values, absent = per_layer(result.trace, ROOT / "src", 0.1)
    assert sorted(values) == sorted(UNITS)
    assert absent == []
    assert values["pipeline.fs_s" if name != "compress" else "pipeline.ae_s"] > 0


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    result = harness.run(ROOT, WORKLOADS["wide"].desk(), SEED, 0.0, False, tmp_path / "w")
    assert result.failures == []
    metrics = harness.end_to_end(result)
    assert sorted(metrics) == sorted(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    assert len(result.setup_s) == harness.SETUP_PROBES


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_split_sizes_follow_the_ceil_rule():
    assert verify.split_sizes(64554) == (46639, 8231, 9684)


def test_run_refuses_a_checkout_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "wide", "--seed", "1", "--seconds", "1"]) == 2


def test_tracer_lists_a_missing_target_as_absent():
    code = ("import tracer; tracer.SPANS += (('ranking.gone', 'ranking', 'gone', None, None),);"
            "t = tracer.Tracer(); tracer.install(t); print(t.absent)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "['ranking.gone']"
    values, absent = per_layer({"spans": {}, "counters": {}, "absent": ["ranking.rank"]},
                               ROOT / "src", 0.1)
    assert "ranking.rank_calls" in absent and values["ranking.rank_calls"] == 0


# --- corrupted artifacts ----------------------------------------------------

def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_csv_cell(path: Path, row: int, col: int, edit) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = edit(cells[col])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _nudge(cell: str) -> str:
    return repr(float(cell) + 1e-6)


def _swap_labels(path: Path) -> None:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    i = next(k for k, r in enumerate(rows) if r[-1] != rows[0][-1])
    rows[0][-1], rows[i][-1] = rows[i][-1], rows[0][-1]
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def _first_step_tp(doc):
    doc["traces"]["mRMR"]["steps"][0]["metrics"]["tp"] += 1


def _accuracy(doc):
    doc["metrics"]["accuracy"] += 0.01


def _first_score(doc):
    doc["rankings"]["mRMR"]["entries"][0]["score"] += 1e-6


def _flip_pass(doc):
    rec = doc["tampering_audit"]["per_algorithm"]["CIFE"]
    rec["pass"] = not rec["pass"]


def _leak_random(doc):
    doc["rankings"]["JMI"]["entries"][-1]["feature"] = "__rand2"


def _weight_above_one(doc):
    name = next(iter(doc["weights"]))
    doc["weights"][name] = 1.5


def _weights_halved(doc):
    doc["weights"] = {k: v / 2 for k, v in doc["weights"].items()}


CORRUPTIONS = [
    ("split_sizes", "distill", "fs_report.json", _first_step_tp),
    ("split_sizes", "compress", "evaluate_report.json",
     lambda d: d["metrics"].__setitem__("tn", d["metrics"]["tn"] - 1)),
    ("metric_identities", "compress", "evaluate_report.json", _accuracy),
    ("first_entry_mi", "wide", "fs_report.json", _first_score),
    ("audit_flags", "distill", "fs_report.json", _flip_pass),
    ("no_random_columns", "wide", "fs_report.json", _leak_random),
    ("rrw_weights", "distill", "rrw_weights.json", _weight_above_one),
    ("rrw_weights", "distill", "rrw_weights.json", _weights_halved),
    ("rrw_csv", "distill", "rrw_weights.json", _weights_halved),
    ("optimized_csv", "distill", "optimized.csv", lambda p: _edit_csv_cell(p, 5, 0, _nudge)),
    ("optimized_csv", "distill", "optimized.csv", _swap_labels),
    ("rrw_csv", "distill", "rrw_optimized.csv", lambda p: _edit_csv_cell(p, 7, 1, _nudge)),
    ("ae_generated", "compress", "ae_generated.csv", lambda p: _edit_csv_cell(p, 3, 2, _nudge)),
    ("ae_generated", "compress", "ae_generated.csv",
     lambda p: _edit_csv_cell(p, 3, 2, lambda c: "-0.25")),
    ("ae_generated", "compress", "ae_generated.csv", _swap_labels),
    ("ae_generated", "compress", "ae_model.json",
     lambda d: d["biases"][0].__setitem__(0, d["biases"][0][0] + 0.5)),
    ("no_random_columns", "distill", "optimized.csv",
     lambda p: p.write_text(p.read_text().replace("inf0", "__rand1", 1))),
    ("determinism", "wide", "elimination_JMI.csv",
     lambda p: p.write_text(p.read_text() + "\n")),
    ("determinism", "compress", "mlp_curve.csv", lambda p: p.unlink()),
]


@pytest.mark.parametrize("check,workload,artifact,corrupt", CORRUPTIONS,
                         ids=[f"{c}-{w}-{a}-{i}" for i, (c, w, a, _)
                              in enumerate(CORRUPTIONS)])
def test_check_rejects_corrupted_artifact(desk, tmp_path, check, workload, artifact, corrupt):
    _, workdir = desk[workload]
    out = tmp_path / OUT
    shutil.copytree(workdir / OUT, out)
    ctx = _context(workload, out)
    ctx.reference = verify.digests(out)
    assert verify.run_checks([check], ctx) == [(check, None)]
    path = out / artifact
    if artifact.endswith(".json"):
        _edit_json(path, corrupt)
    else:
        corrupt(path)
    [(name, why)] = verify.run_checks([check], ctx)
    assert why is not None, f"{check} accepted a corrupted {artifact}"


def test_mutual_information_matches_a_hand_count():
    codes = np.array([0, 0, 1, 1])
    assert verify.mutual_information_bits(codes, np.array([0, 0, 1, 1])) == pytest.approx(1.0)
    assert verify.mutual_information_bits(codes, np.array([0, 1, 0, 1])) == pytest.approx(0.0)
