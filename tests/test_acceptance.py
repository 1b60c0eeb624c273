"""Acceptance suite.

Criteria 1-3 reproduce published numbers on the public MTA-KDD'19 dataset
and run only when that CSV is available (point MTA_KDD_CSV at it, with
MTA_KDD_LABEL naming the label column if it is not "label"); they are
skipped otherwise. Criteria 4-11 are self-contained desk-scale checks that
always run. Each test prints one "criterion N: PASS/FAIL" line.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import midistill
from midistill.dataset import load_csv, split, write_csv
from midistill.infotheory import (
    BinningConfig,
    DiscreteColumn,
    conditional_mutual_information,
    mutual_information,
)
from midistill.metrics import compute_metrics
from midistill.neural import (
    ae_encode,
    ae_new,
    ae_train,
    forward,
    gate_train,
    hinge_loss_and_grads,
    loss_and_gradients,
    mlp_new,
    mlp_train,
)
from midistill.pipeline import (
    PipelineConfig,
    run_ae,
    run_evaluate,
    run_fs,
    run_rrw,
)
from midistill.ranking import ALGORITHMS, CountTable, rank
from midistill.selection import tampering_audit

from conftest import make_dataset, planted_dataset
from oracles import bf_cmi, bf_greedy_ranking, bf_mi
from test_neural import assert_grads_close, finite_diff_param_grads

BINNING = BinningConfig(4, "equal_frequency")


def note(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status}" + (f" ({detail})" if detail else ""))


def mta_csv():
    path = os.environ.get("MTA_KDD_CSV")
    if path and os.path.exists(path):
        return path
    return None


def mta_label():
    return os.environ.get("MTA_KDD_LABEL", "label")


needs_mta = pytest.mark.skipif(mta_csv() is None,
                               reason="MTA-KDD'19 CSV not available "
                                      "(set MTA_KDD_CSV to enable)")


@needs_mta
class TestPublishedNumbers:
    def test_criterion_1_mdrt_and_suite(self, tmp_path):
        mdrts, suites = [], []
        for seed in range(3):
            config = PipelineConfig("fs", mta_csv(), label_column=mta_label(),
                                    seed=seed, out_dir=str(tmp_path / f"s{seed}"))
            report = run_fs(config)
            mdrts.append(report["mdrt"])
            suites.append(set(report["final_suite"]))
        mean_mdrt = float(np.mean(mdrts))
        ok = abs(mean_mdrt - 11) <= 1 and all(s == {"mRMR", "MIFS"} for s in suites)
        note(1, ok, f"mean MDRt {mean_mdrt}, suites {suites}")
        assert ok

    def test_criterion_2_optimized_accuracy(self, tmp_path):
        fs_out = tmp_path / "fs"
        fs_report = run_fs(PipelineConfig("fs", mta_csv(),
                                          label_column=mta_label(),
                                          out_dir=str(fs_out)))
        report_path = str(fs_out / "fs_report.json")
        rrw = run_rrw(PipelineConfig("rrw", mta_csv(), label_column=mta_label(),
                                     out_dir=str(tmp_path / "rrw"),
                                     fs_report=report_path))
        ae = run_ae(PipelineConfig("ae", mta_csv(), label_column=mta_label(),
                                   out_dir=str(tmp_path / "ae"),
                                   fs_report=report_path))
        acc_rrw = run_evaluate(PipelineConfig(
            "evaluate", rrw["artifacts"]["rrw_optimized_csv"],
            out_dir=str(tmp_path / "ev1")))["metrics"]["accuracy"]
        acc_ae = run_evaluate(PipelineConfig(
            "evaluate", ae["artifacts"]["ae_generated_csv"],
            out_dir=str(tmp_path / "ev2")))["metrics"]["accuracy"]
        ok = acc_rrw >= 0.99 and acc_ae >= 0.985
        note(2, ok, f"rrw acc {acc_rrw}, ae acc {acc_ae}")
        assert ok

    def test_criterion_3_audit_rank_pattern(self):
        from midistill.dataset import apply_minmax, fit_minmax
        data = load_csv(mta_csv(), mta_label())
        sp = split(data, 0)
        normalized = apply_minmax(data, fit_minmax(data, sp.learn_idx))
        audit = tampering_audit(normalized, ("mRMR", "MIFS", "DISR"),
                                folds=5, seed=0,
                                binning=BinningConfig(10, "equal_frequency"))
        n = audit.n_features_total
        clean = all(r > 0.7 * n
                    for alg in ("mRMR", "MIFS")
                    for r in audit.per_algorithm[alg]["avg_ranks"].values())
        fooled = any(r <= 0.3 * n
                     for r in audit.per_algorithm["DISR"]["avg_ranks"].values())
        ok = clean and fooled
        note(3, ok, f"clean {clean}, DISR fooled {fooled}")
        assert ok


def test_criterion_4_mi_oracle_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(8, 65))
        cols = [rng.integers(0, int(rng.integers(2, 5)), n) for _ in range(3)]
        x, y, z = (DiscreteColumn(c, int(c.max()) + 1) for c in cols)
        lx, ly, lz = (c.tolist() for c in cols)
        worst = max(worst,
                    abs(mutual_information(x, y) - bf_mi(lx, ly)),
                    abs(conditional_mutual_information(x, y, z) - bf_cmi(lx, ly, lz)))
    xor_x = DiscreteColumn(np.array([0, 0, 1, 1]), 2)
    xor_y = DiscreteColumn(np.array([0, 1, 0, 1]), 2)
    xor_z = DiscreteColumn(np.array([0, 1, 1, 0]), 2)
    xor_ok = (mutual_information(xor_x, xor_z) == 0.0
              and conditional_mutual_information(xor_x, xor_z, xor_y) == 1.0)
    ok = worst < 1e-9 and xor_ok
    note(4, ok, f"worst abs error {worst:.2e}, xor exact {xor_ok}")
    assert ok


def test_criterion_5_greedy_oracle_equivalence():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(100):
        f = int(rng.integers(2, 7))
        n = int(rng.integers(16, 65))
        cols = {f"c{i}": rng.integers(0, int(rng.integers(2, 5)), n).astype(float)
                for i in range(f)}
        data = make_dataset(cols, rng.integers(0, 2, n))
        raw = [data.X[:, i].astype(int).tolist() for i in range(f)]
        for algorithm in ALGORITHMS:
            got = [data.feature_names.index(name)
                   for name in rank(CountTable(data, BINNING), algorithm).features]
            expected = [i for i, _ in
                        bf_greedy_ranking(algorithm, raw, data.labels.tolist())]
            mismatches += got != expected
    ok = mismatches == 0
    note(5, ok, f"{mismatches} mismatching sequences out of 600")
    assert ok


def test_criterion_6_planted_feature_recovery(tmp_path):
    start = time.time()
    hits = 0
    for seed in range(10):
        data = planted_dataset(5, 15, 400, seed=seed)
        csv = tmp_path / f"planted{seed}.csv"
        write_csv(data, csv, "label")
        report = run_fs(PipelineConfig(
            "fs", str(csv), out_dir=str(tmp_path / f"out{seed}"),
            algorithms=("mRMR",), gamma=0.9, tamper_threshold=0.8, seed=seed))
        kept = report["optimized_features"] or []
        hits += sum(1 for f in kept if f.startswith("inf")) >= 4
    elapsed = time.time() - start
    ok = hits >= 9 and elapsed < 120
    note(6, ok, f"{hits}/10 seeds, {elapsed:.1f}s")
    assert ok


def test_criterion_7_sensitivity_law():
    rng = np.random.default_rng(7)
    f = 5
    X = rng.random((300, f))
    y = (X.sum(axis=1) > f / 2).astype(int)
    data = make_dataset({f"c{i}": X[:, i] for i in range(f)}, y)
    model = mlp_new(f, 7)
    mlp_train(model, data, data, epochs=5, batch=10)

    w = rng.uniform(0.05, 1.0, f)
    h = 1e-4
    worst = 0.0

    def f_at(u):
        return forward(model, u[None, :])[-1][0, 0]

    for x0 in X[:5]:
        u0 = w * x0
        for i in range(f):
            e = np.zeros(f)
            e[i] = h
            base = (f_at(u0 + e) - f_at(u0 - e)) / (2 * h)
            weighted = (f_at(w * (x0 + e)) - f_at(w * (x0 - e))) / (2 * h)
            expected = (w[i] ** 2) * base ** 2
            worst = max(worst, abs(weighted ** 2 - expected) / max(abs(expected), 1e-12))
    ok = worst < 1e-3
    note(7, ok, f"worst relative error {worst:.2e}")
    assert ok


def test_criterion_8_gradient_checks():
    rng = np.random.default_rng(8)
    data = make_dataset({"a": rng.random(16), "b": rng.random(16)},
                        rng.integers(0, 2, 16).tolist())
    gate = gate_train(data, epochs=3)
    _, gdW, gdb = hinge_loss_and_grads(gate, data.X, data.labels)
    fdW, fdb = finite_diff_param_grads(
        lambda: hinge_loss_and_grads(gate, data.X, data.labels)[0], gate)

    mlp = mlp_new(3, 8)
    Xm = rng.random((8, 3))
    ym = rng.integers(0, 2, 8).astype(float)
    _, mdW, mdb = loss_and_gradients(mlp, Xm, ym, "bce")
    mfW, mfb = finite_diff_param_grads(
        lambda: loss_and_gradients(mlp, Xm, ym, "bce")[0], mlp)

    ae = ae_new(4, 2, 8)
    Xa = rng.random((6, 4))
    _, adW, adb = loss_and_gradients(ae, Xa, Xa, "mse")
    afW, afb = finite_diff_param_grads(
        lambda: loss_and_gradients(ae, Xa, Xa, "mse")[0], ae)

    ok = True
    try:
        for analytic, numeric in ((gdW, fdW), (gdb, fdb), (mdW, mfW),
                                  (mdb, mfb), (adW, afW), (adb, afb)):
            assert_grads_close(analytic, numeric, rtol=1e-4)
    except AssertionError:
        ok = False
    note(8, ok, "gate hinge, MLP bce, AE mse at 1e-4")
    assert ok


def test_criterion_9_ae_convergence():
    rng = np.random.default_rng(9)
    n = 600
    latent = rng.random((n, 5))
    X = latent @ rng.random((5, 33))
    X = 0.1 + 0.2 * (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0))
    data = make_dataset({f"f{i}": X[:, i] for i in range(33)},
                        rng.integers(0, 2, n))
    sp = split(data, 9)
    model = ae_new(33, 5, 9)
    curve = ae_train(model, data.take(sp.learn_idx), data.take(sp.validation_idx),
                     epochs=10, batch=1)
    e1 = curve.epochs[0][0]
    e10 = curve.epochs[-1][0]
    dims = ae_encode(model, data).n_features
    ok = e10 < 0.25 * e1 and dims == 5
    note(9, ok, f"epoch-1 MSE {e1:.5f}, epoch-10 MSE {e10:.5f}, {dims} latent dims")
    assert ok


def test_criterion_10_metrics_identities():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        m = compute_metrics(rng.integers(0, 2, n), rng.integers(0, 2, n))
        if m.tpr is not None:
            worst = max(worst, abs(m.tpr + m.fnr - 1.0))
        if m.tnr is not None:
            worst = max(worst, abs(m.tnr + m.fpr - 1.0))
        if m.f1 is not None:
            harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
            worst = max(worst, abs(m.f1 - harmonic))
    ok = worst <= 1e-12
    note(10, ok, f"worst identity error {worst:.2e}")
    assert ok


def test_criterion_11_determinism(tmp_path):
    csv = tmp_path / "planted.csv"
    write_csv(planted_dataset(5, 0, 400, seed=11), csv, "label")

    def fs_config(**overrides):
        base = dict(mode="fs", input_path=str(csv), out_dir=str(tmp_path / "out"),
                    algorithms=("mRMR",), gamma=0.85, tamper_threshold=0.375,
                    seed=11, epochs=2, bottleneck=2)
        base.update(overrides)
        return PipelineConfig(**base)

    run_fs(fs_config())
    fs_report = str(tmp_path / "out" / "fs_report.json")
    runs = {
        "fs_report.json": lambda: run_fs(fs_config()),
        "rrw_report.json": lambda: run_rrw(fs_config(mode="rrw",
                                                     fs_report=fs_report)),
        "ae_report.json": lambda: run_ae(fs_config(mode="ae")),
        "evaluate_report.json": lambda: run_evaluate(fs_config(mode="evaluate")),
    }
    stable = []
    for name, runner in runs.items():
        runner()
        first = (tmp_path / "out" / name).read_bytes()
        runner()
        stable.append((tmp_path / "out" / name).read_bytes() == first)
    ok = all(stable)
    note(11, ok, f"stable reports: {sum(stable)}/4")
    assert ok


# one elimination path at a size where the gate's weights depend on the BLAS
# thread count (20000x33; at 10000x33 they do not): its trace digest, and
# the digest of the full-set gate's weights
BLAS_CHILD = """
import hashlib, json
from conftest import planted_dataset
from midistill.dataset import apply_minmax, fit_minmax, split
from midistill.infotheory import BinningConfig
from midistill.neural import gate_train
from midistill.selection import LearnRows, backward_eliminate

data = planted_dataset(6, 27, 20000, seed=3)
sp = split(data, 0)
data = apply_minmax(data, fit_minmax(data, sp.learn_idx))
gate = gate_train(data.take(sp.learn_idx))
trace = backward_eliminate(LearnRows(data, sp, BinningConfig()), "mRMR", 0.0)
print(json.dumps({
    "weights": hashlib.sha256(gate.weights[0].tobytes() + gate.biases[0].tobytes()).hexdigest(),
    "trace": hashlib.sha256(json.dumps(trace.to_json(), sort_keys=True).encode()).hexdigest(),
}))
"""


def _blas_child(threads: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([str(Path(midistill.__file__).parents[1]),
                                          str(Path(__file__).parent)])}
    done = subprocess.run([sys.executable, "-c", BLAS_CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_criterion_11_determinism_across_blas_threads():
    """The same elimination in two processes, at 1 and at 2 OpenBLAS
    threads: the trace is byte-identical although the gate's weights are
    not.  Only 1 against 2 threads is checked, which any host with 2 cores
    can run; the contract's scope is one BLAS build on one CPU."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("needs at least 2 cores to run OpenBLAS on 2 threads")
    one, two = _blas_child(1), _blas_child(2)
    ok = one["trace"] == two["trace"]
    note(11, ok, f"trace at 1 and 2 BLAS threads: {one['trace'][:8]}, {two['trace'][:8]}")
    assert ok
    if one["weights"] == two["weights"]:
        pytest.skip("the gate's weights are the same at 1 and 2 BLAS threads on this "
                    "BLAS build, so the threads changed no reduction the trace could show")
