"""Golden report digests: the sha256 of every report, written CSV and its
metadata sidecar, elimination trace, RRw weight file, AE model and learning
curve from one desk-scale fs → rrw → ae → evaluate chain, run through the
CLI.

These digests are the "unchanged behaviour" gate for refactors and speedups.
Re-pin them only when a change alters a report on purpose, and record why.

Each chain runs twice, its modes in subprocesses with
``OPENBLAS_NUM_THREADS=1`` and then ``=2``, and both runs must give the
pinned digests: no report rests on how the BLAS library splits a product
across threads, the gate's (``tests/test_acceptance.py`` also checks its
weights at 1 and 2 threads), the SGD steps' and the validation passes'
alike.  All paths are relative to a temporary working directory, so no
report embeds a temporary path.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from midistill.dataset import Dataset, write_csv

from conftest import planted_dataset

SRC = Path(__file__).resolve().parents[1] / "src"
# every chain runs once at each OPENBLAS_NUM_THREADS
BLAS_THREADS = ("1", "2")

GOLDEN = {
    "fs/fs_report.json":
        "1217e4bb1401c47bf499cb6740ccb0fabf741e6d3e41426837d25d53ea057551",
    "fs/optimized.csv":
        "0eab0f9cad4eb790436c8002e1a5b8129cd1e02da884e553abb322fb7be73cf3",
    "fs/optimized.csv.meta.json":
        "85c947967520afa4a58e8fdfc89dbc634a3df1e11f686bd9723a43dd60263609",
    "fs/elimination_mRMR.csv":
        "adf46b34358e8acab1954fb58a98f72aa39d53e1d349b13c1c71410e26a00e70",
    "fs/elimination_MIFS.csv":
        "1263d97bae179fd4345da61fcf77e8c578324f31d463988feacbc4a0de261288",
    "fs/elimination_CIFE.csv":
        "adf46b34358e8acab1954fb58a98f72aa39d53e1d349b13c1c71410e26a00e70",
    "fs/elimination_JMI.csv":
        "adf46b34358e8acab1954fb58a98f72aa39d53e1d349b13c1c71410e26a00e70",
    "fs/elimination_CMIM.csv":
        "a3591132f9e023c110d2aaa7e79973704fe7ae21ad7a3f946f7d30b681c8243f",
    "fs/elimination_DISR.csv":
        "adf46b34358e8acab1954fb58a98f72aa39d53e1d349b13c1c71410e26a00e70",
    "rrw/rrw_report.json":
        "0a08a5eaf4c4ae7384daecebf3ff57f5b520ff854d505d79d4db50ddb33c39c8",
    "rrw/rrw_optimized.csv":
        "192653388f6b9b521d77ed5220759131eee61e8b5d79646ec9526b50dd597b99",
    "rrw/rrw_optimized.csv.meta.json":
        "98ee6506b54528f36ebf3190e8a8e198b5a68187510231025917efaf878ddb10",
    "rrw/rrw_weights.json":
        "e8ae55c5fd85fbe82164901be507ac57812d8a701b9ef9670401c9776709350b",
    "ae/ae_report.json":
        "e0b0b167d2884ce7c86233dce2d79f6edda8bbcba4ccc7767331db88bf56f148",
    "ae/ae_generated.csv":
        "1c572349c29ce3fe5d9f25528a6fc6b945fd056798f1aac168f8994c0eab4013",
    "ae/ae_generated.csv.meta.json":
        "ca587ea3081e0ee2861d640d11c8d038237ec3fbd8402c36b1aafb7602509868",
    "ae/ae_model.json":
        "1d35147129d622f729b504f4d4f6a4fbf1d52137ba67c9425f9c80b8898dde12",
    "ae/ae_curve.csv":
        "36a2c0a281981eebdd1f5f722eb4756ee185feb07a5164cc96b3ab9e015c6756",
    "evaluate/evaluate_report.json":
        "a3475c5b099fefd8057790f7524e314194c5293222b356dd40d5f5a0996784ea",
    "evaluate/mlp_curve.csv":
        "a02090005e4c860d5df6870426700514a76fd0bcd6000e67eacd571f56b404cb",
}

COMMANDS = (
    ["fs", "--input", "planted.csv", "--out", "fs", "--seed", "3",
     "--gamma", "0.85", "--tamper-threshold", "0.6"],
    ["rrw", "--input", "planted.csv", "--out", "rrw", "--seed", "3",
     "--fs-report", "fs/fs_report.json"],
    ["ae", "--input", "planted.csv", "--out", "ae", "--seed", "3",
     "--fs-report", "fs/fs_report.json", "--epochs", "3"],
    ["evaluate", "--input", "rrw/rrw_optimized.csv", "--out", "evaluate",
     "--seed", "3", "--epochs", "3"],
)


# Every criterion stops at elimination step 1 on this table: 10% of the
# labels are flipped, so no 3-feature gate reaches gamma, while the full
# 4-feature gate does and all six criteria stay in the final suite.
GOLDEN_STEP1 = {
    "fs/fs_report.json":
        "73201ddcbd37fb8a8d63250453ced8d612c5faa7f09ecc218a39ee9ca82471fc",
    "fs/optimized.csv":
        "ea52996674d2a67c7b6e175f87b8ff5a0dde468930a2d37b40675cf2516430a4",
    "fs/optimized.csv.meta.json":
        "f892b781bf20e3390b9119f2f0a6e21c12f695ba6c37f8ecf31336b13a04bc2d",
    **{f"fs/elimination_{alg}.csv":
       "5681fe50d62ab0cd5090b59af129df2b818c7689d3ac7e1ba5220e7435fa973d"
       for alg in ("mRMR", "CIFE", "JMI", "CMIM", "DISR")},
    "fs/elimination_MIFS.csv":
        "6a1347ad7009bb4fd6f54f67583c3fa2efe9e9dbdb5e90c822ec90a2e6824ef1",
}

STEP1_COMMAND = ["fs", "--input", "noisy.csv", "--out", "fs", "--seed", "3",
                 "--gamma", "0.85", "--tamper-threshold", "0.6"]


# Every criterion walks the whole elimination path on the chain's table: at
# gamma 0 no gate fails, so all seven steps run down to one feature and the
# elimination CSVs pin every feature each criterion drops.
GOLDEN_FULL_DEPTH = {
    "fs/fs_report.json":
        "fb0516ab1100de9e8799e8de6da8d5e1e35ff40febd9cc300bc4527026d35085",
    "fs/optimized.csv":
        "f551537a2853c17f36302913b888476477da5a0dea49c03d7c404873b0e18915",
    **{f"fs/elimination_{alg}.csv":
       "de40cf39dc5187ee18e35adf5b9d3e27725564990f8ca4d7c0684502fee189be"
       for alg in ("CIFE", "JMI", "DISR")},
    "fs/elimination_mRMR.csv":
        "d828a126687977eaacd6b0b0ab611c2a50aecc61d817ef3490f3c9c8bc852c07",
    "fs/elimination_MIFS.csv":
        "225e8fdc79c292f535a97f78cd84f86c8e2abf71b2082c6bb3ab3b6a3e9d7383",
    "fs/elimination_CMIM.csv":
        "2a102650ab1531ae79ae4cb130d95701c4bb32444c4eac877d586572cd438dff",
}

FULL_DEPTH_COMMAND = ["fs", "--input", "planted.csv", "--out", "fs", "--seed", "3",
                      "--gamma", "0", "--tamper-threshold", "0.6"]


# The chain's table at 32 bins, with the tampering audit at 0.8: every
# count table then has columns 32 codes wide, so its pairs are counted and
# reduced in chunks of 8, and the audit's 55 pairs fall into 7 chunks, the
# last one ragged.  All six criteria survive and walk to depth 1.
GOLDEN_CHUNKED = {
    "fs/fs_report.json":
        "68d666c0af35ca6f0df43d9dec8cf1e53e77f81f03938f0d4da85f9d3baed3a9",
    "fs/optimized.csv":
        "f551537a2853c17f36302913b888476477da5a0dea49c03d7c404873b0e18915",
    "fs/elimination_mRMR.csv":
        "7a1e54a52afac03a610a799d33dd3c889295b8f8147dafc85162b453f045556a",
    "fs/elimination_MIFS.csv":
        "fb61480a0b730bec55c3a48130fda4465011f63641422c7bd0ee02e61bf66619",
    "fs/elimination_CIFE.csv":
        "dbbf0a77f3a0222aadd7261148087ad5c81a374373a8d1b7d00de753ceb6ae23",
    "fs/elimination_JMI.csv":
        "89d7cb1c4be39100f74a25e7574d73898e4d5608ebddbe4c2f5287062896d0dc",
    "fs/elimination_CMIM.csv":
        "6af4ab9d2d110c0b6cf74cd6de7d59bed0d9f4c24f128c9da8a39f0c728b2234",
    "fs/elimination_DISR.csv":
        "fc5d430cba979fe8882a5a4452d8aa6f1008ac74cdcb9908d420e10918b9bf61",
}

CHUNKED_COMMAND = ["fs", "--input", "planted.csv", "--out", "fs", "--seed", "3",
                   "--gamma", "0", "--tamper-threshold", "0.8", "--bins", "32"]


# The column kinds of a traffic table on one desk-scale table, through the
# whole chain.  At gamma 0.85 and the tampering audit at 0.8 all six
# criteria pass the audit and walk all 11 elimination steps down to `flag`;
# at gamma 0.9 the full-feature gate (accuracy 0.883) already misses.  ae
# and evaluate read the input itself, so both SGD losses see every column.
GOLDEN_PAPER_LIKE = {
    "fs/fs_report.json":
        "a0f66cfc39b2fa07744e4863d12ceb16de665e7a409a095463b1ce473c4c2c3a",
    "fs/optimized.csv":
        "74fe1fae69734a4ca419019cbbf2018ec32f6ef6fe4599a84ae329cbc3d4e86b",
    "fs/optimized.csv.meta.json":
        "f53e2a2364624e2412fe85ebdf244a9dc1ce18d70affc53bb1a25046fb7b0ec6",
    **{f"fs/elimination_{alg}.csv":
       "d130516b318bc1c06e4e51b8c94ff265033a469b6c44b50eff9cdda0fb22d03a"
       for alg in ("mRMR", "MIFS", "CIFE", "JMI", "CMIM", "DISR")},
    "rrw/rrw_report.json":
        "a0447a34016532096813fbbfdd0b968fbc244cd520fbac83b409eaf06edb14c7",
    "rrw/rrw_optimized.csv":
        "74fe1fae69734a4ca419019cbbf2018ec32f6ef6fe4599a84ae329cbc3d4e86b",
    "rrw/rrw_optimized.csv.meta.json":
        "b8c9f6ddf38989f8e08e4b24df55adc7139fccaf394889016af34ad8c98cde27",
    "rrw/rrw_weights.json":
        "51cbd1f7a81911dc24953e3dc3977e7d4f021be1e91f4a3e8ac7471954755463",
    "ae/ae_report.json":
        "e938ae2d0aa06ea408d0d2b5d35ccd0cf3a03e36bd3f027ce35e5094c17d19b4",
    "ae/ae_generated.csv":
        "dfbc774f7add2a4c7c0abdecb575ad0a2935afa0cea29858f5563aa02e246b7c",
    "ae/ae_generated.csv.meta.json":
        "45d51d78dfe1015b21483276dc61a3d957b8e008c6875f1737930e0407bcfc33",
    "ae/ae_model.json":
        "4725b0dbab6c38d2bfa5a27836cce00e08eff9bde29d80538a4cbf393c41837d",
    "ae/ae_curve.csv":
        "29357be7258df7fa283816265ad1a0b7440268e0a73fc7ce292eb65148385b5c",
    "evaluate/evaluate_report.json":
        "08db29e62b1a046f53fac785523efb753fc554b7f3804e86093e8abb8074e0af",
    "evaluate/mlp_curve.csv":
        "073a61e9934123dba21f1b4a7935a465b730fd92f10dd901c8ab45cf1d1997bc",
}

PAPER_LIKE_COMMANDS = (
    ["fs", "--input", "paper.csv", "--out", "fs", "--seed", "3",
     "--gamma", "0.85", "--tamper-threshold", "0.8"],
    ["rrw", "--input", "paper.csv", "--out", "rrw", "--seed", "3",
     "--fs-report", "fs/fs_report.json"],
    ["ae", "--input", "paper.csv", "--out", "ae", "--seed", "3",
     "--fs-report", "fs/fs_report.json", "--epochs", "3"],
    ["evaluate", "--input", "paper.csv", "--out", "evaluate", "--seed", "3",
     "--epochs", "3", "--normalize"],
)


def paper_like_table() -> Dataset:
    """``planted_dataset(4, 2, 600, 7)`` and six more columns: an exact
    copy of inf0, a constant, a 0/1 flag that agrees with the label on 90%
    of rows, a Poisson count, a column that is 90% zeros and one spanning
    1e-3 to 1e9."""
    base = planted_dataset(4, 2, 600, seed=7)
    n, labels = base.n_samples, base.labels
    rng = np.random.default_rng(7)
    span = 10.0 ** rng.uniform(-3.0, 9.0, n)
    span[:2] = 1e-3, 1e9
    extra = {
        "dup": base.X[:, 0],
        "const": np.full(n, 3.0),
        "flag": np.where(rng.permutation(n) < n // 10, 1 - labels, labels),
        "count": rng.poisson(3.0, n),
        "zeros": np.where(rng.permutation(n) < 9 * n // 10, 0.0, rng.exponential(5.0, n)),
        "span": span}
    return Dataset(base.feature_names + tuple(extra),
                   np.column_stack([base.X, *extra.values()]), labels)


def _run_chain(tmp_path_factory, name: str, table: Dataset, commands) -> list[Path]:
    """One working directory per BLAS thread count, each with ``table`` as
    ``name``.csv and what ``commands`` wrote there at that count."""
    dirs = []
    for threads in BLAS_THREADS:
        work = tmp_path_factory.mktemp(f"golden_{name}_{threads}")
        write_csv(table, work / f"{name}.csv", "label")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        for args in commands:
            done = subprocess.run([sys.executable, "-m", "midistill.cli", *args],
                                  cwd=work, env=env, capture_output=True, text=True)
            assert done.returncode == 0, (threads, args[0], done.stderr)
        dirs.append(work)
    return dirs


def _digests(dirs: list[Path], artifact: str) -> list[str]:
    return [hashlib.sha256((work / artifact).read_bytes()).hexdigest() for work in dirs]


@pytest.fixture(scope="module")
def chain_dirs(tmp_path_factory):
    return _run_chain(tmp_path_factory, "planted", planted_dataset(5, 3, 600, seed=3), COMMANDS)


@pytest.fixture(scope="module")
def step1_dirs(tmp_path_factory):
    clean = planted_dataset(4, 0, 600, seed=3)
    flip = np.random.default_rng(3).random(clean.n_samples) < 0.1
    noisy = Dataset(clean.feature_names, clean.X,
                    np.where(flip, 1 - clean.labels, clean.labels))
    return _run_chain(tmp_path_factory, "noisy", noisy, [STEP1_COMMAND])


@pytest.fixture(scope="module")
def full_depth_dirs(tmp_path_factory):
    return _run_chain(tmp_path_factory, "planted", planted_dataset(5, 3, 600, seed=3),
                      [FULL_DEPTH_COMMAND])


@pytest.fixture(scope="module")
def chunked_dirs(tmp_path_factory):
    return _run_chain(tmp_path_factory, "planted", planted_dataset(5, 3, 600, seed=3),
                      [CHUNKED_COMMAND])


@pytest.mark.parametrize("artifact", sorted(GOLDEN))
def test_golden_digest(chain_dirs, artifact):
    assert _digests(chain_dirs, artifact) == [GOLDEN[artifact]] * len(BLAS_THREADS)


@pytest.mark.parametrize("artifact", sorted(GOLDEN_STEP1))
def test_golden_digest_step1_stop(step1_dirs, artifact):
    assert _digests(step1_dirs, artifact) == [GOLDEN_STEP1[artifact]] * len(BLAS_THREADS)


@pytest.mark.parametrize("artifact", sorted(GOLDEN_FULL_DEPTH))
def test_golden_digest_full_depth(full_depth_dirs, artifact):
    assert _digests(full_depth_dirs, artifact) == [GOLDEN_FULL_DEPTH[artifact]] * len(BLAS_THREADS)


@pytest.mark.parametrize("artifact", sorted(GOLDEN_CHUNKED))
def test_golden_digest_chunked_pairs(chunked_dirs, artifact):
    assert _digests(chunked_dirs, artifact) == [GOLDEN_CHUNKED[artifact]] * len(BLAS_THREADS)


@pytest.fixture(scope="module")
def paper_like_dirs(tmp_path_factory):
    return _run_chain(tmp_path_factory, "paper", paper_like_table(), PAPER_LIKE_COMMANDS)


@pytest.mark.parametrize("artifact", sorted(GOLDEN_PAPER_LIKE))
def test_golden_digest_paper_like_columns(paper_like_dirs, artifact):
    assert _digests(paper_like_dirs, artifact) == [GOLDEN_PAPER_LIKE[artifact]] * len(BLAS_THREADS)
