"""Output checks.

Each check is computed apart from the program, from the generated table and
the benchmark's own numpy code, or is a property the method must have.  A
check that does not hold raises ``CheckFailed`` with a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VALIDATION_FRACTION = 0.15
TEST_FRACTION = 0.15
N_BINS = 10  # the CLI defaults, which no workload overrides
SPLIT_SEED = 0
RANDOM_FEATURES = ("__rand1", "__rand2", "__rand3")
VALUE_TOL = 1e-12  # recomputed values and artifact cells
MI_TOL = 1e-9  # contingency MI against the program's entropy sums


class CheckFailed(Exception):
    pass


def split_sizes(n: int) -> tuple[int, int, int]:
    """(learn, test, validation) by the ceil rule: validation is 15% of all
    rows, test 15% of the rest, learn the remainder."""
    n_val = math.ceil(VALIDATION_FRACTION * n)
    n_test = math.ceil(TEST_FRACTION * (n - n_val))
    return n - n_val - n_test, n_test, n_val


@dataclass
class Table:
    """A generated table and what the checks derive from it once per run."""

    names: tuple[str, ...]
    X: np.ndarray
    labels: np.ndarray
    learn_rows: np.ndarray = field(init=False)
    n_test: int = field(init=False)
    scaled: np.ndarray = field(init=False)

    def __post_init__(self):
        _, self.n_test, n_val = split_sizes(len(self.labels))
        perm = np.random.default_rng(SPLIT_SEED).permutation(len(self.labels))
        self.learn_rows = np.sort(perm[n_val + self.n_test:])
        learn = self.X[self.learn_rows]
        lo, hi = learn.min(axis=0), learn.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        self.scaled = np.where(hi > lo, np.clip((self.X - lo) / span, 0.0, 1.0), 0.0)


@dataclass
class Context:
    table: Table
    out: Path
    tamper_threshold: float | None = None
    reference: dict | None = None  # artifact digests of the run's first round


def digests(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _report(ctx: Context, name: str) -> dict:
    return json.loads((ctx.out / name).read_text(encoding="utf-8"))


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(actual, expected) -> bool:
    if actual is None or expected is None:
        return actual is None and expected is None
    return abs(actual - expected) <= VALUE_TOL


def _all_metrics(ctx: Context) -> list[tuple[str, dict]]:
    """Every confusion-metric record the reports hold, with where it sits."""
    found = []
    if (ctx.out / "fs_report.json").exists():
        fs = _report(ctx, "fs_report.json")
        for alg, trace in fs["traces"].items():
            found += [(f"{alg} step {i}", s["metrics"])
                      for i, s in enumerate(trace["steps"], start=1)]
        found += [(f"{alg} post_bfe", m) for alg, m in fs["post_bfe_metrics"].items()]
    if (ctx.out / "evaluate_report.json").exists():
        found.append(("evaluate", _report(ctx, "evaluate_report.json")["metrics"]))
    _require(bool(found), "no confusion metrics in any report")
    return found


def check_split_sizes(ctx: Context) -> None:
    for where, m in _all_metrics(ctx):
        total = m["tp"] + m["fp"] + m["tn"] + m["fn"]
        _require(total == ctx.table.n_test,
                 f"{where}: {total} confusion counts, test split has {ctx.table.n_test}")


def expected_metrics(tp: int, fp: int, tn: int, fn: int) -> dict:
    def ratio(num, denom):
        return None if denom == 0 else num / denom

    precision, recall = ratio(tp, tp + fp), ratio(tp, tp + fn)
    f1 = (None if precision is None or recall is None or precision + recall == 0
          else 2 * precision * recall / (precision + recall))
    return {"accuracy": (tp + tn) / (tp + fp + tn + fn), "precision": precision,
            "recall": recall, "f1": f1, "tpr": recall, "tnr": ratio(tn, tn + fp),
            "fpr": ratio(fp, fp + tn), "fnr": ratio(fn, fn + tp), "fdr": ratio(fp, fp + tp)}


def check_metric_identities(ctx: Context) -> None:
    for where, m in _all_metrics(ctx):
        for name, value in expected_metrics(m["tp"], m["fp"], m["tn"], m["fn"]).items():
            _require(_close(m[name], value), f"{where}: {name} is {m[name]}, expected {value}")


def _equal_frequency_codes(x: np.ndarray) -> np.ndarray:
    edges = np.unique(np.quantile(x, np.arange(1, N_BINS) / N_BINS))
    return np.searchsorted(edges, x, side="left")


def mutual_information_bits(codes: np.ndarray, labels: np.ndarray) -> float:
    """I(X; label) in bits from a contingency count."""
    counts = np.zeros((int(codes.max()) + 1, 2))
    np.add.at(counts, (codes, labels), 1.0)
    p = counts / counts.sum()
    independent = p.sum(axis=1, keepdims=True) * p.sum(axis=0, keepdims=True)
    nz = p > 0
    return float((p[nz] * np.log2(p[nz] / independent[nz])).sum())


def check_first_entry_mi(ctx: Context) -> None:
    t = ctx.table
    learn, labels = t.scaled[t.learn_rows], t.labels[t.learn_rows]
    best = max(mutual_information_bits(_equal_frequency_codes(learn[:, i]), labels)
               for i in range(learn.shape[1]))
    rankings = {alg: r for alg, r in _report(ctx, "fs_report.json")["rankings"].items()
                if alg != "DISR"}  # DISR's first score is a symmetrical relevance
    _require(bool(rankings), "no non-DISR ranking in the fs report")
    for alg, ranking in rankings.items():
        score = ranking["entries"][0]["score"]
        _require(abs(score - best) <= MI_TOL,
                 f"{alg}: first entry scores {score}, max I(X; label) is {best}")


def check_audit_flags(ctx: Context) -> None:
    report = _report(ctx, "fs_report.json")
    audit = report["tampering_audit"]
    total = len(ctx.table.names) + len(RANDOM_FEATURES)
    _require(audit["n_features_total"] == total,
             f"audit counts {audit['n_features_total']} features, expected {total}")
    cutoff = (1.0 - ctx.tamper_threshold) * total
    passing = []
    for alg, rec in audit["per_algorithm"].items():
        ranks = rec["avg_ranks"]
        _require(sorted(ranks) == list(RANDOM_FEATURES), f"{alg}: audit ranks {sorted(ranks)}")
        expected = all(v > cutoff for v in ranks.values())
        _require(rec["pass"] == expected,
                 f"{alg}: pass={rec['pass']} but ranks {ranks} vs cutoff {cutoff}")
        passing += [alg] if expected else []
    _require(sorted(report["surviving_after_audit"]) == sorted(passing),
             f"survivors {report['surviving_after_audit']}, flags give {passing}")


def _report_feature_names(ctx: Context) -> list[str]:
    names = []
    if (ctx.out / "fs_report.json").exists():
        fs = _report(ctx, "fs_report.json")
        names += fs["optimized_features"] or []
        for trace in fs["traces"].values():
            names += trace["initial_features"] + trace["optimized_features"]
            names += [s["removed_feature"] for s in trace["steps"]]
        for ranking in fs["rankings"].values():
            names += [e["feature"] for e in ranking["entries"]]
    if (ctx.out / "rrw_weights.json").exists():
        names += list(_report(ctx, "rrw_weights.json")["weights"])
    return names


def check_no_random_columns(ctx: Context) -> None:
    csvs = sorted(ctx.out.glob("*.csv"))
    _require(bool(csvs), "no CSV artifacts")
    names = _report_feature_names(ctx)
    for path in csvs:
        with open(path, encoding="utf-8") as fh:
            names += fh.readline().rstrip("\n").split(",")
    leaked = sorted({n for n in names if n.startswith("__rand")})
    _require(not leaked, f"random feature(s) outside the audit: {leaked}")


def _optimized(ctx: Context) -> tuple[list[str], np.ndarray]:
    features = _report(ctx, "fs_report.json")["optimized_features"]
    _require(bool(features), "fs report has no optimized features")
    cols = [ctx.table.names.index(f) for f in features]
    return features, ctx.table.scaled[:, cols]


def _compare_table(path: Path, header: list[str], values: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    got_header, data = _read_csv(path)
    _require(got_header == header + ["label"], f"{path.name}: header {got_header}")
    _require(data.shape == (len(labels), values.shape[1] + 1),
             f"{path.name}: shape {data.shape}")
    err = float(np.max(np.abs(data[:, :-1] - values)))
    _require(err <= VALUE_TOL, f"{path.name}: cells differ by up to {err}")
    _require(np.array_equal(data[:, -1], labels), f"{path.name}: labels out of input order")
    return data


def check_optimized_csv(ctx: Context) -> None:
    features, values = _optimized(ctx)
    _compare_table(ctx.out / "optimized.csv", features, values, ctx.table.labels)


def check_rrw_weights(ctx: Context) -> None:
    features, _ = _optimized(ctx)
    weights = _report(ctx, "rrw_weights.json")["weights"]
    _require(sorted(weights) == sorted(features), f"weights cover {sorted(weights)}")
    outside = {k: v for k, v in weights.items() if not 0.0 < v <= 1.0}
    _require(not outside, f"weights outside (0, 1]: {outside}")
    _require(max(weights.values()) == 1.0, f"largest weight is {max(weights.values())}")


def check_rrw_csv(ctx: Context) -> None:
    features, values = _optimized(ctx)
    weights = _report(ctx, "rrw_weights.json")["weights"]
    scale = np.array([weights[f] for f in features])
    _compare_table(ctx.out / "rrw_optimized.csv", features, values * scale, ctx.table.labels)


def encode(model: dict, X: np.ndarray) -> np.ndarray:
    """The encoder half of an ``ae_model.json``: layers up to the narrowest."""
    hidden = model["layer_dims"][1:-1]
    a = X
    for i in range(hidden.index(min(hidden)) + 1):
        a = a @ np.asarray(model["weights"][i]) + np.asarray(model["biases"][i])
        _require(model["activations"][i] == "relu",
                 f"encoder layer {i} is {model['activations'][i]}")
        a = np.maximum(a, 0.0)
    return a


def check_ae_generated(ctx: Context) -> None:
    latent = encode(_report(ctx, "ae_model.json"), ctx.table.scaled)
    header = [f"f{i + 1}" for i in range(latent.shape[1])]
    data = _compare_table(ctx.out / "ae_generated.csv", header, latent, ctx.table.labels)
    _require(float(data[:, :-1].min()) >= 0.0, "negative latent activation")


def check_determinism(ctx: Context) -> None:
    now = digests(ctx.out)
    reference = now if ctx.reference is None else ctx.reference
    changed = sorted(k for k in reference.keys() | now.keys()
                     if reference.get(k) != now.get(k))
    _require(not changed, f"artifacts differ from the first round: {changed}")


CHECKS = {
    "split_sizes": check_split_sizes,
    "metric_identities": check_metric_identities,
    "first_entry_mi": check_first_entry_mi,
    "audit_flags": check_audit_flags,
    "no_random_columns": check_no_random_columns,
    "optimized_csv": check_optimized_csv,
    "rrw_weights": check_rrw_weights,
    "rrw_csv": check_rrw_csv,
    "ae_generated": check_ae_generated,
    "determinism": check_determinism,
}


def run_checks(names, ctx: Context) -> list[tuple[str, str | None]]:
    """(check, reason it failed or None) for each named check."""
    results = []
    for name in names:
        try:
            CHECKS[name](ctx)
            results.append((name, None))
        except CheckFailed as exc:
            results.append((name, str(exc)))
        except Exception as exc:  # a missing or malformed artifact fails the check
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results
