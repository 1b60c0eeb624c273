"""End-to-end workflows (fs, rrw, ae, evaluate), the one writer of their
artifacts and reports, and the shared configuration object backing the CLI.

All reports are plain JSON with the full effective configuration embedded,
no timestamps, so identical configs produce byte-identical reports.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass

import numpy as np

from . import dataset as ds
from .errors import ConfigError, DataError, MidistillError
from .infotheory import BINNING_STRATEGIES, BinningConfig
from .metrics import GATED, compute_metrics
from .neural import (
    ae_encode,
    ae_new,
    ae_train,
    mlp_new,
    mlp_predict,
    mlp_train,
    model_to_json,
)
from .ranking import ALGORITHMS, FeatureRanking
from .rrw import apply_weights, avg_f1_cv, rrw_scores
from .selection import LearnRows, backward_eliminate, tampering_audit

MODES = ("fs", "rrw", "ae", "evaluate")


@dataclass
class PipelineConfig:
    mode: str
    input_path: str
    label_column: str = "label"
    seed: int = 0
    n_bins: int = 10
    binning_strategy: str = "equal_frequency"
    folds: int = 5
    gamma: float = 0.97
    tamper_threshold: float = 0.30
    beta: float = 1.0
    epochs: int = 10
    batch: int = 10
    bottleneck: int | None = None
    out_dir: str = "out"
    fs_report: str | None = None
    normalize: bool = False
    algorithms: tuple[str, ...] = ALGORITHMS

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        for name, upper in (("gamma", 1.0), ("tamper_threshold", 1.0), ("beta", math.inf)):
            v = getattr(self, name)
            if not 0.0 <= v < upper:
                raise ConfigError(f"{name} must be in [0, {upper:g}), got {v}")
        for name, least in (("seed", 0), ("n_bins", 2), ("folds", 2), ("epochs", 0),
                            ("batch", 1)):
            v = getattr(self, name)
            if not isinstance(v, int) or v < least:
                raise ConfigError(f"invalid {name}: {v}")
        if self.binning_strategy not in BINNING_STRATEGIES:
            raise ConfigError(f"unknown binning strategy {self.binning_strategy!r}")
        if not self.algorithms:
            raise ConfigError("no ranking algorithm given")
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        if unknown:
            raise ConfigError(f"unknown ranking algorithm(s): {', '.join(unknown)}")
        if self.bottleneck is not None and (not isinstance(self.bottleneck, int)
                                            or self.bottleneck < 1):
            raise ConfigError(f"invalid bottleneck: {self.bottleneck}")

    def binning(self) -> BinningConfig:
        return BinningConfig(self.n_bins, self.binning_strategy)

    def to_json(self) -> dict:
        return asdict(self)


@contextmanager
def _stage(name: str):
    """Prefix an escaping package error's message with its pipeline stage."""
    try:
        yield
    except MidistillError as exc:
        exc.args = (f"[stage {name}] {exc}",) + exc.args[1:]
        raise


def _validate(config: PipelineConfig, mode: str) -> None:
    config.validate()
    if config.mode != mode:
        raise ConfigError(f"run_{mode} requires mode={mode}")


def _make_out_dir(config: PipelineConfig) -> None:
    """Create the output directory before any work, so a bad --out fails fast."""
    try:
        os.makedirs(config.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {config.out_dir}: "
                          f"{exc.strerror}") from None


def _json(doc: dict, indent: int | None = 2) -> str:
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"


def _publish(config: PipelineConfig, report: dict, files: dict) -> dict:
    """Write a run's files and its report into a fresh staging directory
    inside --out, then rename each into place, the report last.  ``files``
    maps each artifact key to a file name and its content: a Dataset, which
    ``write_csv`` writes with its sidecar, or text.  A run that fails before
    the first rename leaves --out as it was."""
    out = config.out_dir
    report = {"mode": config.mode, "config": config.to_json(), **report}
    report["artifacts"] = {key: os.path.join(out, name) for key, (name, _) in files.items()}
    report_name = f"{config.mode}_report.json"
    target = out
    with _stage("write_artifacts"):
        try:
            with tempfile.TemporaryDirectory(prefix=".staging-", dir=out,
                                             ignore_cleanup_errors=True) as staging:
                for name, content in [*files.values(), (report_name, _json(report))]:
                    target = os.path.join(out, name)
                    if isinstance(content, ds.Dataset):
                        ds.write_csv(content, os.path.join(staging, name), config.label_column)
                    else:
                        with open(os.path.join(staging, name), "w", newline="",
                                  encoding="utf-8") as fh:
                            fh.write(content)
                # once the report is in place, so is every file it names
                names = sorted(os.listdir(staging), key=lambda n: (n == report_name, n))
                for name in names:
                    if os.path.isdir(os.path.join(out, name)):
                        raise ConfigError(f"cannot write {os.path.join(out, name)}: "
                                          "Is a directory")
                for name in names:
                    target = os.path.join(out, name)
                    os.replace(os.path.join(staging, name), target)
        except OSError as exc:
            raise ConfigError(f"cannot write {target}: {exc.strerror}") from None
    report["artifacts"]["report"] = os.path.join(out, report_name)
    return report


def _load(config: PipelineConfig, normalize: bool = True, source_sha256: str | None = None):
    """Load the input CSV, refuse it unless its digest is ``source_sha256``
    (if given), split it, and (if ``normalize``) min-max normalize fit on
    learn.  The normalized table replaces the raw one, so the raw table is
    freed before any training."""
    def bind(sha256: str) -> None:
        if source_sha256 is not None and sha256 != source_sha256:
            raise DataError(f"fs report {config.fs_report} was made from another input "
                            f"(sha256 {source_sha256[:12]}), not {config.input_path}")
    with _stage("load"):
        data = ds.load_csv(config.input_path, config.label_column, bind)
    with _stage("split"):
        sp = ds.split(data, config.seed)
    if normalize:
        with _stage("normalize"):
            data = ds.apply_minmax(data, ds.fit_minmax(data, sp.learn_idx))
    return data, sp


def run_fs(config: PipelineConfig) -> dict:
    """Tampering audit, backward elimination per surviving algorithm, the
    post-elimination metric gate, and emission of the optimized dataset."""
    _validate(config, "fs")
    _make_out_dir(config)
    binning = config.binning()
    normalized, sp = _load(config)

    with _stage("tampering_audit"):
        audit = tampering_audit(
            normalized, config.algorithms, folds=config.folds, seed=config.seed,
            threshold=config.tamper_threshold, binning=binning, beta=config.beta)
    surviving = audit.passing()

    traces, post_bfe = {}, {}
    if surviving:
        with _stage("count_table"):
            rows = LearnRows(normalized, sp, binning)
    for alg in surviving:
        with _stage(f"backward_eliminate[{alg}]"):
            traces[alg] = backward_eliminate(rows, alg, config.gamma, beta=config.beta)
        # a memo hit unless elimination stopped at step 1: then the full set
        # is trained once per run, not once per criterion
        with _stage(f"post_bfe_gate[{alg}]"):
            post_bfe[alg] = rows.metrics(traces[alg].optimized_features)

    # second gate: drop algorithms whose reduced-set metrics fall below gamma
    final_suite = [alg for alg in surviving if post_bfe[alg].passes(config.gamma)]

    best_alg = max(final_suite, key=lambda a: post_bfe[a].accuracy, default=None)
    best = traces.get(best_alg)
    files = {}
    if best is not None:
        note = f"backward_elimination[{best_alg}], gamma={config.gamma}"
        files["optimized_csv"] = ("optimized.csv",
                                  normalized.select_features(best.optimized_features, note=note))
    for alg, trace in traces.items():
        files[f"elimination_csv[{alg}]"] = (f"elimination_{alg}.csv", trace.metrics_csv())

    report = {
        "estimator_notes": {
            "mi_estimator": "plug-in histogram, log2",
            "binning": {"n_bins": config.n_bins, "strategy": config.binning_strategy},
            "tie_rule": "smallest_column_index",
            "normalized_before_mi": True,
            "bfe_metrics_split": "test",
        },
        "tampering_audit": audit.to_json(),
        "surviving_after_audit": surviving,
        "traces": {alg: trace.to_json() for alg, trace in traces.items()},
        "post_bfe_metrics": {alg: m.to_json() for alg, m in post_bfe.items()},
        "final_suite": final_suite,
        "best_algorithm": best_alg,
        "mdrt": None if best is None else best.mdrt,
        "optimized_features": None if best is None else list(best.optimized_features),
        "rankings": {alg: trace.ranking.to_json() for alg, trace in traces.items()},
        "source_sha256": normalized.meta["source_sha256"],
    }
    return _publish(config, report, files)


def _why_no_suite(report: dict) -> str:
    """Why an fs report kept no criterion: none passed the tampering audit,
    or the first metric each one missed gamma on.  '' if the report cannot
    say, for it is malformed or its final suite is not empty."""
    try:
        if report["final_suite"] != []:
            return ""
        if report["surviving_after_audit"] == []:
            return "; no criterion passed the tampering audit"
        gamma = report["config"]["gamma"]
        misses = []
        for alg, metrics in report["post_bfe_metrics"].items():
            missed = next((name for name in GATED
                           if metrics[name] is None or not metrics[name] >= gamma), None)
            if alg not in ALGORITHMS or missed is None:
                return ""
            value = metrics[missed]
            misses.append(f"{alg} {missed} {'undefined' if value is None else repr(value)}")
    except (KeyError, TypeError, AttributeError):
        return ""
    return f"; below gamma {gamma!r}: {', '.join(misses)}" if misses else ""


def _expect(value, kind, field: str):
    """``value`` if it is a ``kind`` (a bool is neither an int nor a float
    here), else a ConfigError naming the fs report field."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"fs report field {field!r} has the wrong type: "
                          f"{type(value).__name__}")
    return value


def _score(value):
    """A ranking score if it is a number that is finite as a float."""
    with suppress(OverflowError):  # an int past the float range
        if math.isfinite(_expect(value, (int, float), "score")):
            return value
    raise ConfigError("fs report field 'score' has the wrong type: not a finite float")


def _names(value, field: str) -> tuple[str, ...]:
    return tuple(_expect(name, str, field) for name in _expect(value, list, field))


def _read_fs_report(config: PipelineConfig) -> dict:
    """The fields of ``--fs-report`` that rrw and ae read, after a check of
    the whole report: the types; each final-suite criterion is known, with a
    trace and a ranking; each ranking is a permutation of its trace's initial
    features, which hold ``optimized_features`` and the criterion's own
    optimized set; ``optimized_features`` is one of their optimized sets, of
    length ``mdrt``.  A report that fails a check is a ConfigError."""
    path = config.fs_report
    if not path:
        raise ConfigError(f"mode={config.mode} requires --fs-report from a prior fs run")
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read fs report {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"fs report {path} is not valid JSON: {exc}") from None
    if not isinstance(report, dict):
        raise ConfigError(f"fs report {path} is not a JSON object")
    if not report.get("final_suite") or not report.get("optimized_features"):
        raise ConfigError("fs report has no surviving algorithms / optimized features"
                          + _why_no_suite(report))
    if "source_sha256" not in report:  # written before fs recorded its input
        raise ConfigError(f"fs report {path} has no source_sha256: run fs again")
    optimized = _names(report["optimized_features"], "optimized_features")
    mdrt = _expect(report.get("mdrt"), int, "mdrt")
    source_sha256 = _expect(report["source_sha256"], str, "source_sha256")
    suite = _names(report["final_suite"], "final_suite")
    if not set(suite) <= set(ALGORITHMS):
        raise ConfigError(f"fs report final suite {list(suite)} names an unknown criterion")
    try:
        traces = {alg: report["traces"][alg] for alg in suite}
        initial = {alg: _names(t["initial_features"], "initial_features")
                   for alg, t in traces.items()}
        own = {alg: _names(t["optimized_features"], "optimized_features")
               for alg, t in traces.items()}
        entries = {alg: [(_expect(e["feature"], str, "feature"), _score(e["score"]))
                         for e in report["rankings"][alg]["entries"]] for alg in suite}
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"fs report {path} lacks the traces or rankings "
                          f"of its final suite ({exc!r})") from None
    for alg, ranked in entries.items():
        seen = set()
        for name, _ in ranked:
            if name in seen:  # rrw_scores would count its score twice
                raise ConfigError(f"fs report ranking of {alg} names feature {name!r} twice")
            seen.add(name)
        if sorted(seen) != sorted(initial[alg]):
            raise ConfigError(f"fs report ranking of {alg} is not a permutation of its "
                              "trace's initial_features")
        lost = [name for name in optimized + own[alg] if name not in seen]
        if lost:  # rrw_scores would find rankings of different feature sets
            raise ConfigError(f"fs report initial_features of {alg} lack the optimized "
                              f"feature {lost[0]!r}")
    if optimized not in own.values() or mdrt != len(optimized):
        raise ConfigError("fs report optimized_features and mdrt are not the optimized "
                          "set of a final-suite criterion and its length")
    return {"own_features": own, "entries": entries, "optimized_features": optimized,
            "mdrt": mdrt, "source_sha256": source_sha256}


def run_rrw(config: PipelineConfig) -> dict:
    """Cross-validated F1 per surviving algorithm, RRw weights, and the
    re-weighted optimized dataset.  Algorithms that kept the same feature
    set share one cross-validation: its gates are identical."""
    _validate(config, "rrw")
    fs = _read_fs_report(config)
    _make_out_dir(config)
    normalized, sp = _load(config, source_sha256=fs["source_sha256"])

    pairs, avg_f1, f1_of_features = [], {}, {}
    for alg, features in fs["own_features"].items():
        if features not in f1_of_features:
            with _stage(f"avg_f1_cv[{alg}]"):
                f1_of_features[features] = avg_f1_cv(
                    normalized.select_features(features), k=config.folds, seed=config.seed)
        avg_f1[alg] = f1_of_features[features]
        kept = tuple(e for e in fs["entries"][alg] if e[0] in fs["optimized_features"])
        pairs.append((FeatureRanking(alg, kept), avg_f1[alg]))

    with _stage("rrw_scores"):
        weights = rrw_scores(pairs)
    optimized = normalized.select_features(fs["optimized_features"])
    with _stage("apply_weights"):
        weighted = apply_weights(optimized, weights)

    report = {
        "avg_f1": avg_f1,
        "weights": weights.to_json(),
        "optimized_features": list(fs["optimized_features"]),
    }
    return _publish(config, report, {
        "rrw_optimized_csv": ("rrw_optimized.csv", weighted),
        "weights_json": ("rrw_weights.json", _json(weights.to_json()))})


def run_ae(config: PipelineConfig) -> dict:
    """Train the bottleneck autoencoder and emit the latent dataset."""
    _validate(config, "ae")
    fs = _read_fs_report(config) if config.fs_report else None
    bottleneck = config.bottleneck or (fs["mdrt"] if fs else None)
    if bottleneck is None:
        raise ConfigError("ae mode needs --bottleneck or --fs-report")
    _make_out_dir(config)
    normalized, sp = _load(config, source_sha256=fs and fs["source_sha256"])

    with _stage("ae_train"):
        model = ae_new(normalized.n_features, bottleneck, config.seed)
        curve = ae_train(model, normalized.take(sp.learn_idx),
                         normalized.take(sp.validation_idx),
                         epochs=config.epochs, batch=config.batch)
    with _stage("ae_encode"):
        encoded = ae_encode(model, normalized)

    report = {
        "bottleneck": int(bottleneck),
        "curve": curve.to_json(),
    }
    return _publish(config, report, {
        "ae_generated_csv": ("ae_generated.csv", encoded),
        "curve_csv": ("ae_curve.csv", curve.to_csv()),
        "model_json": ("ae_model.json", _json(model_to_json(model), indent=None))})


def run_evaluate(config: PipelineConfig) -> dict:
    """Train the rectangle MLP on the input dataset and report the full
    confusion-metric suite on the testing split, plus the learning curve."""
    _validate(config, "evaluate")
    _make_out_dir(config)
    data, sp = _load(config, config.normalize)

    with _stage("mlp_train"):
        model = mlp_new(data.n_features, config.seed)
        curve = mlp_train(model, data.take(sp.learn_idx), data.take(sp.validation_idx),
                          epochs=config.epochs, batch=config.batch)
    with _stage("evaluate"):
        test = data.take(sp.test_idx)
        preds = (mlp_predict(model, test) >= 0.5).astype(np.int64)
        metrics = compute_metrics(preds, test.labels)

    report = {
        "metrics": metrics.to_json(),
        "curve": curve.to_json(),
    }
    return _publish(config, report, {"curve_csv": ("mlp_curve.csv", curve.to_csv())})


def run(config: PipelineConfig) -> dict:
    config.validate()
    return {"fs": run_fs, "rrw": run_rrw, "ae": run_ae, "evaluate": run_evaluate}[config.mode](config)
