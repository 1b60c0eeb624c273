"""Per-layer metrics from a merged trace, one per name in BENCHMARK.json.

Each metric reads named spans or counters of ``tracer.py``.  A metric whose
spans are all absent (the wrapped function no longer exists) reads 0 and is
listed as absent, so a change that removes calls reads as a drop.
"""

from __future__ import annotations

from pathlib import Path

ESTIMATORS = ("infotheory.mutual_information", "infotheory.conditional_mutual_information",
              "infotheory.joint_entropy")
RUN_MODES = ("pipeline.run_fs", "pipeline.run_rrw", "pipeline.run_ae", "pipeline.run_evaluate")
MODULES = ("cli", "dataset", "errors", "infotheory", "metrics", "neural", "pipeline",
           "ranking", "rrw", "selection")


def _total(*spans):
    return "total_s", spans


def _self(*spans):
    return "self_s", spans


def _calls(*spans):
    return "calls", spans


def _counter(name, *spans):
    return ("counter", name), spans


# metric -> (unit, (what to read, spans it comes from))
TRACED = {
    "dataset.load_csv_s": ("s", _total("dataset.load_csv")),
    "dataset.write_csv_s": ("s", _total("dataset.write_csv")),
    "dataset.bytes_read": ("B", _counter("dataset.bytes_read", "dataset.load_csv")),
    "dataset.bytes_written": ("B", _counter("dataset.bytes_written", "dataset.write_csv")),
    "dataset.construct_calls": ("count", _calls("dataset.construct")),
    "dataset.construct_s": ("s", _total("dataset.construct")),
    "infotheory.discretize_calls": ("count", _calls("infotheory.discretize")),
    "infotheory.discretize_s": ("s", _total("infotheory.discretize")),
    "infotheory.estimator_calls": ("count", _calls(*ESTIMATORS)),
    "infotheory.estimator_s": ("s", _total(*ESTIMATORS)),
    "ranking.rank_calls": ("count", _calls("ranking.rank")),
    "ranking.score_calls": ("count", _calls("ranking.criterion_score")),
    "ranking.rank_self_s": ("s", _self("ranking.rank")),
    "selection.audit_s": ("s", _total("selection.tampering_audit")),
    "selection.eliminate_s": ("s", _total("selection.backward_eliminate")),
    "selection.elim_steps": ("count", _counter("selection.elim_steps",
                                               "selection.backward_eliminate")),
    "neural.gate_calls": ("count", _calls("neural.gate_train")),
    "neural.gate_s": ("s", _total("neural.gate_train")),
    "neural.sgd_steps": ("count", _counter("neural.sgd_steps", "neural.mlp_train",
                                           "neural.ae_train")),
    "neural.sgd_s": ("s", _total("neural.mlp_train", "neural.ae_train")),
    "neural.encode_s": ("s", _total("neural.ae_encode")),
    "rrw.cv_self_s": ("s", _self("rrw.avg_f1_cv")),
    "rrw.apply_s": ("s", _total("rrw.apply_weights")),
    "pipeline.fs_s": ("s", _total("pipeline.run_fs")),
    "pipeline.rrw_s": ("s", _total("pipeline.run_rrw")),
    "pipeline.ae_s": ("s", _total("pipeline.run_ae")),
    "pipeline.evaluate_s": ("s", _total("pipeline.run_evaluate")),
    "pipeline.self_s": ("s", _self(*RUN_MODES)),
    "metrics.compute_calls": ("count", _calls("metrics.compute_metrics")),
}

UNITS = {**{name: unit for name, (unit, _) in TRACED.items()},
         **{f"{m}.lines": "lines" for m in MODULES},
         "init.lines": "lines", "src.lines": "lines", "trace.overhead_s": "s"}


def _lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def per_layer(trace: dict, src: Path, overhead_s: float) -> tuple[dict, list[str]]:
    """({metric: value}, absent metrics) for every per-layer metric."""
    values, absent = {}, []
    for name, (_, (what, spans)) in TRACED.items():
        if all(s in trace["absent"] for s in spans):
            absent.append(name)
        if isinstance(what, tuple):
            values[name] = trace["counters"].get(what[1], 0)
        else:
            values[name] = sum(trace["spans"].get(s, {}).get(what, 0) for s in spans)
    package = src / "midistill"
    for module in MODULES + ("init",):
        path = package / ("__init__.py" if module == "init" else f"{module}.py")
        values[f"{module}.lines"] = _lines(path) if path.exists() else 0
        if not path.exists():
            absent.append(f"{module}.lines")
    values["src.lines"] = sum(_lines(p) for p in sorted(src.rglob("*.py")))
    values["trace.overhead_s"] = overhead_s
    return values, absent
