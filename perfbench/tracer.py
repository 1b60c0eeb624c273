"""Run one ``mi-distill`` invocation with spans around module functions.

    python3 perfbench/tracer.py TRACE.json -- <mi-distill arguments>

``midistill`` must be importable (the benchmark puts ``src`` on
PYTHONPATH).  Each target function is replaced at every module binding
that holds it, since several are imported by value (``rank`` into
``selection`` and ``pipeline``, ``gate_train`` into ``selection``, ``rrw``
and ``pipeline``).  A target that no longer exists is listed as absent.
The trace is written to TRACE.json when the invocation ends, and the
process exits with the invocation's exit code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

PACKAGE = "midistill"


def _path_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _bytes_read(args, result):
    return {"dataset.bytes_read": _path_size(args["path"])}


def _bytes_written(args, result):
    path = os.fspath(args["path"])
    return {"dataset.bytes_written": _path_size(path) + _path_size(path + ".meta.json")}


def _elim_steps(args, result):
    return {"selection.elim_steps": len(result.steps)}


def _sgd_steps(args, result):
    batches = math.ceil(args["learn"].n_samples / args["batch"])
    return {"neural.sgd_steps": args["epochs"] * batches}


# (span, module, attribute, modules whose binding is wrapped or None for
# every binding, counters derived from the bound arguments and the result)
SPANS = (
    ("dataset.load_csv", "dataset", "load_csv", None, _bytes_read),
    ("dataset.write_csv", "dataset", "write_csv", None, _bytes_written),
    ("infotheory.discretize", "infotheory", "discretize", None, None),
    # estimators as ranking calls them; their calls inside infotheory are
    # part of the outer estimator's span
    ("infotheory.mutual_information", "infotheory", "mutual_information", ("ranking",), None),
    ("infotheory.conditional_mutual_information", "infotheory",
     "conditional_mutual_information", ("ranking",), None),
    ("infotheory.joint_entropy", "infotheory", "joint_entropy", ("ranking",), None),
    ("ranking.rank", "ranking", "rank", None, None),
    ("selection.tampering_audit", "selection", "tampering_audit", None, None),
    ("selection.backward_eliminate", "selection", "backward_eliminate", None, _elim_steps),
    ("neural.gate_train", "neural", "gate_train", None, None),
    ("neural.mlp_train", "neural", "mlp_train", None, _sgd_steps),
    ("neural.ae_train", "neural", "ae_train", None, _sgd_steps),
    ("neural.ae_encode", "neural", "ae_encode", None, None),
    ("rrw.avg_f1_cv", "rrw", "avg_f1_cv", None, None),
    ("rrw.apply_weights", "rrw", "apply_weights", None, None),
    ("metrics.compute_metrics", "metrics", "compute_metrics", None, None),
    ("pipeline.run_fs", "pipeline", "run_fs", None, None),
    ("pipeline.run_rrw", "pipeline", "run_rrw", None, None),
    ("pipeline.run_ae", "pipeline", "run_ae", None, None),
    ("pipeline.run_evaluate", "pipeline", "run_evaluate", None, None),
)
# counted only: a span per score would move the greedy sums out of rank's
# self time, which is where they should show
COUNTED = (("ranking.criterion_score", "ranking", "criterion_score", None),)
# validation of every Dataset built, by take and select_features among others
CONSTRUCT = ("dataset.construct", "dataset", "Dataset", "__post_init__")


class Tracer:
    """Spans kept in memory: calls, total and self seconds per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.absent = []
        self._child_s = []  # per open span, seconds covered by its children

    def span(self, name, fn, derive=None):
        signature = inspect.signature(fn) if derive else None

        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children
            if derive:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in derive(bound.arguments, result).items():
                    self.counters[key] += value
            return result

        return traced

    def counted(self, name, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return traced

    def to_json(self) -> dict:
        return {
            "spans": {n: {"calls": self.calls[n], "total_s": self.total_s[n],
                          "self_s": self.self_s[n]} for n in sorted(self.calls)},
            "counters": dict(sorted(self.counters.items())),
            "absent": sorted(self.absent),
        }


def _modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _rebind(original, replacement, modules) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _original(module: str, attr: str):
    return getattr(sys.modules.get(f"{PACKAGE}.{module}"), attr, None)


def install(tracer: Tracer) -> None:
    """Import the whole package and wrap every target at each binding."""
    importlib.import_module(f"{PACKAGE}.cli")
    loaded = _modules()
    wraps = [(name, module, attr, within, lambda n, f, d=derive: tracer.span(n, f, d))
             for name, module, attr, within, derive in SPANS]
    wraps += [(name, module, attr, within, tracer.counted)
              for name, module, attr, within in COUNTED]
    for name, module, attr, within, wrap in wraps:
        original = _original(module, attr)
        if original is None:
            tracer.absent.append(name)
            continue
        scope = loaded if within is None else [sys.modules[f"{PACKAGE}.{m}"] for m in within]
        _rebind(original, wrap(name, original), scope)
    name, module, cls_name, method = CONSTRUCT
    cls = _original(module, cls_name)
    if cls is None or method not in vars(cls):
        tracer.absent.append(name)
    else:
        setattr(cls, method, tracer.span(name, vars(cls)[method]))


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <mi-distill arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    cli = sys.modules[f"{PACKAGE}.cli"]
    try:
        return cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh, indent=1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
