"""One benchmark run of one workload.

The run generates the workload's table from the seed, times a few set-up
probes, then runs whole rounds: each round starts every ``mi-distill``
invocation of the workload in turn, one process at a time, and checks the
outputs.  Rounds repeat until the run's measuring time is spent.  A traced
run instead runs one untimed round and one round under ``tracer.py``.

Every invocation, set-up probe and output check is one operation.  Child
CPU time and peak RSS come from ``wait4``, not from polling.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import synth
import verify
from workloads import INPUT, OUT, Workload

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
CHECK_PREFIX = "check "


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list[str]
    attempted: int


@dataclass
class Run:
    """What a run measured and how its operations went."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    rounds: list[Round] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    traced_wall_s: float | None = None
    trace: dict | None = None


class Runner:
    def __init__(self, root: Path, workload: Workload, seed: int, workdir: Path):
        self.root = root
        self.workload = workload
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("MIDISTILL_THREADS", None)  # keep the program's default of 1
        workdir.mkdir(parents=True)
        X, labels = synth.planted_table(workload.table, seed)
        synth.write_table(workdir / INPUT, workload.table.names, X, labels)
        self.table = verify.Table(workload.table.names, X, labels)
        self.reference = None

    def spawn(self, argv: list[str]) -> Proc:
        """Run one child to its end; a child still running at the deadline is killed."""
        with open(self.workdir / "children.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode == 0)

    def setup_probe(self) -> Proc:
        return self.spawn([sys.executable, str(HERE / "setup_probe.py"), INPUT])

    def round(self, traced: bool = False) -> tuple[Round, dict | None]:
        out = self.workdir / OUT
        shutil.rmtree(out, ignore_errors=True)
        failures, cpu, rss, traces = [], 0.0, 0.0, []
        start = time.perf_counter()
        for i, argv in enumerate(self.workload.invocations):
            if traced:
                trace_path = self.workdir / f"trace{i}.json"
                launcher = [sys.executable, str(HERE / "tracer.py"), str(trace_path), "--"]
            else:
                launcher = [sys.executable, "-m", "midistill.cli"]
            proc = self.spawn(launcher + list(argv))
            cpu += proc.cpu_s
            rss = max(rss, proc.peak_rss_mb)
            if not proc.ok:
                failures.append(f"mi-distill {argv[0]} failed (see children.log)")
            elif traced:
                traces.append(trace_path)
        wall = time.perf_counter() - start
        ctx = verify.Context(self.table, out, self.workload.tamper_threshold, self.reference)
        results = verify.run_checks(self.workload.checks, ctx)
        if self.reference is None:
            self.reference = verify.digests(out)
        failures += [f"{CHECK_PREFIX}{name}: {why}" for name, why in results if why]
        attempted = len(self.workload.invocations) + len(results)
        return Round(wall, cpu, rss, failures, attempted), _merge_traces(traces)


def _merge_traces(paths) -> dict | None:
    if not paths:
        return None
    merged = {"spans": {}, "counters": {}, "absent": set()}
    for path in paths:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, span in doc["spans"].items():
            into = merged["spans"].setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += span[key]
        for name, value in doc["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        merged["absent"].update(doc["absent"])
    merged["absent"] = sorted(merged["absent"])
    return merged


def run(root: Path, workload: Workload, seed: int, seconds: float, traced: bool,
        workdir: Path) -> Run:
    runner = Runner(root, workload, seed, workdir)
    result = Run()
    # the program's modules are compiled once before anything is timed, as
    # an installed package would ship them
    runner.spawn([sys.executable, "-c", "import midistill"])

    def record(rnd: Round) -> None:
        result.attempted += rnd.attempted
        result.failures += rnd.failures

    if traced:
        untraced, _ = runner.round()
        record(untraced)
        result.rounds.append(untraced)
        rnd, result.trace = runner.round(traced=True)
        record(rnd)
        result.traced_wall_s = rnd.wall_s
        if result.trace is None:
            result.trace = {"spans": {}, "counters": {}, "absent": []}
        return result

    for _ in range(SETUP_PROBES):
        probe = runner.setup_probe()
        result.attempted += 1
        result.setup_s.append(probe.wall_s)
        if not probe.ok:
            result.failures.append("set-up probe failed (see children.log)")

    start = time.perf_counter()
    while True:
        rnd, _ = runner.round()
        record(rnd)
        result.rounds.append(rnd)
        elapsed = time.perf_counter() - start
        # stop when another round of the mean length would overrun the run
        if elapsed + elapsed / len(result.rounds) > seconds:
            break
    return result


def end_to_end(result: Run) -> dict:
    rounds = result.rounds
    return {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        "setup_s": statistics.median(result.setup_s),
    }
