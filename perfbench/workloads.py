"""The three workloads: which table each generates, which ``mi-distill``
invocations one round runs, and which output checks follow.

Paths in the invocations are relative to the work directory, so the reports
(which embed the configuration) are byte-identical from round to round.
The program keeps its default ``--seed 0``: the benchmark seed changes the
table only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from synth import TableSpec

INPUT = "input.csv"
OUT = "out"

# gamma 0.95 sits between the gate's metrics with every informative column
# (1.0) and without one of the six (accuracy about 0.93, precision about
# 0.87), so elimination drops the two weak columns and stops at step 3 on
# every seed.  It is explicit because the default 0.97 empties final_suite
# on tables whose gate has not converged after 200 epochs.
GAMMA = "0.95"
# the audit must pass all six criteria on every seed; at 0.8 the cutoff
# (0.2 * 11 = 2.2) lies inside the informative block
DISTILL_TAMPER = "0.8"
# 40 columns and 2000 rows leave 400-row audit folds, where plug-in MI
# between two 10-bin columns carries about 0.15 bits of bias; redundancy
# terms then shuffle the tail of MIFS and CIFE rankings and a random
# feature can average a rank near the top, so the cutoff sits at
# 0.05 * 43 = 2.15, where every criterion passes on every seed
WIDE_TAMPER = "0.95"
BOTTLENECK = "11"
# four epochs keep a compress round under ten seconds, so three to five
# rounds fit a 35-second run, while SGD still outweighs the CSV reads and
# writes
EPOCHS = "4"


@dataclass(frozen=True)
class Workload:
    name: str
    table: TableSpec
    invocations: tuple[tuple[str, ...], ...]
    checks: tuple[str, ...]
    desk_table: TableSpec
    tamper_threshold: float | None = None

    def desk(self) -> "Workload":
        """The same invocations on a desk-scale table, for the benchmark's own tests."""
        return replace(self, table=self.desk_table)


FS_CHECKS = ("split_sizes", "metric_identities", "first_entry_mi", "audit_flags",
             "no_random_columns")

WORKLOADS = {
    "distill": Workload(
        name="distill",
        table=TableSpec(rows=64554, informative=6, weak=2),
        desk_table=TableSpec(rows=2000, informative=6, weak=2),
        invocations=(
            ("fs", "--input", INPUT, "--out", OUT, "--gamma", GAMMA,
             "--tamper-threshold", DISTILL_TAMPER),
            ("rrw", "--input", INPUT, "--fs-report", f"{OUT}/fs_report.json", "--out", OUT),
        ),
        checks=FS_CHECKS + ("optimized_csv", "rrw_weights", "rrw_csv", "determinism"),
        tamper_threshold=float(DISTILL_TAMPER),
    ),
    "compress": Workload(
        name="compress",
        table=TableSpec(rows=64554, informative=6, weak=27),
        desk_table=TableSpec(rows=2000, informative=6, weak=27),
        invocations=(
            ("ae", "--input", INPUT, "--bottleneck", BOTTLENECK, "--epochs", EPOCHS,
             "--out", OUT),
            ("evaluate", "--input", f"{OUT}/ae_generated.csv", "--epochs", EPOCHS,
             "--out", OUT),
        ),
        checks=("split_sizes", "metric_identities", "ae_generated", "no_random_columns",
                "determinism"),
    ),
    "wide": Workload(
        name="wide",
        # a quarter of the labels flipped keeps the gate far below gamma, so
        # elimination stops at step 1 on every seed and the run is ranking
        # cost: audit, one elimination step and the full ranking per criterion
        table=TableSpec(rows=2000, informative=8, weak=32, label_noise=0.25),
        desk_table=TableSpec(rows=400, informative=8, weak=10, label_noise=0.25),
        invocations=(
            ("fs", "--input", INPUT, "--out", OUT, "--gamma", GAMMA,
             "--tamper-threshold", WIDE_TAMPER),
        ),
        checks=FS_CHECKS + ("determinism",),
        tamper_threshold=float(WIDE_TAMPER),
    ),
}
