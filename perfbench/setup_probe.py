"""Set-up probe: the fixed cost every mode pays before its own work.

    python3 perfbench/setup_probe.py INPUT.csv

A fresh interpreter imports ``midistill``, then loads, splits and min-max
normalizes the CSV as ``pipeline._load_normalized`` does.  The benchmark
times the whole process.
"""

import sys

from midistill import apply_minmax, fit_minmax, load_csv, split


def main(path: str) -> None:
    data = load_csv(path, "label")
    apply_minmax(data, fit_minmax(data, split(data, 0).learn_idx))


if __name__ == "__main__":
    main(sys.argv[1])
