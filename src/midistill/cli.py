"""Command-line entry point: ``mi-distill <mode> --input data.csv ...``.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 training
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DataError, TrainingError
from .infotheory import BINNING_STRATEGIES
from .pipeline import MODES, PipelineConfig, run


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a configuration error (exit 1, one line), not
    with argparse's usage dump and exit code 2, which is the data-error code."""

    def error(self, message):
        raise ConfigError(message)


def _algorithms(text: str) -> tuple[str, ...]:
    return tuple(a.strip() for a in text.split(",") if a.strip())


def build_parser() -> argparse.ArgumentParser:
    """Each flag stores into the ``PipelineConfig`` field it names, and an
    absent flag stores nothing, so the config's own defaults apply."""
    parser = _Parser(
        prog="mi-distill",
        description="Dataset optimization pipeline: MI feature selection, "
                    "RRw re-weighting, autoencoder reduction and MLP evaluation.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--input", dest="input_path", required=True, help="input CSV path")
    parser.add_argument("--label", dest="label_column", help="label column name")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--bins", dest="n_bins", type=int, help="discretization bins")
    parser.add_argument("--binning", dest="binning_strategy",
                        choices=BINNING_STRATEGIES)
    parser.add_argument("--folds", type=int)
    parser.add_argument("--gamma", type=float, help="elimination gate threshold")
    parser.add_argument("--tamper-threshold", type=float)
    parser.add_argument("--beta", type=float, help="MIFS beta")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch", type=int)
    parser.add_argument("--bottleneck", type=int)
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--fs-report",
                        help="fs_report.json from a prior fs run (rrw/ae modes)")
    parser.add_argument("--normalize", action="store_true",
                        help="min-max normalize before evaluation (evaluate mode)")
    parser.add_argument("--algorithms", type=_algorithms,
                        help="comma-separated ranking algorithm suite")
    return parser


def main(argv=None) -> int:
    try:
        config = PipelineConfig(**vars(build_parser().parse_args(argv)))
        report = run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"mode": report["mode"],
                      "artifacts": report.get("artifacts", {})}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
