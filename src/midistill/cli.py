"""Command-line entry point: ``mi-distill <mode> --input data.csv ...``.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 training
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, DataError, TrainingError
from .pipeline import MODES, PipelineConfig, run
from .ranking import ALGORITHMS


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a configuration error (exit 1, one line), not
    with argparse's usage dump and exit code 2, which is the data-error code."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mi-distill",
        description="Dataset optimization pipeline: MI feature selection, "
                    "RRw re-weighting, autoencoder reduction and MLP evaluation.",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument("--label", default="label", help="label column name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bins", type=int, default=10, help="discretization bins")
    parser.add_argument("--binning", default="equal_frequency",
                        choices=["equal_width", "equal_frequency"])
    parser.add_argument("--folds", type=int, default=5)
    parser.add_argument("--gamma", type=float, default=0.97,
                        help="elimination gate threshold")
    parser.add_argument("--tamper-threshold", type=float, default=0.30)
    parser.add_argument("--beta", type=float, default=1.0, help="MIFS beta")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--batch", type=int, default=10)
    parser.add_argument("--bottleneck", type=int, default=None)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--fs-report", default=None,
                        help="fs_report.json from a prior fs run (rrw/ae modes)")
    parser.add_argument("--normalize", action="store_true",
                        help="min-max normalize before evaluation (evaluate mode)")
    parser.add_argument("--algorithms", default=",".join(ALGORITHMS),
                        help="comma-separated ranking algorithm suite")
    return parser


def config_from_args(args) -> PipelineConfig:
    return PipelineConfig(
        mode=args.mode,
        input_path=args.input,
        label_column=args.label,
        seed=args.seed,
        n_bins=args.bins,
        binning_strategy=args.binning,
        folds=args.folds,
        gamma=args.gamma,
        tamper_threshold=args.tamper_threshold,
        beta=args.beta,
        epochs=args.epochs,
        batch=args.batch,
        bottleneck=args.bottleneck,
        out_dir=args.out,
        fs_report=args.fs_report,
        normalize=args.normalize,
        algorithms=tuple(a.strip() for a in args.algorithms.split(",") if a.strip()),
    )


def main(argv=None) -> int:
    try:
        config = config_from_args(build_parser().parse_args(argv))
        report = run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError) as exc:
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
