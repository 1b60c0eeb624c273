import argparse
import dataclasses
import json
import os
from collections import Counter

import numpy as np
import pytest

from midistill import cli, dataset, pipeline, rrw, selection
from midistill.dataset import Dataset, load_csv, write_csv
from midistill.errors import ConfigError, TrainingError
from midistill.infotheory import BINNING_STRATEGIES
from midistill.cli import main as cli_main
from midistill.neural import gate_train
from midistill.pipeline import (
    MODES,
    PipelineConfig,
    run,
    run_ae,
    run_evaluate,
    run_fs,
    run_rrw,
)
from midistill.ranking import ALGORITHMS

from conftest import make_dataset, planted_dataset
from test_golden import COMMANDS


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "planted.csv"
    write_csv(planted_dataset(5, 0, 500, seed=3), path, "label")
    return str(path)


def fs_config(planted_csv, out_dir, **overrides):
    base = dict(
        mode="fs", input_path=planted_csv, out_dir=str(out_dir),
        algorithms=("mRMR",), gamma=0.85, tamper_threshold=0.375,
        seed=3, folds=5)
    base.update(overrides)
    return PipelineConfig(**base)


def _files(out) -> dict:
    """Each entry of ``out`` by name: a file's bytes, or None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in out.iterdir()}


@pytest.fixture(scope="module")
def fs_run(planted_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fs_out")
    report = run_fs(fs_config(planted_csv, out))
    return report, out


class TestConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            PipelineConfig("cluster", "x.csv").validate()

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError):
            PipelineConfig("fs", "x.csv", gamma=1.0).validate()

    def test_unknown_algorithm_rejected_before_io(self):
        config = PipelineConfig("fs", "does-not-exist.csv",
                                algorithms=("mRMR", "PCA"))
        with pytest.raises(ConfigError, match="PCA"):
            run(config)

    def test_negative_seed(self):
        # default_rng raised a ValueError traceback for it
        with pytest.raises(ConfigError, match="seed"):
            PipelineConfig("fs", "x.csv", seed=-1).validate()

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -0.5])
    def test_beta_not_finite_and_non_negative(self, beta):
        # a NaN beta used to run and write bare NaN scores into the report
        with pytest.raises(ConfigError, match="beta"):
            PipelineConfig("fs", "x.csv", beta=beta).validate()

    def test_no_algorithms(self):
        with pytest.raises(ConfigError, match="no ranking algorithm"):
            PipelineConfig("fs", "x.csv", algorithms=()).validate()

    def test_bad_binning_strategy(self):
        with pytest.raises(ConfigError):
            PipelineConfig("fs", "x.csv", binning_strategy="kmeans").validate()

    def test_unknown_binning_strategy_rejected_before_io(self):
        config = PipelineConfig("fs", "does-not-exist.csv", binning_strategy="kmeans")
        with pytest.raises(ConfigError, match="^unknown binning strategy 'kmeans'$"):
            run(config)

    def test_mode_mismatch(self, planted_csv, tmp_path):
        with pytest.raises(ConfigError):
            run_rrw(fs_config(planted_csv, tmp_path))


class TestFsMode:
    def test_report_structure(self, fs_run):
        report, _ = fs_run
        assert report["mode"] == "fs"
        assert report["surviving_after_audit"] == ["mRMR"]
        assert report["final_suite"] == ["mRMR"]
        assert report["best_algorithm"] == "mRMR"
        assert report["mdrt"] == len(report["optimized_features"])
        assert report["mdrt"] >= 1

    def test_artifacts_written(self, fs_run):
        report, _ = fs_run
        for path in report["artifacts"].values():
            assert os.path.exists(path), path

    def test_optimized_csv_round_trips(self, fs_run):
        report, _ = fs_run
        optimized = load_csv(report["artifacts"]["optimized_csv"], "label")
        assert list(optimized.feature_names) == report["optimized_features"]
        assert optimized.n_samples == 500

    def test_rankings_cover_all_features(self, fs_run):
        report, _ = fs_run
        entries = report["rankings"]["mRMR"]["entries"]
        assert len(entries) == 5
        assert {e["feature"] for e in entries} == {f"inf{i}" for i in range(5)}

    def test_report_deterministic(self, planted_csv, tmp_path):
        config = fs_config(planted_csv, tmp_path)
        run_fs(config)
        first = (tmp_path / "fs_report.json").read_bytes()
        run_fs(fs_config(planted_csv, tmp_path))
        assert (tmp_path / "fs_report.json").read_bytes() == first

    def test_each_feature_tuple_trained_once(self, planted_csv, tmp_path, monkeypatch):
        # all six criteria share one gate cache: every gate evaluated by any
        # elimination step or by the post-elimination gate is trained once;
        # a gate is known by its input, its columns of the learn rows
        # feature-major
        trained = []

        def counting(A, *args, **kwargs):
            trained.append((A.shape, A.tobytes()))
            return gate_train(A, *args, **kwargs)

        monkeypatch.setattr(selection, "gate_train", counting)
        report = run_fs(fs_config(planted_csv, tmp_path, algorithms=ALGORITHMS,
                                  tamper_threshold=0.6))
        evaluated = {tuple(t["optimized_features"]) for t in report["traces"].values()}
        n_steps = 0
        for trace in report["traces"].values():
            current = list(trace["initial_features"])
            for step in trace["steps"]:
                current.remove(step["removed_feature"])
                evaluated.add(tuple(current))
                n_steps += 1
        data = load_csv(planted_csv, "label")
        sp = dataset.split(data, 3)
        normalized = dataset.apply_minmax(data, dataset.fit_minmax(data, sp.learn_idx))
        learn = normalized.take(sp.learn_idx)
        inputs = [learn.select_features(f).X.T for f in evaluated]
        assert len(report["traces"]) == len(ALGORITHMS)
        assert sorted(trained) == sorted((A.shape, A.tobytes()) for A in inputs)
        assert len(trained) < n_steps

    def test_no_dataset_per_gate(self, tmp_path, monkeypatch):
        # gates train on arrays: the Datasets a run builds are the same
        # whether elimination trains 6 gates or 12
        path = tmp_path / "planted.csv"
        write_csv(planted_dataset(5, 3, 2000, seed=3), path, "label")
        built, gates = Counter(), Counter()
        post_init = Dataset.__post_init__

        def counting_post_init(data):
            built[gamma] += 1
            post_init(data)

        def counting_gate(*args, **kwargs):
            gates[gamma] += 1
            return gate_train(*args, **kwargs)

        monkeypatch.setattr(Dataset, "__post_init__", counting_post_init)
        monkeypatch.setattr(selection, "gate_train", counting_gate)
        for gamma in (0.95, 0.0):
            report = run_fs(fs_config(str(path), tmp_path / str(gamma), algorithms=ALGORITHMS,
                                      gamma=gamma, tamper_threshold=0.5))
            assert report["final_suite"] == list(ALGORITHMS)
        assert gates[0.95] < gates[0.0]
        assert built[0.95] == built[0.0]

    def test_report_write_is_atomic(self, planted_csv, tmp_path, monkeypatch):
        # a run that fails while it stages its files propagates the error and
        # leaves --out as the last runs left it, with no staging directory
        out = tmp_path / "out"
        runs = ((run_fs, fs_config(planted_csv, out)),
                (run_ae, fs_config(planted_csv, out, mode="ae", bottleneck=2, epochs=1)))
        for run_mode, config in runs:
            run_mode(config)
        before = _files(out)

        def failing_write_csv(data, path, label_column):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("a,lab")
            raise RuntimeError("interrupted")

        def failing_render(doc, indent=2):
            raise RuntimeError("interrupted")

        for module, name, failing in ((dataset, "write_csv", failing_write_csv),
                                      (pipeline, "_json", failing_render)):
            with monkeypatch.context() as patch:
                patch.setattr(module, name, failing)
                for run_mode, config in runs:
                    with pytest.raises(RuntimeError, match="interrupted"):
                        run_mode(dataclasses.replace(config, seed=4))
                    assert _files(out) == before

    def test_report_is_renamed_last(self, planted_csv, tmp_path, monkeypatch):
        # a run cut between two renames leaves the last run's report or none,
        # never a new report beside older files
        replace_, renamed = os.replace, []

        def record(src, dst):
            renamed.append(os.path.basename(dst))
            replace_(src, dst)

        monkeypatch.setattr(pipeline.os, "replace", record)
        report = run_fs(fs_config(planted_csv, tmp_path))
        assert renamed[-1] == "fs_report.json"
        assert sorted(renamed) == sorted(os.listdir(tmp_path)) == sorted(
            [os.path.basename(p) for p in report["artifacts"].values()]
            + ["optimized.csv.meta.json"])

    def test_two_runs_stage_apart(self, planted_csv, tmp_path, monkeypatch):
        # an ae run that starts and ends while an fs run's files are staged
        # under the same --out: each run stages in its own directory, and
        # both sets are published
        out = tmp_path / "out"
        write_csv_, staged = dataset.write_csv, []

        def write_csv_then_run_ae(data, path, label_column):
            staged.append(os.path.dirname(path))
            write_csv_(data, path, label_column)
            if len(staged) == 1:
                run_ae(fs_config(planted_csv, out, mode="ae", bottleneck=2, epochs=1))
                assert os.path.isfile(path)

        monkeypatch.setattr(dataset, "write_csv", write_csv_then_run_ae)
        run_fs(fs_config(planted_csv, out))
        assert len(staged) == 2 and staged[0] != staged[1]
        assert {os.path.dirname(d) for d in staged} == {str(out)}
        assert all(os.path.basename(d).startswith(".staging-") for d in staged)
        assert sorted(os.listdir(out)) == [
            "ae_curve.csv", "ae_generated.csv", "ae_generated.csv.meta.json", "ae_model.json",
            "ae_report.json", "elimination_mRMR.csv", "fs_report.json", "optimized.csv",
            "optimized.csv.meta.json"]


class TestRrwMode:
    def test_requires_fs_report(self, planted_csv, tmp_path):
        config = fs_config(planted_csv, tmp_path, mode="rrw", fs_report=None)
        with pytest.raises(ConfigError):
            run_rrw(config)

    def test_weights_and_outputs(self, fs_run, planted_csv, tmp_path):
        fs_report, fs_out = fs_run
        config = fs_config(planted_csv, tmp_path, mode="rrw",
                           fs_report=str(fs_out / "fs_report.json"))
        report = run_rrw(config)
        weights = report["weights"]["weights"]
        assert set(weights) == set(fs_report["optimized_features"])
        assert all(0.0 < w <= 1.0 for w in weights.values())
        assert all(0.0 < f1 <= 1.0 for f1 in report["avg_f1"].values())
        weighted = load_csv(report["artifacts"]["rrw_optimized_csv"], "label")
        assert set(weighted.feature_names) == set(fs_report["optimized_features"])

    def test_deterministic(self, fs_run, planted_csv, tmp_path):
        _, fs_out = fs_run
        config = fs_config(planted_csv, tmp_path, mode="rrw",
                           fs_report=str(fs_out / "fs_report.json"))
        run_rrw(config)
        first = (tmp_path / "rrw_report.json").read_bytes()
        run_rrw(fs_config(planted_csv, tmp_path, mode="rrw",
                          fs_report=str(fs_out / "fs_report.json")))
        assert (tmp_path / "rrw_report.json").read_bytes() == first


class TestGateInputs:
    def test_fs_and_rrw_train_every_gate_on_rows_in_the_unit_interval(
            self, tmp_path, monkeypatch):
        # the premise of gate_train's divergence check being out of a run's
        # reach: every gate of the golden chain's fs and rrw runs trains on
        # min-max scaled rows, where the gradient and the forward sums stay
        # finite
        write_csv(planted_dataset(5, 3, 600, seed=3), tmp_path / "planted.csv", "label")
        ranges = []

        def checked(A, *args, **kwargs):
            ranges.append((float(A.min()), float(A.max())))
            return gate_train(A, *args, **kwargs)

        monkeypatch.setattr(selection, "gate_train", checked)
        monkeypatch.setattr(rrw, "gate_train", checked)
        monkeypatch.chdir(tmp_path)
        assert cli_main(COMMANDS[0]) == 0
        n_fs = len(ranges)
        assert cli_main(COMMANDS[1]) == 0
        assert 0 < n_fs < len(ranges)
        assert all(0.0 <= lo and hi <= 1.0 for lo, hi in ranges)


class TestAeMode:
    def test_explicit_bottleneck(self, planted_csv, tmp_path):
        config = fs_config(planted_csv, tmp_path, mode="ae", bottleneck=2,
                           epochs=3)
        report = run_ae(config)
        assert report["bottleneck"] == 2
        assert len(report["curve"]) == 3
        encoded = load_csv(report["artifacts"]["ae_generated_csv"], "label")
        assert encoded.feature_names == ("f1", "f2")
        assert encoded.n_samples == 500

    def test_bottleneck_from_fs_report(self, fs_run, planted_csv, tmp_path):
        fs_report, fs_out = fs_run
        config = fs_config(planted_csv, tmp_path, mode="ae", epochs=2,
                           fs_report=str(fs_out / "fs_report.json"))
        report = run_ae(config)
        assert report["bottleneck"] == fs_report["mdrt"]

    def test_bottleneck_overrides_the_reports_mdrt(self, fs_run, planted_csv, tmp_path):
        fs_report, fs_out = fs_run
        assert fs_report["mdrt"] != 1
        config = fs_config(planted_csv, tmp_path, mode="ae", epochs=1, bottleneck=1,
                           fs_report=str(fs_out / "fs_report.json"))
        assert run_ae(config)["bottleneck"] == 1

    def test_missing_bottleneck(self, planted_csv, tmp_path):
        with pytest.raises(ConfigError):
            run_ae(fs_config(planted_csv, tmp_path, mode="ae"))

    def test_deterministic(self, planted_csv, tmp_path):
        run_ae(fs_config(planted_csv, tmp_path, mode="ae", bottleneck=2, epochs=2))
        first = (tmp_path / "ae_report.json").read_bytes()
        run_ae(fs_config(planted_csv, tmp_path, mode="ae", bottleneck=2, epochs=2))
        assert (tmp_path / "ae_report.json").read_bytes() == first


class TestEvaluateMode:
    def test_metrics_and_curve(self, planted_csv, tmp_path):
        config = fs_config(planted_csv, tmp_path, mode="evaluate", epochs=4)
        report = run_evaluate(config)
        m = report["metrics"]
        # split of 500: validation 75, test ceil(0.15 * 425) = 64
        assert m["tp"] + m["fp"] + m["tn"] + m["fn"] == 64
        assert 0.0 <= m["accuracy"] <= 1.0
        assert len(report["curve"]) == 4
        assert (tmp_path / "mlp_curve.csv").exists()

    def test_deterministic(self, planted_csv, tmp_path):
        run_evaluate(fs_config(planted_csv, tmp_path, mode="evaluate", epochs=2))
        first = (tmp_path / "evaluate_report.json").read_bytes()
        run_evaluate(fs_config(planted_csv, tmp_path, mode="evaluate", epochs=2))
        assert (tmp_path / "evaluate_report.json").read_bytes() == first

    def test_normalize_flag_changes_nothing_on_unit_range(self, planted_csv,
                                                          tmp_path):
        a = run_evaluate(fs_config(planted_csv, tmp_path / "a", mode="evaluate",
                                   epochs=2))
        b = run_evaluate(fs_config(planted_csv, tmp_path / "b", mode="evaluate",
                                   epochs=2, normalize=True))
        # planted features are uniform in [0, 1); normalization barely moves
        # them, so the confusion counts land close together
        assert abs(a["metrics"]["accuracy"] - b["metrics"]["accuracy"]) < 0.1


class TestCli:
    def test_evaluate_success(self, planted_csv, tmp_path, capsys):
        code = cli_main(["evaluate", "--input", planted_csv, "--epochs", "2",
                         "--seed", "3", "--out", str(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "evaluate"
        assert "report" in out["artifacts"]

    def test_config_error_exit_1(self, planted_csv, tmp_path):
        code = cli_main(["fs", "--input", planted_csv, "--gamma", "1.5",
                         "--out", str(tmp_path)])
        assert code == 1

    def test_missing_input_exit_2(self, tmp_path, capsys):
        code = cli_main(["evaluate", "--input", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"data error: [stage load] input {tmp_path / 'nope.csv'} does not exist\n"

    def test_training_error_exit_3(self, tmp_path, rng):
        # single-class labels survive loading but break the elimination gate
        data = make_dataset({"a": rng.random(40), "b": rng.random(40)},
                            [0] * 40)
        path = tmp_path / "oneclass.csv"
        write_csv(data, path, "label")
        code = cli_main(["fs", "--input", str(path), "--out", str(tmp_path),
                         "--tamper-threshold", "0.99",
                         "--algorithms", "mRMR"])
        assert code == 3

    def test_diverging_sgd_prints_one_line(self, planted_csv, tmp_path, rng, capsys):
        # a column near 1e200 overflows the MLP's products in its first
        # epoch; the overflow must not reach stderr as numpy warnings
        X = rng.random((200, 3)) * np.array([1.0, 1e200, 1.0])
        path = tmp_path / "huge.csv"
        write_csv(make_dataset({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2]},
                               (X[:, 0] > 0.5).astype(int)), path, "label")
        out = tmp_path / "out"
        assert cli_main(["evaluate", "--input", planted_csv, "--epochs", "1",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        before = _files(out)
        code = cli_main(["evaluate", "--input", str(path), "--epochs", "2",
                         "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "training failure: [stage mlp_train] training diverged at epoch 1: a non-finite value\n")
        assert _files(out) == before

    def test_label_named_like_an_encoded_feature(self, tmp_path, rng, capsys):
        # ae names its features f1..fk; a label column "f1" used to give
        # ae_generated.csv the header f1,f2,f1, which no run can load
        X = rng.random((60, 4))
        path = tmp_path / "in.csv"
        write_csv(make_dataset({"a": X[:, 0], "b": X[:, 1], "c": X[:, 2], "d": X[:, 3]},
                               (X[:, 0] > 0.5).astype(int)), path, "f1")
        out = tmp_path / "out"
        out.mkdir()
        code = cli_main(["ae", "--input", str(path), "--label", "f1", "--bottleneck", "2",
                         "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: [stage write_artifacts] label column 'f1' is also a feature name\n")
        assert os.listdir(out) == []

    def test_training_error_message(self, tmp_path, rng, capsys):
        data = make_dataset({"a": rng.random(40), "b": rng.random(40)},
                            [1] * 40)
        path = tmp_path / "oneclass.csv"
        write_csv(data, path, "label")
        cli_main(["fs", "--input", str(path), "--out", str(tmp_path),
                  "--tamper-threshold", "0.99", "--algorithms", "mRMR"])
        assert "training failure" in capsys.readouterr().err


class TestCliDefaults:
    """Every run setting has one owner, ``PipelineConfig``: each flag stores
    into the field it names, and an absent flag stores nothing."""

    def _config(self, monkeypatch, argv) -> PipelineConfig:
        seen = []
        monkeypatch.setattr(cli, "run", lambda config: seen.append(config) or {"mode": "x"})
        assert cli_main(argv) == 0
        return seen[0]

    @pytest.mark.parametrize("mode", MODES)
    def test_absent_flags_give_config_defaults(self, monkeypatch, mode):
        config = self._config(monkeypatch, [mode, "--input", "x.csv"])
        assert config == PipelineConfig(mode, "x.csv")

    def test_one_flag_per_field(self):
        actions = [a for a in cli.build_parser()._actions if a.dest != "help"]
        assert Counter(a.dest for a in actions) == Counter(
            f.name for f in dataclasses.fields(PipelineConfig))
        assert all(a.default is argparse.SUPPRESS for a in actions)

    def test_algorithms_parsed_to_tuple(self, monkeypatch):
        config = self._config(monkeypatch, ["fs", "--input", "x.csv",
                                            "--algorithms", " JMI, CMIM"])
        assert config.algorithms == ("JMI", "CMIM")

    def test_empty_algorithms_exit_1(self, capsys):
        assert cli_main(["fs", "--input", "x.csv", "--algorithms", ","]) == 1
        assert capsys.readouterr().err.startswith("configuration error: ")


def _names_one_stage(err: str, stage: str) -> None:
    """The failure message carries one stage prefix, and it names ``stage``."""
    assert err.count("[stage ") == 1, err
    assert f": [stage {stage}] " in err, err


class TestCliExitCodes:
    """Bad flags and bad fs reports end in exit code 1, an input path that
    is not a regular file and more folds than rows in exit code 2, each with
    a one-line message and never a traceback."""

    def _config_error(self, capsys, argv):
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        return err

    def _rrw(self, planted_csv, tmp_path, report_text):
        report = tmp_path / "fs_report.json"
        report.write_text(report_text, encoding="utf-8")
        return ["rrw", "--input", planted_csv, "--fs-report", str(report),
                "--out", str(tmp_path / "out")]

    def test_batch_zero(self, planted_csv, tmp_path, capsys):
        err = self._config_error(capsys, ["evaluate", "--input", planted_csv,
                                          "--batch", "0", "--out", str(tmp_path)])
        assert "batch" in err

    def test_report_not_json(self, planted_csv, tmp_path, capsys):
        err = self._config_error(capsys, self._rrw(planted_csv, tmp_path, "{not json"))
        assert "not valid JSON" in err

    def test_report_is_a_list(self, planted_csv, tmp_path, capsys):
        err = self._config_error(capsys, self._rrw(planted_csv, tmp_path, "[1, 2]"))
        assert "not a JSON object" in err

    def test_report_without_traces_or_rankings(self, fs_run, planted_csv, tmp_path,
                                               capsys):
        fs_report, _ = fs_run
        stripped = {k: v for k, v in fs_report.items() if k not in ("traces", "rankings")}
        err = self._config_error(capsys, self._rrw(planted_csv, tmp_path,
                                                   json.dumps(stripped)))
        assert "traces or rankings" in err

    @pytest.mark.parametrize("mode", ["fs", "rrw"])
    def test_more_folds_than_rows(self, fs_run, planted_csv, tmp_path, capsys, mode):
        # rrw splits its fs report's own input, which has 500 rows
        if mode == "fs":
            path, rows = tmp_path / "small.csv", 20
            write_csv(planted_dataset(5, 0, rows, seed=3), path, "label")
        else:
            path, rows = planted_csv, 500
        argv = [mode, "--input", str(path), "--folds", str(rows + 30),
                "--out", str(tmp_path / "out")]
        if mode == "rrw":
            argv += ["--fs-report", str(fs_run[1] / "fs_report.json")]
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert err.count("\n") == 1
        assert f"{rows} rows" in err and f"{rows + 30} folds" in err
        _names_one_stage(err, "tampering_audit" if mode == "fs" else "avg_f1_cv[mRMR]")

    @pytest.mark.parametrize("report_field, value, mode", [
        (("source_sha256",), 7, "rrw"),
        (("source_sha256",), None, "ae"),
        (("traces", "mRMR", "initial_features"), "inf0", "rrw"),
        (("traces", "mRMR", "initial_features", 0), 0.5, "ae"),
        (("rankings", "mRMR", "entries", 0, "score"), "x", "rrw"),
        (("rankings", "mRMR", "entries", 0, "feature"), 7, "rrw"),
        (("optimized_features", 0), 7, "rrw"),
        (("optimized_features", 0), 7, "ae"),
        (("traces", "mRMR", "optimized_features", 0), None, "rrw"),
        (("mdrt",), "two", "ae"),
        (("mdrt",), 2.0, "ae"),
        (("mdrt",), True, "ae"),
        (("rankings", "mRMR", "entries", 0, "score"), 10**400, "rrw"),
        (("rankings", "mRMR", "entries", 0, "score"), float("nan"), "rrw"),
        (("rankings", "mRMR", "entries", 0, "score"), float("inf"), "rrw"),
    ], ids=["sha_int", "sha_null", "initial_str", "initial_float", "score", "ranked_feature", "optimized_feature", "optimized_feature_ae",
            "trace_feature", "mdrt_str", "mdrt_float", "mdrt_bool", "score_past_float",
            "score_nan", "score_inf"])
    def test_report_field_mistyped(self, fs_run, planted_csv, tmp_path, capsys,
                                   report_field, value, mode):
        doc = json.loads(json.dumps(fs_run[0]))
        *parents, last = report_field
        field = doc
        for key in parents:
            field = field[key]
        field[last] = value
        argv = self._rrw(planted_csv, tmp_path, json.dumps(doc))
        argv[0] = mode
        err = self._config_error(capsys, argv)
        name = [key for key in report_field if isinstance(key, str)][-1]
        assert f"{name!r} has the wrong type" in err

    def test_ranking_names_a_feature_twice(self, fs_run, planted_csv, tmp_path, capsys):
        # rrw_scores compares only feature sets, so the twice-named
        # feature's score would count twice
        doc = json.loads(json.dumps(fs_run[0]))
        entries = doc["rankings"]["mRMR"]["entries"]
        twice = entries[0]["feature"]
        entries[-1]["feature"] = twice
        err = self._config_error(capsys, self._rrw(planted_csv, tmp_path, json.dumps(doc)))
        assert f"ranking of mRMR names feature {twice!r} twice" in err

    def test_scores_span_past_float_range(self, fs_run, planted_csv, tmp_path, capsys):
        # each score is finite, but their spread is not: min-max mapping them
        # used to print numpy overflow warnings and fail in apply_weights
        doc = json.loads(json.dumps(fs_run[0]))
        entries = doc["rankings"]["mRMR"]["entries"]
        assert {entries[0]["feature"], entries[1]["feature"]} <= set(doc["optimized_features"])
        entries[0]["score"], entries[1]["score"] = 1.7e308, -1.7e308
        err = self._config_error(capsys, self._rrw(planted_csv, tmp_path, json.dumps(doc)))
        assert "scores span more than the float range" in err
        _names_one_stage(err, "rrw_scores")

    def test_label_only_input(self, tmp_path, capsys):
        # the audit passes on its three random columns, which leaves no
        # feature to count or eliminate
        path = tmp_path / "label_only.csv"
        path.write_text("label\n" + "".join(f"{i % 2}\n" for i in range(40)),
                        encoding="utf-8")
        code = cli_main(["fs", "--input", str(path), "--tamper-threshold", "0.99",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert err.count("\n") == 1
        assert "need at least 2 features to eliminate" in err

    @pytest.mark.parametrize("mode", ["fs", "evaluate"])
    @pytest.mark.parametrize("under_file", [False, True])
    def test_out_is_a_file(self, planted_csv, tmp_path, capsys, mode, under_file):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker / "sub" if under_file else blocker
        err = self._config_error(capsys, [mode, "--input", planted_csv, "--out", str(out)])
        assert "output directory" in err
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    @pytest.mark.parametrize("mode, blocked", [
        ("fs", "fs_report.json"),
        ("fs", "fs_report.json.tmp"),
        ("fs", "optimized.csv.meta.json"),
        ("evaluate", "mlp_curve.csv"),
        ("evaluate", "evaluate_report.json.tmp"),
    ])
    def test_artifact_path_is_a_directory(self, planted_csv, tmp_path, capsys, mode,
                                          blocked):
        # a directory at an artifact's path used to end in an
        # IsADirectoryError traceback; "<name>.tmp" was the temporary path
        # of a per-file writer and is no longer in a run's way
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        (out / blocked / "kept.txt").write_text("kept\n", encoding="utf-8")
        argv = [mode, "--input", planted_csv, "--out", str(out), "--epochs", "1"]
        if mode == "fs":
            argv += ["--gamma", "0.85", "--tamper-threshold", "0.375", "--algorithms", "mRMR"]
        if blocked.endswith(".tmp"):
            assert cli_main(argv) == 0
            assert (out / blocked.removesuffix(".tmp")).is_file()
        else:
            err = self._config_error(capsys, argv)
            assert f"[stage write_artifacts] cannot write {out / blocked}: Is a directory" in err
            assert os.listdir(out) == [blocked]
        assert os.listdir(out / blocked) == ["kept.txt"]
        assert (out / blocked / "kept.txt").read_text(encoding="utf-8") == "kept\n"

    def test_failed_run_keeps_the_last_set(self, planted_csv, tmp_path, capsys):
        # a directory at one artifact's path used to fail the run after it
        # had put a fresh optimized.csv beside the last run's report
        out = tmp_path / "out"
        argv = ["fs", "--input", planted_csv, "--out", str(out), "--gamma", "0.85",
                "--tamper-threshold", "0.375", "--algorithms", "mRMR"]
        assert cli_main(argv) == 0
        (out / "optimized.csv.meta.json").unlink()
        (out / "optimized.csv.meta.json").mkdir()
        before = _files(out)
        self._config_error(capsys, argv + ["--seed", "4"])
        assert _files(out) == before

    def test_report_is_a_directory(self, planted_csv, tmp_path, capsys):
        err = self._config_error(capsys, ["rrw", "--input", planted_csv,
                                          "--fs-report", str(tmp_path),
                                          "--out", str(tmp_path / "out")])
        assert "cannot read fs report" in err

    @pytest.mark.parametrize("argv, expected", [
        (["fs", "--input", "t.csv", "--bins", "abc"], "argument --bins: invalid int value"),
        (["fs", "--bins", "4"], "required: --input"),
        (["cluster", "--input", "t.csv"], "argument mode: invalid choice"),
    ])
    def test_bad_flag(self, capsys, argv, expected):
        # argparse used to print a usage dump and exit 2, the data-error code
        assert expected in self._config_error(capsys, argv)

    def test_binning_choices_are_the_strategies(self, capsys):
        err = self._config_error(capsys, ["fs", "--input", "t.csv", "--binning", "kmeans"])
        assert "argument --binning: invalid choice: 'kmeans'" in err
        assert all(repr(strategy) in err for strategy in BINNING_STRATEGIES)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        assert "usage: mi-distill" in capsys.readouterr().out

    @pytest.mark.parametrize("text", [b"a\xff,label\n1,0\n0,1\n", b"a,label\n1,0\n\xff,1\n"],
                             ids=["header", "body"])
    def test_input_not_utf8(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        code = cli_main(["evaluate", "--input", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert "not valid UTF-8" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["fs", "evaluate"])
    def test_input_is_a_directory(self, tmp_path, capsys, mode):
        code = cli_main([mode, "--input", str(tmp_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert "not a regular file" in err
        assert err.count("\n") == 1

    def _data_error(self, capsys, argv, stage):
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("data error: ")
        assert err.count("\n") == 1
        _names_one_stage(err, stage)
        return err

    def test_input_lacks_an_optimized_feature(self, fs_run, tmp_path, capsys):
        # such a table is not the report's input, so it is refused as it
        # loads, not after every cross-validation gate
        fs_report, fs_out = fs_run
        lost = fs_report["optimized_features"][0]
        data = planted_dataset(5, 0, 500, seed=3)
        path = tmp_path / "fewer.csv"
        write_csv(data.select_features([n for n in data.feature_names if n != lost]), path,
                  "label")
        report = fs_out / "fs_report.json"
        err = self._data_error(capsys, ["rrw", "--input", str(path), "--fs-report",
                                        str(report), "--out", str(tmp_path / "out")], "load")
        assert err.endswith(f"] fs report {report} was made from another input (sha256 "
                            f"{fs_report['source_sha256'][:12]}), not {path}\n")

    @pytest.mark.parametrize("mode", ["rrw", "ae"])
    def test_foreign_input(self, fs_run, tmp_path, capsys, monkeypatch, mode):
        # the same columns, other rows: refused before the split, so no
        # gate or SGD step runs and --out keeps its bytes
        for stage in ("avg_f1_cv", "ae_train"):
            monkeypatch.setattr(pipeline, stage,
                                lambda *a, stage=stage, **k: pytest.fail(f"{stage} ran"))
        path = tmp_path / "foreign.csv"
        write_csv(planted_dataset(5, 0, 500, seed=4), path, "label")
        out = tmp_path / "out"
        out.mkdir()
        (out / f"{mode}_report.json").write_text("{}\n", encoding="utf-8")
        before = _files(out)
        argv = [mode, "--input", str(path), "--fs-report", str(fs_run[1] / "fs_report.json"),
                "--out", str(out)]
        # ae binds the report even when --bottleneck overrides its mdrt
        err = self._data_error(capsys, argv + ["--bottleneck", "2"] * (mode == "ae"), "load")
        assert "was made from another input" in err
        assert _files(out) == before

    @pytest.mark.parametrize("mode", ["rrw", "ae"])
    def test_foreign_input_is_refused_before_its_body_is_parsed(self, fs_run, tmp_path,
                                                                capsys, monkeypatch, mode):
        # the digest pass already names the input, so its rows are never read
        for parse in ("_parse_body", "_parse_cells"):
            monkeypatch.setattr(dataset, parse,
                                lambda *a, parse=parse: pytest.fail(f"{parse} ran"))
        path = tmp_path / "foreign.csv"
        write_csv(planted_dataset(5, 0, 500, seed=4), path, "label")
        argv = [mode, "--input", str(path), "--fs-report", str(fs_run[1] / "fs_report.json"),
                "--out", str(tmp_path / "out")]
        err = self._data_error(capsys, argv + ["--bottleneck", "2"] * (mode == "ae"), "load")
        assert "was made from another input" in err

    @staticmethod
    def _doc(fs_run) -> dict:
        return json.loads(json.dumps(fs_run[0]))

    @pytest.mark.parametrize("change", ["drop_last", "foreign", "initial_extra",
                                        "initial_twice"])
    def test_ranking_is_not_a_permutation(self, fs_run, planted_csv, tmp_path, capsys,
                                          change):
        doc = self._doc(fs_run)
        entries = doc["rankings"]["mRMR"]["entries"]
        if change == "drop_last":
            entries.pop()
        elif change == "foreign":
            entries[-1]["feature"] = "zzz"
        else:
            initial = doc["traces"]["mRMR"]["initial_features"]
            initial.append("zzz" if change == "initial_extra" else initial[0])
        err = self._config_error(capsys, self._rrw(planted_csv, tmp_path, json.dumps(doc)))
        assert "ranking of mRMR is not a permutation of its trace's initial_features" in err

    @pytest.mark.parametrize("mode", ["rrw", "ae"])
    @pytest.mark.parametrize("change", ["not_a_trace_set", "mdrt_off_by_one"])
    def test_optimized_features_disagree(self, fs_run, planted_csv, tmp_path, capsys,
                                         change, mode):
        doc = self._doc(fs_run)
        if change == "not_a_trace_set":
            doc["optimized_features"] = doc["optimized_features"][1:]
            doc["mdrt"] -= 1
        else:
            doc["mdrt"] += 1
        argv = self._rrw(planted_csv, tmp_path, json.dumps(doc))
        argv[0] = mode
        err = self._config_error(capsys, argv)
        assert "optimized_features and mdrt are not the optimized set" in err

    def test_final_suite_names_an_unknown_criterion(self, fs_run, planted_csv, tmp_path,
                                                    capsys):
        # PCA has a trace and a ranking, copied from mRMR's
        doc = self._doc(fs_run)
        doc["final_suite"].append("PCA")
        doc["traces"]["PCA"] = doc["traces"]["mRMR"]
        doc["rankings"]["PCA"] = doc["rankings"]["mRMR"]
        err = self._config_error(capsys, self._rrw(planted_csv, tmp_path, json.dumps(doc)))
        assert "final suite ['mRMR', 'PCA'] names an unknown criterion" in err

    def test_report_without_source_sha256(self, fs_run, planted_csv, tmp_path, capsys):
        # a report written before fs recorded its input's digest
        doc = self._doc(fs_run)
        del doc["source_sha256"]
        err = self._config_error(capsys, self._rrw(planted_csv, tmp_path, json.dumps(doc)))
        assert "has no source_sha256: run fs again" in err

    @pytest.mark.parametrize("report", [None, "{not json"], ids=["missing", "junk"])
    def test_ae_reads_the_report_beside_bottleneck(self, planted_csv, tmp_path, capsys,
                                                   report):
        path = tmp_path / "fs_report.json"
        if report is not None:
            path.write_text(report, encoding="utf-8")
        self._config_error(capsys, ["ae", "--input", planted_csv, "--bottleneck", "2",
                                    "--fs-report", str(path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_input_has_a_reserved_name(self, tmp_path, capsys):
        data = planted_dataset(3, 0, 100, seed=3)
        path = tmp_path / "reserved.csv"
        write_csv(Dataset(("a", "__rand1", "b"), data.X, data.labels), path, "label")
        err = self._data_error(capsys, ["fs", "--input", str(path),
                                        "--out", str(tmp_path / "out")], "tampering_audit")
        assert err.endswith("] feature name '__rand1' is reserved for the tampering audit\n")


class TestEmptyFinalSuite:
    """rrw and ae refuse an fs report that kept no criterion, and say why:
    no criterion passed the tampering audit, or the first of accuracy,
    precision and recall that each criterion missed gamma on."""

    PLAIN = "configuration error: fs report has no surviving algorithms / optimized features"

    @pytest.fixture(scope="class")
    def noisy_csv(self, tmp_path_factory):
        # 15% of the labels flipped: the gate's accuracy and precision reach
        # 0.85 and its recall does not
        clean = planted_dataset(5, 0, 400, seed=3)
        flip = np.random.default_rng(0).random(clean.n_samples) < 0.15
        noisy = Dataset(clean.feature_names, clean.X, np.where(flip, 1 - clean.labels,
                                                                clean.labels))
        path = tmp_path_factory.mktemp("noisy") / "noisy.csv"
        write_csv(noisy, path, "label")
        return str(path)

    def _fs(self, noisy_csv, out, *flags):
        code = cli_main(["fs", "--input", noisy_csv, "--algorithms", "mRMR,JMI",
                         "--gamma", "0.85", "--tamper-threshold", "0.5", *flags,
                         "--out", str(out)])
        assert code == 0
        with open(out / "fs_report.json", encoding="utf-8") as fh:
            return json.load(fh)

    def _refused(self, capsys, noisy_csv, report_path, mode, tmp_path):
        code = cli_main([mode, "--input", noisy_csv, "--fs-report", str(report_path),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(self.PLAIN)
        assert err.count("\n") == 1
        return err

    @pytest.mark.parametrize("mode", ["rrw", "ae"])
    def test_names_the_metric_below_gamma(self, noisy_csv, tmp_path, capsys, mode):
        report = self._fs(noisy_csv, tmp_path / "fs")
        assert report["final_suite"] == [] and report["surviving_after_audit"]
        capsys.readouterr()
        err = self._refused(capsys, noisy_csv, tmp_path / "fs" / "fs_report.json", mode,
                            tmp_path)
        assert "; below gamma 0.85: " in err
        for alg, metrics in report["post_bfe_metrics"].items():
            missed = next(name for name in ("accuracy", "precision", "recall")
                          if metrics[name] is None or metrics[name] < 0.85)
            assert missed == "recall"
            value = "undefined" if metrics[missed] is None else repr(metrics[missed])
            assert f"{alg} {missed} {value}" in err

    def test_names_the_audit(self, noisy_csv, tmp_path, capsys):
        # threshold 0: no position is in the bottom, so every criterion fails
        report = self._fs(noisy_csv, tmp_path / "fs", "--tamper-threshold", "0")
        assert report["surviving_after_audit"] == []
        capsys.readouterr()
        err = self._refused(capsys, noisy_csv, tmp_path / "fs" / "fs_report.json", "rrw",
                            tmp_path)
        assert err == f"{self.PLAIN}; no criterion passed the tampering audit\n"

    @pytest.mark.parametrize("field, value", [
        ("post_bfe_metrics", [1]),
        ("post_bfe_metrics", {"mRMR": {"accuracy": "high"}}),
        ("post_bfe_metrics", {"no\ncriterion": {"accuracy": 0.5}}),
        ("post_bfe_metrics", {"mRMR": {"accuracy": 1.0, "precision": 1.0, "recall": 1.0}}),
        ("config", None),
        ("surviving_after_audit", None),
    ], ids=["list", "string_metric", "unknown_criterion", "all_pass", "no_config",
            "no_audit"])
    def test_malformed_report_keeps_the_plain_message(self, noisy_csv, tmp_path, capsys,
                                                      field, value):
        report = {"mode": "fs", "final_suite": [], "optimized_features": None,
                  "surviving_after_audit": ["mRMR"], "config": {"gamma": 0.97},
                  "post_bfe_metrics": {"mRMR": {"accuracy": 0.9}}}
        if value is None:
            del report[field]
        else:
            report[field] = value
        path = tmp_path / "fs_report.json"
        path.write_text(json.dumps(report), encoding="utf-8")
        err = self._refused(capsys, noisy_csv, path, "rrw", tmp_path)
        assert err == self.PLAIN + "\n"
