"""``tests/mutants.py`` refuses a bad argument before it copies anything.
No test here starts a pytest run: ``_pytest`` is replaced."""

import pytest

import mutants


@pytest.fixture
def no_pytest(monkeypatch):
    def forbidden(work, timeout=None):
        raise AssertionError("a pytest run was started")

    monkeypatch.setattr(mutants, "_pytest", forbidden)


@pytest.mark.parametrize("args, message", [
    (["midistill.neural.gate_train"], "midistill.neural.gate_train is not module:qualified.name"),
    (["midistill.nosuch:f"], "midistill.nosuch:f: there is no src/midistill/nosuch.py"),
    (["midistill.neural:nosuch"],
     "midistill.neural:nosuch: src/midistill/neural.py defines no nosuch"),
    (["midistill.neural:_SGDStep.nosuch"],
     "midistill.neural:_SGDStep.nosuch: src/midistill/neural.py defines no _SGDStep.nosuch"),
    (["--workdir", "{tmp}/missing"], "--workdir {tmp}/missing is not a directory"),
    (["--sample", "-1"], "--sample -1 is negative"),
])
def test_bad_argument_exits_2_and_copies_nothing(tmp_path, capsys, no_pytest, args, message):
    args = [a.format(tmp=tmp_path) for a in args]
    workdir = [] if "--workdir" in args else ["--workdir", str(tmp_path)]
    # a good spec first: a bad one after it is still found before the copy
    with pytest.raises(SystemExit) as exc:
        mutants.main(workdir + ["midistill.neural:gate_predict"] + args)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: {message.format(tmp=tmp_path)}\n")
    assert list(tmp_path.iterdir()) == []


def test_good_spec_runs_each_mutant_and_removes_the_copy(tmp_path, capsys, monkeypatch):
    # gate_predict has two mutants, '+' -> '-' and '>=' -> '>'; the
    # stand-in run passes the unmutated copy and fails each mutant
    source = (mutants.ROOT / "src/midistill/neural.py").read_text(encoding="utf-8")
    runs = []

    def run(work, timeout=None):
        runs.append((work / "src/midistill/neural.py").read_text(encoding="utf-8") == source)
        return 0 if runs[-1] else 1

    monkeypatch.setattr(mutants, "_pytest", run)
    assert mutants.main(["--workdir", str(tmp_path), "midistill.neural:gate_predict"]) == 0
    assert runs == [True, False, False]
    assert capsys.readouterr().out.splitlines()[-1] == "2 killed, 0 survived of 2"
    assert list(tmp_path.iterdir()) == []


def test_the_gate_step_comparisons_are_mutated(tmp_path, capsys, monkeypatch):
    # the hinge test np.less and the flip test np.not_equal each get the
    # swap of their pair; the stand-in run fails every mutant
    source = (mutants.ROOT / "src/midistill/neural.py").read_text(encoding="utf-8")

    def run(work, timeout=None):
        return int((work / "src/midistill/neural.py").read_text(encoding="utf-8") != source)

    monkeypatch.setattr(mutants, "_pytest", run)
    assert mutants.main(["--workdir", str(tmp_path), "midistill.neural:_GateStep.__call__"]) == 0
    out = capsys.readouterr().out.splitlines()
    for old, new in (("less", "less_equal"), ("not_equal", "equal")):
        assert sum(line.startswith("killed") and f"{old!r} -> {new!r}" in line
                   for line in out) == 1
    n = len(list(mutants.mutants(source, "_GateStep.__call__")))
    assert out[-1] == f"{n} killed, 0 survived of {n}"
    assert list(tmp_path.iterdir()) == []


def test_the_stratified_sum_is_mutated(tmp_path, capsys, monkeypatch):
    # the ascending sum over strata, np.cumsum, becomes np.cumprod; the
    # stand-in run fails every mutant
    source = (mutants.ROOT / "src/midistill/ranking.py").read_text(encoding="utf-8")

    def run(work, timeout=None):
        return int((work / "src/midistill/ranking.py").read_text(encoding="utf-8") != source)

    monkeypatch.setattr(mutants, "_pytest", run)
    assert mutants.main(["--workdir", str(tmp_path), "midistill.ranking:_stratified"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("killed") and "'cumsum' -> 'cumprod'" in line
               for line in out) == 1
    n = len(list(mutants.mutants(source, "_stratified")))
    assert out[-1] == f"{n} killed, 0 survived of {n}"
    assert list(tmp_path.iterdir()) == []


def test_the_relu_derivative_is_mutated(tmp_path, capsys, monkeypatch):
    # relu' as np.sign of the relu output becomes np.abs, the output
    # itself; the stand-in run fails every mutant
    source = (mutants.ROOT / "src/midistill/neural.py").read_text(encoding="utf-8")

    def run(work, timeout=None):
        return int((work / "src/midistill/neural.py").read_text(encoding="utf-8") != source)

    monkeypatch.setattr(mutants, "_pytest", run)
    assert mutants.main(["--workdir", str(tmp_path), "midistill.neural:_SGDStep.backward"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("killed") and "'sign' -> 'abs'" in line for line in out) == 1
    n = len(list(mutants.mutants(source, "_SGDStep.backward")))
    assert out[-1] == f"{n} killed, 0 survived of {n}"
    assert list(tmp_path.iterdir()) == []
