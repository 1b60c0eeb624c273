"""One-operator mutation sample of named functions.

    python tests/mutants.py [--sample N] [--workdir DIR] \\
        midistill.neural:_forward midistill.neural:_SGDStep.backward ...

Each mutant changes one thing inside one named function:

- an arithmetic operator, ``+`` and ``-`` or ``*`` and ``/`` (``+=`` too);
- a comparison, ``>`` and ``>=``, ``<`` and ``<=``, ``==`` and ``!=``,
  ``is`` and ``is not``;
- a numpy operation, ``np.add`` and ``np.subtract``, ``np.multiply`` and
  ``np.divide``, ``np.maximum`` and ``np.minimum``, ``np.greater`` and
  ``np.greater_equal``, ``np.less`` and ``np.less_equal``, ``np.equal``
  and ``np.not_equal``, ``np.cumsum`` becomes ``np.cumprod`` and
  ``np.sign`` becomes ``np.abs`` (on a relu output, the activation in
  place of its derivative);
- an expression statement, which becomes ``pass``.

The arguments are checked first: a spec that is not ``module:name``, whose
module has no file under ``src`` or defines no such function or class, a
negative ``--sample`` or a ``--workdir`` that is not a directory exits 2
with argparse's message and creates nothing.  Then the
repository's ``src``, ``tests`` and ``pyproject.toml`` are copied into
the work directory (a new temporary one by default).  The unmutated copy
must pass ``pytest -x tests``; then each mutant is written into the copy in
turn and the tests run again.  A failing run kills the mutant, and so does a
run that takes ten times as long as the unmutated one (a mutated loop
condition can hang).  ``--sample`` draws a fixed sample, the same on every
run over the same functions.  The script
prints one line per mutant, then the killed and survived counts; it changes
nothing in the repository.  It is not a ``test_*`` file, so a pytest run
does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# a mutant's run may take this many times the unmutated run's time
TIMEOUT_FACTOR = 10

# each operator's token and the token of its mutant
OPERATORS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"), ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"),
}
NUMPY_SWAPS = {
    "add": "subtract", "subtract": "add", "multiply": "divide", "divide": "multiply",
    "maximum": "minimum", "minimum": "maximum", "greater": "greater_equal",
    "greater_equal": "greater", "less": "less_equal", "less_equal": "less",
    "equal": "not_equal", "not_equal": "equal", "cumsum": "cumprod", "sign": "abs",
}


def _offset(lines: list[str], lineno: int, col: int) -> int:
    """The character offset of a 1-based line and a UTF-8 byte column."""
    line = lines[lineno - 1]
    return sum(len(s) for s in lines[:lineno - 1]) + len(line.encode()[:col].decode())


def _find(tree: ast.AST, qualname: str) -> ast.AST | None:
    """The function or class ``qualname`` names in ``tree``, or None."""
    node = tree
    for part in qualname.split("."):
        node = next((n for n in ast.iter_child_nodes(node)
                     if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part), None)
        if node is None:
            return None
    return node


def mutants(text: str, qualname: str):
    """(description, mutated source) for every mutant of the function."""
    lines = text.splitlines(keepends=True)

    def pos(node, end=False):
        if end:
            return _offset(lines, node.end_lineno, node.end_col_offset)
        return _offset(lines, node.lineno, node.col_offset)

    for node in ast.walk(_find(ast.parse(text), qualname)):
        if isinstance(node, ast.BinOp):
            operations = [(node.left, node.op, node.right)]
        elif isinstance(node, ast.AugAssign):
            operations = [(node.target, node.op, node.value)]
        elif isinstance(node, ast.Compare):
            operations = zip([node.left, *node.comparators], node.ops, node.comparators)
        else:
            operations = []
        edits = []
        for left, op, right in operations:
            if type(op) in OPERATORS:
                token, new = OPERATORS[type(op)]
                # between the operands only parentheses and white space stand
                # next to the operator, so its first occurrence there is it
                at = text.index(token, pos(left, True), pos(right))
                edits.append((at, len(token), new))
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_SWAPS
              and isinstance(node.value, ast.Name) and node.value.id == "np"):
            end = pos(node, True)
            edits.append((end - len(node.attr), len(node.attr), NUMPY_SWAPS[node.attr]))
        elif isinstance(node, ast.Expr) and not isinstance(node.value, ast.Constant):
            start, end = pos(node), pos(node, True)
            edits.append((start, end - start, "pass"))
        for at, length, new in edits:
            line = text.count("\n", 0, at) + 1
            old = text[at:at + length].split("\n")[0]
            yield f"line {line}: {old!r} -> {new!r}", text[:at] + new + text[at + length:]


def _pytest(work: Path, timeout: float | None = None):
    """pytest's exit code in the copy, or "timeout"."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
            # no bytecode cache: a mutant may keep its module's size and mtime second
            cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src"),
                           "PYTHONDONTWRITEBYTECODE": "1"},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("functions", nargs="+", help="module:qualified.name")
    parser.add_argument("--sample", type=int, help="run this many mutants, drawn at random")
    parser.add_argument("--workdir", help="where the copy goes (default: a temporary directory)")
    args = parser.parse_args(argv)
    # every argument is checked before anything is copied
    if args.workdir is not None and not Path(args.workdir).is_dir():
        parser.error(f"--workdir {args.workdir} is not a directory")
    if args.sample is not None and args.sample < 0:
        parser.error(f"--sample {args.sample} is negative")
    todo = []
    for spec in args.functions:
        module, colon, qualname = spec.partition(":")
        if not colon:
            parser.error(f"{spec} is not module:qualified.name")
        relative = Path("src", *module.split(".")).with_suffix(".py")
        if not (ROOT / relative).is_file():
            parser.error(f"{spec}: there is no {relative}")
        text = (ROOT / relative).read_text(encoding="utf-8")
        if _find(ast.parse(text), qualname) is None:
            parser.error(f"{spec}: {relative} defines no {qualname}")
        todo += [(spec, what, relative, text, mutated) for what, mutated in mutants(text, qualname)]
    if args.sample is not None and args.sample < len(todo):
        todo = random.Random(0).sample(todo, args.sample)

    work = Path(tempfile.mkdtemp(prefix="mutants-", dir=args.workdir))
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, work / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")

    # every mutant would count as killed if the copy failed unmutated
    started = time.perf_counter()
    if _pytest(work) != 0:
        print(f"the unmutated copy in {work} fails its tests")
        return 1
    timeout = TIMEOUT_FACTOR * (time.perf_counter() - started)
    survived = []
    for spec, what, relative, text, mutated in todo:
        copy = work / relative
        copy.write_text(mutated, encoding="utf-8")
        started = time.perf_counter()
        try:
            code = _pytest(work, timeout)
        finally:
            copy.write_text(text, encoding="utf-8")
        verdict = "survived" if code == 0 else "killed"
        if code == 0:
            survived.append((spec, what))
        print(f"{verdict:8} {spec} {what} ({time.perf_counter() - started:.0f} s)", flush=True)
    print(f"{len(todo) - len(survived)} killed, {len(survived)} survived of {len(todo)}")
    for spec, what in survived:
        print(f"  survived: {spec} {what}")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
