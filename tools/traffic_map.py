"""Which lines of src/fueterlab the benchmark reaches, and which only tests reach.

Run from the repository root:

    python3 tools/traffic_map.py            # the bench workloads only
    python3 tools/traffic_map.py --tests    # and the tier-1 suite (about 35 s)

Each trace runs in a child process of its own, under sys.settrace from
before fueterlab is imported, so module-level lines count too:

* bench: one full-size seed-1 pass of each workload in bench/workloads.py,
  built by the workload's own builder (the bench files are only read);
  every op is run and checked once.
* tests: the tier-1 suite, pytest in process.  A subprocess a test starts
  (the cli __main__ test) is not followed.

Executable lines come from the CPython line tables of each module's code
objects, docstring lines excluded.  Per module the table shows executable
lines, lines the bench reaches, lines only the tests reach, lines nothing
reaches (without --tests: lines the bench does not reach), physical lines
and AST code lines (lines holding a token other than a comment, newline or
indent, outside module, class and function docstrings).
"""

from __future__ import annotations

import argparse
import ast
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fueterlab"
MODULES = ("cli", "classify", "diffops", "function_model", "generators",
           "laurent", "quaternion_core", "verification")


def docstring_lines(tree: ast.AST) -> set:
    """ the lines of module, class and function docstrings """
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def executable_lines(source: str, path: str) -> set:
    """ the lines in the line tables of the module's code objects, docstrings excluded """
    lines, stack = set(), [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines - docstring_lines(ast.parse(source)) - {0}


def code_lines(source: str) -> int:
    """ lines holding a token other than a comment, newline or indent, outside docstrings """
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def line_tracer(reached: set):
    """ a sys.settrace function that records (file, line) in the package """
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            reached.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    return trace


def run_bench():
    """ one full-size seed-1 pass of every bench workload, each op run and checked """
    sys.path.insert(0, str(ROOT / "bench"))
    fl = SimpleNamespace(**{name: importlib.import_module(f"fueterlab.{name}") for name in MODULES})
    from workloads import WORKLOADS
    with tempfile.TemporaryDirectory(prefix="traffic-map-") as out_dir:
        for name, build in WORKLOADS.items():
            for op in build(fl, 1, False, None, out_dir):
                problems = op.check(op.run())
                if problems:
                    print(f"# {name} {op.label}: {'; '.join(problems)}", file=sys.stderr)


def run_tests():
    """ the tier-1 suite, in process """
    import pytest
    os.chdir(ROOT)
    pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"])


def child(target: str, out: str):
    reached = set()
    sys.settrace(line_tracer(reached))
    try:
        {"bench": run_bench, "tests": run_tests}[target]()
    finally:
        sys.settrace(None)
    by_module = {}
    for path, line in reached:
        by_module.setdefault(Path(path).name, []).append(line)
    Path(out).write_text(json.dumps(by_module))


def trace(target: str) -> dict:
    """ {module file name: set of reached lines} from a child process """
    with tempfile.TemporaryDirectory(prefix="traffic-map-") as tmp:
        out = os.path.join(tmp, f"{target}.json")
        path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
        subprocess.run([sys.executable, __file__, "--child", target, out], check=True,
                       stdout=sys.stderr,
                       env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))
        return {name: set(lines) for name, lines in json.loads(Path(out).read_text()).items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tests", action="store_true", help="also trace the tier-1 suite")
    parser.add_argument("--child", nargs=2, metavar=("TARGET", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return 0
    bench = trace("bench")
    tests = trace("tests") if args.tests else None
    columns = ["executable", "bench"] + (["tests_only", "nothing"] if tests is not None
                                         else ["not_bench"]) + ["physical", "code"]
    print(f"{'module':<20}" + "".join(f"{c:>12}" for c in columns))
    totals = dict.fromkeys(columns, 0)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(source, str(path))
        on_bench = lines & bench.get(path.name, set())
        row = {"executable": len(lines), "bench": len(on_bench)}
        if tests is not None:
            on_tests = lines & tests.get(path.name, set())
            row["tests_only"] = len(on_tests - on_bench)
            row["nothing"] = len(lines - on_bench - on_tests)
        else:
            row["not_bench"] = len(lines - on_bench)
        row["physical"] = len(source.splitlines())
        row["code"] = code_lines(source)
        for c in columns:
            totals[c] += row[c]
        print(f"{path.name:<20}" + "".join(f"{row[c]:>12}" for c in columns))
    print(f"{'total':<20}" + "".join(f"{totals[c]:>12}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
