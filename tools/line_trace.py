"""List what in ``src/repro`` no non-test caller runs, statement by statement.

A simplification deletes what only tests reach; this finds the candidates.
It runs every non-test caller of the package in a child process under a
``sys.settrace`` line tracer, then compares the lines that ran with an
``ast`` inventory of ``src/repro``'s statements and functions. The
callers (``CALLERS``) are the six examples; the README's CLI runs, with
every ``--arch``, the three fault kinds and ``--profile``; the four
``benchmarks/perf`` workloads at ``--tiny``, traced and untraced, run as
the measuring child that ``run.py`` starts; every ``bench_*`` function;
and ``tools/fingerprint.py``, ``tools/profile_step.py`` and
``tools/check_docs.py``, whose doctests are callers too.

The bench functions run outside pytest, with a stand-in ``benchmark``
fixture that calls its target once (plainly or through ``pedantic``):
pytest-benchmark's timed call does not reach a ``sys.settrace`` tracer.

Usage::

    python tools/line_trace.py > trace.json

It takes about six minutes on a two-core host, two children at a time
(336 s, measured with nothing else running).
The JSON object holds the counts (``statements``; ``raises``;
``unrun_statements``, which excludes ``raise``; ``unrun_raises``;
``functions``; ``defaulted_parameters``, the settable values a caller
may leave at their default; ``unentered_functions``; ``src_lines``), the unrun
non-``raise`` statements as ``{"file": [line, ...]}``, the functions
never entered as ``"file:line name"`` strings, and the callers that
failed. A function is a ``def`` not nested in another one, methods
included. A name the trace did not reach may still be used by a path
the runs skip: grep ``README.md``, ``examples/``, ``benchmarks/`` and
``tools/`` before deleting it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: children running at once
WORKERS = 2
#: the perf workloads of ``benchmarks/perf/run.py``
WORKLOADS = ("train_numerics", "train_cluster", "plan_fleet", "serve_mixed")
ARCHS = ("gcn", "gat", "graphsage", "gin", "commnet", "ggnn")
SMALL = ["--epochs", "2", "--scale", "0.1"]
FLEET = ["--nodes", "3", "--gpus", "2", "--placement", "search", "--max-imbalance", "2"]
RAIL = ["--nodes", "2", "--gpus", "2", "--topology", "rail"]
PROFILED = ["--nodes", "16", "--gpus", "4", "--overlap", "pipeline", "--profile"]
BURSTY = ["--arrival", "bursty", "--rate", "200", "--duration", "0.2", "--batch-policy", "deadline"]
FAULTS = (
    "straggler:node=2,start=0.0005,compute=0.2,nic=0.1",
    "death:node=1,at=0.0003",
    "link:src=0,dst=1,factor=0.5",
)

#: installed as ``sitecustomize`` in every child: record the lines each
#: code object under the package runs, and write them out at exit
TRACER = """\
import atexit, json, os, sys, threading

_lines = {}

def _local(frame, event, arg):
    if event == "line":
        _lines[frame.f_code].add(frame.f_lineno)
    return _local

_skip = set()

def _global(frame, event, arg):
    code = frame.f_code
    if code in _lines:
        return _local
    if code in _skip:
        return None
    if not os.path.abspath(code.co_filename).startswith(%(package)r):
        _skip.add(code)
        return None
    _lines[code] = set()
    return _local

def _dump():
    sys.settrace(None)
    record = [[c.co_filename, c.co_firstlineno, sorted(s)] for c, s in _lines.items()]
    with open(os.path.join(%(out)r, "%%d.json" %% os.getpid()), "w") as handle:
        json.dump(record, handle)

atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
"""

#: one bench function, called with a ``benchmark`` that runs its target once
BENCH_RUNNER = """\
import importlib, sys
sys.path[:0] = [%(root)r, %(src)r]

class Benchmark:
    def __call__(self, target, *args, **kwargs):
        return target(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, **timing):
        return target(*args, **(kwargs or {}))

module, function = sys.argv[1:]
getattr(importlib.import_module("benchmarks." + module), function)(Benchmark())
"""


def _cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *args]


def _callers() -> List[List[str]]:
    """Every traced command line, run from the repository root."""
    python = sys.executable
    runs = [[python, str(path)] for path in sorted((ROOT / "examples").glob("*.py"))]
    runs += [_cli("train", "--dataset", "reddit_sim", "--arch", arch, *SMALL) for arch in ARCHS]
    runs += [
        _cli("train", "--overlap", "pipeline", *SMALL),
        _cli("train", "--policy", "recompute", *SMALL),
        _cli("train", "--nodes", "2", "--gpus", "4", *SMALL),
        _cli("train", *RAIL, "--placement", "joint", *SMALL),
        _cli("train", *FLEET[:4], "--node-spec", "a100:2", "--node-spec", "v100", *SMALL),
        _cli("train", *PROFILED, "--epochs", "1", "--scale", "0.1"),
        _cli("serve", "--arrival", "poisson", "--scale", "0.1", "--duration", "0.2"),
        _cli("serve", *BURSTY, "--train-epochs", "1", "--scale", "0.1"),
        _cli("analyze", "--scale", "0.1"),
        _cli("memory"),
        _cli("datasets"),
    ]
    runs += [_cli("train", *FLEET, "--fault", fault, *SMALL) for fault in FAULTS]
    run_py = str(ROOT / "benchmarks" / "perf" / "run.py")
    for name in WORKLOADS:
        for traced in (False, True):
            child = json.dumps([name, 0, 0.0, traced, True, False])
            runs.append([python, run_py, "--child", child])
        runs.append([python, str(ROOT / "tools" / "profile_step.py"), "--workload", name, "--tiny"])
    runs.append([python, str(ROOT / "tools" / "fingerprint.py")])
    runs.append([python, str(ROOT / "tools" / "check_docs.py")])
    runner = BENCH_RUNNER % {"root": str(ROOT), "src": str(ROOT / "src")}
    for path in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("bench_"):
                runs.append([python, "-c", runner, path.stem, node.name])
    return runs


@dataclass(frozen=True)
class Statement:
    """One statement of ``file``: it ran if any of ``first..last`` did."""

    file: str
    first: int
    last: int
    is_raise: bool


@dataclass(frozen=True)
class Function:
    """A ``def`` not nested in another one; ``first`` is its first decorator's
    line, ``defaults`` its parameters with a default value (what a caller
    may set or leave)."""

    file: str
    first: int
    lines: int
    name: str
    defaults: int


def _first_line(node: ast.stmt) -> int:
    decorators: List[ast.expr] = getattr(node, "decorator_list", [])
    return min([node.lineno, *(decorator.lineno for decorator in decorators)])


def _is_docstring(node: ast.stmt) -> bool:
    return (
        isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def inventory(source: str, file: str) -> Tuple[List[Statement], List[Function]]:
    """The statements (docstrings left out) and functions of one module.

    A compound statement counts by its header: from its first line to the
    line before its body.
    """
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and _is_docstring(node.body[0])
    }
    statements: List[Statement] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        last = node.end_lineno or node.lineno
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:
            last = max(node.lineno, _first_line(body[0]) - 1)
        statements.append(Statement(file, _first_line(node), last, isinstance(node, ast.Raise)))
    functions: List[Function] = []

    def visit(parent: ast.AST, prefix: str) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = _first_line(node)
                size = (node.end_lineno or first) - first + 1
                defaults = len(node.args.defaults) + sum(
                    default is not None for default in node.args.kw_defaults
                )
                functions.append(Function(file, first, size, prefix + node.name, defaults))
            elif isinstance(node, ast.ClassDef):
                visit(node, prefix + node.name + ".")
            else:
                visit(node, prefix)

    visit(tree, "")
    return statements, functions


def trace(callers: List[List[str]]) -> Tuple[Dict[str, Set[int]], Set[Tuple[str, int]], List[str]]:
    """Run ``callers``; the lines that ran and the functions entered, per
    package-relative file, and the callers that exited non-zero."""
    with tempfile.TemporaryDirectory() as scratch:
        site, out = Path(scratch, "site"), Path(scratch, "out")
        site.mkdir()
        out.mkdir()
        tracer = TRACER % {"package": str(PACKAGE) + os.sep, "out": str(out)}
        (site / "sitecustomize.py").write_text(tracer)
        path = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

        def run(argv: List[str]) -> int:
            return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode

        with ThreadPoolExecutor(WORKERS) as pool:
            codes = list(pool.map(run, callers))
        lines: Dict[str, Set[int]] = {}
        entered: Set[Tuple[str, int]] = set()
        for record in sorted(out.glob("*.json")):
            for filename, first, ran in json.loads(record.read_text()):
                file = Path(filename).resolve().relative_to(PACKAGE).as_posix()
                lines.setdefault(file, set()).update(ran)
                entered.add((file, first))
    failed = [" ".join(argv[1:]) for argv, code in zip(callers, codes) if code != 0]
    return lines, entered, failed


def report(lines: Dict[str, Set[int]], entered: Set[Tuple[str, int]]) -> Dict[str, object]:
    """Compare what ran with the package's inventory."""
    statements: List[Statement] = []
    functions: List[Function] = []
    src_lines = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        src_lines += source.count("\n")
        found = inventory(source, path.relative_to(PACKAGE).as_posix())
        statements += found[0]
        functions += found[1]

    def ran(statement: Statement) -> bool:
        seen = lines.get(statement.file, set())
        return any(line in seen for line in range(statement.first, statement.last + 1))

    unrun = [statement for statement in statements if not ran(statement)]
    unrun_body: Dict[str, List[int]] = {}
    for statement in unrun:
        if not statement.is_raise:
            unrun_body.setdefault(statement.file, []).append(statement.first)
    unentered = [f for f in functions if (f.file, f.first) not in entered]
    raises = sum(statement.is_raise for statement in statements)
    return {
        "counts": {
            "src_lines": src_lines,
            "statements": len(statements),
            "raises": raises,
            "unrun_statements": sum(map(len, unrun_body.values())),
            "unrun_raises": sum(statement.is_raise for statement in unrun),
            "functions": len(functions),
            "defaulted_parameters": sum(f.defaults for f in functions),
            "unentered_functions": len(unentered),
            "unentered_function_lines": sum(f.lines for f in unentered),
        },
        "unrun_statements": unrun_body,
        "unentered_functions": [f"{f.file}:{f.first} {f.name}" for f in unentered],
    }


def main() -> int:
    lines, entered, failed = trace(_callers())
    print(json.dumps({**report(lines, entered), "failed": failed}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
