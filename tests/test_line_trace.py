"""``tools/line_trace.py``: the statement inventory and the child tracer."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tools import line_trace  # noqa: E402

SOURCE = '''"""Module docstring."""
import os


def plain(a, b=1, *, c=2, d):
    """Docstring."""
    if a:
        raise ValueError(a)
    return (a,
            b)


class Box:
    @property
    def size(self):
        return 0
'''


def test_inventory_counts_statements_and_functions():
    statements, functions = line_trace.inventory(SOURCE, "m.py")
    spans = sorted((s.first, s.last, s.is_raise) for s in statements)
    # docstrings left out; a compound statement is its header; a
    # decorated def starts at its decorator
    assert spans == [(2, 2, False), (5, 5, False), (7, 7, False),
                     (8, 8, True), (9, 10, False), (13, 13, False),
                     (14, 15, False), (16, 16, False)]
    assert [(f.name, f.first, f.lines, f.defaults) for f in functions] == [
        ("plain", 5, 6, 2), ("Box.size", 14, 3, 0)]


def test_trace_records_what_a_child_ran():
    lines, entered, failed = line_trace.trace([
        [sys.executable, "-c", "from repro.graph import toy_graph; toy_graph()"],
        [sys.executable, "-c", "raise SystemExit(3)"],
    ])
    assert failed == ["-c raise SystemExit(3)"]
    assert "graph/datasets.py" in lines
    entered_names = {first for file, first in entered if file == "graph/datasets.py"}
    source = (line_trace.PACKAGE / "graph" / "datasets.py").read_text()
    _, functions = line_trace.inventory(source, "graph/datasets.py")
    toy = next(f for f in functions if f.name == "toy_graph")
    assert toy.first in entered_names
    assert any(line in lines["graph/datasets.py"]
               for line in range(toy.first, toy.first + toy.lines))


def test_archs_and_workloads_are_every_choice():
    """One ``train --arch`` run per registry entry and one child per perf
    workload: a new entry is traced without editing the tool."""
    from repro.gnn import MODEL_REGISTRY

    assert sorted(line_trace.ARCHS) == sorted(MODEL_REGISTRY)
    declared = json.loads((line_trace.ROOT / "BENCHMARK.json").read_text())
    assert list(line_trace.WORKLOADS) == [w["name"] for w in declared["workloads"]]


def test_callers_run_every_example_and_bench_function():
    callers = line_trace._callers()
    scripts = [argv[1] for argv in callers if len(argv) == 2]
    examples = sorted(str(p) for p in (line_trace.ROOT / "examples").glob("*.py"))
    assert [s for s in scripts if "/examples/" in s] == examples
    assert len(examples) == 6
    benches = [tuple(argv[3:]) for argv in callers if argv[1] == "-c"]
    assert len(benches) == len(set(benches)) == 34
    assert all(module.startswith("bench_") and function.startswith("bench_")
               for module, function in benches)
    assert len(callers) == len(set(map(tuple, callers))) == 74


def test_cli_callers_parse():
    """Every traced command line is one the CLI accepts, fault specs
    included: a caller that exits 2 traces nothing."""
    from repro.cli import build_parser
    from repro.faults.schedule import parse_fault

    parser = build_parser()
    runs = [argv[3:] for argv in line_trace._callers() if argv[1:3] == ["-m", "repro.cli"]]
    assert len(runs) == 20
    for argv in runs:
        parser.parse_args(argv)
    assert [type(parse_fault(spec)).__name__ for spec in line_trace.FAULTS] == [
        "Straggler", "NodeDeath", "LinkDegradation"]


def test_report_counts_against_the_package_inventory():
    """Nothing ran: every statement and function is unrun. Every line
    ran and every function was entered: nothing is."""
    cold = line_trace.report({}, set())["counts"]
    assert cold["unrun_statements"] + cold["unrun_raises"] == cold["statements"]
    assert cold["unrun_raises"] == cold["raises"] > 0
    assert cold["unentered_functions"] == cold["functions"] > 0
    lines, entered = {}, set()
    for path in line_trace.PACKAGE.rglob("*.py"):
        file = path.relative_to(line_trace.PACKAGE).as_posix()
        source = path.read_text()
        lines[file] = set(range(1, source.count("\n") + 2))
        entered.update((f.file, f.first) for f in line_trace.inventory(source, file)[1])
    warm = line_trace.report(lines, entered)
    assert warm["counts"]["unrun_statements"] == warm["counts"]["unrun_raises"] == 0
    assert warm["counts"]["unentered_functions"] == 0
    assert warm["unrun_statements"] == {} and warm["unentered_functions"] == []
    assert {k: v for k, v in warm["counts"].items() if not k.startswith("un")} == {
        k: v for k, v in cold.items() if not k.startswith("un")}
