"""repro-lint: AST-based invariant checkers for the HongTu reproduction.

Five checkers statically enforce contracts the test suite can only probe
dynamically (see ``docs/ARCHITECTURE.md`` — "Static invariants &
enforcement" — for the mapping to the runtime contracts):

* ``RPL101``/``RPL102``/``RPL103`` — seeded determinism
  (:mod:`tools.repro_lint.determinism`);
* ``RPL201`` — the :mod:`repro.errors` taxonomy
  (:mod:`tools.repro_lint.taxonomy`);
* ``RPL301`` — seconds-vs-bytes cost dimensions
  (:mod:`tools.repro_lint.dimensions`);
* ``RPL401``/``RPL402`` — hot-path python loops in the vectorized core
  and ``ufunc.at`` scatters in the training-step numerics
  (:mod:`tools.repro_lint.hotloop`).

Run ``python -m tools.repro_lint src/ benchmarks/ tools/`` from the repo
root; diagnostics render ``path:line: CODE message`` and the exit status
is the number of files with findings (0 = clean). Per-line suppression:
``# repro-lint: ignore[RPL101]`` (see :mod:`tools.repro_lint.base`).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from tools.repro_lint.base import (
    Checker,
    Diagnostic,
    SourceFile,
    iter_python_files,
)
from tools.repro_lint.determinism import DeterminismChecker
from tools.repro_lint.dimensions import DimensionChecker
from tools.repro_lint.hotloop import HotLoopChecker, ScatterChecker
from tools.repro_lint.taxonomy import TaxonomyChecker

__all__ = ["Diagnostic", "SourceFile", "Checker", "build_checkers",
           "lint_file", "lint_paths", "iter_python_files", "ALL_CODES"]

#: every diagnostic code the suite can emit
ALL_CODES = ("RPL101", "RPL102", "RPL103", "RPL201", "RPL301", "RPL401",
             "RPL402")


def build_checkers(root: Optional[Path] = None) -> List[Checker]:
    """The default checker suite, taxonomy-aware when run in the repo."""
    base = root if root is not None else Path(".")
    errors_path = base / "src" / "repro" / "errors.py"
    return [
        DeterminismChecker(),
        TaxonomyChecker(errors_path=errors_path),
        DimensionChecker(),
        HotLoopChecker(),
        ScatterChecker(),
    ]


def lint_file(path: Path, display_path: str,
              checkers: Sequence[Checker]) -> List[Diagnostic]:
    """All diagnostics for one file, sorted by line then code."""
    source = SourceFile(path, display_path, path.read_text(encoding="utf-8"))
    diagnostics: List[Diagnostic] = []
    for checker in checkers:
        diagnostics.extend(checker.run(source))
    return sorted(diagnostics, key=lambda d: (d.line, d.code))


def lint_paths(targets: Sequence[str],
               root: Optional[Path] = None) -> List[Diagnostic]:
    """Lint files/directories; paths in diagnostics are repo-relative."""
    base = root if root is not None else Path(".")
    checkers = build_checkers(base)
    diagnostics: List[Diagnostic] = []
    for path in iter_python_files(targets, base):
        try:
            display = str(path.relative_to(base))
        except ValueError:
            display = str(path)
        diagnostics.extend(lint_file(path, display, checkers))
    return diagnostics
