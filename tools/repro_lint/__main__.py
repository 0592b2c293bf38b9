"""CLI entry point: ``python -m tools.repro_lint src/ benchmarks/ tools/``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from tools.repro_lint import lint_paths


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.repro_lint",
        description=(
            "AST-based invariant checkers: determinism (RPL1xx), error "
            "taxonomy (RPL201), cost dimensions (RPL301), hot-path "
            "loops (RPL401) and ufunc.at scatters (RPL402). Suppress "
            "per line with "
            "`# repro-lint: ignore[CODE]`."
        ),
    )
    parser.add_argument(
        "targets", nargs="+",
        help="files or directories to lint (e.g. src/ benchmarks/ tools/)",
    )
    parser.add_argument(
        "--root", default=".", type=Path,
        help="repository root (defaults to the working directory)",
    )
    args = parser.parse_args(argv)
    diagnostics = lint_paths(args.targets, root=args.root)
    for diagnostic in diagnostics:
        print(diagnostic.render())
    if diagnostics:
        files = len({d.path for d in diagnostics})
        print(
            f"repro-lint: {len(diagnostics)} finding(s) in {files} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
