#!/usr/bin/env python
"""Documentation checks: doctest the markdown code blocks and the
``src/`` docstring examples, verify links and cross-references.

Run with:  PYTHONPATH=src python tools/check_docs.py

Two checks over every tracked markdown file (repo root + docs/):

1. **Doctests** — every fenced ``pycon`` code block must be a valid
   doctest session and pass when executed (the ``python -m doctest``
   semantics, applied per block via :mod:`doctest`). Plain ``python`` /
   ``bash`` blocks are not executed — only blocks that opt in by using
   the interpreter-session dialect. Every ``>>>`` example in a
   docstring of a ``src/repro`` module must pass too.
2. **Intra-repo links** — every relative markdown link target
   (``[text](path)``) must exist on disk, and a ``#fragment`` on a
   markdown target (``path.md#fragment``, or ``#fragment`` for the file
   itself) must name one of its headings under GitHub's slug rule.
   Headings inside fenced code blocks do not count. External
   (``http``/``https``/``mailto``) links are skipped.

And a third over the references that name code:

3. **Cross-references** — every fully qualified Sphinx role target
   (``:class:`~repro.…```, ``:meth:`repro.…``` …) in a ``src/``
   docstring, ``README.md`` or ``docs/ARCHITECTURE.md`` must import and
   resolve, attribute by attribute from its longest importable module
   (so an attribute only an instance holds does not); and every
   ```path.py::Name``` in those two documents or ``ROADMAP.md`` must
   name a file of the repository (relative to its root) whose top level
   defines ``Name`` as a class or function, each further ``::Member``
   defined in the class before it.

Exit status 0 when everything passes; 1 with a per-failure report
otherwise. CI runs this as the ``docs`` job.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import importlib.util
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: markdown files under these locations are checked
MARKDOWN_GLOBS = ["*.md", "docs/*.md"]

_FENCE = re.compile(r"^```(\w*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*?)(?:\s+#+)?\s*$")
_XREF = re.compile(r":\w+:`~?(repro(?:\.\w+)+)`")
_NODE = re.compile(r"`([\w./-]+\.py)((?:::\w+)+)`")

#: Python sources whose docstring examples are doctested
DOCSTRING_GLOBS = ["src/repro/**/*.py"]
#: files whose fully qualified role targets must resolve
XREF_GLOBS = ["src/**/*.py", "README.md", "docs/ARCHITECTURE.md"]
#: documents whose ``path.py::Name`` references must resolve
NODE_DOCS = ["README.md", "docs/ARCHITECTURE.md", "ROADMAP.md"]
#: the statements a ``path.py::Name`` may name at a file's top level
_DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _rel(path: Path) -> str:
    """Repo-relative name when possible, plain path otherwise."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def _globbed(patterns: list[str]) -> list[Path]:
    files: list[Path] = []
    for pattern in patterns:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return files


def markdown_files() -> list[Path]:
    return _globbed(MARKDOWN_GLOBS)


def extract_pycon_blocks(text: str) -> list[tuple[int, str]]:
    """(start_line, block_source) for every fenced ``pycon`` block."""
    blocks: list[tuple[int, str]] = []
    language: str | None = None
    start = 0
    lines: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        match = _FENCE.match(line.strip())
        if match is None:
            if language is not None:
                lines.append(line)
            continue
        if language is None:
            language = match.group(1).lower()
            start = number + 1
            lines = []
        else:
            if language == "pycon":
                blocks.append((start, "\n".join(lines) + "\n"))
            language = None
    return blocks


def run_doctests(path: Path) -> list[str]:
    """Run every pycon block of ``path``; return failure descriptions."""
    failures: list[str] = []
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False, optionflags=doctest.ELLIPSIS)
    for start, source in extract_pycon_blocks(path.read_text()):
        name = f"{_rel(path)}:{start}"
        try:
            test = parser.get_doctest(source, {}, name, str(path), start)
        except ValueError as exc:
            failures.append(f"{name}: malformed doctest block: {exc}")
            continue
        if not test.examples:
            failures.append(f"{name}: pycon block contains no >>> examples")
            continue
        result = runner.run(test, clear_globs=True)
        if result.failed:
            failures.append(
                f"{name}: {result.failed}/{result.attempted} doctest "
                f"example(s) failed (run with python -m doctest for detail)"
            )
    return failures


def _module_of(path: Path):
    """The imported module of ``path``: by its dotted name under
    ``src/``, else loaded from the file itself."""
    try:
        parts = path.resolve().relative_to(REPO_ROOT / "src") \
            .with_suffix("").parts
    except ValueError:
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return importlib.import_module(".".join(parts))


def docstring_doctests(path: Path) -> list[doctest.DocTest]:
    """The docstrings with ``>>>`` examples defined in ``path``'s module."""
    return [test for test in doctest.DocTestFinder().find(_module_of(path))
            if test.examples]


def run_docstring_doctests(path: Path) -> list[str]:
    """Run the ``>>>`` examples of every docstring defined in the module
    of ``path``; return failure descriptions."""
    failures: list[str] = []
    runner = doctest.DocTestRunner(verbose=False, optionflags=doctest.ELLIPSIS)
    for test in docstring_doctests(path):
        result = runner.run(test)
        if result.failed:
            failures.append(
                f"{_rel(path)}: {test.name}: {result.failed}/"
                f"{result.attempted} docstring example(s) failed"
            )
    return failures


def docstring_files() -> list[Path]:
    return _globbed(DOCSTRING_GLOBS)


def prose_lines(text: str) -> list[str]:
    """The lines of ``text`` outside fenced code blocks."""
    stripped: list[str] = []
    in_fence = False
    for line in text.splitlines():
        if _FENCE.match(line.strip()):
            in_fence = not in_fence
            continue
        if not in_fence:
            stripped.append(line)
    return stripped


def github_slug(heading: str) -> str:
    """GitHub's anchor for a heading: link syntax and backticks dropped,
    lower-cased, every character but letters, digits, ``_``, ``-`` and
    spaces removed, each space a ``-``."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).replace("`", "")
    return re.sub(r"[^\w\- ]", "", text.strip().lower()).replace(" ", "-")


def anchors(path: Path) -> set[str]:
    """Fragments ``path``'s headings answer to; a repeated slug gets
    ``-1``, ``-2``... as on GitHub."""
    seen: dict[str, int] = {}
    found: set[str] = set()
    for line in prose_lines(path.read_text()):
        match = _HEADING.match(line)
        if match is None:
            continue
        slug = github_slug(match.group(1))
        repeats = seen.get(slug, 0)
        found.add(f"{slug}-{repeats}" if repeats else slug)
        seen[slug] = repeats + 1
    return found


def check_links(path: Path) -> list[str]:
    """Verify every relative link target of ``path`` exists, and every
    fragment on a markdown target names one of its headings."""
    failures: list[str] = []
    # Fenced code blocks are skipped so shell snippets can't look like links.
    for line in prose_lines(path.read_text()):
        for target in _LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            relative, _, fragment = target.partition("#")
            resolved = (path.parent / relative).resolve() if relative \
                else path
            if not resolved.exists():
                failures.append(f"{_rel(path)}: broken link -> {target}")
            elif (fragment and resolved.suffix == ".md"
                  and fragment not in anchors(resolved)):
                failures.append(f"{_rel(path)}: broken fragment -> {target}")
    return failures


def resolve_xref(dotted: str) -> bool:
    """``dotted`` names a module, or an attribute path from the longest
    importable module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True
    return False


def check_xrefs(path: Path) -> list[str]:
    """Every fully qualified ``repro.`` role target in ``path`` must
    resolve."""
    return [
        f"{_rel(path)}: unresolved reference -> {dotted}"
        for dotted in sorted(set(_XREF.findall(path.read_text())))
        if not resolve_xref(dotted)
    ]


def _defined(body: list[ast.stmt], name: str) -> ast.stmt | None:
    """The statement of ``body`` that defines ``name``: a class or a
    function, or an assignment; None if none does."""
    for node in body:
        if isinstance(node, _DEFINITIONS) and node.name == name:
            return node
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(target, ast.Name) and target.id == name for target in targets):
            return node
    return None


def check_node_ids(path: Path, root: Path = REPO_ROOT) -> list[str]:
    """Every ``path.py::Name[::Member…]`` in ``path`` must name a file
    under ``root`` whose top level defines ``Name`` as a class or a
    function, and each member the class before it."""
    failures: list[str] = []
    for line in prose_lines(path.read_text()):
        for file, names in _NODE.findall(line):
            reference = f"{file}{names}"
            source = root / file
            if not source.is_file():
                failures.append(f"{_rel(path)}: no such file -> {reference}")
                continue
            body = ast.parse(source.read_text()).body
            for depth, name in enumerate(names.split("::")[1:]):
                node = _defined(body, name)
                if node is None or (depth == 0 and not isinstance(node, _DEFINITIONS)):
                    failures.append(f"{_rel(path)}: undefined name -> {reference}")
                    break
                body = getattr(node, "body", [])
    return failures


def xref_files() -> list[Path]:
    return _globbed(XREF_GLOBS)


def main() -> int:
    files = markdown_files()
    if not files:
        print("no markdown files found", file=sys.stderr)
        return 1
    failures: list[str] = []
    doctested = 0
    for path in files:
        block_failures = run_doctests(path)
        doctested += len(extract_pycon_blocks(path.read_text()))
        failures.extend(block_failures)
        failures.extend(check_links(path))
    sources = docstring_files()
    for path in sources:
        failures.extend(run_docstring_doctests(path))
    xrefs = xref_files()
    for path in xrefs:
        failures.extend(check_xrefs(path))
    for name in NODE_DOCS:
        failures.extend(check_node_ids(REPO_ROOT / name))
    if failures:
        print(f"FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"docs OK: {len(files)} markdown file(s), "
        f"{doctested} pycon block(s) and the docstrings of "
        f"{len(sources)} module(s) doctested, links verified, "
        f"cross-references of {len(xrefs)} file(s) resolved"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
