"""Tests for the repro-lint checker suite (``tools/repro_lint``).

Each rule has a fixture pair under ``tests/lint_fixtures/``: a
``*_violation.py`` snippet that must fire exactly the expected code on
the marked line, and a ``*_clean.py`` twin that must stay silent. The
fixtures are linted under scoped display paths (the checkers gate on
``src/repro/`` and on the PR 6 hot files), the same way the CLI derives
repo-relative paths. The suite also asserts the real tree is clean and
that the suppression comments actually suppress.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_lint import (  # noqa: E402
    ALL_CODES,
    build_checkers,
    lint_file,
    lint_paths,
)
from tools.repro_lint.__main__ import main as lint_main  # noqa: E402
from tools.repro_lint.base import SourceFile, iter_python_files  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

#: fixture stem -> (expected code, display path that puts it in scope)
VIOLATIONS = {
    "rpl101_violation": ("RPL101", "src/repro/fixture_mod.py"),
    "rpl102_violation": ("RPL102", "src/repro/fixture_mod.py"),
    "rpl103_violation": ("RPL103", "src/repro/fixture_mod.py"),
    "rpl201_violation": ("RPL201", "src/repro/fixture_mod.py"),
    "rpl301_violation": ("RPL301", "src/repro/cost_mod.py"),
    "rpl401_violation": ("RPL401", "src/repro/core/trainer.py"),
    "rpl402_violation": ("RPL402", "src/repro/gnn/layers.py"),
}

CLEAN = {
    "rpl101_clean": "src/repro/fixture_mod.py",
    "rpl102_clean": "src/repro/fixture_mod.py",
    "rpl103_clean": "src/repro/fixture_mod.py",
    "rpl201_clean": "src/repro/fixture_mod.py",
    "rpl301_clean": "src/repro/cost_mod.py",
    "rpl401_clean": "src/repro/core/trainer.py",
    "rpl402_clean": "src/repro/gnn/layers.py",
}


def checkers():
    return build_checkers(REPO_ROOT)


def marked_lines(path, code):
    """Line numbers carrying the fixture's ``# <- CODE`` marker."""
    lines = []
    for number, text in enumerate(path.read_text().splitlines(), start=1):
        if f"# <- {code}" in text:
            lines.append(number)
    return lines


class TestViolationFixtures:
    @pytest.mark.parametrize("stem", sorted(VIOLATIONS))
    def test_fires_expected_code_on_marked_lines(self, stem):
        code, display = VIOLATIONS[stem]
        path = FIXTURES / f"{stem}.py"
        expected_lines = marked_lines(path, code)
        assert expected_lines, f"fixture {stem} has no marker comment"

        diagnostics = lint_file(path, display, checkers())
        assert [d.code for d in diagnostics] == [code] * len(expected_lines)
        assert [d.line for d in diagnostics] == expected_lines
        assert all(d.path == display for d in diagnostics)

    @pytest.mark.parametrize("stem", sorted(VIOLATIONS))
    def test_renders_path_line_code(self, stem):
        code, display = VIOLATIONS[stem]
        path = FIXTURES / f"{stem}.py"
        diagnostic = lint_file(path, display, checkers())[0]
        rendered = diagnostic.render()
        assert rendered.startswith(f"{display}:{diagnostic.line}: {code} ")

    def test_every_code_has_a_fixture(self):
        covered = {code for code, _ in VIOLATIONS.values()}
        assert covered == set(ALL_CODES)


class TestCleanFixtures:
    @pytest.mark.parametrize("stem", sorted(CLEAN))
    def test_silent(self, stem):
        path = FIXTURES / f"{stem}.py"
        assert lint_file(path, CLEAN[stem], checkers()) == []


class TestScatterScope:
    """RPL402 covers the training-step numerics and the partitioner,
    and nothing else."""

    @pytest.mark.parametrize("display, fires", [
        ("src/repro/gnn/extensions.py", True),
        ("src/repro/autograd/ops.py", True),
        ("src/repro/core/trainer.py", True),
        # simulated seconds summed in segment order: bit-identity contract
        ("src/repro/comm/executor.py", False),
        ("src/repro/partition/metis.py", True),
        ("benchmarks/perf/probes.py", False),
    ])
    def test_scope(self, display, fires):
        path = FIXTURES / "rpl402_violation.py"
        codes = [d.code for d in lint_file(path, display, checkers())]
        assert codes == (["RPL402", "RPL402"] if fires else [])


class TestSuppression:
    def test_suppressed_fixture_is_silent(self):
        path = FIXTURES / "suppressions.py"
        # Hot-path display: RPL101 *and* RPL401 are both in scope.
        assert lint_file(path, "src/repro/core/trainer.py", checkers()) == []

    def test_unrelated_code_is_not_suppressed(self, tmp_path):
        snippet = tmp_path / "mod.py"
        snippet.write_text(
            "import time\n\n\n"
            "def now():\n"
            "    return time.time()  # repro-lint: ignore[RPL401]\n"
        )
        diagnostics = lint_file(snippet, "src/repro/mod.py", checkers())
        assert [d.code for d in diagnostics] == ["RPL101"]

    def test_suppression_inside_string_is_inert(self, tmp_path):
        snippet = tmp_path / "mod.py"
        snippet.write_text(
            "import time\n\n\n"
            "def now():\n"
            "    return time.time(), '# repro-lint: ignore'\n"
        )
        diagnostics = lint_file(snippet, "src/repro/mod.py", checkers())
        assert [d.code for d in diagnostics] == ["RPL101"]


class TestRealTree:
    def test_src_benchmarks_tools_are_clean(self):
        diagnostics = lint_paths(["src", "benchmarks", "tools"],
                                 root=REPO_ROOT)
        assert diagnostics == [], "\n".join(d.render() for d in diagnostics)

    #: ``allow-loop`` + ``ignore[RPL101]`` escapes under ``src/``. A
    #: ratchet: pinned exactly, so removing an escape forces the pin
    #: down with it and raising it is a visible edit here — a new
    #: hot-path loop or wall-clock read needs a design, not an escape.
    SUPPRESSIONS = 7

    def test_suppression_count_only_goes_down(self):
        count = sum(
            path.read_text().count(marker)
            for path in (REPO_ROOT / "src").rglob("*.py")
            for marker in ("repro-lint: allow-loop",
                           "repro-lint: ignore[RPL101]")
        )
        assert count == self.SUPPRESSIONS, (
            f"{count} lint suppressions under src/, pinned at "
            f"{self.SUPPRESSIONS}: lower the pin if one was removed; "
            f"do not raise it")

    def test_fixture_corpus_is_skipped_when_walking_tests(self):
        files = iter_python_files(["tests"], REPO_ROOT)
        assert all("lint_fixtures" not in str(f) for f in files)
        # ... but an explicitly named fixture is linted.
        explicit = iter_python_files(
            [str(FIXTURES / "rpl101_violation.py")], REPO_ROOT)
        assert len(list(explicit)) == 1


class TestCli:
    def test_exit_zero_on_clean_tree(self):
        assert lint_main(["--root", str(REPO_ROOT), "src", "tools"]) == 0

    def test_exit_one_and_diagnostic_line_on_violation(self, capsys):
        # Run from the repo root so the fixture path stays repo-relative
        # (the checker scopes RPL101 by display path; the path under
        # tests/ is out of simulator scope, so point --root at tests/..
        # and lint a copy staged under a src/repro-shaped tree instead).
        status = lint_main(["--root", str(REPO_ROOT),
                            str(FIXTURES / "rpl101_violation.py")])
        capsys.readouterr()
        # Out of simulator scope -> clean; the scoping itself is the
        # contract (fixtures never pollute a real run over tests/).
        assert status == 0

    def test_exit_one_for_staged_simulator_violation(self, tmp_path, capsys):
        staged = tmp_path / "src" / "repro"
        staged.mkdir(parents=True)
        (staged / "errors.py").write_text(
            (REPO_ROOT / "src" / "repro" / "errors.py").read_text())
        bad = staged / "bad_mod.py"
        bad.write_text((FIXTURES / "rpl101_violation.py").read_text())
        status = lint_main(["--root", str(tmp_path), "src"])
        out = capsys.readouterr()
        assert status == 1
        assert "src/repro/bad_mod.py:11: RPL101" in out.out
        assert "1 finding(s) in 1 file(s)" in out.err
