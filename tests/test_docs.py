"""Tier-1 guard for the documentation: the CI docs job must pass here too.

Runs tools/check_docs.py's checks in-process: every pycon block in the
repo's markdown doctests green, every intra-repo link resolves — and the
checker itself detects planted failures (so a broken checker cannot
silently bless broken docs).
"""

import importlib.util
import os


_TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools",
                      "check_docs.py")
_spec = importlib.util.spec_from_file_location("check_docs", _TOOLS)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_repo_docs_pass():
    """The real repo: all pycon blocks doctest, all links resolve."""
    failures = []
    for path in check_docs.markdown_files():
        failures.extend(check_docs.run_doctests(path))
        failures.extend(check_docs.check_links(path))
    assert not failures, "\n".join(failures)


def test_repo_has_doctested_blocks():
    """The docs job must actually be testing something."""
    total = sum(
        len(check_docs.extract_pycon_blocks(path.read_text()))
        for path in check_docs.markdown_files()
    )
    assert total >= 2  # README + ARCHITECTURE each carry one


def test_checker_catches_failing_doctest(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("```pycon\n>>> 1 + 1\n3\n```\n")
    failures = check_docs.run_doctests(bad)
    assert len(failures) == 1
    assert "failed" in failures[0]


def test_checker_catches_broken_link(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](does/not/exist.md)\n")
    failures = check_docs.check_links(bad)
    assert len(failures) == 1
    assert "does/not/exist.md" in failures[0]


def test_checker_ignores_external_links_and_code_fences(tmp_path):
    ok = tmp_path / "ok.md"
    ok.write_text(
        "# Section\n"
        "[web](https://example.com) [frag](#section)\n"
        "```bash\necho [not](a/link.md)\n```\n"
    )
    assert check_docs.check_links(ok) == []


def test_checker_catches_broken_fragment(tmp_path):
    """A fragment must name a heading of its target under GitHub's slug
    rule; a heading inside a fenced block is a comment, not an anchor."""
    (tmp_path / "target.md").write_text(
        "# Eq. 4: the `dedup` price → T_hd\n"
        "## Twice\n## Twice\n"
        "```bash\n# Fenced heading\n```\n"
    )
    ok = tmp_path / "ok.md"
    ok.write_text("[a](target.md#eq-4-the-dedup-price--t_hd) "
                  "[b](target.md#twice-1) [c](#ok)\n# OK\n")
    assert check_docs.check_links(ok) == []
    bad = tmp_path / "bad.md"
    bad.write_text("[a](target.md#fenced-heading) [b](target.md#twice-2)\n"
                   "[c](#missing) [d](target.md#eq-4)\n")
    failures = check_docs.check_links(bad)
    assert [failure.split("-> ")[1] for failure in failures] == [
        "target.md#fenced-heading", "target.md#twice-2", "#missing",
        "target.md#eq-4"]
    assert all("broken fragment" in failure for failure in failures)


def test_checker_flags_empty_pycon_block(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("```pycon\n# no examples here\n```\n")
    failures = check_docs.run_doctests(bad)
    assert len(failures) == 1
    assert "no >>> examples" in failures[0]
