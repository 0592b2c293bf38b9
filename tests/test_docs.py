"""Tier-1 guard for the documentation: the CI docs job must pass here too.

Runs tools/check_docs.py's checks in-process: every pycon block in the
repo's markdown doctests green, every intra-repo link and code
cross-reference resolves — and the checker itself detects planted
failures (so a broken checker cannot silently bless broken docs).
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


def test_repo_cross_references_resolve():
    """Every ``repro.`` role target in src/, README and the architecture
    doc imports; every ``path.py::Name`` in the docs names a definition."""
    failures = []
    for path in check_docs.xref_files():
        failures.extend(check_docs.check_xrefs(path))
    for name in check_docs.NODE_DOCS:
        failures.extend(check_docs.check_node_ids(check_docs.REPO_ROOT / name))
    assert not failures, "\n".join(failures)
    assert len(check_docs.xref_files()) > 50


def test_checker_catches_stale_role_target(tmp_path):
    """A renamed or deleted name behind a fully qualified role fails;
    the module itself, its attributes and methods resolve."""
    doc = tmp_path / "doc.md"
    doc.write_text(
        ":mod:`repro.runtime` :class:`~repro.runtime.EventScheduler` "
        ":meth:`repro.runtime.scheduler.EventScheduler.submit_batch`\n"
        ":meth:`~repro.runtime.scheduler.EventScheduler.devices` "
        ":class:`~repro.comm.cost_model.ClusterCostModel`\n")
    failures = check_docs.check_xrefs(doc)
    assert [failure.split("-> ")[1] for failure in failures] == [
        "repro.comm.cost_model.ClusterCostModel",
        "repro.runtime.scheduler.EventScheduler.devices"]
    assert all("unresolved reference" in failure for failure in failures)


def test_checker_catches_stale_node_id(tmp_path):
    """``path.py::Name`` must name a file under the root whose top level
    defines Name as a class or function, each further member inside it."""
    (tmp_path / "mod.py").write_text(
        "LIMIT = 3\n"
        "class Suite:\n    PINNED = 1\n    def test_a(self):\n"
        "        pass\n"
        "def helper():\n    pass\n")
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`mod.py::Suite` `mod.py::Suite::test_a` `mod.py::Suite::PINNED` "
        "`mod.py::helper`\n"
        "`mod.py::Gone` `mod.py::LIMIT` `mod.py::Suite::test_b` "
        "`gone.py::Suite`\n"
        "```bash\npytest `mod.py::Fenced`\n```\n")
    failures = check_docs.check_node_ids(doc, root=tmp_path)
    assert [failure.split("-> ")[1] for failure in failures] == [
        "mod.py::Gone", "mod.py::LIMIT", "mod.py::Suite::test_b",
        "gone.py::Suite"]
    assert "no such file" in failures[-1]


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


def test_repo_docstring_examples_pass():
    """Every ``>>>`` example in a ``src/repro`` docstring runs and
    passes, and there are some to run."""
    files = check_docs.docstring_files()
    failures = [failure for path in files
                for failure in check_docs.run_docstring_doctests(path)]
    assert failures == []
    names = {test.name for path in files
             for test in check_docs.docstring_doctests(path)}
    assert {"repro.scenario", "repro.faults.schedule.FaultSchedule",
            "repro.faults.schedule.parse_fault"} <= names


def test_checker_catches_failing_docstring_example(tmp_path):
    bad = tmp_path / "bad_module.py"
    bad.write_text('def f():\n    """\n    >>> 1 + 1\n    3\n    """\n')
    failures = check_docs.run_docstring_doctests(bad)
    assert len(failures) == 1
    assert "bad_module.f" in failures[0] and "failed" in failures[0]


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
