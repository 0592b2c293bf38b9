"""RPL401 — hot-path loop lint for the array-backed simulator core.

The vectorization pass (PR 6) rebuilt the scheduler on
structure-of-arrays state and turned per-(layer, batch, gpu) task
emission into batched ``submit_batch`` waves; a 1024-GPU epoch builds in
seconds *because* no Python loop runs per task. A contributor adding a
``for`` loop over one of those structures back into the emission or
scheduling path silently reverts the speedup — the tests still pass,
only the thousand-GPU wall gate (eventually) notices.

This checker flags statement-level ``for`` loops inside the files the
vectorization pass owns (trainer emission, executor emission, scheduler
core) whose iterable ranges over a per-(layer, batch, gpu) structure —
``range(num_gpus)``, ``plan.num_batches``, ``model.layers``, the
per-GPU ``plans`` list, and per-task ``range(m)``/``range(k)`` sweeps
of a wave. Deliberate scalar paths (the scheduler's shared-frontier
recurrence — the one sequential part of its array step — and setup
code that runs once per epoch) stay expressible through the dedicated
``# repro-lint: allow-loop`` escape hatch on the ``for`` line or the
line directly above it. Comprehensions are never flagged: they build
the static per-plan structures the vectorized waves consume.
"""

from __future__ import annotations

import ast
import re
from typing import List

from tools.repro_lint.base import Checker, Diagnostic, SourceFile

__all__ = ["HotLoopChecker", "HOT_FILES"]

#: the files PR 6 vectorized: emission + scheduler core. Planning and
#: fault response (core/planner.py, core/elastic.py) run once per plan,
#: not once per task, and are deliberately not listed.
HOT_FILES = (
    "src/repro/core/trainer.py",
    "src/repro/comm/executor.py",
    "src/repro/runtime/scheduler.py",
)

#: iterable shapes that indicate a per-(layer, batch, gpu) loop
_HOT_ITER = re.compile(
    r"\b(num_gpus|num_batches|num_layers|plans)\b"
    r"|\brange\([mk]\)|\.layers\b"
)


class HotLoopChecker(Checker):
    codes = ("RPL401",)

    def applies_to(self, source: SourceFile) -> bool:
        return any(source.normalized.endswith(name) for name in HOT_FILES)

    def check(self, source: SourceFile) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.For):
                continue
            iterable = ast.unparse(node.iter)
            if not _HOT_ITER.search(iterable):
                continue
            if source.allows_loop(node.lineno):
                continue
            diagnostics.append(self.diagnostic(
                source, node, "RPL401",
                f"python loop over `{iterable}` in a vectorized hot "
                f"path; emit a batched wave (submit_batch / numpy) or "
                f"mark a deliberate scalar fallback with "
                f"`# repro-lint: allow-loop`",
            ))
        return diagnostics
