"""RPL401/RPL402 — hot-path lints for the array-backed simulator core.

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
per-GPU ``plans`` list, and per-task ``range(m)``/``range(k)`` sweeps of
a wave. Deliberate scalar paths (the scheduler's shared-frontier
recurrence — the one sequential part of its array step — and setup
code that runs once per epoch) stay expressible through the dedicated
``# repro-lint: allow-loop`` escape hatch on the ``for`` line or the
line directly above it. Comprehensions are never flagged: they build
the static per-plan structures the vectorized waves consume.

``RPL402`` guards the numerics the same way. A linear AGGREGATE and its
adjoint are one sparse product over the block's cached operator
(``Block.operator`` / ``ops.spmm``) and the autograd scatters go through
one incidence-matrix helper; ``ufunc.at`` (``np.add.at``,
``np.maximum.at``, ...) is an interpreter-speed loop over rows that was
56 % of a single-node training step before it left. The partitioner is
held to the same rule: its weights are sums of ones, so a ``bincount`` or
a sparse product gives the exact sums its three ``np.add.at`` merges used
to. Any ``np.<ufunc>.at`` call under ``src/repro/gnn/``,
``src/repro/autograd/``, ``src/repro/partition/`` or in
``src/repro/core/trainer.py`` is flagged; there is no escape hatch
beyond the generic ``ignore[RPL402]``.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from tools.repro_lint.base import Checker, Diagnostic, SourceFile

__all__ = [
    "HotLoopChecker",
    "ScatterChecker",
    "HOT_FILES",
    "SCATTER_FREE",
]

#: the files PR 6 vectorized: emission + scheduler core. Planning and
#: fault response (core/planner.py, core/elastic.py) run once per plan,
#: not once per task, and are deliberately not listed.
HOT_FILES = (
    "src/repro/core/trainer.py",
    "src/repro/comm/executor.py",
    "src/repro/runtime/scheduler.py",
)

#: the per-step numerics and the partitioner: no ``ufunc.at`` scatter loops
SCATTER_FREE = (
    "src/repro/gnn/",
    "src/repro/autograd/",
    "src/repro/core/trainer.py",
    "src/repro/partition/",
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


def _ufunc_at(node: ast.AST) -> Optional[str]:
    """``"np.add.at"`` for a ``np.<ufunc>.at(...)`` call, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "at"
        and isinstance(func.value, ast.Attribute)
        and isinstance(func.value.value, ast.Name)
        and func.value.value.id in ("np", "numpy")
    ):
        return ast.unparse(func)
    return None


class ScatterChecker(Checker):
    codes = ("RPL402",)

    def applies_to(self, source: SourceFile) -> bool:
        return any(scope in source.normalized for scope in SCATTER_FREE)

    def check(self, source: SourceFile) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(source.tree):
            name = _ufunc_at(node)
            if name is None:
                continue
            diagnostics.append(
                self.diagnostic(
                    source,
                    node,
                    "RPL402",
                    f"`{name}` is an interpreter-speed per-row scatter in the training "
                    f"step; use the block's sparse operator (ops.spmm) or an indexed "
                    f"`+=` over duplicate-free rows",
                )
            )
        return diagnostics
