"""RPL1xx — seeded-determinism lint for the simulator core.

The simulator's two headline guarantees — identical results for an
identical ``(config, seed)`` pair on every machine, and bit-identity
between the scheduler's array step and its scalar test oracle — both
collapse the moment nondeterminism leaks into an emission or search
path. Three statically detectable leaks are flagged in every module
under ``src/repro/``:

* ``RPL101`` — wall-clock reads (``time.time``, ``time.perf_counter``,
  ``datetime.now``, ...). Simulated seconds come from cost models, never
  from the host clock. Deliberate *measurements* (e.g. the placement
  search reporting how long the search itself took) carry a
  ``# repro-lint: ignore[RPL101]`` with a justification.
* ``RPL102`` — global/unseeded random use: any ``random.*`` stdlib call,
  ``np.random.<legacy fn>`` global-state draws, ``np.random.seed``, and
  ``np.random.default_rng()`` *without* a seed argument. All simulator
  randomness flows through explicitly seeded ``np.random.default_rng``
  generators.
* ``RPL103`` — iterating a ``set``/``frozenset`` literal, comprehension
  or constructor call. Set iteration order depends on hash seeding and
  insertion history; emission paths must iterate sorted or list-backed
  collections.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from tools.repro_lint.base import Checker, Diagnostic, SourceFile

__all__ = ["DeterminismChecker"]

#: dotted-call suffixes that read the host clock
_WALL_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)

#: ``np.random`` attributes that are *not* global-state draws
_NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class DeterminismChecker(Checker):
    codes = ("RPL101", "RPL102", "RPL103")

    def applies_to(self, source: SourceFile) -> bool:
        return source.in_simulator()

    def check(self, source: SourceFile) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Call):
                diagnostics.extend(self._check_call(source, node))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                diagnostics.extend(
                    self._check_iterable(source, node.iter))
            elif isinstance(node, ast.comprehension):
                diagnostics.extend(
                    self._check_iterable(source, node.iter))
        return diagnostics

    # -- RPL101 / RPL102 ---------------------------------------------------
    def _check_call(self, source: SourceFile,
                    node: ast.Call) -> List[Diagnostic]:
        dotted = _dotted(node.func)
        if dotted is None:
            return []
        for suffix in _WALL_CLOCK_SUFFIXES:
            if dotted == suffix or dotted.endswith("." + suffix):
                return [self.diagnostic(
                    source, node, "RPL101",
                    f"wall-clock call `{dotted}` in the simulator core; "
                    f"simulated time comes from cost models only",
                )]
        return self._check_random(source, node, dotted)

    def _check_random(self, source: SourceFile, node: ast.Call,
                      dotted: str) -> List[Diagnostic]:
        # stdlib `random` module: global Mersenne state, never seeded here.
        if dotted.startswith("random."):
            attr = dotted.split(".", 1)[1]
            if attr == "Random" and (node.args or node.keywords):
                return []  # random.Random(seed): explicitly seeded stream
            return [self.diagnostic(
                source, node, "RPL102",
                f"global `{dotted}` call; use an explicitly seeded "
                f"np.random.default_rng generator",
            )]
        # numpy legacy global state: np.random.<fn> / numpy.random.<fn>.
        for prefix in ("np.random.", "numpy.random."):
            if not dotted.startswith(prefix):
                continue
            attr = dotted[len(prefix):]
            if attr == "default_rng" and not node.args and not node.keywords:
                return [self.diagnostic(
                    source, node, "RPL102",
                    "np.random.default_rng() without a seed is "
                    "OS-entropy seeded; pass the config's seed",
                )]
            if attr not in _NP_RANDOM_ALLOWED and "." not in attr:
                return [self.diagnostic(
                    source, node, "RPL102",
                    f"`{dotted}` draws from numpy's global RNG state; "
                    f"use an explicitly seeded np.random.default_rng "
                    f"generator",
                )]
        return []

    # -- RPL103 ------------------------------------------------------------
    def _check_iterable(self, source: SourceFile,
                        node: ast.AST) -> List[Diagnostic]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            what = "a set literal" if isinstance(node, ast.Set) \
                else "a set comprehension"
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id in ("set", "frozenset"):
            what = f"a `{node.func.id}(...)` call"
        else:
            return []
        return [self.diagnostic(
            source, node, "RPL103",
            f"iteration over {what}: set order is hash-seed dependent; "
            f"iterate `sorted(...)` instead",
        )]
