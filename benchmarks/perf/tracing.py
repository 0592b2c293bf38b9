"""Span recorder and wrap-from-outside tracer.

The benchmark measures ``repro`` only from outside: in a traced run the
public callables at each layer boundary are replaced by timing wrappers
*where their callers look them up* (every ``repro`` module namespace
that imported the function; the class ``__dict__`` for methods), and
restored on exit. Nothing under ``src/`` knows it is being traced.

A span is ``(id, name, start, end, parent id, step id)``; names are
``"<layer>/<entry point>"``. A layer's *self* time is its spans'
duration minus the part their child spans cover, accumulated as spans
close. Spans stay in memory; the runner keeps the last step's for
``--out`` and drops the rest so a long run cannot exhaust the host.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional

__all__ = ["SpanRecorder", "Tracer", "Ledger", "span_dicts",
           "wrapped_callables"]

_MARK = "__perf_traced__"


class Ledger(NamedTuple):
    """Cumulative per-span-name totals; subtract two to get a window."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    units: Dict[str, int]

    def since(self, earlier: "Ledger") -> "Ledger":
        return Ledger(*(
            {name: now[name] - before.get(name, 0)
             for name in now if now[name] != before.get(name, 0)}
            for now, before in zip(self, earlier)
        ))

    def scaled(self, factor: float) -> "Ledger":
        """The same window with its self times multiplied by ``factor``."""
        return self._replace(self_s={name: seconds * factor
                                     for name, seconds in self.self_s.items()})

    def layer(self, layer: str, field: str = "self_s"):
        """Total of ``field`` over one layer's spans, or one span name."""
        return sum(value for name, value in getattr(self, field).items()
                   if name == layer or name.startswith(layer + "/"))


class SpanRecorder:
    """In-memory span store with running self-time totals."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: stamped on every span as it closes; the runner sets it per step
        self.step_id = ""
        self._stack: List[list] = []
        self._next_id = 0
        self._self_s: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, int] = defaultdict(int)
        self._units: Dict[str, int] = defaultdict(int)

    def ledger(self) -> Ledger:
        return Ledger(dict(self._self_s), dict(self._calls),
                      dict(self._units))

    def _enter(self, name: str) -> list:
        stack = self._stack
        # [id, name, parent id, seconds covered by children, start]
        frame = [self._next_id, name, stack[-1][0] if stack else -1, 0.0, 0.0]
        self._next_id += 1
        stack.append(frame)
        frame[4] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        span_id, name, parent, covered, start = frame
        stack = self._stack
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][3] += duration
        self._self_s[name] += duration - covered
        self._calls[name] += 1
        self.spans.append((span_id, name, start, end, parent, self.step_id))

    @contextmanager
    def span(self, name: str):
        """A span of the runner's own: a set-up/step/finish, a calibration."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn: Callable,
             units: Optional[Callable] = None) -> Callable:
        enter, leave, counted = self._enter, self._exit, self._units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame)
                raise
            leave(frame)
            if units is not None:
                counted[name] += units(args, kwargs, result)
            return result

        setattr(traced, _MARK, fn)
        for extra in ("cache_clear", "cache_info"):  # of an lru_cache'd fn
            if hasattr(fn, extra):
                setattr(traced, extra, getattr(fn, extra))
        return traced

    def take_spans(self) -> List[tuple]:
        """Hand over (and forget) the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def span_dicts(spans: List[tuple]) -> List[dict]:
    """Spans as they are written out with ``--out``."""
    keys = ("id", "name", "start", "end", "parent", "step")
    return [dict(zip(keys, span)) for span in spans]


# ----------------------------------------------------------------------
# what to wrap
# ----------------------------------------------------------------------
def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _rows(arrays) -> int:
    return sum(len(array) for array in arrays)


#: functions: (defining module, name, layer, units-of-work callback)
_FUNCTIONS = (
    ("repro.graph.datasets", "load_dataset", "graph.load",
     lambda a, k, r: r.num_edges),
    ("repro.partition.two_level", "two_level_partition", "partition.metis",
     lambda a, k, r: _arg(a, k, 0, "graph").num_edges),
    ("repro.partition.placement", "search_placement", "partition.placement",
     lambda a, k, r: r.swaps),
    ("repro.comm.joint", "joint_placement", "comm.joint",
     lambda a, k, r: len(r.iterations)),
    ("repro.comm.reorganize", "reorganize_partition", "comm.reorganize",
     lambda a, k, r: int(r.kept_original)),
    ("repro.comm.plan", "build_comm_plan", "comm.plan", None),
    ("repro.comm.analysis", "measure_volumes", "comm.plan", None),
    ("repro.bench.reporting", "render_timeline", "bench.reporting", None),
    ("repro.bench.reporting", "render_node_utilization", "bench.reporting",
     None),
    ("repro.bench.reporting", "render_latency_report", "bench.reporting",
     None),
)

#: methods: (module, class, method, layer, units-of-work callback)
_METHODS = (
    ("repro.comm.executor", "DedupCommunicator", "load_batch_forward",
     "comm.executor", lambda a, k, r: _rows(r)),
    ("repro.comm.executor", "DedupCommunicator", "accumulate_batch_backward",
     "comm.executor", lambda a, k, r: _rows(_arg(a, k, 2, "neighbor_grads"))),
    ("repro.comm.executor", "DedupCommunicator", "start_sweep",
     "comm.executor", None),
    ("repro.comm.executor", "DedupCommunicator", "end_sweep",
     "comm.executor", None),
    ("repro.comm.executor", "DedupCommunicator", "submit_serving_halo",
     "comm.executor", None),
    ("repro.runtime.scheduler", "EventScheduler", "submit",
     "runtime.scheduler", None),
    ("repro.runtime.scheduler", "EventScheduler", "submit_batch",
     "runtime.scheduler", lambda a, k, r: len(r)),
    ("repro.runtime.scheduler", "EventScheduler", "barrier",
     "runtime.scheduler", None),
    ("repro.hardware.clock", "EventTimeline", "submit_batch",
     "hardware.timeline", None),
    ("repro.hardware.clock", "EventTimeline", "submit_phase",
     "hardware.timeline", None),
    ("repro.hardware.clock", "EventTimeline", "add",
     "hardware.timeline", None),
    ("repro.hardware.clock", "EventTimeline", "barrier",
     "hardware.timeline", None),
    ("repro.autograd.tensor", "Tensor", "backward", "autograd.backward",
     None),
    ("repro.core.trainer", "HongTuTrainer", "__init__", "core.trainer",
     None),
    ("repro.core.trainer", "HongTuTrainer", "train_epoch", "core.trainer",
     None),
    ("repro.core.trainer", "HongTuTrainer", "evaluate", "core.evaluate",
     None),
    ("repro.core.trainer", "HongTuTrainer", "serving_engine",
     "serving.engine", None),
    ("repro.serving.engine", "ServingEngine", "serve", "serving.engine",
     None),
)

#: class families: every class of the module deriving from ``base`` is
#: wrapped where it defines the method itself
_FAMILIES = (
    ("repro.gnn.layers", "GNNLayer", "aggregate", "gnn.aggregate",
     lambda a, k, r: _arg(a, k, 1, "block").num_edges),
    ("repro.gnn.layers", "GNNLayer", "aggregate_backward",
     "gnn.aggregate_backward",
     lambda a, k, r: _arg(a, k, 1, "block").num_edges),
    ("repro.gnn.layers", "GNNLayer", "update", "gnn.update", None),
    ("repro.autograd.optim", "Optimizer", "step", "autograd.optim", None),
)


def _repro_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs the timing wrappers on ``repro`` and takes them off again."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        #: targets that no longer exist in the program (a later refactor
        #: moved them): reported, their layer reads 0, the run goes on
        self.missing: List[str] = []
        self._undo: List[tuple] = []
        self._loaded = False

    def _load_everything(self) -> None:
        # A module first imported *while* wrappers are installed would
        # bind them for good (``from x import f``); import all up front.
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            importlib.import_module(info.name)
        self._loaded = True

    def _patch(self, owner, attr: str, name: str, units) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, self.recorder.wrap(name, original, units))
        self._undo.append((owner, attr, original))

    def _resolve(self, module_name: str, attr: str):
        try:
            return getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return None

    def install(self) -> None:
        if self._undo:
            return
        if not self._loaded:
            self._load_everything()
        self.missing = []
        modules = _repro_modules()
        for module_name, attr, layer, units in _FUNCTIONS:
            original = self._resolve(module_name, attr)
            if original is None:
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, f"{layer}/{attr}", units)
        for module_name, cls_name, attr, layer, units in _METHODS:
            cls = self._resolve(module_name, cls_name)
            if cls is None:
                continue
            if attr not in vars(cls):
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            self._patch(cls, attr, f"{layer}/{cls_name}.{attr}", units)
        for module_name, base_name, attr, layer, units in _FAMILIES:
            base = self._resolve(module_name, base_name)
            if base is None:
                continue
            module = importlib.import_module(module_name)
            for cls_name, cls in inspect.getmembers(module, inspect.isclass):
                if issubclass(cls, base) and attr in vars(cls):
                    self._patch(cls, attr, f"{layer}/{cls_name}.{attr}",
                                units)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def wrapped_callables() -> List[str]:
    """Names of ``repro`` callables still carrying a timing wrapper."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            elif inspect.isclass(value) and \
                    getattr(value, "__module__", "") == module.__name__:
                found.extend(
                    f"{module.__name__}.{key}.{attr}"
                    for attr, member in list(vars(value).items())
                    if hasattr(member, _MARK))
    return found
