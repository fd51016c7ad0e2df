"""Outside-in tracer for gaplab: spans around every gaplab function.

``Tracer.install`` replaces each function defined in a ``gaplab.*`` module
wherever the program looks it up at call time:

* module namespaces (``experiments.sample_haar_unitary``, ``kernels.quad_forms``),
* methods of gaplab classes (``RandomStream.generator``),
* registries held in module-level dicts (``EXPERIMENTS`` runners,
  ``GAP_SAMPLERS``),
* the trial closure handed to ``parallel.run_trials``.

A span is named ``<defining layer>.<attribute>``: the layer is the module
that defines the function, the attribute is the name it is bound to, so a
kernel keeps its name whichever backend twin the name points at.  Functions
a later version adds are picked up without editing this file.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.

Spans (name, start, end, parent, thread) are kept in memory.  Self time is
a span's duration minus the part of its interval that its child spans
cover, children on other threads included (a thread pool's trials are
children of the ``run_trials`` span that started them).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "gaplab"
# Spans of functions whose first argument is a per-trial callable; that
# callable is traced as ``<its layer>.trial``, a child of the scheduler span.
TRIAL_SCHEDULERS = ("parallel.run_trials",)


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    work: int = 0  # a count computed from shapes (see _WORK), or workers

    @property
    def duration(self) -> float:
        return self.end - self.start


def _array_bytes(value) -> int:
    if hasattr(value, "nbytes") and hasattr(value, "shape"):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    return 0


def _kernel_bytes(args, kwargs, result) -> int:
    """Bytes a kernel reads and writes: every array argument plus result."""
    return _array_bytes(args) + _array_bytes(tuple(kwargs.values())) + _array_bytes(
        result
    )


def _haar_flops(args, kwargs, result) -> int:
    """Real flops of a complex Householder QR of an n x n matrix with the
    Q factor formed explicitly: 16/3 n^3 for each of the two steps."""
    n = int(result.shape[-1])
    return (32 * n**3) // 3


def _normals(args, kwargs, result) -> int:
    """Standard normals behind a complex Gaussian array: two per entry."""
    return 2 * int(result.size)


# Counts computed from shapes, never timed: identical on every run of a
# commit.  Keys are span names, or a layer name followed by a dot.
_WORK = {
    "kernels.": _kernel_bytes,
    "ensembles.sample_haar_unitary": _haar_flops,
    "ensembles.sample_complex_gaussian": _normals,
}


def _work_fn(name: str):
    if name in _WORK:
        return _WORK[name]
    return _WORK.get(name.split(".", 1)[0] + ".")


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    if module == PACKAGE:
        return PACKAGE
    if module.startswith(PACKAGE + "."):
        return module.split(".")[1]
    return None


def _is_traceable(fn) -> bool:
    return isinstance(fn, types.FunctionType) and _layer_of(fn) is not None


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name, parent, args, kwargs):
        stack = self._stack()
        if parent is None:
            parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        if name in TRIAL_SCHEDULERS and args and callable(args[0]):
            trial_name = f"{_layer_of(args[0]) or PACKAGE}.trial"
            args = (self.wrap(args[0], trial_name, parent=span_id),) + args[1:]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = Span(span_id, parent, name, threading.get_ident(), start, end)
        work = _work_fn(name)
        if work is not None:
            span.work = work(args, kwargs, result)
        elif name in TRIAL_SCHEDULERS:
            span.work = _workers(fn, args, kwargs)
        self.spans.append(span)
        return result

    def wrap(self, fn, name: str, parent: int | None = None):
        """A stand-in for fn that records one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, parent, args, kwargs)

        return traced

    # -- installing --------------------------------------------------------

    def _replace(self, owner, key, new, setter, old):
        setter(owner, key, new)
        self._undo.append((setter, owner, key, old))

    def install(self) -> None:
        """Wrap every gaplab function in every loaded gaplab module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        seen_classes: set[int] = set()
        seen_dicts: set[int] = set()
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if _is_traceable(value):
                    name = f"{_layer_of(value)}.{attr}"
                    self._replace(
                        module, attr, self.wrap(value, name), setattr, value
                    )
                elif inspect.isclass(value) and _layer_of(value) is not None:
                    if id(value) not in seen_classes:
                        seen_classes.add(id(value))
                        self._install_class(value)
                elif isinstance(value, dict) and id(value) not in seen_dicts:
                    seen_dicts.add(id(value))
                    self._install_registry(value)

    def _install_class(self, cls) -> None:
        layer = _layer_of(cls)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__qualname__}.{attr}"
            if _is_traceable(value):
                new = self.wrap(value, name)
            elif isinstance(value, (staticmethod, classmethod)) and _is_traceable(
                value.__func__
            ):
                new = type(value)(self.wrap(value.__func__, name))
            elif isinstance(value, property) and _is_traceable(value.fget):
                new = value.getter(self.wrap(value.fget, name))
            else:
                continue
            self._replace(cls, attr, new, setattr, value)

    def _install_registry(self, table: dict) -> None:
        """Functions held in a dict, directly (``GAP_SAMPLERS``) or as fields
        of a dataclass value (``EXPERIMENTS`` runners)."""

        def traced(fn):
            return self.wrap(fn, f"{_layer_of(fn)}.{fn.__name__}")

        for key, value in list(table.items()):
            if _is_traceable(value):
                new = traced(value)
            elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                changes = {
                    f.name: traced(getattr(value, f.name))
                    for f in dataclasses.fields(value)
                    if _is_traceable(getattr(value, f.name))
                }
                if not changes:
                    continue
                new = dataclasses.replace(value, **changes)
            else:
                continue
            self._replace(table, key, new, _setitem, value)

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, old = self._undo.pop()
            setter(owner, key, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _setitem(table, key, value):
    table[key] = value


def _workers(fn, args, kwargs) -> int:
    """Worker count a trial scheduler was called with (its parallelism)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return max(1, int(bound.arguments.get("parallelism", 1)))


# ---------------------------------------------------------------------------
# summaries


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.span_id: s.duration - _covered(children[s.span_id], s.start, s.end)
        for s in spans
    }


@dataclass
class NameStats:
    calls: int = 0
    seconds: float = 0.0
    work: int = 0
    durations: list = dataclasses.field(default_factory=list)


def summarize(spans: list[Span]) -> tuple[dict[str, NameStats], dict[str, float]]:
    """Per span name: calls, total seconds, computed work and durations;
    per layer: summed self time."""
    by_name: dict[str, NameStats] = defaultdict(NameStats)
    layer_self: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for s in spans:
        st = by_name[s.name]
        st.calls += 1
        st.seconds += s.duration
        st.work += s.work
        st.durations.append(s.duration)
        layer_self[s.name.split(".", 1)[0]] += own[s.span_id]
    return by_name, layer_self


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, 0 for an empty list."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]
