"""In-memory span recorder that wraps the program's functions from outside.

The benchmark never edits the program.  Instead it replaces a function name
*as it is bound in a calling module* (for example ``pitest.cli.load_csv``)
with a wrapper that records one span per call, and puts the original back
afterwards.  A span holds its name, start, end, parent span, thread id, the
op it belongs to, and (main thread only) the peak ``tracemalloc`` growth
during the span.

A name that does not exist any more is recorded in ``Tracer.missing`` and
skipped, so a refactor that removes a function makes its metrics absent
instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    site: str  # module whose binding was wrapped, or "perfbench" for root spans
    op: int
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    peak_bytes: int | None = None
    attrs: dict = field(default_factory=dict)
    _mem_base: int = 0
    _mem_peak: int = 0

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "site": self.site, "op": self.op,
            "thread": self.thread, "parent": self.parent, "start": self.start,
            "end": self.end, "peak_bytes": self.peak_bytes, "attrs": self.attrs,
        }


class Tracer:
    """Records spans around wrapped calls; costs nothing until installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self.observer_errors: list[str] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, site: str = "perfbench"):
        stack = self._stack()
        on_main = stack is self._main_stack
        if stack:
            parent = stack[-1].id
        else:
            # A pool thread's first span hangs under whatever the main thread
            # has open (the call that started the pool).
            main_top = self._main_stack[-1:] if not on_main else []
            parent = main_top[0].id if main_top else None
        sp = Span(next(self._ids), name, site, self.op, threading.get_ident(), parent, 0.0)
        memory = on_main and tracemalloc.is_tracing()
        if memory:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1]._mem_peak = max(stack[-1]._mem_peak, peak)
            tracemalloc.reset_peak()
            sp._mem_base = sp._mem_peak = current
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if memory:
                sp._mem_peak = max(sp._mem_peak, tracemalloc.get_traced_memory()[1])
                sp.peak_bytes = sp._mem_peak - sp._mem_base
                if stack:
                    stack[-1]._mem_peak = max(stack[-1]._mem_peak, sp._mem_peak)
            with self._lock:
                self.spans.append(sp)

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` with a recording wrapper until ``uninstall``.

        ``observe(span, args, kwargs, result)`` may add counts to
        ``span.attrs``; its errors are recorded, never raised into the program.
        """
        original = getattr(module, attr, None)
        where = f"{module.__name__}.{attr}"
        if not callable(original):
            self.missing.add(where)
            return
        tracer = self
        site = module.__name__

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, site) as sp:
                result = original(*args, **kwargs)
            if observe is not None:
                try:
                    observe(sp, args, kwargs, result)
                except Exception as exc:  # the program's result must pass through untouched
                    with tracer._lock:
                        tracer.observer_errors.append(f"{where}: {type(exc).__name__}: {exc}")
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @contextmanager
    def installed(self, wraps):
        """Wrap every ``(module, attr, name, observe)`` and trace memory inside."""
        for spec in wraps:
            self.wrap(*spec)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            yield self
        finally:
            if started:
                tracemalloc.stop()
            self.uninstall()


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        clipped = [(max(s, sp.start), min(e, sp.end)) for s, e in children.get(sp.id, [])]
        covered = union_length([(s, e) for s, e in clipped if e > s])
        out[sp.id] = (sp.end - sp.start) - covered
    return out
