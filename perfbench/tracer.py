"""Span and counter tracer that wraps tgstatus from the outside.

``Tracer.rebind`` replaces a public function or method by a thin
recorder.  A module-level function is rebound in every loaded tgstatus
module that holds it, so calls between layers (``validate`` inside
``build_replacement``, ``bfs_distances`` under ``mu_status``) are
recorded too.  Spans are kept in memory in compact columns: name,
start, end, parent span and op id.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

NO_PARENT = -1


class Spans:
    """Columnar span store; a span's index is its id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def add(self, name: str, start: float, end: float, parent: int, op: int) -> int:
        """Append a finished span and return its id."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.start) - 1

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """Per span name: inclusive seconds, self seconds and span count."""
        n = len(self.start)
        child_time = array("d", bytes(8 * n))
        for i in range(n):
            parent = self.parent[i]
            if parent != NO_PARENT:
                child_time[parent] += self.end[i] - self.start[i]
        inclusive = {name: 0.0 for name in self.names}
        self_time = dict(inclusive)
        calls: Counter = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            duration = self.end[i] - self.start[i]
            inclusive[name] += duration
            self_time[name] += duration - child_time[i]
            calls[name] += 1
        return inclusive, self_time, calls


class Tracer:
    """Records spans around wrapped calls and counts cheap events.

    A span gets its id when it ends, after its children; the stack of
    open spans collects each one's child ids so their parent column can
    be filled in then.  ``op`` is the id stamped on new spans.
    """

    def __init__(self) -> None:
        self.spans = Spans()
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list[tuple[str, float, list[int]]] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------

    def begin(self, name: str) -> None:
        self._open.append((name, perf_counter(), []))

    def end(self) -> None:
        name, start, children = self._open.pop()
        end = perf_counter()
        span_id = self.spans.add(name, start, end, NO_PARENT, self.op)
        for child in children:
            self.spans.parent[child] = span_id
        if self._open:
            self._open[-1][2].append(span_id)

    def current(self) -> str | None:
        return self._open[-1][0] if self._open else None

    def span(self, name: str, func):
        """Wrap a callable so each call is one span."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            begin(name)
            try:
                return func(*args, **kwargs)
            finally:
                end()

        wrapper.__wrapped__ = func
        return wrapper

    def span_generator(self, name: str, func, on_item, on_exhausted):
        """Wrap a generator function; each resume of it is one span."""
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            while True:
                begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    on_exhausted(*args, **kwargs)
                    return
                finally:
                    end()
                on_item(item)
                yield item

        wrapper.__wrapped__ = func
        return wrapper

    def count(self, name: str, func):
        """Wrap a callable so each call adds one to ``counts[name]``."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    # --- installation ---------------------------------------------------

    def rebind(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original).

        For a module-level function, every loaded tgstatus module that
        holds the same object (under any name) is rebound as well.
        """
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "tgstatus" or module_name.startswith("tgstatus.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
