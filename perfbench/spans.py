"""Span recording for the traced benchmark run.

Spans are recorded only when a workload installs a :class:`Tracer`: the
tracer replaces chosen entry points of the program (class attributes and
module-level functions) with timing wrappers, and :meth:`Tracer.uninstall`
puts the originals back.  An untraced run never constructs a tracer, so it
executes the program's own code objects untouched.

Every benchmark operation opens a root span (``query``, ``mutation``,
``reverse``, ``setup``); every wrapped call inside it becomes a child span
carrying the same operation id.  Calls the benchmark makes between
operations (resets, state reads) carry no operation id.  A span's *self* time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


class Tracer:
    """In-memory spans: ``(name, start, end, parent, op)`` tuples."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        #: operation id -> kind
        self.op_kinds: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        #: operations opened per root kind
        self.ops: dict[str, int] = defaultdict(int)

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, _perf(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = _perf()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up steps)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def op(self, kind: str):
        """One benchmark operation: the root span of everything under it."""
        previous = self._op
        self._op = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.ops[kind] += 1
        index = self._open(kind)
        try:
            yield
        finally:
            self._close(index)
            self._op = previous

    # -- installing wrappers -------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        if isinstance(raw, (classmethod, staticmethod)):
            function = raw.__func__
        else:
            function = raw

        def timed(*args, **kwargs):
            index = tracer._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(index)

        timed.__wrapped__ = function
        if isinstance(raw, classmethod):
            replacement = classmethod(timed)
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(timed)
        else:
            replacement = timed
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order of wrapping)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- aggregation ---------------------------------------------------

    def summary(self) -> tuple[dict, dict, dict, dict]:
        """Aggregates keyed by the kind of the operation rooting each span.

        Returns ``(self_seconds, inclusive_seconds, calls, under)``: the
        first three keyed ``(root kind, span name)``, ``under`` keyed
        ``(root kind, parent name, child name)`` with the inclusive seconds
        of child spans.  Spans opened outside any operation have root kind
        ``"none"``.
        """
        self_time: dict[tuple, float] = defaultdict(float)
        inclusive: dict[tuple, float] = defaultdict(float)
        calls: dict[tuple, int] = defaultdict(int)
        under: dict[tuple, float] = defaultdict(float)
        spans = self.spans
        for name, start, end, parent, op in spans:
            root = self.op_kinds[op] if op >= 0 else "none"
            duration = end - start
            self_time[(root, name)] += duration
            inclusive[(root, name)] += duration
            calls[(root, name)] += 1
            if parent >= 0:
                parent_name = spans[parent][0]
                self_time[(root, parent_name)] -= duration
                under[(root, parent_name, name)] += duration
        return self_time, inclusive, calls, under

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
