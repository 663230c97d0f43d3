"""In-memory span tracer that instruments library calls from outside.

:class:`Tracer` replaces chosen public functions and methods with thin
wrappers that record one :class:`Span` per call — name, start, end,
parent span, thread and the benchmark phase — and puts the originals
back on :meth:`Tracer.restore`.  Nothing in the library changes; the
spans sit at the boundaries the benchmark calls into.

A span's *self time* is its duration minus the durations of its child
spans.  Children run on the parent's thread inside the parent's
interval, so self time plus the children's time equals the duration;
:func:`nesting_errors` checks that this holds for a recorded trace.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    thread: int
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around instrumented callables.

    ``hook(args, kwargs, start, end)``, when given to :meth:`instrument`,
    runs after each call with its arguments and timestamps — for
    bookkeeping a span alone cannot carry (which requests a batch held).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        #: Label stamped on every span started from now on.
        self.phase = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float,
               parent: int = 0) -> Span:
        """Append a span measured elsewhere (used by tests and phase marks)."""
        span = Span(next(self._ids), parent, name, start, end,
                    threading.get_ident(), self.phase)
        self.spans.append(span)
        return span

    def wrap(self, function: Callable, name: str,
             hook: Optional[Callable] = None) -> Callable:
        """A wrapper of ``function`` that records a span named ``name``."""
        clock = self.clock
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            phase = self.phase
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, name, start, end,
                                  threading.get_ident(), phase))
                if hook is not None:
                    hook(args, kwargs, start, end)

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def wrap_iterator(self, function: Callable, name: str) -> Callable:
        """Wrap a generator function so that each ``next`` is one span."""
        wrap = self.wrap

        def traced(*args, **kwargs):
            step = wrap(next, name)
            iterator = function(*args, **kwargs)
            while True:
                try:
                    item = step(iterator)
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = function
        return traced

    def instrument(self, owner, attribute: str, name: str,
                   hook: Optional[Callable] = None,
                   iterator: bool = False) -> None:
        """Replace ``owner.attribute`` (defined on ``owner`` itself) by a traced wrapper."""
        if attribute not in vars(owner):
            raise AttributeError(
                f"{owner!r} does not define {attribute!r} itself")
        original = vars(owner)[attribute]
        if iterator:
            wrapped = self.wrap_iterator(original, name)
        else:
            wrapped = self.wrap(original, name, hook=hook)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def restore(self) -> None:
        """Put every instrumented callable back, last replaced first."""
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def write(self, path) -> None:
        """Write the spans as JSON lines: one header, then one span per line."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": list(Span._fields)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(list(span)) + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the summed durations of its children."""
    spans = list(spans)
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent:
            children[span.parent] += span.duration
    return {span.id: span.duration - children[span.id] for span in spans}


def nesting_errors(spans: Iterable[Span], tolerance_s: float = 1e-7) -> List[str]:
    """Violations of the nesting rule that makes self time well defined.

    Every child must run on its parent's thread within the parent's
    interval, siblings must not overlap, and so every self time is
    non-negative and self time plus children's time equals duration.
    """
    spans = list(spans)
    by_id = {span.id: span for span in spans}
    siblings: Dict[int, List[Span]] = defaultdict(list)
    errors = []
    for span in spans:
        if not span.parent:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            errors.append(f"span {span.id} ({span.name}) has no recorded parent")
            continue
        if parent.thread != span.thread:
            errors.append(f"span {span.id} ({span.name}) crosses threads")
        if (span.start < parent.start - tolerance_s
                or span.end > parent.end + tolerance_s):
            errors.append(f"span {span.id} ({span.name}) leaves its parent")
        siblings[span.parent].append(span)
    for parent_id, kids in siblings.items():
        kids.sort(key=lambda span: span.start)
        for before, after in zip(kids, kids[1:]):
            if after.start < before.end - tolerance_s:
                errors.append(f"children of span {parent_id} overlap")
    for span_id, own in self_times(spans).items():
        if own < -tolerance_s * 10:
            errors.append(f"span {span_id} has negative self time {own}")
    return errors


def totals_by_name(spans: Iterable[Span], phase: Optional[str] = None) -> Dict[str, dict]:
    """Name -> call count, total seconds and self seconds, optionally for one phase."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, dict] = {}
    for span in spans:
        if phase is not None and span.phase != phase:
            continue
        row = totals.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.id]
    return totals
