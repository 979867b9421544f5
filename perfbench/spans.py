"""Nested timing spans around the program's public callables.

A :class:`Tracer` patches functions and methods from outside the program
(nothing under ``src/`` changes): every patched call opens a span, and
when it closes, the span's duration is split into *self* time and the
time its nested child spans covered.  The workloads' trace self-check
asserts that the self times of the spans they report add up to the
traced wall time, so no sizeable cost goes unattributed.

Spans are kept in memory, keyed by ``(scope, name)``; the workloads set
:attr:`Tracer.scope` to the network being run.  The span stack belongs
to the tracer, so install one only around single-threaded code.

A :class:`LapClock` patches callables the same way but only marks the
time at every call and return, which splits a stretch of work into
consecutive laps; :func:`benchlib.best_laps` lines up the laps of
identical repeats.  The untraced runs use it for their end-to-end
timings.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

Key = Tuple[str, str]  # (scope, span name)
#: A span name, or a function of the call's ``(args, kwargs)`` giving one.
SpanName = Union[str, Callable[[tuple, dict], str]]
#: ``(owner, attribute, span name)``: a class or module and the callable
#: attribute on it to trace.
Target = Tuple[object, str, SpanName]


class Patcher:
    """Replaces callables on classes or modules by wrappers, then restores them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._patches: List[Tuple[object, List[str], object]] = []

    def wrap(self, fn: Callable, name: SpanName) -> Callable:
        raise NotImplementedError

    def patch(self, owner: object, attr: str, name: SpanName) -> None:
        """Wrap ``owner.attr``, which ``owner`` must define itself.

        Every other attribute of ``owner`` bound to the same object is
        wrapped too, so class aliases such as ``__call__ = forward`` are
        covered along with the name they alias.
        """
        namespace = vars(owner)
        original = namespace[attr]
        aliases = [key for key, value in list(namespace.items()) if value is original]
        wrapped = self.wrap(original, name)
        for key in aliases:
            setattr(owner, key, wrapped)
        self._patches.append((owner, aliases, original))

    def unpatch(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, aliases, original = self._patches.pop()
            for key in aliases:
                setattr(owner, key, original)

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Patcher"]:
        try:
            for owner, attr, name in targets:
                self.patch(owner, attr, name)
            yield self
        finally:
            self.unpatch()


class LapClock(Patcher):
    """Marks the time at every call to and return from the patched callables.

    Between :meth:`start` and :meth:`stop` the marks split the work into
    consecutive laps that cover it without a gap.  Deterministic work
    repeated call for call yields the same sequence of laps each time.
    Span names in the targets are ignored.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__(clock)
        self.marks: List[float] = []

    def wrap(self, fn: Callable, name: SpanName) -> Callable:
        del name
        marks = self.marks
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            marks.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                marks.append(clock())

        return timed

    def start(self) -> None:
        self.marks.clear()
        self.marks.append(self.clock())

    def stop(self) -> List[float]:
        """The laps since :meth:`start`, in seconds."""
        self.marks.append(self.clock())
        laps = [b - a for a, b in zip(self.marks, self.marks[1:])]
        self.marks.clear()
        return laps


class Tracer(Patcher):
    """Accumulates inclusive and self time per ``(scope, name)``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__(clock)
        #: Scope of every span closed from now on.
        self.scope = ""
        self.self_s: Dict[Key, float] = defaultdict(float)
        self.total_s: Dict[Key, float] = defaultdict(float)
        self.calls: Dict[Key, int] = defaultdict(int)
        #: Child time accumulated by each open span, innermost last.
        self._open: List[float] = []

    # -- spans -------------------------------------------------------------

    def _close(self, name: str, start: float, children: float) -> None:
        duration = self.clock() - start
        key = (self.scope, name)
        self.self_s[key] += duration - children
        self.total_s[key] += duration
        self.calls[key] += 1
        if self._open:
            self._open[-1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self.clock()
        self._open.append(0.0)
        try:
            yield
        finally:
            self._close(name, start, self._open.pop())

    def wrap(self, fn: Callable, name: SpanName) -> Callable:
        """``fn`` with every call recorded as a span."""
        tracer = self
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = tracer.clock()
            tracer._open.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(fixed or name(args, kwargs), start, tracer._open.pop())

        return traced

    # -- reading -----------------------------------------------------------

    def reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()

    @staticmethod
    def _sum(table: Dict[Key, float], name: str, scope: Optional[str]) -> float:
        return sum(
            value
            for (key_scope, key_name), value in table.items()
            if key_name == name and (scope is None or key_scope == scope)
        )

    def self_time(self, name: str, scope: Optional[str] = None) -> float:
        return self._sum(self.self_s, name, scope)

    def total_time(self, name: str, scope: Optional[str] = None) -> float:
        return self._sum(self.total_s, name, scope)

    def call_count(self, name: str, scope: Optional[str] = None) -> int:
        return int(self._sum(self.calls, name, scope))


def step_lap_targets() -> Tuple[Target, ...]:
    """Every recurrent cell timestep, memoized or plain, as a lap boundary."""
    from repro.nn.gru import GRUCell
    from repro.nn.lstm import LSTMCell

    return tuple(
        (cell, method, "")
        for cell in (LSTMCell, GRUCell)
        for method in ("step", "step_hooked")
    )


def self_check(self_total: float, wall_total: float, tolerance: float = 0.05) -> bool:
    """Do span self times account for the traced wall time within ``tolerance``?"""
    if wall_total <= 0:
        return False
    return abs(self_total - wall_total) <= tolerance * wall_total
