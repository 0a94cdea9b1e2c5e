"""In-memory spans and call timers for the traced benchmark run.

Everything here wraps methods on *instances* the benchmark already holds
(a balancer, its CT and CH, a workload generator); nothing in ``src/``
is edited or monkeypatched at class level.  Spans stay in memory and are
written once, after the run, by ``run.py``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


@dataclass
class Span:
    """One call across a layer boundary."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in ``Tracer.spans``; -1 for a root.
    parent: int
    #: Dispatch batch the span belongs to; -1 outside any dispatch call.
    batch: int
    #: Work handled by the call (keys probed, entries invalidated, ...).
    count: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """A span stack; spans opened inside another span are its children."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._batches = 0
        self._batch = -1

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, clock(), 0.0, parent, self._batch))
        self._stack.append(len(self.spans) - 1)

    def close(self) -> Span:
        span = self.spans[self._stack.pop()]
        span.end = clock()
        return span

    def wrap(
        self,
        owner,
        method: str,
        name: str,
        count: Optional[Callable] = None,
        batch: bool = False,
    ) -> None:
        """Shadow ``owner.method`` with a span-recording wrapper.

        ``count(args, result)`` fills the span's work count; ``batch``
        starts a new dispatch batch id that child spans inherit.
        """
        inner = getattr(owner, method)
        tracer = self

        def traced(*args):
            if batch:
                tracer._batch = tracer._batches
                tracer._batches += 1
            tracer.open(name)
            try:
                result = inner(*args)
            finally:
                span = tracer.close()
                if batch:
                    tracer._batch = -1
            if count is not None:
                span.count = count(args, result)
            return result

        setattr(owner, method, traced)

    def event(self, apply: Callable) -> Callable:
        """A membership-event callable recorded as an ``events.apply`` span."""

        def traced(balancer) -> None:
            self.open("events.apply")
            try:
                apply(balancer)
            finally:
                self.close()

        return traced

    # ------------------------------------------------------------ summaries
    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def work(self, name: str) -> int:
        return sum(span.count for span in self.spans if span.name == name)

    def first_after(self, name: str, trigger: str) -> float:
        """Summed time of the first ``name`` span after each ``trigger`` span."""
        seconds, pending = 0.0, False
        for span in self.spans:
            if span.name == trigger:
                pending = True
            elif span.name == name and pending:
                seconds += span.seconds
                pending = False
        return seconds

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.seconds
        out: Dict[str, float] = {}
        for span, child in zip(self.spans, covered):
            out[span.name] = out.get(span.name, 0.0) + span.seconds - child
        return out

    def dump(self) -> List[dict]:
        return [asdict(span) for span in self.spans]


class CallTimer:
    """Call count and summed time, for calls too frequent to span singly."""

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0

    def wrap(self, owner, method: str) -> None:
        inner = getattr(owner, method)

        def timed(*args):
            start = clock()
            result = inner(*args)
            self.seconds += clock() - start
            self.calls += 1
            return result

        setattr(owner, method, timed)


def trace_balancer(tracer: Tracer, balancer) -> None:
    """Span every layer boundary a columnar JET dispatch crosses."""
    tracer.wrap(balancer, "get_destinations_batch_idx", "core.dispatch", batch=True)
    keys = lambda args, result: len(args[0])  # noqa: E731
    tracer.wrap(balancer.ct, "get_batch_idx", "ct.probe", keys)
    tracer.wrap(balancer.ct, "put_batch_idx", "ct.insert", keys)
    tracer.wrap(balancer.ct, "invalidate_destination", "ct.invalidate",
                lambda args, result: int(result))
    tracer.wrap(balancer.ch, "lookup_with_safety_batch_idx", "ch.kernel", keys)
