"""In-memory spans around the calls into each uqgeom module.

Spans are recorded only from the benchmark's side: :class:`Tracer` replaces
a public function at the name its caller looks it up under (for example
``uqgeom.montecarlo.evaluate``, which is what the randomized engine calls,
not only ``uqgeom.measures.evaluate``) and puts the original back when the
traced region ends.  Each span keeps its name, start, end, parent and the id
of the solve it belongs to; ``attrs`` hold counts taken at the same boundary.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    solve: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its children.  Every
    solve runs on one thread, so children are sequential and lie inside
    their parent."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


class Tracer:
    """Records nested spans while its wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.solve: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), None, parent, self.solve))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def wrap(self, owner, attr: str, name, *, count=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call's arguments giving
        one; ``count(args, kwargs, result)`` returns attrs for the span, with
        ``result`` None when the call raised.
        Static methods are wrapped as static methods.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(original, staticmethod)
        fn = original.__func__ if is_static else original
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx)
                if count is not None:
                    tracer.spans[idx].attrs.update(count(args, kwargs, result))

        wrapper.__wrapped__ = fn
        self._patches.append((owner, attr, original))
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
