"""In-memory spans: name, start, end and parent, recorded around wrapped calls."""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread and restores what it wrapped.

    Spans nest by call order, so a span's parent is the innermost span open
    when it started.  Wrapped calls made from other threads would nest
    wrongly; the benchmark wraps only calls its own thread makes.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), parent=parent, attrs=attrs)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def open_names(self) -> list[str]:
        return [self.spans[i].name for i in self._open]

    def traced(self, fn, name, on_return=None, on_error=None):
        """``fn`` wrapped in a span; ``name`` is a string or ``f(args) -> str``.

        ``on_return(span, args, result)`` and ``on_error(span, args, exc)``
        attach counts to the span; the error still propagates.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            with self.span(label) as s:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(s, args, exc)
                    raise
                if on_return is not None:
                    on_return(s, args, result)
                return result

        return wrapper

    def wrap(self, owner, attr: str, name, on_return=None, on_error=None):
        """Replace ``owner.attr`` by its traced version until :meth:`uninstall`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.traced(original, name, on_return, on_error))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                out.setdefault(s.parent, []).append(i)
        return out

    def self_seconds(self, index: int, children: dict[int, list[int]]) -> float:
        """Span duration minus the time its direct children cover."""
        return self.spans[index].seconds - sum(
            self.spans[c].seconds for c in children.get(index, ())
        )

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
