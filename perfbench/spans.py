"""In-memory span recorder for the benchmark's traced runs.

The recorder wraps library callables at every module attribute through
which the library looks them up (for example `unicom.training.
selection_backward`, which `Trainer` calls by its imported name), records
one span per call, and puts the originals back when the traced pass ends.
Nothing inside `unicom` is modified on disk or left patched afterwards.
"""

import sys
import time
import tracemalloc
from collections.abc import Callable
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field

PACKAGE = "unicom"


@dataclass
class Span:
    """One call: name, start and end in perf_counter_ns, caller, run id."""

    name: str
    start: int
    end: int
    parent: int | None  # index of the enclosing span in Recorder.spans
    run_id: int
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to their parent's interval and merged before the
    subtraction, so back-to-back and overlapping children are counted once.
    Returned in nanoseconds, one entry per span.
    """
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        covered, reach = 0, span.start
        for a, b in intervals:
            if b > reach:
                covered += b - max(a, reach)
                reach = b
        out.append(span.end - span.start - covered)
    return out


def _owner(path: str):
    """Module or class named by a path such as `unicom.training:Trainer`."""
    module_name, _, rest = path.partition(":")
    obj = sys.modules[module_name]
    for part in filter(None, rest.split(".")):
        obj = getattr(obj, part)
    return obj


@contextmanager
def patched(owner_path: str, attr: str, make_wrapper):
    """Replace a callable at every lookup site while the block runs.

    `owner_path` is `module` or `module:Class`. For a module attribute,
    every loaded `unicom` module that binds the same object (under any
    name) gets the wrapper, because callers inside the package use the
    names they imported. Class attributes have the one site.
    """
    owner = _owner(owner_path)
    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        sites = [(owner, attr)]
    else:
        sites = [
            (module, key)
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for key, value in list(vars(module).items())
            if value is original
        ]
    for site, key in sites:
        setattr(site, key, wrapper)
    try:
        yield
    finally:
        for site, key in sites:
            setattr(site, key, original)


@dataclass
class Target:
    """A callable to trace: where it lives, its span name, what to note."""

    owner: str
    attr: str
    name: str
    note: Callable[[tuple, dict, object], dict] | None = None  # run after the span ends
    peak_memory: bool = False  # track the tracemalloc peak inside the call


class Recorder:
    """Collects spans in memory; `install` wraps the targets, `span` adds one."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), 0, parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrapper(self, target: Target):
        def make(fn):
            def wrapper(*args, **kwargs):
                own_trace = target.peak_memory and not tracemalloc.is_tracing()
                if own_trace:
                    tracemalloc.start()
                span = self._open(target.name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
                    if own_trace:
                        span.notes["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                if target.note is not None:
                    span.notes.update(target.note(args, kwargs, result))
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    @contextmanager
    def install(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore."""
        with ExitStack() as stack:
            for target in targets:
                stack.enter_context(patched(target.owner, target.attr, self._wrapper(target)))
            yield self
