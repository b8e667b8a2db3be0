"""Span tracing for the benchmark, installed from outside the program.

A traced run replaces public functions of ``loralab`` modules with wrappers
that record one span per call: name, start, end, the enclosing span, and for
checkpoint readers and writers the file size. Spans stay in memory until the
run ends. Wrappers are installed by rebinding module attributes, which works
because the package reaches its collaborators through module namespaces
(``trainer`` calls ``model.encode`` and ``ad.backward``, ``analysis`` calls
``matcore.invert`` and ``matcore.svd``). A function imported by name into a
second module is rebound there too.

Nothing here knows the program's internals beyond the boundary names, so a
boundary the program no longer has is reported as absent, not as an error.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# The only autodiff function that may be wrapped: the per-op functions run
# about a thousand times per training step, and wrapping them would measure
# the wrappers instead of the program.
AUTODIFF_ALLOWED = {"backward"}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float | None = None
    bytes: int | None = None
    error: str | None = None


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, self.clock(), parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = self.clock()
            self._open.pop()

    def wrap(self, name: str, fn, file_arg: bool = False):
        """``fn`` recording a span per call; ``file_arg`` sizes the file named by argument 0."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                try:
                    return fn(*args, **kwargs)
                finally:
                    if file_arg:
                        with contextlib.suppress(OSError, IndexError, TypeError):
                            record.bytes = os.path.getsize(args[0])

        return traced


@dataclass(frozen=True)
class Boundary:
    """A public function to trace: ``attr`` may be ``Class.method``."""

    name: str
    module: str
    attr: str
    file_arg: bool = False


def _resolve(boundary: Boundary):
    """(owner, attribute, function), or None when the program lacks it."""
    try:
        owner = importlib.import_module(boundary.module)
    except ImportError:
        return None
    *path, attr = boundary.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr)
    return None if fn is None else (owner, attr, fn)


@contextlib.contextmanager
def installed(tracer: Tracer, boundaries):
    """Wrap every boundary for the duration of the block; yields the absent names.

    A module-level function is rebound in every loaded module of its package
    that holds it. Every rebinding is undone on exit, also when the block raises.
    """
    saved: list[tuple[object, str, object]] = []
    absent: list[str] = []
    try:
        for boundary in boundaries:
            if boundary.module.endswith(".autodiff") and boundary.attr not in AUTODIFF_ALLOWED:
                raise ValueError(f"refusing to wrap per-op autodiff function {boundary.attr!r}")
            found = _resolve(boundary)
            if found is None:
                absent.append(boundary.name)
                continue
            owner, attr, fn = found
            wrapper = tracer.wrap(boundary.name, fn, boundary.file_arg)
            targets = [(owner, attr)]
            if not isinstance(owner, type):
                package = boundary.module.split(".")[0]
                targets = [
                    (module, key)
                    for name, module in list(sys.modules.items())
                    if module is not None and (name == package or name.startswith(package + "."))
                    for key, value in list(vars(module).items())
                    if value is fn
                ]
            for target, key in targets:
                saved.append((target, key, fn))
                setattr(target, key, wrapper)
        yield absent
    finally:
        for target, key, fn in reversed(saved):
            setattr(target, key, fn)


# --- span arithmetic ----------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        inner = [(max(s, span.start), min(e, span.end)) for s, e in children.get(index, [])]
        out.append((span.end - span.start) - covered((s, e) for s, e in inner if e > s))
    return out


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0
    errors: dict[str, int] = field(default_factory=dict)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, busy time (union of a name's spans), self time and bytes per span name."""
    own = self_times(spans)
    intervals: dict[str, list[tuple[float, float]]] = {}
    stats: dict[str, LayerStats] = {}
    for span, self_s in zip(spans, own):
        entry = stats.setdefault(span.name, LayerStats())
        entry.calls += 1
        entry.self_s += self_s
        entry.bytes += span.bytes or 0
        if span.error:
            entry.errors[span.error] = entry.errors.get(span.error, 0) + 1
        intervals.setdefault(span.name, []).append((span.start, span.end))
    for name, entry in stats.items():
        entry.busy_s = covered(intervals[name])
    return stats


def step_intervals(spans: list[Span], run: str, batch: str, step: str) -> list[float]:
    """Seconds between successive ``batch`` starts inside one ``run`` span.

    An interval counts only when exactly one ``step`` span starts inside it,
    which drops the gap after the held-out evaluation batch.
    """
    out: list[float] = []
    last = None
    steps_since = 0
    for span in spans:
        if span.name == run:
            last, steps_since = None, 0
        elif span.name == step:
            steps_since += 1
        elif span.name == batch:
            if last is not None and steps_since == 1:
                out.append(span.start - last)
            last, steps_since = span.start, 0
    return out
