"""Span tracer that times calls into isacfl's public functions from outside.

Wrappers are installed on the names the callers actually look up (for
example ``isacfl.fl.adam_step``, which ``local_train`` calls, not
``isacfl.nn.adam_step``) and are restored when the traced block ends. The
program itself is never edited.

Spans are kept in memory, aggregated by (parent span name, span name), and
read once when the benchmark ends. The self time of a span is its duration
minus the durations of its direct children; summed over every span it equals
the summed duration of the top-level spans, which :meth:`Tracer.self_time_gap`
checks.

The tracer assumes a single thread, which is how the benchmark drives the
simulator (clients run on one thread).
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class SpanStats:
    """Aggregate of every span with one (parent, name) key."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """In-memory span stack plus per-(parent, name) aggregates and counters.

    Spans whose name starts with one of ``keep`` are also kept one by one as
    (name, start, duration), for percentiles.
    """

    clock: Callable[[], float] = time.perf_counter
    keep: tuple[str, ...] = ()
    stats: dict[tuple[str | None, str], SpanStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    kept: list[tuple[str, float, float]] = field(default_factory=list)
    top_level_s: float = 0.0
    _stack: list[list] = field(default_factory=list)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            key = (parent[0], name)
        else:
            self.top_level_s += duration
            key = (None, name)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = SpanStats()
        rec.calls += 1
        rec.total_s += duration
        rec.self_s += duration - child_s
        if name.startswith(self.keep):
            self.kept.append((name, start, duration))

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(n)

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -- queries -----------------------------------------------------------

    def total(self, name: str, attr: str = "total_s", parent: str = "") -> float:
        """Sum of ``attr`` (calls, total_s or self_s) over the spans called ``name``.

        A ``name`` ending in "." matches every span name that starts with it.
        Only spans whose parent's name starts with ``parent`` count.
        """
        prefix = name.endswith(".")
        return sum(
            getattr(r, attr)
            for (p, n), r in self.stats.items()
            if (n.startswith(name) if prefix else n == name) and (p or "").startswith(parent)
        )

    def self_time_gap(self) -> float:
        """|sum of every span's self time - sum of top-level durations|, seconds."""
        return abs(sum(r.self_s for r in self.stats.values()) - self.top_level_s)


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: where the caller looks it up and how to name it.

    ``name`` is either a fixed span name or a function of the call's
    ``(args, kwargs)``. ``after(tracer, name, args, kwargs, result)`` runs once
    the span has closed, outside its time, for counters such as bytes written.
    """

    owner: object
    attr: str
    name: str | Callable[[tuple, dict], str]
    after: Callable[[Tracer, str, tuple, dict, object], None] | None = None


def _wrap(tracer: Tracer, fn: Callable, probe: Probe) -> Callable:
    fixed = probe.name if isinstance(probe.name, str) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = fixed or probe.name(args, kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if probe.after is not None:
            probe.after(tracer, name, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, probes: list[Probe]):
    """Install every probe's wrapper for the duration of the block, then restore.

    Raises RuntimeError on exit if any original attribute did not come back,
    so a leaked wrapper can never skew a later untraced measurement.
    """
    originals = []
    try:
        for probe in probes:
            original = vars(probe.owner)[probe.attr]
            originals.append((probe, original))
            setattr(probe.owner, probe.attr, _wrap(tracer, original, probe))
        yield tracer
    finally:
        for probe, original in reversed(originals):
            setattr(probe.owner, probe.attr, original)
    leaked = [f"{p.attr}" for p, original in originals if vars(p.owner)[p.attr] is not original]
    if leaked:
        raise RuntimeError(f"tracer wrappers not restored: {leaked}")


def count_bytes(size_of: Callable[[tuple, object], int]):
    """An ``after`` hook adding ``size_of(args, result)`` to the counter ``<span>.bytes``."""

    def after(tracer: Tracer, name: str, args: tuple, kwargs: dict, result) -> None:
        tracer.count(name + ".bytes", size_of(args, result))

    return after


def file_size(path) -> int:
    return os.path.getsize(path)


def tree_size(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())
