"""Span tracer that wraps library functions where their callers look them up.

A target names a span and the places to patch: ``(module, attribute path)``
pairs such as ``("predcorr.solvers", "solve_spd")`` or
``("predcorr.blocks", "BlockVector.concat")``. Patching the module a caller
reads a global from (rather than the defining module) is what makes a call
visible: ``solvers.solve_spd`` covers the subproblem solves, while
``linalg.cholesky_pd_check`` covers the checks that ``solve_spd`` makes.

A patch site that does not exist is skipped and recorded in ``missing``, so
a name that a later version of the library deletes reads as zero calls.
Every patch is undone when the tracer's ``with`` block exits.

Spans are kept in memory as ``[name, start, end, parent]``; ``stats()``
turns them into call counts, inclusive times and self times (a span's
duration minus the time its child spans cover).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# Span that a target's measure function runs under, so its cost lands on
# neither the traced call nor its parent.
OVERHEAD_SPAN = "trace.measure"


@dataclass(frozen=True)
class Target:
    """One span name and the attribute paths that are wrapped to emit it.

    ``measure(tracer, args, kwargs, result)`` runs after each call, outside
    the call's span, to record per-call quantities with ``tracer.add`` or
    ``tracer.note``.
    """

    name: str
    sites: tuple
    measure: object = None


@dataclass
class Stats:
    """Aggregates over the spans recorded since the last ``reset``."""

    calls: Counter = field(default_factory=Counter)
    total_s: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    sums: Counter = field(default_factory=Counter)
    notes: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans for wrapped functions and harness-side blocks."""

    def __init__(self, targets=(), clock=time.perf_counter):
        self._clock = clock
        self._targets = tuple(targets)
        self._patches = []
        self.missing = []
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self):
        self.spans = []
        self._stack = []
        self._sums = Counter()
        self._notes = defaultdict(list)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, self._clock(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = self._clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one harness-side span around the with block."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def within(self, name) -> bool:
        """True when a span with this name is open on the current stack."""
        return any(self.spans[i][0] == name for i in self._stack)

    def add(self, key, value):
        self._sums[key] += value

    def note(self, key, value):
        self._notes[key].append(value)

    def wrap(self, fn, target: Target):
        name, measure = target.name, target.measure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if measure is not None:
                extra = self._open(OVERHEAD_SPAN)
                try:
                    measure(self, args, kwargs, result)
                finally:
                    self._close(extra)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def __enter__(self):
        try:
            for target in self._targets:
                for module_name, path in target.sites:
                    self._patch(module_name, path, target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, module_name, path, target):
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(f"{module_name}.{path}")
            return
        *parents, attr = path.split(".")
        for part in parents:
            owner = vars(owner).get(part)
            if owner is None:
                self.missing.append(f"{module_name}.{path}")
                return
        # Only attributes the owner defines itself: wrapping an inherited
        # method here would wrap it twice when its base class is a target.
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{module_name}.{path}")
            return
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self.wrap(original.__func__, target))
        elif callable(original):
            wrapped = self.wrap(original, target)
        else:
            self.missing.append(f"{module_name}.{path}")
            return
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def stats(self) -> Stats:
        out = Stats(sums=Counter(self._sums),
                    notes={k: list(v) for k, v in self._notes.items()})
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is not None and parent is not None:
                covered[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            out.calls[name] += 1
            out.total_s[name] += end - start
            out.self_s[name] += end - start - covered[i]
        return out

