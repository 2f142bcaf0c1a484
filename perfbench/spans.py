"""Benchmark-owned span recording around calls into the program's layers.

The program under test is not modified.  Instead, :class:`Recorder`
replaces chosen public functions and methods with timing wrappers
(:meth:`Recorder.wrap`) and aggregates what they record in memory:

* per span name: call count, busy time (wall time inside the call),
  self time (busy time minus the part covered by nested recorded
  calls on the same thread) and the busy time spent directly inside
  another span of the same layer (so a layer's busy time is not
  counted twice);
* optional per-call samples, for medians;
* plain call counters (:meth:`Recorder.counted`), for hot functions
  where timing each call would cost more than the call itself.

State is per thread (nesting is a per-thread stack, and the server
solves on several executor threads); :meth:`Recorder.snapshot` merges
the threads.  A span name's layer is the part before its first dot.
Aggregates are written out once, at process exit, by the caller.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable


class _ThreadState:
    __slots__ = ("stack", "stats", "samples", "counts")

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.stats: dict[str, list[float]] = {}
        self.samples: dict[str, list] = {}
        self.counts: dict[str, int] = {}


class Recorder:
    """In-memory span aggregates for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def reset(self) -> None:
        """Forget everything recorded so far (used after ``fork``)."""
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def timed(
        self,
        name: str,
        fn: Callable,
        *,
        sample: Callable[..., Any] | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.

        ``sample(duration_s, result, args)`` — when given — returns the
        value stored as this call's sample (``None`` stores nothing).
        """

        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            frame = [0.0, layer]
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                entry = state.stats.get(name)
                if entry is None:
                    entry = state.stats[name] = [0, 0.0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    if parent[1] == layer:
                        entry[3] += elapsed
                if sample is not None:
                    value = sample(elapsed, result, args)
                    if value is not None:
                        state.samples.setdefault(name, []).append(value)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a bare call counter (no timing)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` by its timed wrapper (undone by ``unwrap``)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self.timed(name, original.__func__, **kwargs))
        else:
            wrapped = self.timed(name, original, **kwargs)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def wrap_count(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a call-counting wrapper."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.counted(name, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def record(self, name: str, elapsed: float, value: Any = None) -> None:
        """Record one span measured by the caller (no nesting)."""
        state = self._state()
        entry = state.stats.get(name)
        if entry is None:
            entry = state.stats[name] = [0, 0.0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed
        if value is not None:
            state.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """All threads merged: ``{"spans", "samples", "counts"}``."""
        with self._lock:
            threads = list(self._threads)
        return merge(
            [
                {
                    "spans": dict(state.stats),
                    "samples": dict(state.samples),
                    "counts": dict(state.counts),
                }
                for state in threads
            ]
        )


def merge(snapshots: list[dict]) -> dict:
    """Merge :meth:`Recorder.snapshot` outputs of several processes."""
    out: dict = {"spans": {}, "samples": {}, "counts": {}}
    for snap in snapshots:
        for name, values in snap["spans"].items():
            entry = out["spans"].setdefault(name, [0, 0.0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        for name, values in snap["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
        for name, count in snap["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + count
    return out


def layer_table(merged: dict) -> dict[str, list[float]]:
    """``{layer: [count, busy_s, self_s]}`` from merged span aggregates."""
    table: dict[str, list[float]] = {}
    for name, (count, busy, own, inner) in merged["spans"].items():
        entry = table.setdefault(name.split(".", 1)[0], [0, 0.0, 0.0])
        entry[0] += count
        entry[1] += busy - inner
        entry[2] += own
    return table
