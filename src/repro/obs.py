"""One registry of named run counters per thread of a process.

A layer reports its work by name — ``obs.count("parse_hits")`` — and a
reader measures a stretch of work as a diff: :func:`snapshot` before,
:func:`since` after. A diff is a plain ``dict`` of the counters that
moved, so a worker process ships it home beside its result and the
parent adds it to its own (see :mod:`repro.engine.executor`).

The registry is global on purpose: producers deep in the parser, the
heartbeat kernel, the result cache or the worker pool need no handle
threaded down to them. It is kept per thread, and a run's counters are
diffs of its own thread's registry around its own stages, so plans
executed concurrently in one process (one session per thread) each
count only their own work, even when they share a cache directory.

This module imports nothing from :mod:`repro`, so every layer may use
it.
"""

from __future__ import annotations

import threading
from typing import Mapping

__all__ = ["count", "since", "snapshot"]


class _Registry(threading.local):
    """The calling thread's counters (created empty on first use)."""

    def __init__(self):
        self.counts: dict[str, int] = {}


_registry = _Registry()


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name``."""
    counts = _registry.counts
    counts[name] = counts.get(name, 0) + n


def snapshot() -> dict[str, int]:
    """A copy of every counter's current value."""
    return dict(_registry.counts)


def since(before: Mapping[str, int]) -> dict[str, int]:
    """The counters that moved since ``before`` (a :func:`snapshot`),
    each mapped to how far it moved."""
    return {name: value - before.get(name, 0)
            for name, value in _registry.counts.items()
            if value != before.get(name, 0)}
