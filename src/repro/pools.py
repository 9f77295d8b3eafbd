"""The start method of every worker pool ``repro`` creates.

It is pinned rather than left to the interpreter: Python 3.14 moves the
Linux default from ``fork`` to ``forkserver``, whose workers start from
a fresh interpreter and import ``repro`` again, where a forked worker
inherits the parent's loaded modules. All published timings were taken
under ``fork``.

This module imports nothing from :mod:`repro`, so every layer may use
it.
"""

from __future__ import annotations

import multiprocessing
import sys
from multiprocessing.context import BaseContext

__all__ = ["pool_context"]


def pool_context() -> BaseContext:
    """The ``mp_context`` of a worker pool: ``fork`` on Linux, the
    platform's default start method elsewhere."""
    return multiprocessing.get_context(
        "fork" if sys.platform == "linux" else None)
