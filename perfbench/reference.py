"""Fixed workloads that measure the host's current speed.

The virtual machines the benchmark runs on drift in speed by 10-40%
over tens of seconds, which moves every wall time with them. Timing a
fixed workload (no ``repro`` code, so no change to the program can move
it) before the first and after every operation of a run, and dividing
the run's median wall time by its median reference time, gives a time
in *reference units* that much of the drift cancels out of. The raw
wall times are printed beside it.

The reference has to slow down as the timed operation does:

- :func:`loop_s` is a pure-Python loop, timed in-process. It
  references in-process compute: input generation and the library
  calls of ``warm_refresh``.
- :func:`interpreter_s` starts fresh interpreters that import numpy
  and ``scipy.stats`` and then run the loop, the shape of a
  ``repro-schema`` process (start-up and imports, then compute). It
  references the CLI workloads. On a 2-vCPU VM, six 20-second runs of
  the same cold study spread by IQR/median 0.17 raw, 0.12 over the
  loop and 0.06 over the interpreter reference; the loop alone slows
  by up to 1.8x when the host does, the study by ~1.3x.

Run as a script, this file is the body of :func:`interpreter_s`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: Dictionary and string operations per loop run (0.15-0.3 s).
ROUNDS = 600_000

#: Seconds one loop run takes on an idle 2-vCPU x86-64 VM under
#: CPython 3.11: the host speed :func:`at_nominal_speed` scales to.
NOMINAL_REFERENCE_S = 0.16


def loop_s() -> float:
    """Wall seconds of one run of the reference loop."""
    started = perf_counter()
    counts: dict[str, int] = {}
    for i in range(ROUNDS):
        key = f"t{i % 1009}"
        counts[key] = counts.get(key, 0) + len(key) * (i % 7)
    return perf_counter() - started


def interpreter_s(processes: int, env: dict[str, str]) -> float:
    """Wall seconds of this file run as a script in a fresh
    interpreter: the mean over ``processes`` copies started together,
    so contention on any of the CPUs a ``--jobs`` run keeps busy
    shows."""
    started = perf_counter()
    children = [subprocess.Popen([sys.executable, str(Path(__file__))],
                                 env=env, stdout=subprocess.DEVNULL)
                for _ in range(processes)]
    times = []
    for child in children:
        _, status = os.waitpid(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            raise RuntimeError(f"reference interpreter exited "
                               f"{child.returncode}")
        times.append(perf_counter() - started)
    return sum(times) / len(times)


def relative(wall: list[float], references: list[float]) -> list[float]:
    """The run's median wall time over its median reference time (the
    run's one sample of ``study_rel``).

    A single reference run is short and swings by 20% or more on its
    own, so each side is a median over the run, whose span is short
    next to the host's drift.
    """
    from statistics import median
    return [median(wall) / median(references)]


def at_nominal_speed(wall: list[float],
                     references: list[float]) -> list[float]:
    """Each of ``wall``'s in-process compute times as it would read on a
    host whose loop run takes :data:`NOMINAL_REFERENCE_S`.

    ``references`` holds one :func:`loop_s` before the first time and
    one after each; a time is scaled by the mean of the two around it.
    """
    return [NOMINAL_REFERENCE_S * seconds / ((before + after) / 2)
            for seconds, before, after
            in zip(wall, references, references[1:])]


if __name__ == "__main__":
    import numpy  # noqa: F401
    import scipy.stats  # noqa: F401
    loop_s()
