"""Fault tolerance: failure records, error policies, fault injection.

Real corpora are messy — the paper itself keeps 151 of 195 mined
histories — so a large study run must *degrade*, not die, when one
project is unparseable, one git invocation fails or one cache entry is
truncated. This module holds the three building blocks the executor
uses to do that:

* :class:`ProjectFailure` — the structured record of one project that
  could not be computed (who, where, why, how many attempts);
* :class:`ErrorPolicy` — what the engine does when an attempt at one
  project raises: ``fail`` (propagate, the default), ``skip``
  (quarantine the project and continue with the survivors) or
  ``retry`` (N extra attempts with exponential backoff and
  deterministic jitter, for :class:`~repro.errors.TransientSourceError`
  only — permanent failures never burn the retry budget), run by
  :meth:`ErrorPolicy.run` for map items and fingerprints alike;
* :class:`FaultPlan` / :class:`FaultSpec` — a deterministic, seeded
  fault-injection harness that makes chosen projects raise parse
  errors, transient source errors, corrupt their cache entries or
  crash their worker process, so every policy path can be exercised
  end-to-end (engine, CLI, CI) instead of only unit-mocked.

Everything here is a small frozen dataclass: policies and plans pickle
to worker processes for free and compare by value, and
:meth:`FaultPlan.parse` reads a plan from the compact spec string of
``--fault-plan``, so the CLI and CI can inject faults without touching
code.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro import obs
from repro.errors import (
    EngineError,
    ParseError,
    TransientSourceError,
)

#: The modes an :class:`ErrorPolicy` can take.
POLICY_MODES = ("fail", "skip", "retry")

#: The fault kinds a :class:`FaultSpec` can inject.
FAULT_KINDS = ("parse", "source", "cache", "crash",
               "kill", "enospc", "interrupt")

#: Kinds that fire in the *parent* at dispatch time (see
#: :meth:`FaultPlan.parent_kind`) rather than inside the mapped call.
PARENT_FAULT_KINDS = ("kill", "enospc", "interrupt")

#: First retry delay in seconds; retry *k* waits twice as long as *k-1*.
BACKOFF_BASE = 0.05

#: Upper bound of any single backoff sleep, in seconds.
BACKOFF_CAP = 2.0

#: Exit status an injected worker crash dies with (recognizable in
#: CI logs; any abnormal exit breaks the pool identically).
CRASH_EXIT_STATUS = 97

#: Exit status an injected ``kill`` fault dies with — 128 + SIGKILL,
#: what a real ``kill -9`` of the run would report.
KILL_EXIT_STATUS = 137

# Set by the pool-worker initializer so an injected "crash" knows it
# may genuinely kill the process; in the parent (serial execution,
# pool-crash recovery) it raises instead.
_POOL_WORKER = False


def mark_pool_worker() -> None:
    """Flag this process as a pool worker (executor initializer)."""
    global _POOL_WORKER
    _POOL_WORKER = True
    # A terminal Ctrl-C goes to the whole foreground process group;
    # workers ignore SIGINT so the parent keeps a live pool while it
    # drains finished chunks during graceful shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def in_pool_worker() -> bool:
    """True inside a process-pool worker of the executor."""
    return _POOL_WORKER


def item_id(item: object) -> str:
    """The project id of one mapped item, best effort.

    Handles carry ``pid``, generated projects ``name``, histories
    ``project_name``; anything else falls back to a trimmed ``repr``
    so a failure record is never nameless.
    """
    for attr in ("pid", "name", "project_name"):
        value = getattr(item, attr, None)
        if isinstance(value, str):
            return value
    return repr(item)[:80]


def _traceback_snippet(exc: BaseException, limit: int = 4) -> str:
    """The last ``limit`` frames of ``exc``'s traceback, as text."""
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__,
                                       limit=-limit)
    return "".join(lines).strip()


@dataclass(frozen=True)
class ProjectFailure:
    """One project the study could not compute.

    Attributes:
        project: the project's id within its source.
        stage: name of the stage that failed (``"records"`` usually).
        error_type: exception class name (``ParseError``, ...).
        message: the exception message, trimmed.
        traceback: the last frames of the traceback, for debugging.
        attempts: how many attempts were made before giving up.
    """

    project: str
    stage: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1

    @classmethod
    def from_exception(cls, project: str, stage: str,
                       exc: BaseException,
                       attempts: int = 1) -> "ProjectFailure":
        """Build a failure record from a caught exception."""
        return cls(project=project, stage=stage,
                   error_type=type(exc).__name__,
                   message=str(exc)[:500],
                   traceback=_traceback_snippet(exc),
                   attempts=attempts)

    def summary(self) -> str:
        """One log-friendly line describing this failure."""
        tries = f" after {self.attempts} attempts" \
            if self.attempts > 1 else ""
        return (f"{self.project} [{self.stage}] "
                f"{self.error_type}: {self.message}{tries}")


@dataclass(frozen=True)
class ErrorPolicy:
    """What the engine does when an attempt at one project raises.

    Attributes:
        mode: ``"fail"`` (propagate — the default), ``"skip"`` (record
            a :class:`ProjectFailure`, drop the project, continue) or
            ``"retry"`` (like skip, but transient source errors get
            ``max_retries`` extra attempts first).
        max_retries: extra attempts after the first, ``retry`` mode
            only.
    """

    mode: str = "fail"
    max_retries: int = 2

    def __post_init__(self):
        if self.mode not in POLICY_MODES:
            raise EngineError(
                f"unknown error-policy mode {self.mode!r}; expected "
                f"one of {', '.join(POLICY_MODES)}")
        if self.max_retries < 0:
            raise EngineError(
                f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def captures(self) -> bool:
        """True when per-item failures are captured, not propagated."""
        return self.mode != "fail"

    def attempts_for(self, exc: BaseException) -> int:
        """Total attempts a failure of this type is allowed."""
        if self.mode == "retry" \
                and isinstance(exc, TransientSourceError):
            return 1 + self.max_retries
        return 1

    def backoff_seconds(self, project: str, attempt: int) -> float:
        """Delay before retry number ``attempt`` of ``project``.

        Exponential from :data:`BACKOFF_BASE` with a ±25 % jitter
        derived from a content hash of ``(project, attempt)`` —
        deterministic across runs and processes, no global RNG touched
        — capped at :data:`BACKOFF_CAP`.
        """
        base = BACKOFF_BASE * (2 ** max(0, attempt - 1))
        digest = hashlib.blake2b(f"{project}:{attempt}".encode("utf-8"),
                                 digest_size=8).digest()
        fraction = int.from_bytes(digest, "big") / 2 ** 64
        return min(BACKOFF_CAP, base * (0.75 + 0.5 * fraction))

    def run(self, project: str, stage: str,
            call: Callable[[int], Any]) -> Any:
        """``call(attempt)`` (1-based) for ``project`` under this policy.

        Under ``fail`` an exception propagates. A capturing policy
        retries what :meth:`attempts_for` allows, sleeping
        :meth:`backoff_seconds` and counting ``retries`` in
        :mod:`repro.obs` first, then returns a :class:`ProjectFailure`
        for ``stage``.
        """
        attempt = 1
        while True:
            try:
                return call(attempt)
            except Exception as exc:
                if not self.captures:
                    raise
                if attempt >= self.attempts_for(exc):
                    return ProjectFailure.from_exception(
                        project, stage, exc, attempts=attempt)
            obs.count("retries")
            time.sleep(self.backoff_seconds(project, attempt))
            attempt += 1


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: a kind aimed at chosen projects.

    Attributes:
        kind: ``"parse"`` (raise :class:`~repro.errors.ParseError` —
            permanent), ``"source"`` (raise
            :class:`~repro.errors.TransientSourceError` — retryable),
            ``"cache"`` (scribble over the project's on-disk cache
            entry before it is read, exercising envelope self-healing),
            ``"crash"`` (kill the worker process; in-parent execution
            raises :class:`~repro.errors.EngineError` instead),
            ``"kill"`` (hard-exit the whole run with status 137 when
            the target is reached — a deterministic in-process
            ``kill -9``, for crash-recovery tests), ``"enospc"``
            (cache + journal writes start failing, as a full disk
            would) or ``"interrupt"`` (a deterministic Ctrl-C: the
            executor's graceful-shutdown path runs as if SIGINT had
            arrived at that item).
        target: which projects the fault hits — an exact project id, a
            ``prefix*`` glob, or ``~N`` selecting a deterministic
            pseudo-random 1-in-N sample keyed on the plan seed.
        times: fire on attempts ``1..times`` of the project's map
            item only, so a ``retry`` policy with budget >= ``times``
            heals the project.
    """

    kind: str
    target: str
    times: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        if not self.target:
            raise EngineError("a fault spec needs a target")
        if self.times < 1:
            raise EngineError(f"times must be >= 1, got {self.times}")

    def matches(self, pid: str, seed: int) -> bool:
        """True when this fault applies to ``pid``."""
        if self.target.startswith("~"):
            try:
                modulus = int(self.target[1:])
            except ValueError:
                raise EngineError(
                    f"bad sample target {self.target!r}: expected ~N")
            if modulus < 1:
                raise EngineError(
                    f"sample target must be ~N with N >= 1, "
                    f"got {self.target!r}")
            digest = hashlib.blake2b(f"{seed}:{pid}".encode("utf-8"),
                                     digest_size=8).digest()
            return int.from_bytes(digest, "big") % modulus == 0
        if self.target.endswith("*"):
            return pid.startswith(self.target[:-1])
        return pid == self.target


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of injected faults.

    The plan travels inside :class:`~repro.engine.config.StudyConfig`
    (and pickles to workers with the map closure); :meth:`parse` reads
    it from the compact spec string ``--fault-plan`` takes::

        seed=7;parse@flatliner-01;source@siesta-01*2;cache@~10

    i.e. ``;``-separated ``KIND@TARGET[*TIMES]`` tokens plus an
    optional ``seed=N`` entry (the seed keys ``~N`` sampling targets).

    Attributes:
        seed: seed for deterministic ``~N`` sampling targets.
        faults: the injected fault specs, checked in order — the first
            matching spec wins for a given project.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        # Tolerate list input; the plan must stay hashable/picklable.
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    def spec_for(self, pid: str) -> FaultSpec | None:
        """The first fault spec matching ``pid``, if any."""
        for spec in self.faults:
            if spec.matches(pid, self.seed):
                return spec
        return None

    def check(self, pid: str, attempt: int) -> None:
        """Raise (or crash) when a non-cache fault fires here.

        Args:
            pid: project being computed.
            attempt: 1-based attempt number — a spec fires on attempts
                ``1..times`` only, which is what lets retry policies
                (and the pool-crash serial re-run, which counts as a
                later attempt) heal injected transient faults.
        """
        spec = self.spec_for(pid)
        if spec is None or spec.kind not in ("parse", "source", "crash") \
                or attempt > spec.times:
            return
        if spec.kind == "parse":
            raise ParseError(
                f"injected parse fault for {pid} (attempt {attempt})")
        if spec.kind == "source":
            raise TransientSourceError(
                f"injected transient source fault for {pid} "
                f"(attempt {attempt})")
        # crash: only a pool worker may genuinely die — in the parent
        # (serial mode, recovery re-run) that would kill the study.
        if in_pool_worker():
            os._exit(CRASH_EXIT_STATUS)
        raise EngineError(
            f"injected worker crash for {pid} (no pool worker to "
            f"kill; attempt {attempt})")

    def wants_cache_corruption(self, pid: str) -> bool:
        """True when this project's cache entry should be scribbled."""
        spec = self.spec_for(pid)
        return spec is not None and spec.kind == "cache"

    def parent_kind(self, pid: str) -> str | None:
        """The parent-side fault to fire when ``pid`` is dispatched.

        ``kill``/``enospc``/``interrupt`` faults act on the *run*, not
        on one mapped call, so the executor checks for them at probe
        time in the parent process (``times`` does not apply — a run
        only reaches each dispatch point once). Returns the kind, or
        ``None``.
        """
        spec = self.spec_for(pid)
        if spec is not None and spec.kind in PARENT_FAULT_KINDS:
            return spec.kind
        return None

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a spec string into a plan.

        Raises:
            EngineError: for malformed tokens.
        """
        seed = 0
        specs: list[FaultSpec] = []
        for token in text.split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[5:])
                except ValueError:
                    raise EngineError(
                        f"bad fault-plan seed {token!r}") from None
                continue
            kind, sep, rest = token.partition("@")
            if not sep or not rest or "#" in rest:
                raise EngineError(
                    f"bad fault token {token!r}: expected "
                    f"KIND@TARGET[*TIMES]")
            times = 1
            if "*" in rest and not rest.endswith("*"):
                rest, _, times_text = rest.rpartition("*")
                try:
                    times = int(times_text)
                except ValueError:
                    raise EngineError(
                        f"bad fault repeat count in {token!r}") \
                        from None
            specs.append(FaultSpec(kind=kind, target=rest, times=times))
        return cls(seed=seed, faults=tuple(specs))

    def __bool__(self) -> bool:
        return bool(self.faults)
