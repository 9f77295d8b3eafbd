"""Plan execution: serial and process-parallel backends, timing report.

:func:`execute_plan` walks a :class:`~repro.engine.stage.StudyPlan` in
topological order. Ordinary stages run in-process; :class:`MapStage`
input may be any iterable — including a lazily enumerated
:class:`~repro.engine.stream.HandleStream` — consumed one item at a
time: each item is served from the content-addressed cache when
possible, and misses are either computed serially or accumulated into
pickled chunks fanned out over a ``ProcessPoolExecutor``
(``config.jobs``) under a bounded in-flight window (~2×jobs chunks
outstanding; a full window stops the input iterator), so parent-side
memory stays flat at any corpus size. Per-stage wall-clock timings and
:mod:`repro.obs` counters are collected into an :class:`ExecutionReport`,
which is also the run's ledger row.

Map stages are fault-tolerant: every item runs under the config's
:class:`~repro.engine.faults.ErrorPolicy` (fail fast / skip / retry
with backoff), each in-flight chunk is bounded by
``config.stage_timeout``, and a dead worker pool (``BrokenProcessPool``)
triggers serial re-execution of the unfinished chunks instead of
killing the run — the run is then marked *degraded*. Quarantined
projects surface as :class:`~repro.engine.faults.ProjectFailure`
records on the report; downstream stages see only the survivors,
exactly as the paper computes over the 151 survivors of its 195 mined
histories.

Execution state (pool, cache, ledger) is owned by an
:class:`~repro.engine.session.EngineSession`: pass one to
:func:`execute_plan` to keep the pool and the cache's hot layer warm
across runs; omit it and a throwaway session is opened and closed
around the call, reproducing the historical one-shot behavior exactly.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import time
from collections import Counter, deque
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from typing import Any, Callable, Mapping, Sequence

from repro import obs
from repro.engine.cache import MISS, fingerprint
from repro.engine.config import StudyConfig
from repro.engine.faults import (
    KILL_EXIT_STATUS,
    ErrorPolicy,
    FaultPlan,
    ProjectFailure,
    item_id,
)
from repro.engine.interrupt import InterruptGuard, interrupt_guard
from repro.engine.journal import JournalReplay, RunJournal, load_replay, \
    new_run_id
from repro.engine.session import (
    EngineSession,
    HotResultCache,
    source_session_key,
)
from repro.engine.stage import MapStage, StudyPlan
from repro.errors import EngineError, RunInterrupted

#: The counter columns of ``--timings``: header, the counters the cell
#: shows, and its format. A cell whose counters are all zero shows "-".
COLUMNS = (
    ("cache", ("cache_hits", "cache_misses"), "{} hit / {} miss"),
    ("parse memo", ("parse_hits", "parse_misses"), "{} hit / {} miss"),
    ("heartbeat kernel", ("kernel_series", "kernel_reuse"),
     "{} built / {} reuse"),
    ("pack", ("pack_rows",), "{} row"),
    ("delta", ("delta_appended", "delta_rewritten", "delta_reused",
               "delta_parsed"), "{} app / {} rew / {} reuse / {} parse"),
    ("faults", ("failures", "retries"), "{} fail / {} retry"),
)

#: The hot layer's counters, which a run's cache cell appends.
HOT_COUNTERS = ("hot_hits", "hot_misses", "evictions")

#: Counters every run reports, zero or not, each one a ledger key.
RUN_COUNTERS = (*(name for _, names, _ in COLUMNS for name in names),
                *HOT_COUNTERS, "quarantined", "pruned", "write_failures",
                "pool_spawns")


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock time and counters of one executed stage.

    Attributes:
        stage: stage name.
        seconds: wall-clock duration of the stage.
        items: mapped item count (map stages; None otherwise).
        chunk_size: items per pickled work chunk the executor chose
            (0 for serial execution and non-map stages).
        counters: every :mod:`repro.obs` counter the stage moved,
            summed over the parent and its worker processes; a counter
            the stage did not move is absent. :data:`COLUMNS` lists the
            ones ``--timings`` shows.
    """

    stage: str
    seconds: float
    items: int | None = None
    chunk_size: int = 0
    counters: Mapping[str, int] = field(default_factory=dict)


@dataclass
class ExecutionReport:
    """One plan execution: what it ran on, what it did, how it went.

    The report is the run's ledger row (:meth:`to_dict`), and
    ``session.runs`` holds one per execution.

    Attributes:
        timings: one :class:`StageTiming` per executed stage; an
            interrupted run's last one covers the part of the map stage
            it stopped in.
        failures: every project quarantined during the run: those the
            feed lost before the plan saw them (handle-stage failures)
            first, then stage then item order (empty under the default
            fail-fast policy, which raises instead).
        degraded: True when the process pool died or timed out and the
            run fell back to serial re-execution for part of the work.
        counters: every counter a stage moved, summed over the stages,
            each of :data:`RUN_COUNTERS` present zero or not
            (``failures`` counts :attr:`failures`, the feed's too), and
            the journal's ``journal_chunks`` (chunks journaled as
            durable), ``journal_replayed`` (prior-run chunks a
            ``--resume`` run served from the cache) and
            ``journal_replayed_items``. Each reads as an attribute too:
            ``report.cache_hits``.
        run_uid: journal id of this execution (``""`` without a cache
            dir — no journal is kept then); ``--resume`` takes this id.
        resumed_from: journal id the run resumed, or ``None``.
        journal_degraded: the journal could not be written and fell
            back to memory-only.
        run_id: 1-based position in its session's ledger.
        started: UTC ISO-8601 timestamp the execution began.
        seconds: wall-clock duration of the whole execution.
        source_fingerprint: content identity of what was studied.
        config: the run's execution parameters (ledger summary).
        result_digest: stable digest of the run's study records.
        interrupted: the run was stopped by SIGINT/SIGTERM after a
            graceful drain.
    """

    timings: list[StageTiming] = field(default_factory=list)
    failures: list[ProjectFailure] = field(default_factory=list)
    degraded: bool = False
    counters: dict[str, int] = field(default_factory=dict)
    run_uid: str = ""
    resumed_from: str | None = None
    journal_degraded: bool = False
    run_id: int = 0
    started: str = ""
    seconds: float = 0.0
    source_fingerprint: str = ""
    config: dict = field(default_factory=dict)
    result_digest: str = ""
    interrupted: bool = False

    def __getattr__(self, name: str) -> int:
        # Only reached for names that are not real attributes.
        try:
            return self.__dict__["counters"][name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute "
                f"{name!r}") from None

    @property
    def total_seconds(self) -> float:
        """Wall-clock total over all stages."""
        return sum(t.seconds for t in self.timings)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of mapped items served from the result cache."""
        hits = self.counters.get("cache_hits", 0)
        total = hits + self.counters.get("cache_misses", 0)
        return hits / total if total else 0.0

    def to_dict(self) -> dict:
        """The report as its JSON-serializable ledger row: every counter
        but ``journal_replayed_items`` is a key of its own, and
        ``failures`` holds the failure summaries."""
        counters = dict(self.counters)
        counters.pop("journal_replayed_items", None)
        return {
            "run_id": self.run_id,
            "started": self.started,
            "seconds": round(self.seconds, 6),
            "source_fingerprint": self.source_fingerprint,
            "config": self.config,
            "stages": [_timing_dict(t) for t in self.timings],
            "items": sum(t.items or 0 for t in self.timings),
            **counters,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "failures": [f.summary() for f in self.failures],
            "degraded": self.degraded,
            "result_digest": self.result_digest,
            "run_uid": self.run_uid,
            "interrupted": self.interrupted,
            "resumed_from": self.resumed_from,
        }

    def format_delta_summary(self) -> str:
        """One line of delta accounting for a refresh run.

        ``unchanged`` counts the map items the result cache served —
        projects whose fingerprint (and therefore content) did not
        move since the last run and that no code path re-examined.
        """
        return (f"delta: {self.cache_hits} unchanged / "
                f"{self.delta_appended} appended / "
                f"{self.delta_rewritten} rewritten; "
                f"versions: {self.delta_reused} reused / "
                f"{self.delta_parsed} parsed")

    def timing(self, stage: str) -> StageTiming:
        """The timing entry of one stage.

        Raises:
            EngineError: when the stage did not execute.
        """
        for entry in self.timings:
            if entry.stage == stage:
                return entry
        raise EngineError(f"no timing recorded for stage {stage!r}")

    def format_table(self) -> str:
        """The timings as an aligned text table."""
        from repro.viz.tables import format_table

        rows = [[entry.stage, f"{entry.seconds * 1000:.1f} ms",
                 "-" if entry.items is None else entry.items,
                 entry.chunk_size or "-", *_cells(entry.counters)]
                for entry in self.timings]
        rows.append(["TOTAL", f"{self.total_seconds * 1000:.1f} ms",
                     "-", "-", *total_cells(self.counters)])
        title = "Execution report"
        if self.degraded:
            title += " (degraded: pool lost, partial serial fallback)"
        return format_table(
            ["stage", "time", "items", "chunk",
             *(header for header, _, _ in COLUMNS)], rows, title=title)


def _cells(counters: Mapping[str, int]) -> list[str]:
    """The :data:`COLUMNS` cells of one ``--timings`` row; a counter
    that is absent reads as 0."""
    cells = []
    for _, names, form in COLUMNS:
        values = [counters.get(name, 0) for name in names]
        cells.append(form.format(*values) if any(values) else "-")
    return cells


def total_cells(counters: Mapping[str, int]) -> list[str]:
    """The :data:`COLUMNS` cells of a run's totals, the cache cell
    followed by the hot layer's counts when any moved: the ``--timings``
    TOTAL row and each ``repro-schema ledger`` row."""
    cells = _cells(counters)
    hot = [counters.get(name, 0) for name in HOT_COUNTERS]
    if any(hot):
        cells[0] += " [hot {}/{}, evict {}]".format(*hot)
    return cells


class _Broadcast:
    """A map stage's extras (source, scheme, delta store), pickled once
    per stage and unpickled once per worker process, which keeps the
    last stage's by token (counted as ``extras_unpickled``)."""

    _tokens = itertools.count()

    def __init__(self, extras: tuple | None, token: str = "",
                 blob: bytes = b""):
        self.extras, self.blob = extras, blob
        self.token = token or f"{os.getpid()}-{next(self._tokens)}"

    def __reduce__(self) -> tuple:
        self.blob = self.blob or pickle.dumps(
            self.extras, protocol=pickle.HIGHEST_PROTOCOL)
        return _Broadcast, (None, self.token, self.blob)

    def get(self) -> tuple:
        global _received
        if self.extras is None:
            if _received[0] != self.token:
                obs.count("extras_unpickled")
                _received = (self.token, pickle.loads(self.blob))
            self.extras = _received[1]
        return self.extras


_received: tuple = ("", ())


def _invoke_map(fn: Callable, extras: _Broadcast, stage_name: str,
                policy: ErrorPolicy, faults: FaultPlan | None,
                attempt_base: int, item: Any
                ) -> tuple[Any, dict[str, int]]:
    """Apply a map stage to one item (module-level: must pickle).

    Runs the item under the error policy: a capturing policy (skip /
    retry) turns exceptions into :class:`ProjectFailure` payloads —
    retrying transient source errors with backoff first, each retry
    counted as ``retries`` — while the fail-fast policy lets them
    propagate exactly as before the fault layer existed.
    ``attempt_base`` offsets the attempt number the fault plan sees, so
    a pool-crash serial re-run counts as a later attempt and injected
    one-shot faults do not re-fire.

    Returns the result or failure record and the :mod:`repro.obs`
    counters the call moved (how worker processes ship their counters
    home).
    """
    before = obs.snapshot()
    attempt = 0
    while True:
        attempt += 1
        try:
            if faults is not None:
                faults.check(item_id(item), stage_name,
                             attempt_base + attempt)
            payload = fn(item, *extras.get())
            break
        except Exception as exc:
            if not policy.captures:
                raise
            if attempt < policy.attempts_for(exc):
                obs.count("retries")
                delay = policy.backoff_seconds(item_id(item), attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            payload = ProjectFailure.from_exception(
                item_id(item), stage_name, exc, attempts=attempt)
            break
    return payload, obs.since(before)


def _invoke_chunk(invoke: Callable, items: list) -> list:
    """Run one pickled chunk of map items in a worker process."""
    return [invoke(item) for item in items]


#: Chunks allowed in flight per worker — the backpressure bound. The
#: parent holds at most ``WINDOW_PER_JOB * jobs + 1`` chunks of items
#: at any moment, however large the source is.
WINDOW_PER_JOB = 2


def _auto_chunk(total: int | None, jobs: int) -> int:
    """Items per pickled chunk.

    With a known item total: ~4 chunks per worker, so pickling
    overhead amortizes while the pool stays load-balanced. For
    unsized streams: a fixed jobs-scaled size — the bounded window
    keeps every worker fed regardless.
    """
    if total is None:
        return max(1, jobs * 4)
    return max(1, math.ceil(total / (jobs * 4)))


def _count_hint(items: Any) -> int | None:
    """A cheap item total for chunk sizing, or ``None`` (unsized)."""
    try:
        return len(items)
    except TypeError:
        pass
    count = getattr(items, "count", None)
    if callable(count):
        try:
            return count()
        except Exception:
            return None
    return None


@dataclass
class _MapOutcome:
    """Everything one map-stage execution produced; an ``interrupted``
    one stopped early and hands downstream no values."""

    values: list
    count: int
    shipped: Counter
    failures: list[ProjectFailure]
    degraded: bool
    chunk_size: int = 0
    interrupted: bool = False


def _run_map_stage(stage: MapStage, items: Any, extras: tuple,
                   config: StudyConfig,
                   cache: HotResultCache | None,
                   session: EngineSession,
                   journal: RunJournal | None = None,
                   replay: JournalReplay | None = None,
                   guard: InterruptGuard | None = None) -> _MapOutcome:
    """Execute one map stage under the config's error policy.

    ``items`` is any iterable — a list or a lazily enumerated
    :class:`~repro.engine.stream.HandleStream` — consumed exactly
    once, one item at a time: each item is probed against the cache
    and, on a miss, accumulated into the current work chunk. At most
    ``WINDOW_PER_JOB * jobs`` chunks are in flight at once; when the
    window is full the input iterator is simply not advanced until
    the oldest chunk is harvested, so peak parent-side memory is
    bounded by the window whatever the corpus size (results of
    course still accumulate — they are the stage's output).

    ``values`` holds only the surviving results, in item order —
    quarantined items are dropped so downstream stages compute over
    the survivors. The stage's own accounting — ``cache_hits``,
    ``cache_misses``, ``failures`` — is counted in :mod:`repro.obs`
    here in the parent; ``shipped`` sums the counters that moved in
    worker processes (invisible to this process's registry).

    Items per pickled chunk are ``config.chunk_size`` when set, else
    :func:`_auto_chunk` of the feed's :func:`_count_hint`.

    The worker pool comes from (and stays with) ``session``, spawned
    lazily on the first submitted chunk — a fully warm run never
    touches it. It is only discarded — never shut down inline — when
    it breaks or a timed-out chunk forces an abandon, so healthy
    pools survive the stage and serve the next one warm. Fault
    semantics are unchanged from the eager executor: a capturing
    policy quarantines a timed-out chunk and keeps harvesting, a
    ``BrokenProcessPool`` harvests finished chunks and re-runs all
    unfinished work serially at the next attempt number, and the
    fail-fast policy propagates.

    Durability: every harvested chunk of *computed* work is appended
    to ``journal`` (cache hits are already durable and never
    journaled), and ``replay`` marks journaled keys the cache served
    back on a ``--resume`` run. ``guard`` is the graceful-shutdown
    flag: it is checked before each new item is dispatched, so an
    interrupt stops new work, drains the chunks that already finished
    (caching + journaling their results) and cancels the rest, and the
    stage returns an ``interrupted`` outcome of what it did so far.
    """
    policy = config.error_policy
    faults = config.faults
    broadcast = _Broadcast(extras)
    probe_cache = cache is not None and stage.cache_key_fn is not None
    results: dict[int, Any] = {}
    keys: dict[int, str] = {}
    digests: dict[int, str | None] = {}
    jkeys: dict[int, str | None] = {}
    failures: list[ProjectFailure] = []
    degraded = False
    shipped: Counter = Counter()
    total = 0

    def parent_fault(item: Any) -> None:
        """Fire run-level injected faults at this item's dispatch."""
        kind = faults.parent_kind(item_id(item), stage.name)
        if kind is None:
            return
        if kind == "kill":
            # A deterministic in-process `kill -9`: no drain, no
            # journal end record, no ledger row — exactly what the
            # resume path must recover from.
            os._exit(KILL_EXIT_STATUS)
        elif kind == "interrupt" and guard is not None:
            guard.trigger(f"injected interrupt at {item_id(item)}")
        elif kind == "enospc":
            if cache is not None:
                cache.deny_writes()
            if journal is not None:
                journal.deny_writes()

    def probe(index: int, item: Any) -> bool:
        """Serve ``item`` from cache; True when it still needs work."""
        if faults is not None:
            parent_fault(item)
        if not probe_cache:
            obs.count("cache_misses")
            return True
        key = stage.cache_key_fn(item, extras)
        if faults is not None and faults.wants_cache_corruption(
                item_id(item), stage.name):
            cache.corrupt_entry(key)
        value = cache.get(key)
        if value is MISS:
            keys[index] = key
            obs.count("cache_misses")
            return True
        results[index] = value
        obs.count("cache_hits")
        if replay is not None and replay.contains(key):
            replay.mark(key)
        return False

    def absorb(index: int, outcome: tuple, from_worker: bool) -> None:
        payload, moved = outcome
        if from_worker:
            shipped.update(moved)
        results[index] = payload
        if isinstance(payload, ProjectFailure):
            failures.append(payload)
        else:
            key = keys.pop(index, None)
            if key is not None:
                jkeys[index] = key
                digests[index] = cache.put(key, payload)

    def journal_chunk(positions: list[int], outbound: list) -> None:
        """Journal one harvested chunk's computed survivors."""
        if journal is None:
            return
        entries = []
        for index, item in zip(positions, outbound):
            if isinstance(results.get(index), ProjectFailure):
                continue
            entries.append((item_id(item), jkeys.get(index),
                            digests.get(index)))
        journal.chunk(stage.name, entries)

    def land(positions: list[int], outbound: list,
             outcomes: list) -> None:
        """Absorb one finished worker chunk and journal it."""
        for index, outcome in zip(positions, outcomes):
            absorb(index, outcome, True)
        journal_chunk(positions, outbound)

    chosen_chunk = 0
    try:
        if config.jobs > 1:
            chunk = config.chunk_size \
                or _auto_chunk(_count_hint(items), config.jobs)
            chosen_chunk = chunk
            window = WINDOW_PER_JOB * config.jobs
            worker = partial(_invoke_map, stage.fn, broadcast, stage.name,
                             policy, faults, 0)
            pool = None
            inflight: deque[tuple[list[int], list, Any]] = deque()
            backlog: list[tuple[int, Any]] = []
            buffer: list[tuple[int, Any]] = []
            broken = False
            abandoned = False
            harvested = False

            def submit_buffer() -> None:
                """Ship the accumulated chunk, or backlog it (dead pool)."""
                nonlocal pool, broken, degraded
                if not buffer:
                    return
                positions = [index for index, _ in buffer]
                outbound = [item for _, item in buffer]
                buffer.clear()
                if broken or abandoned:
                    backlog.extend(zip(positions, outbound))
                    return
                try:
                    if pool is None:
                        pool = session.pool(config.jobs)
                    future = pool.submit(_invoke_chunk, worker, outbound)
                except BrokenProcessPool:
                    # A reused pool can die while idle between stages;
                    # backlog this chunk, then triage what was in flight.
                    broken = True
                    degraded = True
                    backlog.extend(zip(positions, outbound))
                    while inflight:
                        harvest_oldest()
                    return
                inflight.append((positions, outbound, future))

            def harvest_oldest() -> None:
                """Absorb the oldest in-flight chunk (FIFO, as submitted)."""
                nonlocal broken, abandoned, degraded
                positions, outbound, future = inflight.popleft()
                if broken:
                    # The pool is dead; harvest chunks that finished
                    # before the crash, re-run the rest serially.
                    if future.done() and not future.cancelled() \
                            and future.exception() is None:
                        land(positions, outbound, future.result())
                    else:
                        backlog.extend(zip(positions, outbound))
                    return
                try:
                    outcomes = future.result(timeout=config.stage_timeout)
                except FuturesTimeout:
                    degraded = True
                    abandoned = True
                    if not policy.captures:
                        raise EngineError(
                            f"stage {stage.name!r}: a work chunk of "
                            f"{len(positions)} items did not finish "
                            f"within {config.stage_timeout}s") from None
                    for index, item in zip(positions, outbound):
                        failure = ProjectFailure(
                            project=item_id(item),
                            stage=stage.name,
                            error_type="TimeoutError",
                            message=f"work chunk exceeded the "
                                    f"{config.stage_timeout}s "
                                    f"stage timeout")
                        results[index] = failure
                        failures.append(failure)
                    return
                except BrokenProcessPool:
                    broken = True
                    degraded = True
                    backlog.extend(zip(positions, outbound))
                    return
                land(positions, outbound, outcomes)

            try:
                for item in items:
                    if guard is not None:
                        guard.check()
                    index = total
                    total += 1
                    if not probe(index, item):
                        continue
                    buffer.append((index, item))
                    if len(buffer) >= chunk:
                        submit_buffer()
                        # Backpressure: a full window stops the iterator
                        # until the oldest chunk comes home.
                        while len(inflight) >= window:
                            harvest_oldest()
                if guard is not None:
                    guard.check()
                submit_buffer()
                while inflight:
                    harvest_oldest()
                harvested = True
            except RunInterrupted:
                # Graceful shutdown: stop dispatching, drain the chunks
                # that already finished — their results are real work, so
                # cache and journal them — and cancel everything else.
                while inflight:
                    positions, outbound, future = inflight.popleft()
                    if future.done() and not future.cancelled() \
                            and future.exception() is None:
                        land(positions, outbound, future.result())
                    else:
                        future.cancel()
                raise
            finally:
                if broken or abandoned:
                    # Dead or stuck pools cannot be reused: discard so
                    # the session respawns a fresh one on next use. A
                    # timed-out chunk's worker cannot be interrupted —
                    # abandon it rather than blocking on it.
                    session.discard_pool(wait=False)
                elif not harvested:
                    # A propagating exception (fail-fast item error):
                    # the pool itself is healthy — cancel what has not
                    # started and keep it for the next run.
                    for _, _, future in inflight:
                        future.cancel()
            if backlog:
                # Pool-crash / abandon recovery: finish in-process, one
                # attempt later than the pool pass so one-shot injected
                # crashes do not re-fire.
                recover = partial(_invoke_map, stage.fn, broadcast,
                                  stage.name, policy, faults, 1)
                for index, item in backlog:
                    if guard is not None:
                        guard.check()
                    absorb(index, recover(item), False)
                journal_chunk([index for index, _ in backlog],
                              [item for _, item in backlog])
        else:
            invoke = partial(_invoke_map, stage.fn, broadcast, stage.name,
                             policy, faults, 0)
            for item in items:
                if guard is not None:
                    guard.check()
                index = total
                total += 1
                if probe(index, item):
                    absorb(index, invoke(item), False)
                    # Serial chunks are single items: each computed item
                    # becomes durable (and resumable) as soon as it lands.
                    journal_chunk([index], [item])
    except RunInterrupted:
        # The stop landed in this stage: report what it did so far —
        # the items taken from the feed (each one hit or one miss),
        # the counters its drained chunks shipped home and the
        # failures it quarantined.
        obs.count("failures", len(failures))
        return _MapOutcome(values=[], count=total, shipped=shipped,
                           failures=failures, degraded=degraded,
                           chunk_size=chosen_chunk, interrupted=True)

    obs.count("failures", len(failures))
    if failures and len(failures) == total:
        summary = "; ".join(f.summary() for f in failures[:3])
        raise EngineError(
            f"stage {stage.name!r}: all {total} items failed "
            f"({summary}{', ...' if len(failures) > 3 else ''})")
    values = [results[index] for index in range(total)
              if not isinstance(results[index], ProjectFailure)]
    return _MapOutcome(values=values, count=total, shipped=shipped,
                       failures=failures, degraded=degraded,
                       chunk_size=chosen_chunk)


def _early_fingerprint(inputs: Mapping[str, Any]) -> str | None:
    """The studied source's identity *before* any work has run.

    The journal's ``begin`` record needs a source identity up front,
    but :func:`_source_fingerprint`'s stream-digest fallback is only
    valid after the handles are consumed. The cheap session key covers
    every source-driven plan; identity-less inputs journal ``None``
    and skip the resume source check.
    """
    source = inputs.get("source")
    if source is not None:
        return source_session_key(source)
    return None


def _source_fingerprint(inputs: Mapping[str, Any]) -> str:
    """A stable content identity of what a plan execution studied.

    Prefers the source's own session key, then the handle fingerprints,
    then the analysed record names — each a cheap, already-available
    proxy for the studied content.
    """
    source = inputs.get("source")
    if source is not None:
        key = source_session_key(source)
        if key is not None:
            return key
    handles = inputs.get("handles")
    if handles is not None:
        # A consumed HandleStream cannot be re-iterated; its running
        # digest over every (pid, fingerprint) pair stands in.
        stream_digest = getattr(handles, "stream_digest", None)
        if stream_digest is not None:
            return stream_digest()
        if handles:
            return fingerprint("run-handles",
                               [(h.pid, h.fingerprint)
                                for h in handles])
    records = inputs.get("records")
    if records:
        return fingerprint("run-records",
                           [item_id(record) for record in records])
    return fingerprint("run-inputs", sorted(inputs))


def _result_digest(results: Mapping[str, Any]) -> str:
    """A stable digest of a run's study records (ledger lineage).

    Two executions over the same data and code digest identically —
    the ledger-level form of the golden-equivalence guarantee. Plans
    without a ``records`` stage digest their stage names.
    """
    records = results.get("records")
    if records:
        return fingerprint("run-records", [
            (item_id(record),
             getattr(getattr(record, "pattern", None), "value", None),
             getattr(record, "is_exception", None))
            for record in records])
    return fingerprint("run-stages", sorted(results))


def _config_summary(config: StudyConfig) -> dict:
    """The config fields worth keeping in a ledger entry."""
    return {
        "seed": config.seed,
        "jobs": config.jobs,
        "source": config.source,
        "cache_dir": str(config.cache_dir)
        if config.cache_dir is not None else None,
        "chunk_size": config.chunk_size,
        "sample": config.sample,
        "stratified": config.stratified,
        "on_error": config.error_policy.mode,
        "stage_timeout": config.stage_timeout,
        "resume_from": config.resume_from,
    }


def execute_plan(plan: StudyPlan, inputs: Mapping[str, Any],
                 config: StudyConfig | None = None,
                 session: EngineSession | None = None,
                 feed_failures: Sequence[ProjectFailure] = ()
                 ) -> tuple[dict[str, Any], ExecutionReport]:
    """Execute every stage of ``plan`` and return all stage results.

    Args:
        plan: the stage DAG.
        inputs: initial values available to stages (by name).
        config: execution configuration; defaults to serial/no-cache.
        session: the engine session owning pool, warm cache and run
            ledger. ``None`` opens a throwaway session around this one
            call — identical to the historical per-call behavior.
        feed_failures: projects quarantined before they reached the
            plan (a handle stream's fingerprint failures). The list is
            read after the last stage, so a stream that fills it while
            the map consumes it is complete by then; its entries lead
            ``report.failures`` and the ledger row's failures.

    Returns:
        ``(results, report)`` — results maps every input and stage name
        to its value; the report carries per-stage timings, run
        counters, quarantined :class:`ProjectFailure` records and the
        degraded-run flag.

    Raises:
        EngineError: for invalid plans (unknown inputs, cycles), or —
            under the fail-fast policy — whatever a stage raised.
        RunInterrupted: the run was stopped by SIGINT/SIGTERM (or an
            injected ``interrupt`` fault) — completed chunks were
            drained, journal and ledger were flushed, and the ledger
            row is marked ``interrupted`` before this propagates.
    """
    config = config or StudyConfig()
    if session is None:
        with EngineSession(config) as owned:
            return execute_plan(plan, inputs, config, session=owned,
                                feed_failures=feed_failures)
    cache = session.cache_for(config.cache_dir)
    run_started = time.perf_counter()
    results: dict[str, Any] = dict(inputs)
    report = ExecutionReport(
        started=datetime.now(timezone.utc).isoformat(),
        config=_config_summary(config), resumed_from=config.resume_from)
    order = plan.execution_order(tuple(inputs))
    # Durability: runs with a cache dir journal every completed chunk
    # (so a killed run resumes instead of recomputing) and resumes
    # load the interrupted run's journal as a replay set. The run id
    # is operational metadata only — it never feeds cache keys or
    # study output, so randomness here cannot perturb reproducibility.
    run_uid = new_run_id()
    journal: RunJournal | None = None
    replay: JournalReplay | None = None
    if config.cache_dir is not None:
        source_key = _early_fingerprint(inputs)
        if config.resume_from:
            replay = load_replay(config.cache_dir, config.resume_from)
            replay.verify_source(source_key)
        journal = RunJournal.begin(
            config.cache_dir, run_uid, source=source_key,
            config=report.config,
            resumed_from=config.resume_from)
    interrupted = False
    with interrupt_guard(run_uid if journal is not None
                         else None) as guard:
        for stage in order:
            if guard.requested:
                interrupted = True
                break
            started = time.perf_counter()
            before = obs.snapshot()
            shipped: Mapping[str, int] = {}
            items: int | None = None
            chunk_size = 0
            if isinstance(stage, MapStage):
                # The first input may be a lazily enumerated stream —
                # it is handed to the map stage as-is and consumed
                # exactly once, never materialized here.
                feed = results[stage.inputs[0]]
                extras = tuple(results[name] for name in stage.inputs[1:])
                outcome = _run_map_stage(stage, feed, extras, config,
                                         cache, session, journal=journal,
                                         replay=replay, guard=guard)
                value = outcome.values
                shipped = outcome.shipped
                report.failures.extend(outcome.failures)
                report.degraded = report.degraded or outcome.degraded
                items = outcome.count
                chunk_size = outcome.chunk_size
                interrupted = outcome.interrupted
            else:
                value = stage.fn(*(results[name]
                                   for name in stage.inputs))
            elapsed = time.perf_counter() - started
            # The stage's counters: what moved in this process (serial
            # maps, ordinary stages, the map's own accounting) plus what
            # the workers shipped home.
            counters = Counter(obs.since(before))
            counters.update(shipped)
            report.timings.append(StageTiming(
                stage=stage.name, seconds=elapsed, items=items,
                chunk_size=chunk_size, counters=dict(counters)))
            if interrupted:
                break
            results[stage.name] = value
    report.failures[:0] = feed_failures
    # Every counter of the run moved inside one of its stages, in this
    # thread or in a worker that shipped it home.
    totals = Counter(dict.fromkeys(RUN_COUNTERS, 0))
    for timing in report.timings:
        totals.update(timing.counters)
    # The TOTAL fault cell counts the feed's failures too.
    totals["failures"] = len(report.failures)
    totals["journal_chunks"] = journal.chunks if journal is not None else 0
    totals["journal_replayed"] = \
        replay.chunks_replayed if replay is not None else 0
    totals["journal_replayed_items"] = \
        replay.items_replayed if replay is not None else 0
    report.counters = dict(totals)
    report.run_uid = run_uid if journal is not None else ""
    if journal is not None:
        report.journal_degraded = journal.memory_only
        # Flush the run's fate before the ledger row: a crash between
        # the two leaves the journal resumable, never the other way.
        journal.mark("interrupted" if interrupted else "complete")
    report.run_id = len(session.runs) + 1
    report.seconds = time.perf_counter() - run_started
    report.source_fingerprint = _source_fingerprint(inputs)
    report.result_digest = _result_digest(results)
    report.interrupted = interrupted
    session.record_run(report, config.cache_dir)
    if interrupted:
        raise RunInterrupted(report.run_uid or None)
    return results, report


def _timing_dict(timing: StageTiming) -> dict:
    """One :class:`StageTiming` as a compact ledger dict: map stages
    always carry their cache split, every other counter shows only when
    the stage moved it."""
    entry: dict[str, Any] = {
        "stage": timing.stage,
        "ms": round(timing.seconds * 1000, 3),
    }
    if timing.items is not None:
        entry.update(items=timing.items, cache_hits=0, cache_misses=0)
    if timing.chunk_size:
        entry["chunk_size"] = timing.chunk_size
    entry.update(timing.counters)
    return entry
