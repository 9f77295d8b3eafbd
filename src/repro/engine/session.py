"""Engine sessions: the warm, reusable study runtime.

Every pre-session execution path was one-shot: ``execute_plan`` built a
fresh :class:`~repro.engine.cache.ResultCache` per call and the map
stage spawned (and tore down) a fresh ``ProcessPoolExecutor`` per
stage, so even a fully cached "warm" run paid pool-spawn and disk-read
costs every time. An :class:`EngineSession` owns that state for as
long as the caller wants to keep it — the resident-runtime shape the
query service and watch mode sit on:

* a **persistent worker pool** — lazily spawned on first parallel map,
  reused across stages and across study runs, transparently respawned
  after a ``BrokenProcessPool`` and discarded (never reused) after a
  stage-timeout abandon;
* **warm caches** — each ``cache_dir`` opens once per session as a
  :class:`HotResultCache`: the on-disk content-addressed store fronted
  by a bounded in-memory LRU of *deserialized* values, so repeat hits
  skip the disk read, the envelope checksum and the unpickle entirely;
* a **source-handle registry** — a lightweight source's project ids
  and fingerprints are enumerated once per session (git walks, corpus
  manifests) and reused on re-study, keyed by the source's content
  identity;
* a **run ledger** — ``session.runs`` records every plan execution
  (source fingerprint, config, stage timings, cache hit rates,
  parse-memo/kernel counters, failures, result digest) and appends the
  same record as JSONL to ``<cache_dir>/ledger.jsonl``, giving
  operated deployments their "what ran, on what data, how fast, what
  broke" story.

Lifecycle is context-manager or explicit :meth:`EngineSession.close`;
a module-level ``atexit`` guard shuts down any pool a crashed or
interrupted process left behind, so CLI runs never leak workers.
Sessions assume their sources are stable for their lifetime — the
watch-mode work will add invalidation.
"""

from __future__ import annotations

import atexit
import json
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.engine.cache import MISS, ResultCache, fingerprint
from repro.engine.config import StudyConfig
from repro.engine.faults import mark_pool_worker
from repro.engine.lock import CacheLock, append_line
from repro.errors import EngineError
from repro.pools import pool_context

#: Default bound of a session cache's in-memory hot layer (entries).
DEFAULT_HOT_ENTRIES = 4096

#: File name of the persisted run ledger inside a cache directory.
LEDGER_NAME = "ledger.jsonl"


def source_session_key(source: Any) -> str | None:
    """The session-registry key of a history source, or ``None``.

    Sources that can describe their content identity cheaply (an
    ``identity()`` method returning canonicalizable parts — seed and
    population for synthetic corpora, manifest digest for corpus
    directories, HEAD sha for git checkouts) are keyed by its
    fingerprint; anything else (in-memory adapters) returns ``None``
    and is never registry-cached.
    """
    identity = getattr(source, "identity", None)
    if identity is None:
        return None
    return fingerprint("session-source", type(source).__name__,
                       identity())


class HotResultCache:
    """A :class:`ResultCache` fronted by an in-memory LRU hot layer.

    The disk store stays the source of truth (shared, content
    addressed, self-healing); the hot layer is a bounded
    ``OrderedDict`` of already-deserialized values so a warm hit costs
    one dict lookup instead of a file read + checksum + unpickle.
    Everything the executor calls on a plain :class:`ResultCache`
    works here unchanged.

    Args:
        root: cache directory (as for :class:`ResultCache`).
        hot_entries: LRU bound; 0 disables the hot layer entirely.

    Attributes:
        disk: the underlying on-disk cache.
        hot_hits: gets served straight from memory.
        hot_misses: gets that had to consult the disk store.
        evictions: entries dropped by the LRU bound.
    """

    def __init__(self, root: str | Path,
                 hot_entries: int = DEFAULT_HOT_ENTRIES):
        self.disk = ResultCache(root)
        self.hot_entries = hot_entries
        self._hot: OrderedDict[str, Any] = OrderedDict()
        self.hot_hits = 0
        self.hot_misses = 0
        self.evictions = 0

    @property
    def root(self) -> Path:
        """The disk store's directory."""
        return self.disk.root

    @property
    def quarantined(self) -> int:
        """Corrupt disk entries quarantined (delegated)."""
        return self.disk.quarantined

    @property
    def pruned(self) -> int:
        """Quarantine entries removed by the cap (delegated)."""
        return self.disk.pruned

    @property
    def write_failures(self) -> int:
        """Disk stores the filesystem refused (delegated)."""
        return self.disk.write_failures

    @property
    def degraded_writes(self) -> bool:
        """True once the disk layer started refusing stores."""
        return self.disk.degraded_writes

    def deny_writes(self) -> None:
        """Fault hook: the disk layer refuses all further stores.

        The hot layer keeps remembering, so an ENOSPC run completes
        memory-only with identical output.
        """
        self.disk.deny_writes()

    def _remember(self, key: str, value: Any) -> None:
        if self.hot_entries <= 0:
            return
        self._hot[key] = value
        self._hot.move_to_end(key)
        while len(self._hot) > self.hot_entries:
            self._hot.popitem(last=False)
            self.evictions += 1

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`~.cache.MISS`.

        Hot-layer hits return the same deserialized object the last
        consumer saw — derived lazy state (re-materialized parse
        caches) rides along, which only makes warm runs warmer.
        """
        if key in self._hot:
            self._hot.move_to_end(key)
            self.hot_hits += 1
            return self._hot[key]
        self.hot_misses += 1
        value = self.disk.get(key)
        if value is not MISS:
            self._remember(key, value)
        return value

    def put(self, key: str, value: Any) -> str | None:
        """Store ``value`` in both layers (disk write is best-effort).

        Returns the disk payload digest, or ``None`` when the disk
        refused — the hot copy still serves this session.
        """
        self._remember(key, value)
        return self.disk.put(key, value)

    def corrupt_entry(self, key: str) -> bool:
        """Scribble the disk entry AND evict the hot copy.

        Fault injection must observe real corruption semantics — a hot
        copy serving the old value would mask the injected fault.
        """
        self._hot.pop(key, None)
        return self.disk.corrupt_entry(key)

    def forget_hot(self) -> None:
        """Drop the whole hot layer (tests; memory pressure)."""
        self._hot.clear()

    def __contains__(self, key: str) -> bool:
        return key in self._hot or key in self.disk

    def __len__(self) -> int:
        return len(self.disk)


@dataclass(frozen=True)
class RunRecord:
    """One ledger entry: everything one plan execution was and did.

    Attributes:
        run_id: 1-based position in this session's ledger.
        started: UTC ISO-8601 timestamp the execution began.
        seconds: wall-clock duration of the whole execution.
        source_fingerprint: content identity of what was studied (the
            source's session key, or a digest of the handles/items).
        config: the run's execution parameters (jobs, seed, source
            spec, cache dir, error policy, ...).
        stages: per-stage timing/cache/fault numbers, one dict per
            executed stage.
        items: mapped items over all map stages.
        counters: the run's counter totals, one ledger key each, zero
            or not: ``cache_hits``/``cache_misses``, the hot layer's
            ``hot_hits``/``hot_misses``/``evictions``, ``parse_*``,
            ``kernel_*``, ``pack_rows``, ``delta_*``, ``retries``,
            ``quarantined``, ``pool_spawns`` (0 on a fully warm run —
            the headline service-shape number), ``journal_chunks``/
            ``journal_replayed``, ``write_failures`` and ``pruned``
            (see :class:`~repro.engine.executor.ExecutionReport`).
        failures: quarantined-project summaries, in failure order.
        degraded: the run lost its pool or timed out a chunk.
        result_digest: stable digest of the run's study records, for
            byte-identical-across-runs assertions and lineage.
        run_uid: the run's journal id (``""`` when no cache dir, hence
            no journal); ``--resume`` takes this id.
        interrupted: the run was stopped by SIGINT/SIGTERM after a
            graceful drain (its journal lists what completed).
        resumed_from: journal id of the interrupted/killed run this one
            resumed, or ``None`` for a fresh run.
    """

    run_id: int
    started: str
    seconds: float
    source_fingerprint: str
    config: dict
    stages: tuple[dict, ...]
    items: int
    counters: Mapping[str, int]
    failures: tuple[str, ...]
    degraded: bool
    result_digest: str
    run_uid: str = ""
    interrupted: bool = False
    resumed_from: str | None = None

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of mapped items served from the result cache."""
        hits = self.counters.get("cache_hits", 0)
        total = hits + self.counters.get("cache_misses", 0)
        return hits / total if total else 0.0

    def to_dict(self) -> dict:
        """The record as one JSON-serializable dict (ledger line)."""
        return {
            "run_id": self.run_id,
            "started": self.started,
            "seconds": round(self.seconds, 6),
            "source_fingerprint": self.source_fingerprint,
            "config": self.config,
            "stages": list(self.stages),
            "items": self.items,
            **self.counters,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "failures": list(self.failures),
            "degraded": self.degraded,
            "result_digest": self.result_digest,
            "run_uid": self.run_uid,
            "interrupted": self.interrupted,
            "resumed_from": self.resumed_from,
        }


#: Sessions whose pools the atexit guard still has to reap.
_live_sessions: "weakref.WeakSet[EngineSession]" = weakref.WeakSet()


@atexit.register
def _reap_live_sessions() -> None:
    """Interpreter-exit guard: no session may leak worker processes.

    Interrupted CLI runs (SIGINT between stages, sys.exit from argparse)
    never call :meth:`EngineSession.close`; this sweeps whatever is
    left, without blocking exit on in-flight work.
    """
    for session in list(_live_sessions):
        session._shutdown_pool(wait=False, cancel=True)


class EngineSession:
    """The long-lived runtime state shared across study executions.

    Args:
        config: default execution configuration for runs driven through
            this session's convenience entry points; individual
            ``execute_plan`` calls may still pass their own config.
        hot_entries: LRU bound of each cache's in-memory hot layer.

    Attributes:
        runs: the in-memory run ledger, oldest first.
        pool_spawns: worker pools spawned over the session's lifetime
            (a warm re-run must not increase it).
    """

    def __init__(self, config: StudyConfig | None = None, *,
                 hot_entries: int = DEFAULT_HOT_ENTRIES):
        self.config = config or StudyConfig()
        self.hot_entries = hot_entries
        self.runs: list[RunRecord] = []
        self.pool_spawns = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_jobs = 0
        self._caches: dict[Path, HotResultCache] = {}
        self._handles: dict[str, tuple[list, list]] = {}
        self._shard_handles: dict[str, list] = {}
        self._closed = False
        _live_sessions.add(self)

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed session stays closed."""
        return self._closed

    def close(self) -> None:
        """Release the pool and registries; the ledger stays readable.

        Idempotent. All pool shutdown — normal, respawn, abandon,
        atexit — funnels through one codepath, so there is exactly one
        place worker processes can be left behind: nowhere.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown_pool(wait=True, cancel=True)
        self._caches.clear()
        self._handles.clear()
        self._shard_handles.clear()
        _live_sessions.discard(self)

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker pool ---------------------------------------------------

    def pool(self, jobs: int) -> ProcessPoolExecutor:
        """The session's worker pool, (re)spawned on demand.

        The pool persists across stages and runs; asking for a
        different worker count retires the old pool first. Spawns are
        counted in :attr:`pool_spawns`.

        Raises:
            EngineError: on a closed session.
        """
        if self._closed:
            raise EngineError("cannot use a closed engine session")
        if self._pool is not None and self._pool_jobs != jobs:
            self._shutdown_pool(wait=True)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=jobs, mp_context=pool_context(),
                initializer=mark_pool_worker)
            self._pool_jobs = jobs
            self.pool_spawns += 1
        return self._pool

    def discard_pool(self, wait: bool = False) -> None:
        """Drop the current pool so the next use respawns a fresh one.

        The executor calls this after ``BrokenProcessPool`` (dead
        workers) and after a stage-timeout abandon (a stuck worker
        cannot be interrupted, only orphaned) — either way the pool is
        unusable and reuse would wedge the session.
        """
        self._shutdown_pool(wait=wait, cancel=True)

    def _shutdown_pool(self, wait: bool, cancel: bool = False) -> None:
        pool, self._pool = self._pool, None
        self._pool_jobs = 0
        if pool is None:
            return
        try:
            pool.shutdown(wait=wait, cancel_futures=cancel)
        except Exception:  # a broken pool may refuse: already dead
            pass

    # -- warm caches ---------------------------------------------------

    def cache_for(self, cache_dir: str | Path | None
                  ) -> HotResultCache | None:
        """The session's warm cache over ``cache_dir`` (one per dir).

        Raises:
            EngineError: on a closed session.
        """
        if cache_dir is None:
            return None
        if self._closed:
            raise EngineError("cannot use a closed engine session")
        root = Path(cache_dir)
        key = root.expanduser().resolve()
        cache = self._caches.get(key)
        if cache is None:
            cache = HotResultCache(root, hot_entries=self.hot_entries)
            self._caches[key] = cache
        return cache

    # -- source registry -----------------------------------------------

    def replay_handles(self, key: str | None
                       ) -> tuple[list, list] | None:
        """A previous enumeration of source identity ``key``, if any.

        The :class:`~repro.engine.stream.HandleStream` replays this
        list instead of re-walking the source. ``None`` (unknown
        identity, or an identity-less source) means enumerate live.
        """
        if key is None:
            return None
        memo = self._handles.get(key)
        if memo is None:
            return None
        handles, failures = memo
        return list(handles), list(failures)

    def remember_handles(self, key: str | None, handles: list,
                         failures: list) -> None:
        """Register a clean, fully consumed enumeration for replay."""
        if key is not None and not failures:
            self._handles[key] = (list(handles), list(failures))

    def replay_shard(self, shard_key: str) -> list | None:
        """The memoized handles of one corpus shard, or ``None``.

        Shard keys fold in the shard's content hash (see
        :meth:`~repro.sources.corpusdir.CorpusDirSource.iter_handle_shards`),
        so replay is exactly as valid as the bytes are unchanged.
        """
        handles = self._shard_handles.get(shard_key)
        return list(handles) if handles is not None else None

    def remember_shard(self, shard_key: str, handles: list) -> None:
        """Memoize one shard's enumerated handles for this session."""
        self._shard_handles[shard_key] = list(handles)

    # -- incremental re-study ------------------------------------------

    def refresh(self, source: Any, config: StudyConfig | None = None):
        """Re-derive the full study of ``source``, incrementally.

        The delta-aware counterpart of
        :func:`~repro.study.pipeline.run_full_study_from_source` bound
        to this session: unchanged projects are served by the result
        cache, append-only growth runs through the O(K) suffix kernel
        against the checkpoints in the config's cache dir, and
        rewritten histories fall back to a full recompute — output is
        byte-identical to a cold study of the grown source either way.
        The returned report's ``format_delta_summary()`` says which
        path served how much.

        Returns:
            ``(StudyResults, ExecutionReport)``.
        """
        from repro.engine.study_plan import execute_study_from_source
        return execute_study_from_source(source, config or self.config,
                                         session=self)

    # -- run ledger ----------------------------------------------------

    def record_run(self, record: RunRecord,
                   cache_dir: str | Path | None = None) -> None:
        """Append ``record`` to the ledger (and its JSONL, if durable).

        The JSONL file lives at ``<cache_dir>/ledger.jsonl`` and is
        append-only across sessions and processes. The append is one
        locked, fsynced ``write`` of the whole line (see
        :mod:`repro.engine.lock`): concurrent sessions sharing a cache
        dir serialize through the lock, and a power cut cannot lose an
        acknowledged run. A concurrent reader may see the line's first
        bytes before the rest; :func:`read_ledger_report` leaves such an
        unterminated tail for the next read.
        Still best-effort — the ledger is an ops aid, never a crash.
        """
        self.runs.append(record)
        if cache_dir is None:
            return
        root = Path(cache_dir)
        line = (json.dumps(record.to_dict(), sort_keys=True)
                + "\n").encode("utf-8")
        try:
            root.mkdir(parents=True, exist_ok=True)
            with CacheLock(root):
                append_line(root / LEDGER_NAME, line, fsync=True)
        except (OSError, EngineError):
            pass

    def next_run_id(self) -> int:
        """The id the next recorded run will get (1-based)."""
        return len(self.runs) + 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (f"EngineSession({state}, runs={len(self.runs)}, "
                f"pool_spawns={self.pool_spawns})")


def read_ledger_report(cache_dir: str | Path
                       ) -> tuple[list[dict], list[int]]:
    """Ledger records plus the 1-based line numbers of torn lines.

    A torn line — a partial record left by a crashed or pre-lock
    writer — is skipped but *reported*, never silently absorbed: the
    caller can surface it once instead of the ledger under-counting
    forever. Valid records after a torn line are still returned (the
    file stays append-only; one bad line does not poison the tail).

    A final fragment without its ``\\n`` is an append still in flight
    (the reader holds no lock, and a row that crosses a page boundary
    can show its first part early): it is neither a record nor torn.
    """
    path = Path(cache_dir) / LEDGER_NAME
    try:
        data = path.read_bytes()
    except OSError:
        return [], []
    text = data[:data.rfind(b"\n") + 1].decode("utf-8")
    records: list[dict] = []
    torn: list[int] = []
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            torn.append(number)
    return records, torn


def read_ledger(cache_dir: str | Path) -> list[dict]:
    """Every run record persisted under ``cache_dir``, oldest first.

    Unparseable lines (torn writes) are skipped — mirroring the result
    cache's never-a-crash stance — but reported via a warning so a
    damaged ledger is visible; use :func:`read_ledger_report` to handle
    the torn lines programmatically.
    """
    records, torn = read_ledger_report(cache_dir)
    if torn:
        lines = ", ".join(str(number) for number in torn[:5])
        warnings.warn(
            f"ledger.jsonl under {cache_dir}: skipped "
            f"{len(torn)} torn record(s) at line(s) {lines} — likely "
            f"a writer killed mid-append before this version's locked "
            f"single-write appends", RuntimeWarning, stacklevel=2)
    return records
