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
  skip the disk read, the envelope checksum and the unpickle entirely
  (opening a directory deletes what other code stored there);
* a **run ledger** — ``session.runs`` holds the
  :class:`~repro.engine.executor.ExecutionReport` of every plan
  execution (source fingerprint, config, stage timings, run counters,
  failures, result digest), and each report's ``to_dict()`` is
  appended as one JSONL row to ``<cache_dir>/ledger.jsonl`` by
  :func:`append_line`, giving operated deployments their "what ran, on
  what data, how fast, what broke" story.

Source enumeration is not session state: every run enumerates its
source afresh, and sources memoize their own enumeration per instance.

Lifecycle is context-manager or explicit :meth:`EngineSession.close`;
a module-level ``atexit`` guard shuts down any pool a crashed or
interrupted process left behind, so CLI runs never leak workers.
"""

from __future__ import annotations

import atexit
import json
import os
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.engine.cache import MISS, ResultCache, code_digest, fingerprint
from repro.engine.config import StudyConfig
from repro.engine.faults import mark_pool_worker
from repro.errors import EngineError
from repro.history.repository import incremental_parse_default
from repro.pools import pool_context

if TYPE_CHECKING:
    from repro.engine.executor import ExecutionReport

#: Default bound of a session cache's in-memory hot layer (entries).
DEFAULT_HOT_ENTRIES = 4096

#: File name of the persisted run ledger inside a cache directory.
LEDGER_NAME = "ledger.jsonl"

#: File naming the code digest a cache directory's stores hold results of.
CODE_TAG_NAME = "code-digest"


def source_session_key(source: Any) -> str | None:
    """The content-identity key of a history source, or ``None``.

    Sources that can describe their content identity cheaply (an
    ``identity()`` method returning canonicalizable parts — seed and
    population for synthetic corpora, manifest digest for corpus
    directories, HEAD sha for git checkouts) are keyed by its
    fingerprint; anything else (in-memory adapters) returns ``None``.
    The key is a run's source fingerprint (ledger and journal) and
    what ``refresh --watch`` compares to skip an unchanged poll.
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

    It counts in :mod:`repro.obs`: ``hot_hits`` (gets served straight
    from memory), ``hot_misses`` (gets that consulted the disk store)
    and ``evictions`` (entries the LRU bound dropped).

    Args:
        root: cache directory (as for :class:`ResultCache`).
        hot_entries: LRU bound; 0 disables the hot layer entirely.

    Attributes:
        disk: the underlying on-disk cache.
    """

    def __init__(self, root: str | Path,
                 hot_entries: int = DEFAULT_HOT_ENTRIES):
        self.disk = ResultCache(root)
        self.hot_entries = hot_entries
        self._hot: OrderedDict[str, Any] = OrderedDict()

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
            obs.count("evictions")

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`~.cache.MISS`.

        Hot-layer hits return the same deserialized object the last
        consumer saw — derived lazy state (re-materialized parse
        caches) rides along, which only makes warm runs warmer.
        """
        if key in self._hot:
            self._hot.move_to_end(key)
            obs.count("hot_hits")
            return self._hot[key]
        obs.count("hot_misses")
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

    Attributes:
        runs: the in-memory run ledger, one
            :class:`~repro.engine.executor.ExecutionReport` per
            execution, oldest first.
    """

    def __init__(self, config: StudyConfig | None = None):
        self.config = config or StudyConfig()
        self.runs: list[ExecutionReport] = []
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple[int, bool] | None = None
        self._caches: dict[Path, HotResultCache] = {}
        self._closed = False
        _live_sessions.add(self)

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; a closed session stays closed."""
        return self._closed

    def close(self) -> None:
        """Release the pool and caches; the ledger stays readable.

        Idempotent. All pool shutdown — normal, respawn, abandon,
        atexit — funnels through one codepath, so there is exactly one
        place worker processes can be left behind: nowhere.
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown_pool(wait=True, cancel=True)
        self._caches.clear()
        _live_sessions.discard(self)

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- worker pool ---------------------------------------------------

    def pool(self, jobs: int) -> ProcessPoolExecutor:
        """The session's worker pool, (re)spawned on demand.

        The pool persists across stages and runs. Asking for a
        different worker count retires the old pool first, and so does
        a flipped :func:`~repro.history.repository.incremental_parse_default`:
        forked workers keep the value they saw at spawn. Each spawn
        counts ``pool_spawns`` in :mod:`repro.obs` (a warm re-run moves
        it by 0).

        Raises:
            EngineError: on a closed session.
        """
        if self._closed:
            raise EngineError("cannot use a closed engine session")
        key = (jobs, incremental_parse_default())
        if self._pool is not None and self._pool_key != key:
            self._shutdown_pool(wait=True)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=jobs, mp_context=pool_context(),
                initializer=mark_pool_worker)
            self._pool_key = key
            obs.count("pool_spawns")
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
        self._pool_key = None
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

        Opening a directory retires what other code stored there (see
        :func:`retire_foreign_stores`).

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
            retire_foreign_stores(root)
            cache = HotResultCache(root)
            self._caches[key] = cache
        return cache

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

    def record_run(self, report: ExecutionReport,
                   cache_dir: str | Path | None = None) -> None:
        """Append ``report`` to the ledger (and its JSONL row, if
        durable).

        The JSONL file lives at ``<cache_dir>/ledger.jsonl`` and is
        append-only across sessions and processes. The append is one
        fsynced ``write`` of the whole line (:func:`append_line`):
        concurrent sessions sharing a cache dir never interleave their
        rows, and a power cut cannot lose an acknowledged run. A
        concurrent reader may see the line's first bytes before the
        rest; :func:`read_ledger_report` leaves such an unterminated
        tail for the next read.
        Still best-effort — the ledger is an ops aid, never a crash.
        """
        self.runs.append(report)
        if cache_dir is None:
            return
        root = Path(cache_dir)
        line = (json.dumps(report.to_dict(), sort_keys=True)
                + "\n").encode("utf-8")
        try:
            root.mkdir(parents=True, exist_ok=True)
            append_line(root / LEDGER_NAME, line, fsync=True)
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"EngineSession({state}, runs={len(self.runs)})"


def retire_foreign_stores(root: Path) -> None:
    """Unless ``root``'s code tag names this code's digest, delete its
    result-cache entries and delta checkpoints (and nothing else), then
    write the tag. Keys mix in the digest, so other code's results are
    never read; this keeps them from piling up. Best-effort."""
    tag, digest = root / CODE_TAG_NAME, code_digest().encode("ascii")
    try:
        if tag.read_bytes() == digest:
            return
    except OSError:
        pass
    for pattern in ("objects/??/*.pkl", "delta/??/*.ckpt"):
        for path in root.glob(pattern):
            try:
                path.unlink()
            except OSError:
                pass
    try:
        root.mkdir(parents=True, exist_ok=True)
        tag.write_bytes(digest)
    except OSError:
        pass


def append_line(path: Path, data: bytes, fsync: bool = False) -> None:
    """Append ``data`` (a complete ``...\\n`` line) atomically to ``path``.

    The whole line goes down in a single ``write`` on an ``O_APPEND``
    descriptor. On a local Linux filesystem the kernel holds the file's
    inode lock for the whole write, so concurrent appenders — threads
    or processes, rows of several KB included — never interleave bytes,
    and no lock of ours is needed. A concurrent reader can still
    observe a prefix of the line — the kernel may expose a write that
    crosses a page boundary one page at a time — so readers treat a
    last line without its ``\\n`` as still being written. ``fsync=True``
    additionally forces the line to stable storage before returning.
    Raises ``OSError`` when the filesystem refuses (full disk,
    read-only).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def read_ledger_report(cache_dir: str | Path
                       ) -> tuple[list[dict], list[int]]:
    """Ledger records plus the 1-based line numbers of torn lines.

    A torn line — a partial record left by a writer that died
    mid-write — is skipped but *reported*, never silently absorbed: the
    caller can surface it once instead of the ledger under-counting
    forever. Valid records after a torn line are still returned (the
    file stays append-only; one bad line does not poison the tail).

    A final fragment without its ``\\n`` is an append still in flight
    (a row that crosses a page boundary can show its first part
    early): it is neither a record nor torn.
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
            f"a writer that died mid-write", RuntimeWarning, stacklevel=2)
    return records
