"""Append-only per-run completion journals under ``<cache_dir>/journal/``.

Every plan execution with a cache dir writes a journal file
``journal/<run_id>.jsonl`` recording, as they complete, the chunks of
work that became durable: which stage, which item ids, which cache keys
and result digests. The journal is what makes a run *restartable*: after
a SIGKILL, crash or Ctrl-C, ``--resume RUN_ID`` loads the journaled
chunks, serves them from the result cache, and executes only the
remainder — byte-identical to an uninterrupted run, because cache keys
are untouched by resumption.

Records and durability:

- Each line is ``j1 <checksum> <payload-json>`` where the checksum is a
  16-hex-char BLAKE2b of the payload bytes; a torn or corrupted line is
  detected, reported and skipped rather than trusted.
- Lines are appended with a single ``write`` on an ``O_APPEND``
  descriptor (see :func:`repro.engine.session.append_line` for why that
  is atomic). The journal has exactly one writer — the run that owns
  it.
- ``begin`` and ``end`` records are fsynced; ``chunk`` records are not
  (they sit in the page cache, which survives process death — the
  kill-mid-run tests rely on exactly this), keeping journal overhead
  well under the ≤5% budget.
- A journal whose file cannot be written (ENOSPC, read-only cache)
  degrades to memory-only: counters keep working, the run completes,
  and the degradation is surfaced as a warning instead of an abort.

Record types::

    {"type": "begin", "run_id": ..., "started": ..., "source": ...,
     "config": {...}, "resumed_from": ...}
    {"type": "chunk", "stage": ..., "items": [[pid, key, digest], ...]}
    {"type": "end", "status": "complete" | "interrupted",
     "chunks": N, "items": M}

A run with no ``end`` record was killed or crashed (status ``aborted``);
both ``aborted`` and ``interrupted`` runs are listed as resumable.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from repro.engine.session import append_line
from repro.errors import EngineError

#: Subdirectory of the cache dir holding per-run journals.
JOURNAL_DIR = "journal"

#: Journal line format marker (bump on incompatible change).
JOURNAL_FORMAT = "j1"

#: Cap on journal files kept per cache dir; oldest are pruned at begin.
JOURNAL_LIMIT = 64

_ID_BYTES = 6


def new_run_id() -> str:
    """Mint a journal run id: short, unique, filename- and flag-safe.

    Run ids are operational metadata — they never feed cache keys or
    study output, so randomness here cannot perturb reproducibility.
    """
    return "r" + os.urandom(_ID_BYTES).hex()


def journal_dir(cache_dir: Path | str) -> Path:
    return Path(cache_dir) / JOURNAL_DIR


def journal_path(cache_dir: Path | str, run_id: str) -> Path:
    return journal_dir(cache_dir) / f"{run_id}.jsonl"


def _checksum(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def _encode(record: dict) -> bytes:
    payload = json.dumps(record, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return b"%s %s %s\n" % (JOURNAL_FORMAT.encode("ascii"),
                            _checksum(payload).encode("ascii"), payload)


def _decode(line: bytes) -> dict | None:
    """Parse one journal line; ``None`` for torn/corrupt/foreign lines."""
    parts = line.rstrip(b"\n").split(b" ", 2)
    if len(parts) != 3 or parts[0] != JOURNAL_FORMAT.encode("ascii"):
        return None
    digest, payload = parts[1], parts[2]
    if _checksum(payload).encode("ascii") != digest:
        return None
    try:
        record = json.loads(payload)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class RunJournal:
    """Writer for one run's journal. Single-writer, append-only."""

    def __init__(self, path: Path, run_id: str):
        self.path = path
        self.run_id = run_id
        self.chunks = 0
        self.items = 0
        self._memory_only = False
        self._closed = False

    @classmethod
    def begin(cls, cache_dir: Path | str, run_id: str,
              source: str | None = None, config: dict | None = None,
              resumed_from: str | None = None) -> "RunJournal":
        """Open a new journal and write its fsynced ``begin`` record.

        Never raises for filesystem trouble: an unwritable journal dir
        produces a memory-only journal (counters work, nothing persists)
        so degraded storage slows nothing down and aborts nothing.
        """
        journal = cls(journal_path(cache_dir, run_id), run_id)
        started = datetime.now(timezone.utc).isoformat(timespec="seconds")
        record = {"type": "begin", "run_id": run_id, "started": started,
                  "source": source, "config": config or {},
                  "resumed_from": resumed_from}
        try:
            directory = journal_dir(cache_dir)
            directory.mkdir(parents=True, exist_ok=True)
            from repro.engine.cache import prune_oldest
            prune_oldest(directory, JOURNAL_LIMIT)
            journal._append(record, fsync=True)
        except OSError:
            journal._memory_only = True
        return journal

    def _append(self, record: dict, fsync: bool = False) -> None:
        if self._memory_only or self._closed:
            return
        try:
            append_line(self.path, _encode(record), fsync=fsync)
        except OSError:
            self._memory_only = True

    def chunk(self, stage: str, entries: list[tuple]) -> None:
        """Record one completed chunk: ``entries`` = (pid, key, digest)."""
        if not entries:
            return
        self.chunks += 1
        self.items += len(entries)
        self._append({"type": "chunk", "stage": stage,
                      "items": [list(entry) for entry in entries]})

    def mark(self, status: str) -> None:
        """Write the fsynced ``end`` record and close the journal."""
        self._append({"type": "end", "status": status,
                      "chunks": self.chunks, "items": self.items},
                     fsync=True)
        self._closed = True

    def deny_writes(self) -> None:
        """Fault hook: simulate ENOSPC — all further appends stay in memory."""
        self._memory_only = True

    @property
    def memory_only(self) -> bool:
        return self._memory_only


@dataclass
class JournalInfo:
    """Parsed view of one journal file."""

    run_id: str
    path: Path
    started: str | None = None
    source: str | None = None
    config: dict = field(default_factory=dict)
    resumed_from: str | None = None
    status: str = "aborted"
    chunks: list[dict] = field(default_factory=list)
    items: int = 0
    torn: int = 0

    @property
    def resumable(self) -> bool:
        return self.status != "complete"


def read_journal(cache_dir: Path | str, run_id: str) -> JournalInfo:
    """Parse one run's journal; raises :class:`EngineError` if absent."""
    path = journal_path(cache_dir, run_id)
    try:
        raw = path.read_bytes()
    except OSError:
        raise EngineError(
            f"no journal for run {run_id!r} under {journal_dir(cache_dir)}"
            " — see `repro-schema resume` for resumable runs")
    info = JournalInfo(run_id=run_id, path=path)
    for line in raw.splitlines(keepends=True):
        record = _decode(line)
        if record is None:
            info.torn += 1
            continue
        kind = record.get("type")
        if kind == "begin":
            info.started = record.get("started")
            info.source = record.get("source")
            info.config = record.get("config") or {}
            info.resumed_from = record.get("resumed_from")
        elif kind == "chunk":
            info.chunks.append(record)
            info.items += len(record.get("items") or ())
        elif kind == "end":
            info.status = record.get("status") or "complete"
    return info


def list_journals(cache_dir: Path | str) -> list[JournalInfo]:
    """All journals under the cache dir, oldest first."""
    directory = journal_dir(cache_dir)
    try:
        paths = sorted(directory.glob("*.jsonl"),
                       key=lambda p: (p.stat().st_mtime, p.name))
    except OSError:
        return []
    return [read_journal(cache_dir, path.stem) for path in paths]


def resumable_runs(cache_dir: Path | str) -> list[JournalInfo]:
    """Journals of runs that never completed (interrupted or aborted)."""
    return [info for info in list_journals(cache_dir) if info.resumable]


class JournalReplay:
    """Replay bookkeeping for ``--resume``: which journaled work came back.

    The replay set holds the cache keys the interrupted run journaled.
    During the resumed run, :meth:`mark` is called whenever a journaled
    key is served from the result cache; :attr:`chunks_replayed` then
    counts prior chunks whose every key returned without recompute —
    the acceptance counter for "replayed from the journal".
    """

    def __init__(self, info: JournalInfo):
        self.run_id = info.run_id
        self.source = info.source
        self._chunks: list[frozenset[str]] = []
        keys: set[str] = set()
        for chunk in info.chunks:
            chunk_keys = frozenset(
                entry[1] for entry in chunk.get("items") or ()
                if len(entry) > 1 and entry[1])
            if chunk_keys:
                self._chunks.append(chunk_keys)
                keys.update(chunk_keys)
        self._keys = keys
        self._hit: set[str] = set()

    def contains(self, key: str) -> bool:
        return key in self._keys

    def mark(self, key: str) -> None:
        self._hit.add(key)

    @property
    def items_replayed(self) -> int:
        return len(self._hit)

    @property
    def chunks_replayed(self) -> int:
        return sum(1 for chunk in self._chunks if chunk <= self._hit)

    def verify_source(self, source: str | None) -> None:
        """Refuse to resume against a visibly different source."""
        if self.source and source and self.source != source:
            raise EngineError(
                f"cannot resume run {self.run_id}: it studied source "
                f"{self.source!r} but this invocation targets {source!r}")


def load_replay(cache_dir: Path | str, run_id: str) -> JournalReplay:
    """Load the replay set for ``--resume RUN_ID``."""
    return JournalReplay(read_journal(cache_dir, run_id))
