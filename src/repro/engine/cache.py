"""Content-addressed result cache with a self-healing envelope.

Cache keys are stable SHA-256 fingerprints of *content* — DDL text,
timestamps, label-scheme boundaries, the :func:`code_digest` of the
package — never of object identities, so a key computed in any process
of one code tree addresses the same result, and no key of another tree
does. Values are pickled inside a checksummed envelope to
``<cache_dir>/objects/<k[:2]>/<key>.pkl``; writes are atomic (tmp +
rename).

The envelope is one ASCII header line followed by the pickle payload::

    %repro-cache% <version> <sha256-of-payload>\\n<payload bytes>

Reads verify the magic, version and checksum before unpickling. A
truncated, scribbled, zero-byte or foreign-version entry is *never* an
unpickling crash: it counts as a miss, and the bad file is moved aside
to ``<cache_dir>/corrupt/`` (quarantine) so the next write repopulates
the slot and the evidence survives for debugging. A shared cache
directory therefore survives concurrent studies, killed runs and torn
disk writes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
from datetime import date, datetime
from enum import Enum
from pathlib import Path
from typing import Any

from repro import obs
from repro.errors import EngineError

#: Sentinel returned by :meth:`ResultCache.get` for absent/corrupt keys.
MISS = object()

#: First token of every entry's header line.
ENVELOPE_MAGIC = b"%repro-cache%"

#: Envelope layout version; a mismatch quarantines the entry.
ENVELOPE_VERSION = 1

#: Default cap on ``<cache_dir>/corrupt/`` entries (oldest pruned first),
#: so a flaky disk cannot grow the quarantine without bound.
QUARANTINE_LIMIT = 256


def prune_oldest(directory: Path, limit: int) -> int:
    """Delete the oldest files in ``directory`` beyond ``limit``.

    Best-effort (a file already gone, or undeletable, is skipped) and
    tolerant of concurrent pruners. Returns the number removed.
    """
    try:
        entries = [(path.stat().st_mtime, path.name, path)
                   for path in directory.iterdir() if path.is_file()]
    except OSError:
        return 0
    excess = len(entries) - limit
    if excess <= 0:
        return 0
    entries.sort()
    removed = 0
    for _, _, path in entries[:excess]:
        try:
            path.unlink(missing_ok=True)
            removed += 1
        except OSError:
            pass
    return removed


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a JSON-serializable canonical form.

    Supports the scalar types plus tuples/lists, string-keyed dicts
    (sorted), datetimes (ISO text) and enums (their value).

    Raises:
        EngineError: for types with no stable canonical form.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (datetime, date)):
        return value.isoformat()
    if isinstance(value, Enum):
        return ["enum", type(value).__name__, canonical(value.value)]
    if isinstance(value, (tuple, list)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise EngineError(
                    f"cache-key dicts need string keys, got {key!r}")
            out[key] = canonical(value[key])
        return out
    raise EngineError(
        f"cannot canonicalize {type(value).__name__!r} for a cache key")


def fingerprint(*parts: Any) -> str:
    """A stable SHA-256 hex digest of the given content parts."""
    payload = json.dumps(canonical(list(parts)),
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@functools.cache
def code_digest() -> str:
    """SHA-256 of the imported ``repro`` package's source, once per
    process: every ``*.py`` file's relative path and bytes, in path
    order.

    Stored results (cache entries, delta checkpoints) are addressed
    with it, so a result computed by other code is never served. It
    hashes the whole package rather than the modules a result depends
    on: an unrelated edit retires the cache too, but no list of files
    can fall out of step with the code.
    """
    import repro
    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(root).as_posix()
                      for path in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _envelope(payload: bytes, digest: str) -> bytes:
    header = b"%s %d %s\n" % (ENVELOPE_MAGIC, ENVELOPE_VERSION,
                              digest.encode("ascii"))
    return header + payload


def encode_entry(value: Any) -> bytes:
    """Serialize ``value`` into the checksummed envelope format."""
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return _envelope(payload, hashlib.sha256(payload).hexdigest())


def decode_entry(data: bytes) -> Any:
    """Verify and unpickle one envelope.

    Raises:
        EngineError: for a missing/garbled header, a version mismatch
            or a checksum failure — callers quarantine and recompute.
    """
    newline = data.find(b"\n")
    if newline < 0 or not data.startswith(ENVELOPE_MAGIC + b" "):
        raise EngineError("cache entry has no envelope header")
    fields = data[:newline].split(b" ")
    if len(fields) != 3:
        raise EngineError("cache entry header is garbled")
    try:
        version = int(fields[1])
    except ValueError:
        raise EngineError("cache entry version is not a number") \
            from None
    if version != ENVELOPE_VERSION:
        raise EngineError(
            f"cache entry envelope version {version} != "
            f"{ENVELOPE_VERSION}")
    payload = data[newline + 1:]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != fields[2]:
        raise EngineError("cache entry checksum mismatch "
                          "(truncated or corrupt)")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        # Checksum passed but the pickle is foreign/unloadable (e.g. a
        # class renamed between versions) — still a quarantine case.
        raise EngineError(f"cache entry failed to unpickle: {exc}") \
            from exc


class ResultCache:
    """A directory-backed store of pickled stage results.

    Args:
        root: cache directory; created lazily on first write.
        quarantine_limit: cap on files kept in ``<root>/corrupt/``;
            oldest entries beyond it are pruned at quarantine time.
            ``None`` disables pruning.

    It counts in :mod:`repro.obs`: ``quarantined`` (corrupt entries
    moved to ``<root>/corrupt/``, each served as a miss), ``pruned``
    (quarantine files the cap removed, oldest first) and
    ``write_failures`` (stores the filesystem refused, ENOSPC or a
    read-only cache: the run continues memory-only).
    """

    def __init__(self, root: str | Path,
                 quarantine_limit: int | None = QUARANTINE_LIMIT):
        self.root = Path(root)
        self.quarantine_limit = quarantine_limit
        self._deny_writes = False

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    @property
    def corrupt_dir(self) -> Path:
        """Where quarantined entries end up."""
        return self.root / "corrupt"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside, best-effort."""
        try:
            self.corrupt_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.corrupt_dir / path.name)
        except OSError:
            try:  # can't move: at least get it out of the read path
                path.unlink(missing_ok=True)
            except OSError:
                return  # read-only filesystem: nothing else to do
        obs.count("quarantined")
        if self.quarantine_limit is not None:
            obs.count("pruned", prune_oldest(self.corrupt_dir,
                                             self.quarantine_limit))

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`.

        Unreadable or corrupt entries count as misses and are moved to
        the quarantine directory — the cache is an accelerator, never
        a correctness dependency, and never a crash.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return MISS
        except OSError:  # unreadable (permissions, I/O error)
            return MISS
        try:
            return decode_entry(data)
        except EngineError:
            self._quarantine(path)
            return MISS

    def deny_writes(self) -> None:
        """Fault hook: refuse all further stores, as a full disk would."""
        self._deny_writes = True

    def put(self, key: str, value: Any) -> str | None:
        """Store ``value`` under ``key``; best-effort, atomic.

        Returns:
            The SHA-256 digest of the stored payload (truthy) when the
            entry was written; ``None`` when the filesystem refused —
            read-only or full cache dirs degrade to pass-through and
            ``write_failures`` counts the refusals.
        """
        if self._deny_writes:
            obs.count("write_failures")
            return None
        path = self._path(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            payload = pickle.dumps(value,
                                   protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(payload).hexdigest()
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(_envelope(payload, digest))
            os.replace(tmp, path)
            return digest
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            obs.count("write_failures")
            return None

    def corrupt_entry(self, key: str) -> bool:
        """Scribble over ``key``'s stored entry (fault injection).

        Returns:
            True when an entry existed and was overwritten. Used by
            the :class:`~repro.engine.faults.FaultPlan` harness and
            the corruption tests; a subsequent :meth:`get` must treat
            the entry as a miss and quarantine it.
        """
        path = self._path(key)
        if not path.is_file():
            return False
        try:
            path.write_bytes(b"\x00injected cache corruption\x00")
            return True
        except OSError:
            return False

    def __contains__(self, key: str) -> bool:
        return self._path(key).is_file()

    def __len__(self) -> int:
        """Number of stored entries (walks the directory)."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.pkl"))
