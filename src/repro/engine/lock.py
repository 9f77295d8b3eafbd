"""Inter-process locking and atomic appends for shared cache dirs.

Two or more sessions (CLI invocations, watch loops, a warm service) may
point at the same ``--cache-dir``. Most of the cache is already safe by
construction — result objects and delta checkpoints are content-addressed
and written via atomic tmp+rename, and each run's journal has exactly one
writer — but the run ledger (``ledger.jsonl``) is a single append-only
file shared by every writer. :class:`CacheLock` serializes those writers.

The primary implementation uses ``fcntl.flock`` on ``<cache_dir>/.lock``:
the kernel releases the lock automatically when the holder dies, so a
SIGKILLed writer can never wedge the cache dir. On platforms without
``fcntl`` (or when forced for tests) a create-exclusive lockfile is used
instead, with pid + heartbeat metadata and stale-lock takeover: a lock
whose owner pid is gone, or whose heartbeat is older than
``stale_after`` seconds, is broken and re-acquired.

:func:`append_line` is the shared append discipline for JSONL files: one
``os.write`` of the whole line on an ``O_APPEND`` descriptor (atomic with
respect to concurrent readers and same-file appenders on local
filesystems), optionally fsynced.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.errors import EngineError

try:  # pragma: no cover - import guard exercised only off-linux
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

#: Name of the lock file inside a cache dir.
LOCK_NAME = ".lock"

#: Default seconds to wait for a contended lock before giving up.
LOCK_TIMEOUT = 10.0

#: Fallback-mode only: a heartbeat older than this marks the lock stale.
STALE_AFTER = 30.0

_POLL_SECONDS = 0.02


def append_line(path: Path, data: bytes, fsync: bool = False) -> None:
    """Append ``data`` (a complete ``...\\n`` line) atomically to ``path``.

    The whole line goes down in a single ``write`` on an ``O_APPEND``
    descriptor, so two appenders never interleave bytes. A concurrent
    reader can still observe a prefix of the line — the kernel may
    expose a write that crosses a page boundary one page at a time —
    so readers treat a last line without its ``\\n`` as still being
    written. ``fsync=True`` additionally
    forces the line to stable storage before returning. Raises
    ``OSError`` when the filesystem refuses (full disk, read-only).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


class CacheLock:
    """Advisory inter-process lock over a shared cache directory.

    Usage::

        with CacheLock(cache_dir):
            append_line(cache_dir / "ledger.jsonl", line, fsync=True)

    Acquisition polls until ``timeout`` seconds, then raises
    :class:`EngineError` naming the recorded holder. Lock metadata
    (pid + heartbeat timestamp) is written into the lock file for
    observability; long-running holders may call :meth:`heartbeat` to
    refresh it (the fallback path treats an old heartbeat as stale).
    """

    def __init__(self, cache_dir: Path | str, name: str = LOCK_NAME,
                 timeout: float = LOCK_TIMEOUT,
                 stale_after: float = STALE_AFTER,
                 use_fcntl: bool | None = None):
        self.path = Path(cache_dir) / name
        self.timeout = timeout
        self.stale_after = stale_after
        if use_fcntl is None:
            use_fcntl = fcntl is not None
        if use_fcntl and fcntl is None:  # pragma: no cover
            raise EngineError("fcntl locking requested but unavailable")
        self._use_fcntl = use_fcntl
        self._fd: int | None = None

    # -- metadata ---------------------------------------------------

    def _metadata(self) -> bytes:
        payload = {"pid": os.getpid(), "heartbeat": time.time()}
        return (json.dumps(payload, sort_keys=True) + "\n").encode("ascii")

    @staticmethod
    def read_holder(path: Path) -> dict | None:
        """Best-effort read of the pid/heartbeat left by the holder."""
        try:
            record = json.loads(path.read_text(encoding="ascii"))
        except (OSError, ValueError):
            return None
        return record if isinstance(record, dict) else None

    def heartbeat(self) -> None:
        """Refresh the held lock's heartbeat timestamp."""
        if self._fd is None:
            raise EngineError(f"cannot heartbeat {self.path}: not held")
        data = self._metadata()
        os.lseek(self._fd, 0, os.SEEK_SET)
        os.truncate(self._fd, 0)
        os.write(self._fd, data)

    # -- acquisition ------------------------------------------------

    def acquire(self) -> "CacheLock":
        if self._fd is not None:
            raise EngineError(f"lock {self.path} already held")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.timeout
        while True:
            acquired = (self._try_flock() if self._use_fcntl
                        else self._try_lockfile())
            if acquired:
                return self
            if time.monotonic() >= deadline:
                holder = self.read_holder(self.path) or {}
                raise EngineError(
                    f"could not lock shared cache dir via {self.path} "
                    f"within {self.timeout:.1f}s"
                    + (f" (held by pid {holder['pid']})"
                       if "pid" in holder else ""))
            time.sleep(_POLL_SECONDS)

    def _try_flock(self) -> bool:
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            return False
        self._fd = fd
        self.heartbeat()
        return True

    def _try_lockfile(self) -> bool:
        try:
            fd = os.open(self.path,
                         os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        except FileExistsError:
            self._break_if_stale()
            return False
        except OSError:
            return False
        self._fd = fd
        os.write(fd, self._metadata())
        return True

    def _break_if_stale(self) -> None:
        """Fallback path: remove a lockfile whose owner is provably gone."""
        holder = self.read_holder(self.path)
        stale = False
        if holder is None:
            # Unreadable metadata: only age can prove staleness.
            try:
                stale = (time.time() - self.path.stat().st_mtime
                         > self.stale_after)
            except OSError:
                return
        else:
            pid = holder.get("pid")
            beat = holder.get("heartbeat", 0.0)
            if isinstance(pid, int) and not _pid_alive(pid):
                stale = True
            elif time.time() - float(beat) > self.stale_after:
                stale = True
        if stale:
            try:
                self.path.unlink()
            except OSError:
                pass

    def release(self) -> None:
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        if self._use_fcntl:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            os.close(fd)
        else:
            os.close(fd)
            try:
                self.path.unlink()
            except OSError:  # pragma: no cover
                pass

    @property
    def held(self) -> bool:
        return self._fd is not None

    def __enter__(self) -> "CacheLock":
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, not ours
        return True
    except OSError:  # pragma: no cover
        return False
    return True
