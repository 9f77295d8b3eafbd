"""Lazily enumerated handle streams and deterministic sampling.

A :class:`HandleStream` is the engine-side face of a source's project
enumeration: single-use, pulled one handle at a time by the
executor's bounded in-flight window, never a materialized list. For a
source that is not lightweight it attaches each loaded project to its
handle, so plain, fault-capturing and sampled feeds all carry it. It
folds in everything handle enumeration needs on the side —

* **failure capture** — under a skip/retry error policy, a project
  whose fingerprinting raises is quarantined as a
  :class:`~repro.engine.faults.ProjectFailure` (after the retry
  budget, for transient errors) instead of killing the enumeration;
* **session registry** — with an :class:`~.session.EngineSession`, a
  previously enumerated source identity replays without touching the
  source, sharded corpora memoize per shard (an unchanged shard
  replays even when a sibling shard changed), and a clean, bounded
  enumeration registers itself for the next run;
* **run lineage** — a running digest over every ``(pid, fingerprint)``
  pair stands in for the handle list in the run ledger, since a
  consumed stream cannot be re-iterated.

:func:`sample_handles` implements the ``--sample N`` /
``--stratified`` study modes: it is the one place a handle list is
deliberately materialized (handles are a few dozen bytes; the sample
is interactive-scale by definition), and both modes are deterministic
in the config seed and corpus order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from typing import Any, Iterator

from repro.engine.faults import ProjectFailure
from repro.errors import EngineError
from repro.sources.base import (
    SourceHandle,
    iter_source_handles,
    source_count,
    source_stratum,
)

#: Streams longer than this are not whole-source memoized in a session
#: registry — replay would trade the bounded-memory guarantee for a
#: warm-enumeration win that sharded corpora already get per shard.
REGISTRY_HANDLE_LIMIT = 65536


class HandleStream:
    """A single-use, lazily enumerated stream of source handles.

    Args:
        source: any :class:`~repro.sources.base.HistorySource`.
        policy: the run's error policy; a capturing one quarantines
            per-project fingerprint failures into :attr:`failures`,
            ``None`` or fail-fast lets them propagate.
        session: optional engine session whose handle registry the
            stream consults (replay) and feeds (registration).

    Attributes:
        source: the wrapped source.
        failures: fingerprint-stage quarantines, in enumeration order;
            complete only once the stream is consumed.
        seen: handles yielded so far.
    """

    def __init__(self, source: Any, policy: Any = None,
                 session: Any = None):
        self.source = source
        self.policy = policy
        self.session = session
        self.failures: list[ProjectFailure] = []
        self.seen = 0
        self._digest = hashlib.sha256()
        self._consumed = False

    def count(self) -> int:
        """The source's project total (cheap by protocol contract)."""
        return source_count(self.source)

    def stream_digest(self) -> str:
        """Digest of every handle yielded so far (ledger lineage)."""
        return f"stream:{self._digest.hexdigest()}"

    def _note(self, handle: SourceHandle) -> SourceHandle:
        self._digest.update(handle.pid.encode("utf-8"))
        self._digest.update(b"\x1f")
        self._digest.update(handle.fingerprint.encode("utf-8"))
        self._digest.update(b"\n")
        self.seen += 1
        return handle

    def __iter__(self) -> Iterator[SourceHandle]:
        if self._consumed:
            raise EngineError(
                "a handle stream is single-use and was already "
                "consumed; build a new one per run")
        self._consumed = True
        return self._generate()

    def _generate(self) -> Iterator[SourceHandle]:
        session = self.session
        key = None
        if session is not None:
            from repro.engine.session import source_session_key
            key = source_session_key(self.source)
            replay = session.replay_handles(key)
            if replay is not None:
                handles, failures = replay
                self.failures.extend(failures)
                for handle in handles:
                    yield self._note(handle)
                return
        shard_iter = getattr(self.source, "iter_handle_shards", None)
        if session is not None and shard_iter is not None:
            yield from self._generate_sharded(session, key, shard_iter)
            return
        collected: list[SourceHandle] | None = \
            [] if session is not None and key is not None else None
        attach = not self.source.lightweight
        for handle in self._iter_capturing():
            if attach:
                handle = dataclasses.replace(
                    handle, item=self.source.load(handle.pid))
            if collected is not None:
                collected.append(handle)
                if len(collected) > REGISTRY_HANDLE_LIMIT:
                    collected = None
            yield self._note(handle)
        if collected is not None and not self.failures:
            session.remember_handles(key, collected, [])

    def _generate_sharded(self, session: Any, key: str | None,
                          shard_iter: Any) -> Iterator[SourceHandle]:
        """Enumerate shard by shard, memoizing each shard's handles.

        Shard keys fold in the shard's content hash, so re-exporting
        one shard of a corpus invalidates exactly that shard's replay
        while its unchanged siblings still skip enumeration.
        """
        collected: list[SourceHandle] | None = \
            [] if key is not None else None
        for shard_key, handles in shard_iter():
            cached = session.replay_shard(shard_key)
            if cached is None:
                cached = list(handles)
                session.remember_shard(shard_key, cached)
            if collected is not None:
                collected.extend(cached)
                if len(collected) > REGISTRY_HANDLE_LIMIT:
                    collected = None
            for handle in cached:
                yield self._note(handle)
        if collected is not None and not self.failures:
            session.remember_handles(key, collected, [])

    def _iter_capturing(self) -> Iterator[SourceHandle]:
        policy = self.policy
        if policy is None or not policy.captures:
            yield from iter_source_handles(self.source)
            return
        # A generator cannot resume past an exception, so the
        # capturing path bridges via project_ids() and retries each
        # fingerprint itself.
        for pid in self.source.project_ids():
            attempt = 0
            while True:
                attempt += 1
                try:
                    handle = SourceHandle(
                        pid=pid,
                        fingerprint=self.source.fingerprint(pid))
                except Exception as exc:
                    if attempt < policy.attempts_for(exc):
                        delay = policy.backoff_seconds(pid, attempt)
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    self.failures.append(ProjectFailure.from_exception(
                        pid, "handles", exc, attempts=attempt))
                    break
                yield handle
                break


def sample_handles(handles: Any, sample: int, seed: int,
                   stratified: bool = False,
                   source: Any = None) -> list[SourceHandle]:
    """A deterministic ``sample``-sized subset of a handle stream.

    Always returns handles in their original corpus order, so a
    sampled study is exactly the study of a smaller corpus with the
    same ordering guarantees (and byte-identical given the same seed).

    Args:
        handles: any iterable of handles (a :class:`HandleStream` is
            consumed here — sampling is the one path that materializes
            the handle list, never the projects).
        sample: how many to keep; at or above the stream size this is
            the identity.
        seed: drives the plain random draw (ignored when stratified —
            round-robin is deterministic on its own).
        stratified: draw round-robin across strata (the source's
            pattern groups) instead of uniformly, so small samples
            still span every pattern.
        source: consulted for per-project strata via
            :func:`~repro.sources.base.source_stratum`.
    """
    indexed = list(enumerate(handles))
    if sample >= len(indexed):
        return [handle for _, handle in indexed]
    if stratified:
        groups: dict[str, list[tuple[int, SourceHandle]]] = {}
        for index, handle in indexed:
            stratum = source_stratum(source, handle.pid) \
                if source is not None else handle.pid
            groups.setdefault(stratum, []).append((index, handle))
        picked: list[tuple[int, SourceHandle]] = []
        queues = list(groups.values())
        while queues and len(picked) < sample:
            for queue in list(queues):
                if len(picked) >= sample:
                    break
                picked.append(queue.pop(0))
                if not queue:
                    queues.remove(queue)
        picked.sort()
        return [handle for _, handle in picked]
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(len(indexed)), sample))
    return [indexed[position][1] for position in keep]
