"""Lazily enumerated handle streams and deterministic sampling.

A :class:`HandleStream` is the engine-side face of a source's project
enumeration: single-use, pulled one handle at a time by the
executor's bounded in-flight window, never a materialized list. Every
source is enumerated the same way, live, on every run: sources memoize
their own enumeration per instance (a parsed manifest, a per-HEAD git
walk, a corpus plan). For a source that is not lightweight the stream
attaches each loaded project to its handle, so plain, fault-capturing
and sampled feeds all carry it. It folds in what handle enumeration
needs on the side —

* **failure capture** — under a skip/retry error policy, a project
  whose fingerprinting raises is quarantined as a
  :class:`~repro.engine.faults.ProjectFailure` (after the retry
  budget, for transient errors) instead of killing the enumeration;
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
    round_robin,
    source_count,
    source_stratum,
)


class HandleStream:
    """A single-use, lazily enumerated stream of source handles.

    Args:
        source: any :class:`~repro.sources.base.HistorySource`.
        policy: the run's error policy; a capturing one quarantines
            per-project fingerprint failures into :attr:`failures`,
            ``None`` or fail-fast lets them propagate.

    Attributes:
        source: the wrapped source.
        failures: fingerprint-stage quarantines, in enumeration order;
            complete only once the stream is consumed.
        seen: handles yielded so far.
    """

    def __init__(self, source: Any, policy: Any = None):
        self.source = source
        self.policy = policy
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
        attach = not self.source.lightweight
        for handle in self._iter_capturing():
            if attach:
                handle = dataclasses.replace(
                    handle, item=self.source.load(handle.pid))
            yield self._note(handle)

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
        def stratum(pair: tuple[int, SourceHandle]) -> str:
            pid = pair[1].pid
            return source_stratum(source, pid) if source is not None \
                else pid
        picked = sorted(round_robin(indexed, stratum, sample))
        return [handle for _, handle in picked]
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(len(indexed)), sample))
    return [indexed[position][1] for position in keep]
