"""The :class:`HistorySource` protocol and its in-memory adapter.

A history source decouples *where schema histories come from* (the
synthetic generator, an on-disk corpus, a checked-out git repository)
from *how the study runs* (the engine's stage DAG). The contract is
three methods:

* ``project_ids()`` — the stable, ordered ids of every project;
* ``fingerprint(pid)`` — a content hash of one project, computable
  WITHOUT loading it (a child seed, a file digest, a git sha list);
* ``load(pid)`` — materialize one project.

The engine fans every source's projects out to worker processes as
:class:`SourceHandle`\\ s (pid + fingerprint), and the
content-addressed cache keys directly off the fingerprint. Sources
with ``lightweight = True`` are small picklable objects (a seed, a
path): each worker calls ``load`` itself, so no
:class:`~repro.history.repository.SchemaHistory` crosses the
parent→worker pickling boundary and a cache hit loads nothing at all.
Other sources get each project attached to its handle in the parent
(``SourceHandle.item``), so it crosses to a worker once, with its
handle.

Sources may additionally implement a **streaming surface** —
``iter_handles()`` yielding one :class:`SourceHandle` at a time and
``count()`` returning the project total without enumeration. The
module-level helpers :func:`iter_source_handles` and
:func:`source_count` bridge sources that implement neither via
``project_ids()``, so third-party three-method sources keep working
unchanged while sharded corpora never materialize a full handle list.

This module deliberately imports nothing from :mod:`repro.engine` at
module level so the engine can depend on it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Iterable, Iterator, Protocol, Sequence,
                    runtime_checkable)

from repro.errors import SourceError

#: The two record-computation modes a source can declare. ``"corpus"``
#: items are generated projects carrying their ground-truth pattern;
#: ``"histories"`` items are bare histories classified blindly.
SOURCE_MODES = ("corpus", "histories")


def check_mode(mode: str) -> str:
    """Validate a source mode string.

    Raises:
        SourceError: for anything but ``"corpus"`` / ``"histories"``.
    """
    if mode not in SOURCE_MODES:
        raise SourceError(
            f"unknown source mode {mode!r}; expected one of "
            f"{', '.join(SOURCE_MODES)}")
    return mode


@dataclass(frozen=True)
class SourceHandle:
    """The lightweight stand-in for one project in the engine's map.

    Attributes:
        pid: the project's id within its source.
        fingerprint: the source's content hash for the project — the
            cache key material; loading is not required to compute it.
        item: the loaded project, attached in the parent for sources
            that are not lightweight; ``None`` otherwise. It takes no
            part in equality or repr.
    """

    pid: str
    fingerprint: str
    item: Any = field(default=None, compare=False, repr=False)


@runtime_checkable
class HistorySource(Protocol):
    """Anything that can enumerate, fingerprint and load histories.

    Attributes:
        mode: ``"corpus"`` (items are generated projects with ground
            truth) or ``"histories"`` (items are bare histories,
            classified blindly).
        lightweight: True when the source itself is a small picklable
            object that workers load projects from; False makes the
            engine load each project in the parent and attach it to
            its :class:`SourceHandle`.

    Sources may additionally implement ``identity() -> list`` — a
    cheap, canonicalizable description of everything that determines
    their project ids and fingerprints (a seed, a manifest digest, a
    HEAD sha). It becomes a run's source fingerprint in the ledger
    and journal, and ``refresh --watch`` skips a poll whose identity
    did not change. A source memoizes its own enumeration; the engine
    enumerates it afresh on every run.

    Optional streaming surface (all bridged by helpers when absent):

    * ``iter_handles() -> Iterator[SourceHandle]`` — lazily yield one
      handle per project, in ``project_ids()`` order, without building
      the full id list (:func:`iter_source_handles` bridges).
    * ``count() -> int`` — the project total, cheaper than enumerating
      (:func:`source_count` bridges via ``__len__``/``project_ids``).
    * ``stratum(pid) -> str | None`` — a sampling stratum for the
      project (its pattern for corpora), used by stratified study
      sampling; ``None``/absent groups by pid prefix instead.

    Optional **delta surface** (enables append-only incremental
    re-study; sources without it always recompute in full and keep no
    checkpoints — synthetic corpora among them, whose histories are
    generated whole from a spec and never grow by append):

    * ``version_chain(pid) -> tuple[str, ...]`` — one stable hash per
      version of the project, oldest first, such that append-only
      growth *extends* the chain and any rewrite of an existing
      version changes a prefix element (git: the file's commit shas;
      corpus directories: per-commit content hashes). This is the
      delta layer's prefix proof: "old chain is a prefix of new chain"
      means the checkpointed study state can be extended by parsing
      only the suffix.
    * ``load_delta(pid, start) -> list[Commit]`` — the project's
      commits from chain position ``start`` onward, without reading
      earlier payloads (``"histories"`` sources only; ``"corpus"``
      sources slice the loaded commits instead).
    """

    mode: str
    lightweight: bool

    def project_ids(self) -> Sequence[str]:
        """Stable, ordered project ids."""
        ...  # pragma: no cover - protocol

    def fingerprint(self, pid: str) -> str:
        """Content hash of one project, computed without loading it."""
        ...  # pragma: no cover - protocol

    def load(self, pid: str) -> Any:
        """Materialize one project (a GeneratedProject or a history)."""
        ...  # pragma: no cover - protocol


class InMemorySource:
    """A source over objects that already live in this process.

    The library's adapter behind
    :func:`repro.study.pipeline.records_from_corpus`,
    :func:`~repro.study.pipeline.run_full_study` and
    :func:`~repro.study.pipeline.records_from_histories` (the CLI
    always reads a source spec): it wraps generated projects
    (``mode="corpus"``) or schema histories (``mode="histories"``)
    that the caller constructed eagerly. Project ids are the project
    names; only a repeated name gets a suffix (``name#2``, ``name#3``,
    …). It is not lightweight: the engine attaches each project to its
    handle, and a pickled copy of the source travels empty.

    Args:
        items: generated projects or histories, in study order.
        mode: ``"corpus"`` or ``"histories"``.

    Raises:
        SourceError: for an unknown mode.
    """

    lightweight = False

    def __init__(self, items: Iterable[Any], mode: str = "corpus"):
        self.mode = check_mode(mode)
        self._items: dict[str, Any] = {}
        for item in items:
            name = item.name if mode == "corpus" else item.project_name
            pid, repeat = name, 1
            while pid in self._items:
                repeat += 1
                pid = f"{name}#{repeat}"
            self._items[pid] = item

    def __reduce__(self):
        # The handles already carry the projects; the copy the map
        # stage broadcasts to workers travels empty.
        return (InMemorySource, ((), self.mode))

    def project_ids(self) -> tuple[str, ...]:
        return tuple(self._items)

    def fingerprint(self, pid: str) -> str:
        # In-memory objects have no cheaper identity than their content;
        # reuse the engine's content-hash helpers (imported lazily to
        # keep this module engine-free at import time).
        from repro.engine.cache import fingerprint
        from repro.engine.study_plan import history_fingerprint_parts
        item = self.load(pid)
        if self.mode == "corpus":
            return fingerprint(
                "in-memory-project", item.name,
                item.intended_pattern, item.is_exception,
                item.exception_kind,
                history_fingerprint_parts(item.history),
                tuple(item.source.monthly) if item.source else None)
        return fingerprint("in-memory-history",
                           history_fingerprint_parts(item))

    def load(self, pid: str) -> Any:
        try:
            return self._items[pid]
        except KeyError:
            raise SourceError(
                f"unknown project id {pid!r} (in-memory source holds "
                f"{len(self._items)} projects)") from None

    def count(self) -> int:
        return len(self._items)

    def __len__(self) -> int:
        return len(self._items)


def iter_source_handles(source: Any) -> Iterator[SourceHandle]:
    """Lazily yield one :class:`SourceHandle` per project of ``source``.

    Uses the source's native ``iter_handles()`` when it has one;
    otherwise bridges over ``project_ids()`` + ``fingerprint(pid)``,
    which keeps every pre-streaming three-method source working. The
    bridge still materializes the id list (ids are tiny); only native
    implementations avoid that too.
    """
    native = getattr(source, "iter_handles", None)
    if native is not None:
        yield from native()
        return
    for pid in source.project_ids():
        yield SourceHandle(pid=pid, fingerprint=source.fingerprint(pid))


def source_count(source: Any) -> int:
    """The number of projects in ``source``, as cheaply as possible.

    Prefers a native ``count()``, then ``len(source)``, then the length
    of ``project_ids()`` — the same order of increasing cost the
    streaming executor uses to size work chunks.
    """
    native = getattr(source, "count", None)
    if native is not None:
        return native()
    try:
        return len(source)
    except TypeError:
        return len(source.project_ids())


def source_stratum(source: Any, pid: str) -> str:
    """The sampling stratum of one project (stratified study modes).

    Sources that know their projects' strata (the intended pattern of
    a corpus) expose ``stratum(pid)``; anything else falls back to the
    pid with its trailing ``-N`` ordinal stripped, which groups the
    synthetic naming scheme's ``<pattern>-<n>`` ids correctly and
    degrades to per-pid strata elsewhere.
    """
    native = getattr(source, "stratum", None)
    if native is not None:
        stratum = native(pid)
        if stratum is not None:
            return stratum
    head, sep, tail = pid.rpartition("-")
    if sep and tail.isdigit():
        return head
    return pid


def round_robin(items: Iterable[Any], key: Callable[[Any], Any],
                limit: int) -> list:
    """The first ``limit`` items, drawn round-robin across strata.

    ``key`` gives each item's stratum; strata take turns in the order
    they first appear, each yielding its items in input order, so a
    small draw spans every stratum. Returned in draw order.
    """
    groups: dict[Any, list] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    picked: list = []
    queues = list(groups.values())
    while queues and len(picked) < limit:
        for queue in list(queues):
            if len(picked) >= limit:
                break
            picked.append(queue.pop(0))
            if not queue:
                queues.remove(queue)
    return picked
