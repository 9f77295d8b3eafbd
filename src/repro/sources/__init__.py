"""repro.sources — pluggable history ingestion.

Where the engine (:mod:`repro.engine`) answers *how the study runs*,
this package answers *where the histories come from*. Every source
implements the three-method :class:`HistorySource` protocol —
``project_ids()`` / ``fingerprint(pid)`` / ``load(pid)`` — and
declares a ``mode`` (``"corpus"`` for generated projects with ground
truth, ``"histories"`` for blind classification) plus a
``lightweight`` flag (True when the source is a small picklable object
workers load projects from; otherwise the engine attaches each loaded
project to its :class:`SourceHandle`).

Shipped sources:

* :class:`SyntheticSource` — the paper's 151-project corpus, realized
  lazily from per-project child seeds;
* :class:`CorpusDirSource` — the versioned JSONL-on-disk corpus
  format, the one way a corpus is stored (see :func:`write_corpus_dir`
  / :func:`export_corpus_dir` / :func:`import_corpus_dir`);
* :class:`GitDirSource` — Hecate-style extraction of DDL-file
  histories from a checked-out git repository;
* :class:`InMemorySource` — the library's adapter over objects
  already in memory (``records_from_corpus``, ``run_full_study``,
  ``records_from_histories``); no CLI spec names it.

The CLI's ``--source`` flag maps onto :func:`source_from_spec`::

    synthetic:           the default corpus (config seed)
    synthetic:SEED       the corpus under another seed
    dir:PATH             a JSONL corpus directory
    git:PATH             a checked-out git repository
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SourceError
from repro.sources.base import (
    SOURCE_MODES,
    HistorySource,
    InMemorySource,
    SourceHandle,
    check_mode,
    iter_source_handles,
    source_count,
    source_stratum,
)
from repro.sources.corpusdir import (
    CORPUS_DIR_FORMAT,
    CORPUS_DIR_VERSION,
    CORPUS_DIR_VERSION_SHARDED,
    CorpusDirSource,
    CorpusWriteReport,
    export_corpus_dir,
    import_corpus_dir,
    write_corpus_dir,
)
from repro.sources.gitdir import GitDirSource
from repro.sources.synthetic import SyntheticSource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.config import StudyConfig

__all__ = [
    "CORPUS_DIR_FORMAT",
    "CORPUS_DIR_VERSION",
    "CORPUS_DIR_VERSION_SHARDED",
    "SOURCE_MODES",
    "CorpusDirSource",
    "CorpusWriteReport",
    "GitDirSource",
    "HistorySource",
    "InMemorySource",
    "SourceHandle",
    "SyntheticSource",
    "check_mode",
    "export_corpus_dir",
    "import_corpus_dir",
    "iter_source_handles",
    "source_count",
    "source_from_spec",
    "source_stratum",
    "write_corpus_dir",
]


def source_from_spec(spec: str,
                     config: "StudyConfig | None" = None
                     ) -> HistorySource:
    """Build a history source from a ``kind:argument`` spec string.

    Args:
        spec: ``synthetic:[SEED]``, ``dir:PATH`` or ``git:PATH``.
        config: supplies the default seed for ``synthetic:``.

    Raises:
        SourceError: for an unknown kind, a malformed seed, or a
            missing required argument.
    """
    kind, sep, argument = spec.partition(":")
    if not sep:
        raise SourceError(
            f"malformed source spec {spec!r}: expected KIND:ARG "
            f"(synthetic:, dir:PATH or git:PATH)")
    if kind == "synthetic":
        if argument:
            try:
                seed = int(argument)
            except ValueError:
                raise SourceError(
                    f"synthetic source seed must be an integer, "
                    f"got {argument!r}") from None
        else:
            seed = config.seed if config is not None else None
        return SyntheticSource(seed=seed)
    if kind in ("dir", "git") and not argument:
        raise SourceError(f"source spec {spec!r} needs a path")
    if kind == "dir":
        return CorpusDirSource(argument)
    if kind == "git":
        return GitDirSource(argument)
    raise SourceError(
        f"unknown source kind {kind!r}; expected synthetic, dir or git")
