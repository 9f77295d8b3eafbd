"""Append-only delta re-study: per-project checkpoints + suffix kernel.

When a source's history grows from N to N+K versions, re-deriving the
project's study record from scratch costs O(N) parses even though the
first N versions are bit-identical to the last run. This module makes
that re-derivation O(K), with byte-identical output, by persisting one
**study checkpoint** per project in the cache directory:

* the project's *version-hash chain* at the time the record was
  computed — the proof object: a new chain that has the old one as a
  proper prefix means "history appended, nothing rewritten";
* the frozen version-N tail state of the incremental parse — the final
  segment-hash tuple, the final :class:`~repro.schema.model.Schema`
  snapshot and its reusable ``Table`` pool — the state a
  :class:`~repro.history.repository.SnapshotFold` resumes from, so the
  suffix kernel picks up mid-stream;
* the accumulated :class:`~repro.history.heartbeat.ActivitySeries`
  flat month×kind rows (``None`` for untouched months — provably
  equivalent to the all-zero row, since every schema change carries at
  least one kind), plus the project window and birth month.

A served record is labeled and classified afresh under the run's
label scheme, so a checkpoint holds no labels and no scheme.

The **suffix recompute kernel** (:func:`extend_checkpoint`) folds the
new commits through the same
:class:`~repro.history.repository.SnapshotFold` a cold materialization
uses, started from the checkpointed tail instead of an empty history,
then extends the month counts in place exactly as
:func:`~repro.history.kernel.accumulate_month_counts` would have, and
rebuilds landmarks/totals/vector from the extended series. Any guard
failure (rewritten chain, changed project window, out-of-order suffix
timestamps, dialect change, migration-style history) falls back to a
full recompute; falling back is always correct, the checkpoint is only
ever an accelerator.

Checkpoints are written on *every* computed record when a delta store
is active — cold studies included — so the very first ``refresh`` after
an append already runs the suffix path. Files live under
``<cache_dir>/delta/``, wrapped in the result cache's checksummed
envelope and written atomically, at a path that mixes in the
:func:`~repro.engine.cache.code_digest`: a checkpoint written by other
code is never found, so its pickled ``Schema``/``Table`` objects are
never loaded, and a corrupt file reads as "no checkpoint".

The serve path counts in :mod:`repro.obs`: ``delta_appended``
(projects served by the append path), ``delta_rewritten`` (projects
whose checkpoint had to be discarded), ``delta_reused`` (versions
reused from checkpoints) and ``delta_parsed`` (versions parsed by the
suffix kernel).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from datetime import datetime
from pathlib import Path
from typing import Any, Sequence

from repro import obs
from repro.analysis.records import StudyRecord
from repro.diff.engine import diff_schemas
from repro.diff.stats import EMPTY_BREAKDOWN, ChangeBreakdown
from repro.engine.cache import (
    code_digest,
    decode_entry,
    encode_entry,
    fingerprint,
)
from repro.errors import EngineError
from repro.history.heartbeat import ActivitySeries
from repro.history.repository import (
    SchemaHistory,
    SnapshotFold,
    incremental_parse_default,
    month_index,
)
from repro.labels.quantization import LabelScheme, label_profile
from repro.metrics.profile import ProjectProfile
from repro.patterns.classifier import (
    ClassificationResult,
    classify,
    classify_with_tolerance,
)

#: Subdirectory of the cache dir that holds the checkpoint files.
DELTA_SUBDIR = "delta"


def _note_served(reused: int, parsed: int) -> None:
    if parsed:
        obs.count("delta_appended")
    obs.count("delta_reused", reused)
    obs.count("delta_parsed", parsed)


# ----------------------------------------------------------------------
# version chains


def commit_chain(commits: Sequence) -> tuple[str, ...]:
    """One content hash per commit: the generic version-hash chain.

    Sources that store whole payloads cheaply (corpus directories)
    derive their chain from the commits themselves; git uses commit
    shas instead (computable without reading any blob). Either way the
    chain only has to be *stable* and *prefix-preserving under
    append* — checkpoints never compare chains across sources.
    """
    return tuple(fingerprint("delta-commit", c.timestamp, c.ddl_text)
                 for c in commits)


def _is_prefix(old: tuple, new: tuple) -> bool:
    return len(old) <= len(new) and tuple(new[:len(old)]) == tuple(old)


# ----------------------------------------------------------------------
# the checkpoint and its store


@dataclass(frozen=True)
class StudyCheckpoint:
    """Everything needed to extend one project's study by a suffix.

    Attributes:
        pid: the source-side project id.
        mode: ``"corpus"`` or ``"histories"`` (the record flavor).
        name: the project/history name the record carries.
        chain: the version-hash chain of the processed history.
        dialect: SQL dialect name the versions were parsed under.
        project_start / project_end: the processed project window.
        last_commit_ts: timestamp of the last processed commit — the
            append boundary (suffix commits must not sort before it).
        birth_month: month index of the first commit (unchanged by
            appends; the landmark computation's anchor).
        monthly: the accumulated per-month activity counts.
        rows: per-month flat kind-count rows; ``None`` for untouched
            months (equivalent to the all-zero row).
        prev_hashes: segment-hash tuple of the final version (arms the
            whole-version shortcut for the first suffix commit).
        schema: the final version's schema snapshot (diff baseline).
        pool: the final version's reusable ``Table`` pool (``None``
            after a classic-fallback final commit).
    """

    pid: str
    mode: str
    name: str
    chain: tuple
    dialect: str
    project_start: datetime
    project_end: datetime
    last_commit_ts: datetime
    birth_month: int
    monthly: tuple
    rows: tuple
    prev_hashes: tuple | None
    schema: Any
    pool: dict | None


class DeltaStore:
    """Per-project study checkpoints under ``<cache_dir>/delta/``.

    The store is a broadcast extra of the records map stage: it holds
    only its root path, so it pickles to workers in a few bytes, and
    each worker reads/writes checkpoint files directly (one project is
    mapped at most once per run, so writers never race). A project's
    path is keyed by the code digest too, so other code's checkpoints
    are never read. Reads treat anything unreadable — missing or torn
    file — as "no checkpoint"; writes are atomic tmp+rename and
    best-effort, mirroring :class:`~repro.engine.cache.ResultCache`.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, pid: str, mode: str) -> Path:
        digest = hashlib.sha256(
            f"{code_digest()}\x1f{mode}\x1f{pid}".encode("utf-8")
        ).hexdigest()
        return self.root / digest[:2] / f"{digest}.ckpt"

    def load(self, pid: str, mode: str) -> StudyCheckpoint | None:
        """The project's checkpoint, or ``None`` (absent/corrupt)."""
        path = self.path_for(pid, mode)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            value = decode_entry(data)
        except EngineError:
            return None
        if not isinstance(value, StudyCheckpoint) \
                or value.pid != pid or value.mode != mode:
            return None
        return value

    def save(self, checkpoint: StudyCheckpoint) -> bool:
        """Persist ``checkpoint`` atomically (best-effort)."""
        path = self.path_for(checkpoint.pid, checkpoint.mode)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(encode_entry(checkpoint))
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True

    def discard(self, pid: str, mode: str) -> None:
        """Remove the project's checkpoint, if any (best-effort)."""
        try:
            self.path_for(pid, mode).unlink(missing_ok=True)
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaStore({str(self.root)!r})"


def delta_store_for(source: Any, config: Any) -> DeltaStore | None:
    """The delta store a run over ``source`` should use, or ``None``.

    Checkpoints are maintained whenever (a) a cache directory exists
    to hold them, (b) the source speaks the version-chain protocol, and
    (c) incremental statement parsing is globally enabled (the suffix
    kernel rides the memo; ``--no-incremental`` A/B runs stay classic
    end to end). A cold study in a fresh cache dir is the oracle of a
    delta refresh.
    """
    if config is None or config.cache_dir is None:
        return None
    if getattr(source, "version_chain", None) is None:
        return None
    if not incremental_parse_default():
        return None
    return DeltaStore(Path(config.cache_dir) / DELTA_SUBDIR)


# ----------------------------------------------------------------------
# checkpoint capture (after a full compute)


def capture_checkpoint(pid: str, mode: str, history: SchemaHistory,
                       record: StudyRecord,
                       chain: tuple) -> StudyCheckpoint | None:
    """A checkpoint of a freshly, fully computed record.

    Called in the process that folded ``history`` (the tail state does
    not pickle). Returns ``None`` when the history did not materialize
    through the memoized path (migration-style ``incremental``
    histories, classic full parses) — there is no tail state to resume
    from, and the next run simply recomputes in full.
    """
    if history.incremental:
        return None
    state = history._delta_state
    versions = history._versions
    if state is None or not versions:
        return None
    series = record.labeled.profile.heartbeat
    if series.breakdowns is None:
        return None
    prev_hashes, pool = state
    rows = tuple(tuple(b.flat) if any(b.flat) else None
                 for b in series.breakdowns)
    return StudyCheckpoint(
        pid=pid,
        mode=mode,
        name=history.project_name,
        chain=tuple(chain),
        dialect=history.dialect.traits.name,
        project_start=history.project_start,
        project_end=history.project_end,
        last_commit_ts=history.commits[-1].timestamp,
        birth_month=history.commit_month(history.commits[0]),
        monthly=tuple(series.monthly),
        rows=rows,
        prev_hashes=prev_hashes,
        schema=versions[-1].schema,
        pool=pool,
    )


# ----------------------------------------------------------------------
# the suffix recompute kernel


class _Unusable(Exception):
    """Internal: this checkpoint cannot serve this history. Fall back."""


def _check_usable(cp: StudyCheckpoint, chain: tuple, dialect_name: str,
                  project_start: datetime,
                  project_end: datetime) -> None:
    if cp.dialect != dialect_name:
        raise _Unusable("dialect changed")
    if not _is_prefix(cp.chain, tuple(chain)):
        raise _Unusable("old chain is not a prefix of the new one")
    if cp.project_start != project_start:
        raise _Unusable("project_start moved (month indexing changed)")
    if project_end < cp.project_end:
        raise _Unusable("project window shrank")


def extend_checkpoint(cp: StudyCheckpoint, suffix: Sequence,
                      project_end: datetime, dialect
                      ) -> tuple[ActivitySeries, StudyCheckpoint]:
    """Run the suffix kernel: ``K`` new commits onto a checkpoint.

    Folds the commits through a :class:`SnapshotFold` resumed from the
    checkpointed version-N tail state, and folds each suffix diff's
    kind counts into the checkpointed month rows precisely as
    ``accumulate_month_counts`` would have.

    Args:
        cp: the usable checkpoint (caller verified the prefix proof).
        suffix: the new commits, timestamp-sorted; may be empty (a
            window extension or metadata-only change).
        project_end: the grown history's project end (never earlier
            than the checkpoint's).
        dialect: the parse dialect (object, not name).

    Returns:
        ``(series, new_checkpoint)`` — the extended activity series
        and the checkpoint advanced to the new tail (its ``chain`` is
        still the *old* one; the caller replaces it with the new
        chain, which it alone knows in full).

    Raises:
        _Unusable: when a suffix commit sorts before the checkpoint's
            append boundary (a rewrite in disguise) or the window math
            stops adding up; callers fall back to a full recompute.
    """
    monthly = list(cp.monthly)
    rows: list = [list(r) if r is not None else None for r in cp.rows]
    new_pup = month_index(cp.project_start, project_end) + 1
    if new_pup < len(monthly):
        raise _Unusable("grown history spans fewer months")
    monthly.extend([0] * (new_pup - len(monthly)))
    rows.extend([None] * (new_pup - len(rows)))

    fold = SnapshotFold(dialect, cp.prev_hashes, cp.pool)
    prev_schema = cp.schema
    last_ts = cp.last_commit_ts
    for commit in suffix:
        if commit.timestamp < last_ts:
            raise _Unusable("suffix commit predates the append boundary")
        last_ts = commit.timestamp
        folded = fold.fold(commit.ddl_text)
        if folded is None:
            continue  # same statements, same schema: an empty diff
        schema = folded[0]
        diff = diff_schemas(prev_schema, schema)
        if diff.changes:
            month = month_index(cp.project_start, commit.timestamp)
            flat = diff.kind_counts_flat()
            monthly[month] += sum(flat)
            if rows[month] is None:
                rows[month] = list(flat)
            else:
                row = rows[month]
                for slot, count in enumerate(flat):
                    row[slot] += count
        prev_schema = schema

    series = ActivitySeries(
        monthly=tuple(monthly),
        breakdowns=tuple(
            EMPTY_BREAKDOWN if row is None
            else ChangeBreakdown(flat=tuple(row))
            for row in rows))
    advanced = replace(
        cp,
        project_end=project_end,
        last_commit_ts=last_ts,
        monthly=tuple(series.monthly),
        rows=tuple(tuple(row) if row is not None else None
                   for row in rows),
        prev_hashes=fold.prev_hashes,
        schema=prev_schema,
        pool=fold.pool,
    )
    return series, advanced


# ----------------------------------------------------------------------
# serving records from checkpoints (worker side)


def _serve_extended(store: DeltaStore, extended: tuple, parsed: int,
                    chain: tuple, scheme: LabelScheme, name: str,
                    record_name: str, judge) -> StudyRecord:
    """The record of :func:`extend_checkpoint`'s ``(series,
    advanced)`` after ``parsed`` suffix commits, saved as the checkpoint
    of the grown ``chain``. ``name`` names the profile and checkpoint,
    ``record_name`` the record; ``judge`` is the path's classifier."""
    series, advanced = extended
    profile = ProjectProfile.from_series(name, series,
                                         advanced.birth_month)
    labeled = label_profile(profile, scheme)
    result = judge(labeled)
    record = StudyRecord(name=record_name, pattern=result.pattern,
                         labeled=labeled, is_exception=result.is_exception)
    _note_served(reused=len(advanced.chain), parsed=parsed)
    store.save(replace(advanced, chain=tuple(chain), name=name))
    return record


def serve_corpus_delta(store: DeltaStore, pid: str, project,
                       chain: tuple, scheme: LabelScheme
                       ) -> StudyRecord | None:
    """A corpus-mode record off the checkpointed prefix, or ``None``.

    The project is already loaded (corpus-directory payloads are one
    cheap JSON read; the cost this path avoids is *parsing* the DDL of
    the prefix versions). ``None`` means "no usable checkpoint — do
    the full compute"; a rewritten/unusable checkpoint also counts as
    ``delta_rewritten``. A migration-style history is never served:
    :func:`capture_checkpoint` writes no checkpoint for one, so any
    checkpoint found for it read the same commits as snapshots, and
    the full compute that follows drops it.
    """
    cp = store.load(pid, "corpus")
    if cp is None:
        return None
    history = project.history
    try:
        if history.incremental:
            raise _Unusable("migration-style history")
        _check_usable(cp, chain, history.dialect.traits.name,
                      history.project_start, history.project_end)
        suffix = history.commits[len(cp.chain):]
        extended = extend_checkpoint(cp, suffix, history.project_end,
                                     history.dialect)
    except _Unusable:
        obs.count("delta_rewritten")
        return None
    intended = project.intended_pattern

    def judge(labeled) -> ClassificationResult:
        return ClassificationResult(
            pattern=intended, is_exception=classify(labeled) is not intended)

    return _serve_extended(store, extended, len(suffix), chain, scheme,
                           history.project_name, project.name, judge)


def serve_history_delta(store: DeltaStore, pid: str, source,
                        chain: tuple, scheme: LabelScheme
                        ) -> StudyRecord | None:
    """A histories-mode record off the checkpointed prefix, or ``None``.

    Unlike the corpus path, old payloads are never read: the chain
    (git shas) proves the prefix, and only the suffix commits are
    fetched via the source's ``load_delta``. The rebuilt record has
    the shape of a cold one: profiles never carry their history.
    """
    load_delta = getattr(source, "load_delta", None)
    cp = store.load(pid, "histories")
    if cp is None or load_delta is None:
        return None
    dialect = source.dialect
    try:
        if cp.dialect != dialect.traits.name:
            raise _Unusable("dialect changed")
        if not _is_prefix(cp.chain, tuple(chain)):
            raise _Unusable("old chain is not a prefix of the new one")
        suffix = sorted(load_delta(pid, len(cp.chain)),
                        key=lambda commit: commit.timestamp)
        project_end = cp.project_end
        if suffix:
            if suffix[0].timestamp < cp.last_commit_ts:
                raise _Unusable(
                    "suffix commit predates the append boundary")
            project_end = max(project_end, suffix[-1].timestamp)
        extended = extend_checkpoint(cp, suffix, project_end, dialect)
    except _Unusable:
        obs.count("delta_rewritten")
        return None
    return _serve_extended(store, extended, len(suffix), chain, scheme,
                           cp.name, cp.name, classify_with_tolerance)
