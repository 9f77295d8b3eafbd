"""Schema histories: loading, storage and version materialization."""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from datetime import datetime
from pathlib import Path
from typing import Iterator

from repro.errors import HistoryError
from repro.history.commit import Commit, SchemaVersion
from repro.schema.builder import (
    FoldedCreate,
    SchemaBuilder,
    fold_create,
    fold_statement,
)
from repro.schema.model import Schema
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.memo import CutCreate, StatementMemo
from repro.sqlddl.normalize import normalize_identifier
from repro.sqlddl.parser import parse_script
from repro.sqlddl.splitter import split_statements

_FILENAME_TIMESTAMP = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})(?:[T_](\d{2}))?(?:[-:]?(\d{2}))?(?:[-:]?(\d{2}))?"
)

#: Environment flag disabling the incremental parse path process-wide.
#: An env var (rather than a config field) so per-project workers spawned
#: by the execution engine inherit the choice automatically.
NO_INCREMENTAL_ENV = "REPRO_NO_INCREMENTAL"


def incremental_parse_default() -> bool:
    """Whether histories materialize incrementally by default (on unless
    ``REPRO_NO_INCREMENTAL`` is set)."""
    return not os.environ.get(NO_INCREMENTAL_ENV)


def set_incremental_parse_default(enabled: bool) -> None:
    """Set the process-wide incremental-parse default (and that of any
    worker process spawned afterwards)."""
    if enabled:
        os.environ.pop(NO_INCREMENTAL_ENV, None)
    else:
        os.environ[NO_INCREMENTAL_ENV] = "1"


@contextmanager
def incremental_parse_disabled() -> Iterator[None]:
    """Turn the incremental-parse default off for a ``with`` block.

    Worker processes spawned inside the block inherit the setting; on
    exit the previous value of ``REPRO_NO_INCREMENTAL`` is restored.
    """
    previous = os.environ.get(NO_INCREMENTAL_ENV)
    set_incremental_parse_default(False)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(NO_INCREMENTAL_ENV, None)
        else:
            os.environ[NO_INCREMENTAL_ENV] = previous


def _fold_classic(text: str, dialect: Dialect) -> tuple[Schema, int]:
    """One full-snapshot DDL text folded the classic way: whole-file
    parse, fresh builder. Returns the schema and its parse-issue
    count."""
    script = parse_script(text, dialect)
    builder = SchemaBuilder(strict=False)
    builder.apply_script(script)
    return builder.snapshot(), len(script.skipped) + len(builder.issues)


class SnapshotFold:
    """The fold kernel of full-snapshot commits, resumable mid-history.

    Folds one commit's DDL text at a time, doing the work once per
    distinct piece of the history, with output identical to
    :func:`_fold_classic`. A version whose statements equal the previous
    version's folds to nothing new. The :class:`StatementMemo` parses
    each distinct span once; each distinct ``CREATE TABLE``, cut or
    parsed whole, is folded once per history
    (:func:`~repro.schema.builder.fold_create`) and installed into each
    version's :class:`SchemaBuilder` as a lazy state; and
    ``snapshot_reusing`` hands back the previous version's ``Table``
    for every table whose ``(name, trace)`` pool key is unchanged. A
    version holding a span the memo cannot parse in isolation folds
    classically and clears the table pool.

    Args:
        dialect: the parse dialect.
        prev_hashes: segment-hash tuple of the version the fold resumes
            after (None: start from an empty history).
        pool: that version's reusable ``Table`` pool, or None.
    """

    def __init__(self, dialect: Dialect,
                 prev_hashes: tuple[str, ...] | None = None,
                 pool: dict | None = None):
        self.dialect = dialect
        self.memo = StatementMemo(dialect)
        self.prev_hashes = prev_hashes
        self.pool = pool
        self._creates: dict[str, FoldedCreate] = {}

    def fold(self, text: str) -> tuple[Schema, int] | None:
        """The schema and parse-issue count of the next version, or None
        when its statements are byte-identical to the previous
        version's (same schema, same issues)."""
        segments = split_statements(text, self.dialect)
        hashes = tuple(s.content_hash for s in segments)
        if hashes == self.prev_hashes:
            return None
        self.prev_hashes = hashes
        entries = [self.memo.parse(segment) for segment in segments]
        if any(entry.fallback for entry in entries):
            self.pool = None
            return _fold_classic(text, self.dialect)
        builder = SchemaBuilder(strict=False)
        skipped = 0
        for token, entry in zip(hashes, entries):
            cut = type(entry) is CutCreate
            statement = entry.template if cut else entry.statement
            if isinstance(statement, ast.CreateTable):
                if statement.temporary:
                    continue  # as SchemaBuilder.apply: not persistent
                folded = self._creates.get(token)
                if folded is None:
                    folded = self._creates[token] = fold_create(
                        normalize_identifier(statement.name),
                        entry.columns, entry.constraints) if cut \
                        else fold_statement(statement)
                builder.install(folded, statement.if_not_exists, token)
            elif statement is not None:
                builder.apply(statement, token=token)
            else:
                skipped += 1
        schema, self.pool = builder.snapshot_reusing(self.pool)
        return schema, skipped + len(builder.issues)


def month_index(start: datetime, when: datetime) -> int:
    """0-based calendar-month index of ``when`` relative to ``start``.

    The paper's granule of time is the month: all activity inside one
    calendar month counts together.
    """
    return (when.year - start.year) * 12 + (when.month - start.month)


class SchemaHistory:
    """The ordered DDL history of one project.

    Args:
        project_name: human-readable project identifier.
        commits: the DDL commits; sorted by timestamp on construction.
        project_start: start of the *project* (source-code side) — may
            precede the first DDL commit (late schema birth). Defaults to
            the first commit's timestamp.
        project_end: end of the project's update period. Defaults to the
            last commit's timestamp.
        dialect: SQL dialect used when parsing the DDL snapshots.
        incremental: commit-format switch. False (default): every commit
            holds the *entire* DDL file (git-snapshot style, the paper's
            dataset format). True: each commit holds only the new
            statements of that change (migration-script style); versions
            are materialized cumulatively.

    Full-snapshot commits materialize through :class:`SnapshotFold`
    (parse and fold only what changed since the previous version, reuse
    unchanged ``Table`` objects) unless the process-wide switch
    (:func:`incremental_parse_disabled`, ``--no-incremental``) selects
    the classic full re-parse; output is identical either way.

    A history pickles without its parsed versions and the fold's tail
    state: both derive from the commits, and whichever process needs
    them folds them again.

    Raises:
        HistoryError: for empty commit lists or a project window that does
            not contain every commit.
    """

    def __init__(self, project_name: str, commits: list[Commit],
                 project_start: datetime | None = None,
                 project_end: datetime | None = None,
                 dialect: Dialect = Dialect.GENERIC,
                 incremental: bool = False):
        if not commits:
            raise HistoryError(f"project {project_name!r} has no commits")
        self.project_name = project_name
        self.commits = sorted(commits, key=lambda c: c.timestamp)
        self.project_start = project_start or self.commits[0].timestamp
        self.project_end = project_end or self.commits[-1].timestamp
        self.dialect = dialect
        self.incremental = incremental
        #: (final segment-hash tuple, final Table pool) of the last
        #: memoized materialization — the tail state the delta layer
        #: checkpoints so a grown history can resume mid-stream; None
        #: when the classic or incremental path ran.
        self._delta_state: tuple | None = None
        self._versions: list[SchemaVersion] | None = None
        if self.project_start > self.commits[0].timestamp:
            raise HistoryError(
                f"project {project_name!r}: project_start is after the "
                f"first DDL commit")
        if self.project_end < self.commits[-1].timestamp:
            raise HistoryError(
                f"project {project_name!r}: project_end is before the "
                f"last DDL commit")

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_versions"] = state["_delta_state"] = None
        return state

    # ------------------------------------------------------------------
    # time frame

    @property
    def pup_months(self) -> int:
        """Project Update Period in months (inclusive of both endpoints)."""
        return month_index(self.project_start, self.project_end) + 1

    def commit_month(self, commit: Commit) -> int:
        """Month index of one commit within the project window."""
        return month_index(self.project_start, commit.timestamp)

    @property
    def duration_months(self) -> int:
        """Alias of :attr:`pup_months` (paper nomenclature: PUP)."""
        return self.pup_months

    # ------------------------------------------------------------------
    # versions

    def versions(self) -> list[SchemaVersion]:
        """Parse every commit into a schema version (cached)."""
        if self._versions is None:
            if self.incremental:
                self._versions = self._materialize_incremental()
            elif incremental_parse_default():
                self._versions = self._materialize_memoized()
            else:
                self._versions = [self._materialize(c)
                                  for c in self.commits]
        return self._versions

    def _materialize_memoized(self) -> list[SchemaVersion]:
        """Materialize full-snapshot commits through one
        :class:`SnapshotFold`, started from an empty history."""
        fold = SnapshotFold(self.dialect)
        versions: list[SchemaVersion] = []
        for commit in self.commits:
            folded = fold.fold(commit.ddl_text)
            if folded is None:
                previous = versions[-1]
                schema, issues = previous.schema, previous.parse_issues
            else:
                schema, issues = folded
            versions.append(SchemaVersion(commit=commit, schema=schema,
                                          parse_issues=issues))
        self._delta_state = (fold.prev_hashes, fold.pool)
        return versions

    def _materialize_incremental(self) -> list[SchemaVersion]:
        """Apply migration-style commits cumulatively to one builder."""
        builder = SchemaBuilder(strict=False)
        versions: list[SchemaVersion] = []
        issues_seen = 0
        for commit in self.commits:
            script = parse_script(commit.ddl_text, self.dialect)
            builder.apply_script(script)
            new_issues = len(builder.issues) - issues_seen
            issues_seen = len(builder.issues)
            versions.append(SchemaVersion(
                commit=commit,
                schema=builder.snapshot(),
                parse_issues=len(script.skipped) + new_issues,
            ))
        return versions

    def _materialize(self, commit: Commit) -> SchemaVersion:
        schema, issues = _fold_classic(commit.ddl_text, self.dialect)
        return SchemaVersion(commit=commit, schema=schema,
                             parse_issues=issues)

    def __len__(self) -> int:
        return len(self.commits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SchemaHistory({self.project_name!r}, "
                f"{len(self.commits)} commits, {self.pup_months} months)")


# ----------------------------------------------------------------------
# loaders / savers


def load_history_from_directory(path: str | Path, project_name: str | None
                                = None, dialect: Dialect = Dialect.GENERIC
                                ) -> SchemaHistory:
    """Load a history from a directory of timestamp-named ``.sql`` files.

    File names must embed an ISO-like date, e.g. ``2021-03-07.sql`` or
    ``2021-03-07T142500_v12.sql``; files sort by that timestamp.

    Raises:
        HistoryError: when the directory holds no parseable-named files.
    """
    directory = Path(path)
    commits: list[Commit] = []
    for file in sorted(directory.glob("*.sql")):
        match = _FILENAME_TIMESTAMP.search(file.name)
        if match is None:
            continue
        year, month, day, hour, minute, second = (
            int(g) if g else 0 for g in match.groups())
        timestamp = datetime(year, month, day, hour, minute, second)
        commits.append(Commit(sha=file.stem, timestamp=timestamp,
                              ddl_text=file.read_text()))
    if not commits:
        raise HistoryError(f"no timestamped .sql files found in {directory}")
    return SchemaHistory(project_name or directory.name, commits,
                         dialect=dialect)


def load_history_from_jsonl(path: str | Path,
                            dialect: Dialect | None = None) -> SchemaHistory:
    """Load a history from a JSONL file.

    The first line may be a header object with keys ``project``,
    ``start``, ``end`` and ``dialect``; every other line is a commit
    object with keys ``sha``, ``timestamp`` (ISO 8601) and ``ddl``.

    Raises:
        HistoryError: on malformed lines or an empty file.
    """
    file = Path(path)
    project_name = file.stem
    start = end = None
    file_dialect = Dialect.GENERIC
    incremental = False
    commits: list[Commit] = []
    with file.open() as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise HistoryError(
                    f"{file}:{line_no}: invalid JSON: {exc}") from exc
            if "ddl" not in record:
                project_name = record.get("project", project_name)
                if record.get("start"):
                    start = datetime.fromisoformat(record["start"])
                if record.get("end"):
                    end = datetime.fromisoformat(record["end"])
                if record.get("dialect"):
                    file_dialect = Dialect.from_name(record["dialect"])
                incremental = bool(record.get("incremental", False))
                continue
            try:
                commits.append(Commit(
                    sha=str(record.get("sha", f"c{line_no}")),
                    timestamp=datetime.fromisoformat(record["timestamp"]),
                    ddl_text=record["ddl"],
                    message=record.get("message", ""),
                ))
            except (KeyError, ValueError) as exc:
                raise HistoryError(
                    f"{file}:{line_no}: bad commit record: {exc}") from exc
    if not commits:
        raise HistoryError(f"{file}: no commits found")
    return SchemaHistory(project_name, commits, project_start=start,
                         project_end=end,
                         dialect=dialect or file_dialect,
                         incremental=incremental)


def save_history_to_jsonl(history: SchemaHistory, path: str | Path) -> None:
    """Write ``history`` in the JSONL format of
    :func:`load_history_from_jsonl`."""
    file = Path(path)
    with file.open("w") as handle:
        header = {
            "project": history.project_name,
            "start": history.project_start.isoformat(),
            "end": history.project_end.isoformat(),
            "dialect": history.dialect.traits.name,
            "incremental": history.incremental,
        }
        handle.write(json.dumps(header) + "\n")
        for commit in history.commits:
            record = {
                "sha": commit.sha,
                "timestamp": commit.timestamp.isoformat(),
                "ddl": commit.ddl_text,
            }
            if commit.message:
                record["message"] = commit.message
            handle.write(json.dumps(record) + "\n")
