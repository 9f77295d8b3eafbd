"""Extract schema histories from a checked-out git repository.

:class:`GitDirSource` reproduces the paper's corpus-construction step
(its Hecate extraction): walk a repository's history, find the DDL
files, and turn the sequence of committed versions of each file into a
:class:`~repro.history.repository.SchemaHistory` — one project per
tracked DDL file. Discovery applies the paper's §3.1 noise-name filter
(example/demo/test/migration paths) and keeps only files whose current
content actually contains ``CREATE TABLE`` DDL, so a repository full of
data dumps or query scripts does not flood the study.

The source shells out to the ``git`` binary (always present alongside
a checkout); every call is read-only. The instance itself carries only
the repository path and the discovered file list, so it pickles to
workers in a few hundred bytes; fingerprints are the commit-sha chains
of each file — computable without reading any blob.
"""

from __future__ import annotations

import subprocess
from datetime import datetime, timezone
from pathlib import Path

from repro.errors import LexError, ParseError, SourceError, TransientSourceError
from repro.history.commit import Commit
from repro.history.filters import is_noise_name
from repro.history.repository import SchemaHistory
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.parser import parse_script

def _looks_like_ddl(text: str, dialect: Dialect) -> bool:
    """True when ``text`` parses to at least one CREATE TABLE."""
    try:
        script = parse_script(text, dialect)
    except (LexError, ParseError):
        # The expected "this file is not DDL" outcomes, per the
        # errors.py contract; anything else is a programming error
        # and must propagate.
        return False
    return any(isinstance(stmt, (ast.CreateTable, ast.CreateTableLike))
               for stmt in script.statements)


def _naive_utc(iso_text: str) -> datetime:
    """A git ISO timestamp as a naive UTC datetime.

    Histories mix with naive-timestamp corpora downstream; normalizing
    to UTC keeps month indexing deterministic across committer zones.
    """
    stamp = datetime.fromisoformat(iso_text)
    if stamp.tzinfo is not None:
        stamp = stamp.astimezone(timezone.utc).replace(tzinfo=None)
    return stamp


class GitDirSource:
    """DDL-file histories of one checked-out git repository.

    Args:
        root: path of the working copy (the directory holding ``.git``).
        dialect: SQL dialect for parsing the extracted DDL.
        glob: pathspec selecting candidate files (default ``*.sql``).
        drop_noise: apply the paper's noise-name path filter.

    Raises:
        SourceError: (on first use) when the ``git`` binary is missing.
        TransientSourceError: when a ``git`` invocation exits non-zero
            (``root`` not a repository, lock contention, I/O failure) —
            retryable under the engine's ``retry`` error policy.
    """

    mode = "histories"
    lightweight = True

    def __init__(self, root: str | Path,
                 dialect: Dialect = Dialect.GENERIC,
                 glob: str = "*.sql",
                 drop_noise: bool = True):
        self.root = str(root)
        self.dialect = dialect
        self.glob = glob
        self.drop_noise = drop_noise
        self._ids: tuple[str, ...] | None = None
        self._memo_tip: str | None = None
        self._fingerprints: dict[str, str] = {}
        self._enumerated: set[str] = set()  # ids not yet fingerprinted

    def _git(self, *args: str) -> str:
        try:
            done = subprocess.run(
                ["git", "-C", self.root, *args],
                capture_output=True, check=True)
        except FileNotFoundError as exc:  # pragma: no cover - no git
            raise SourceError("git executable not found") from exc
        except subprocess.CalledProcessError as exc:
            # Transient by contract: a non-zero git exit may be a lock,
            # I/O pressure or a concurrent mutation — the retry policy
            # is allowed to try again (a missing binary above is not).
            detail = exc.stderr.decode("utf-8", "replace").strip()
            raise TransientSourceError(
                f"git {args[0]} failed in {self.root}: "
                f"{detail or exc}") from exc
        return done.stdout.decode("utf-8", "replace")

    def tip(self) -> str:
        """The current HEAD sha — one cheap ``rev-parse``.

        Everything this source serves derives from the commit graph at
        HEAD, so comparing tips is a complete freshness check: a watch
        loop polling an unchanged repository pays one ``rev-parse``
        instead of a full per-file history walk.
        """
        return self._git("rev-parse", "HEAD").strip()

    def _sync_tip(self) -> str:
        """Check HEAD and drop the per-tip memos when it moved."""
        tip = self.tip()
        if tip != self._memo_tip:
            self._memo_tip = tip
            self._ids = None
            self._fingerprints.clear()
            self._enumerated.clear()
        return tip

    def identity(self) -> list:
        """Content identity: a run's source fingerprint.

        Keyed on HEAD: discovery and per-file history both derive from
        the commit graph at HEAD, so an unchanged sha means unchanged
        ids and fingerprints — which is also when this instance's
        memoized discovery and fingerprints stay valid.
        """
        head = self._sync_tip()
        return ["git", self.root, head,
                self.dialect.traits.name, self.glob, self.drop_noise]

    def project_ids(self) -> tuple[str, ...]:
        """The DDL files at HEAD, starting an enumeration."""
        ids = self._discover()
        self._enumerated = set(ids)
        return ids

    def _discover(self) -> tuple[str, ...]:
        self._sync_tip()
        if self._ids is None:
            listing = self._git("ls-files", "-z", "--", self.glob)
            kept = []
            for path in sorted(p for p in listing.split("\0") if p):
                if self.drop_noise and is_noise_name(path):
                    continue
                try:
                    head = self._git("show", f"HEAD:{path}")
                except SourceError:
                    continue  # e.g. staged-only file with no commit
                if _looks_like_ddl(head, self.dialect):
                    kept.append(path)
            self._ids = tuple(kept)
        return self._ids

    def fingerprint(self, pid: str) -> str:
        """The file's fingerprint, memoized per HEAD: at the HEAD the
        last :meth:`project_ids` call checked for each of its ids (once
        each), else at HEAD checked now. So an enumeration of an
        unchanged repository runs one ``rev-parse``, however driven."""
        if pid in self._enumerated:
            self._enumerated.discard(pid)
        else:
            self._sync_tip()
        cached = self._fingerprints.get(pid)
        if cached is not None:
            return cached
        shas = self._git("log", "--format=%H", "--", pid).split()
        from repro.engine.cache import fingerprint
        value = fingerprint("git-history", pid, self.dialect.traits.name,
                            shas)
        self._fingerprints[pid] = value
        return value

    def version_chain(self, pid: str) -> tuple[str, ...]:
        """The file's version-hash chain: its commit shas, oldest first.

        The delta layer's prefix proof — computable without reading a
        single blob. Append-only growth extends the chain; any rewrite
        (rebase, amend, force-push) changes old shas and fails the
        prefix check, forcing a full recompute.
        """
        return tuple(self._git("log", "--reverse", "--format=%H",
                               "--", pid).split())

    def load_delta(self, pid: str, start: int) -> list[Commit]:
        """The file's commits from chain position ``start`` onward.

        Only the new blobs are read; :meth:`load` is the whole chain
        (``start=0``). Commits that deleted the file are skipped (they
        occupy chain slots but carry no version).
        """
        log = self._git("log", "--reverse", "--format=%H%x09%cI",
                        "--", pid)
        commits: list[Commit] = []
        lines = [line for line in log.splitlines() if line.strip()]
        for line in lines[start:]:
            sha, _, stamp = line.partition("\t")
            if not sha or not stamp:
                continue
            try:
                ddl_text = self._git("show", f"{sha}:{pid}")
            except SourceError:
                continue  # commit deleted the file: no version to parse
            commits.append(Commit(sha=sha,
                                  timestamp=_naive_utc(stamp),
                                  ddl_text=ddl_text))
        return commits

    def iter_handles(self):
        """One handle per DDL file, fingerprinting lazily.

        Discovery (one ``ls-files`` + per-file DDL sniff) still runs
        up front and is memoized; the per-file ``git log`` sha-chain
        fingerprints — the expensive part at scale — run one at a time
        as the engine's bounded window pulls handles. HEAD is checked
        once per enumeration, not once per file, so re-enumerating an
        unchanged repository runs one ``rev-parse`` and nothing else.
        """
        from repro.sources.base import SourceHandle
        for pid in self.project_ids():
            yield SourceHandle(pid=pid, fingerprint=self.fingerprint(pid))

    def count(self) -> int:
        """Discovered DDL-file total (memoized discovery, no logs)."""
        return len(self._discover())

    def load(self, pid: str) -> SchemaHistory:
        commits = self.load_delta(pid, 0)
        if not commits:
            raise SourceError(
                f"no committed versions of {pid!r} in {self.root}")
        name = pid[:-len(Path(pid).suffix)] if Path(pid).suffix else pid
        return SchemaHistory(name, commits, dialect=self.dialect)

    def __len__(self) -> int:
        return len(self._discover())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GitDirSource({self.root!r}, glob={self.glob!r})"
