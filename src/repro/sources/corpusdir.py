"""The versioned JSONL-on-disk corpus format and its source.

This is the one way a corpus is stored: ``corpus export`` writes it and
``--source dir:`` studies it. Both layouts hold each project as the
record :func:`project_to_dict` builds and :func:`project_from_dict`
reads back. Two layouts share one manifest envelope, whose ``mode`` is
always ``"corpus"``:

* **v1 (one file per project)**::

      <root>/
        manifest.json            format tag, version, seed, mode,
                                 per-project file + sha256 index
        projects/<pid>.jsonl     one project: a header line (metadata,
                                 plan, source series) followed by one
                                 line per DDL commit

* **v2 (sharded)** — the 100k-project layout::

      <root>/
        manifest.json            shard index: per-shard file, SHA-256
                                 and count, plus per-project id,
                                 sha256, byte offset/length and pattern
        shards/NNNN.jsonl        many projects per file, one JSON line
                                 per project

The manifest's per-project SHA-256 digests double as the source's
fingerprints, so the engine's content-addressed cache can decide
hit/miss without opening a single data file, and a v2 ``load`` is one
seek + one line parse. Every ``load`` checks what it read against that
digest, so a project edited after export raises
:class:`~repro.errors.SourceError` rather than being studied, or served
from a cache, under its old fingerprint. Writing is streaming in both
layouts — projects are consumed one at a time and the manifest is
emitted **last**, so a crashed export never looks like a valid corpus.
Export → :func:`import_corpus_dir` is a lossless round trip (the study
report over an imported corpus is byte-identical to the original —
pinned by tests).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Iterable, Iterator

from repro.corpus.generator import Corpus, GeneratedProject
from repro.corpus.planner import LandmarkPlan
from repro.errors import CorpusError, SourceError
from repro.history.commit import Commit
from repro.history.heartbeat import ActivitySeries
from repro.history.repository import SchemaHistory
from repro.patterns.taxonomy import Pattern
from repro.sources.base import SourceHandle, round_robin
from repro.sqlddl.dialect import Dialect

#: On-disk format tag; anything else in the manifest is rejected.
CORPUS_DIR_FORMAT = "repro-corpus-dir"

#: Format version of the one-file-per-project layout.
CORPUS_DIR_VERSION = 1

#: Format version of the sharded layout.
CORPUS_DIR_VERSION_SHARDED = 2

#: Manifest versions this source can read.
SUPPORTED_CORPUS_VERSIONS = (CORPUS_DIR_VERSION,
                             CORPUS_DIR_VERSION_SHARDED)

MANIFEST_NAME = "manifest.json"
_PROJECTS_SUBDIR = "projects"
_SHARDS_SUBDIR = "shards"


def project_to_dict(project: GeneratedProject) -> dict:
    """One project as a JSON-serializable dict (the on-disk record).

    ``"incremental": true`` is written only for incremental-style
    histories, so snapshot-style records keep their historical bytes.
    """
    history = project.history
    record = {
        "name": project.name,
        "pattern": project.intended_pattern.value,
        "is_exception": project.is_exception,
        "exception_kind": project.exception_kind,
        "dialect": history.dialect.traits.name,
        "project_start": history.project_start.isoformat(),
        "project_end": history.project_end.isoformat(),
        "commits": [
            {"sha": c.sha, "timestamp": c.timestamp.isoformat(),
             "ddl": c.ddl_text, "message": c.message}
            for c in history.commits
        ],
        "source_monthly": list(project.source.monthly),
        "plan": {
            "pup_months": project.plan.pup_months,
            "birth_month": project.plan.birth_month,
            "top_month": project.plan.top_month,
            "schedule": {str(k): v
                         for k, v in sorted(project.plan.schedule.items())},
            "maintenance_bias": project.plan.maintenance_bias,
        },
    }
    if history.incremental:
        record["incremental"] = True
    return record


def project_from_dict(record: dict) -> GeneratedProject:
    """Rebuild a project from its on-disk record.

    Raises:
        CorpusError: for missing keys or malformed values.
    """
    try:
        commits = [
            Commit(sha=c["sha"],
                   timestamp=datetime.fromisoformat(c["timestamp"]),
                   ddl_text=c["ddl"], message=c.get("message", ""))
            for c in record["commits"]
        ]
        history = SchemaHistory(
            record["name"], commits,
            project_start=datetime.fromisoformat(record["project_start"]),
            project_end=datetime.fromisoformat(record["project_end"]),
            dialect=Dialect.from_name(record["dialect"]),
            incremental=record.get("incremental", False),
        )
        plan_rec = record["plan"]
        plan = LandmarkPlan(
            pup_months=plan_rec["pup_months"],
            birth_month=plan_rec["birth_month"],
            top_month=plan_rec["top_month"],
            schedule={int(k): v for k, v in plan_rec["schedule"].items()},
            maintenance_bias=plan_rec["maintenance_bias"],
        )
        return GeneratedProject(
            name=record["name"],
            intended_pattern=Pattern(record["pattern"]),
            is_exception=record["is_exception"],
            exception_kind=record.get("exception_kind"),
            history=history,
            source=ActivitySeries(tuple(record["source_monthly"])),
            plan=plan,
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise CorpusError(f"malformed corpus record: {exc}") from exc


def _project_jsonl(project: GeneratedProject) -> str:
    """One project rendered as JSONL: header line + commit lines."""
    record = project_to_dict(project)
    commits = record.pop("commits")
    lines = [json.dumps(record, sort_keys=True)]
    lines.extend(json.dumps(commit, sort_keys=True)
                 for commit in commits)
    return "\n".join(lines) + "\n"


def _parse_project_jsonl(text: str, where: str) -> GeneratedProject:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SourceError(f"{where}: empty project file")
    try:
        record = json.loads(lines[0])
        record["commits"] = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as exc:
        raise SourceError(f"{where}: invalid JSON: {exc}") from exc
    return project_from_dict(record)


def _project_line(project: GeneratedProject) -> bytes:
    """One project as a single v2 shard line (no trailing newline)."""
    return json.dumps(project_to_dict(project),
                      sort_keys=True).encode("utf-8")


def stratified(projects: Iterable[GeneratedProject],
               limit: int) -> list[GeneratedProject]:
    """The first ``limit`` projects, drawn round-robin across patterns.

    The corpus is laid out pattern-by-pattern, so a plain head slice of
    a small limit would be a single-pattern (often constant-measure)
    sample; round-robin keeps tiny exports analyzable.
    """
    return round_robin(projects, lambda project: project.intended_pattern,
                       limit)


@dataclass(frozen=True)
class CorpusWriteReport:
    """What one streaming corpus write produced.

    Attributes:
        root: the corpus directory.
        projects: projects written.
        shards: shard files written (0 for the v1 per-project layout).
    """

    root: Path
    projects: int
    shards: int


def write_corpus_dir(projects: Iterable[GeneratedProject],
                     root: str | Path, *,
                     seed: int = 0,
                     shard_size: int | None = None) -> CorpusWriteReport:
    """Stream ``projects`` to disk as a JSONL corpus directory.

    Projects are consumed one at a time — peak memory is one project
    (v1) or one shard's index entries (v2), never the corpus — and the
    manifest is written last, so an interrupted export is recognizably
    invalid rather than silently truncated.

    Args:
        projects: any iterable of generated projects (a generator is
            fine; it is consumed exactly once).
        root: target directory (created if missing).
        seed: recorded in the manifest (0 for foreign corpora).
        shard_size: ``None`` writes the v1 one-file-per-project layout;
            a positive int packs that many projects per v2 shard file.

    Returns:
        A :class:`CorpusWriteReport` (root, project and shard counts).

    Raises:
        SourceError: when the directory cannot be written, or for a
            non-positive ``shard_size``.
    """
    root = Path(root)
    if shard_size is not None and shard_size < 1:
        raise SourceError(
            f"shard_size must be >= 1, got {shard_size}")
    try:
        if shard_size is None:
            return _write_v1(projects, root, seed)
        return _write_v2(projects, root, seed, shard_size)
    except OSError as exc:
        raise SourceError(
            f"cannot write corpus directory {root}: {exc}") from exc


def _write_manifest(root: Path, manifest: dict) -> None:
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_v1(projects: Iterable[GeneratedProject], root: Path,
              seed: int) -> CorpusWriteReport:
    entries = []
    (root / _PROJECTS_SUBDIR).mkdir(parents=True, exist_ok=True)
    for project in projects:
        text = _project_jsonl(project)
        relative = f"{_PROJECTS_SUBDIR}/{project.name}.jsonl"
        (root / relative).write_text(text)
        entries.append({
            "id": project.name,
            "file": relative,
            "sha256": hashlib.sha256(
                text.encode("utf-8")).hexdigest(),
        })
    _write_manifest(root, {
        "format": CORPUS_DIR_FORMAT,
        "version": CORPUS_DIR_VERSION,
        "seed": seed,
        "mode": "corpus",
        "projects": entries,
    })
    return CorpusWriteReport(root=root, projects=len(entries), shards=0)


def _write_v2(projects: Iterable[GeneratedProject], root: Path,
              seed: int, shard_size: int) -> CorpusWriteReport:
    shards: list[dict] = []
    total = 0
    (root / _SHARDS_SUBDIR).mkdir(parents=True, exist_ok=True)
    handle = None
    shard_hash = None
    shard_entries: list[dict] = []
    offset = 0

    def close_shard() -> None:
        nonlocal handle
        if handle is None:
            return
        handle.close()
        handle = None
        shards.append({
            "file": f"{_SHARDS_SUBDIR}/{len(shards):04d}.jsonl",
            "sha256": shard_hash.hexdigest(),
            "count": len(shard_entries),
            "projects": list(shard_entries),
        })

    for project in projects:
        if handle is None:
            relative = f"{_SHARDS_SUBDIR}/{len(shards):04d}.jsonl"
            handle = (root / relative).open("wb")
            shard_hash = hashlib.sha256()
            shard_entries = []
            offset = 0
        line = _project_line(project)
        handle.write(line + b"\n")
        shard_hash.update(line + b"\n")
        shard_entries.append({
            "id": project.name,
            "sha256": hashlib.sha256(line).hexdigest(),
            "offset": offset,
            "length": len(line),
            "pattern": project.intended_pattern.value,
        })
        offset += len(line) + 1
        total += 1
        if len(shard_entries) >= shard_size:
            close_shard()
    close_shard()
    _write_manifest(root, {
        "format": CORPUS_DIR_FORMAT,
        "version": CORPUS_DIR_VERSION_SHARDED,
        "seed": seed,
        "mode": "corpus",
        "shard_size": shard_size,
        "count": total,
        "shards": shards,
    })
    return CorpusWriteReport(root=root, projects=total,
                             shards=len(shards))


def export_corpus_dir(corpus: Corpus, root: str | Path,
                      limit: int | None = None,
                      shard_size: int | None = None) -> Path:
    """Write an in-memory ``corpus`` as a JSONL corpus directory.

    Args:
        corpus: the corpus to export.
        root: target directory (created if missing).
        limit: export only this many projects, sampled round-robin
            across patterns so small exports stay pattern-diverse.
        shard_size: ``None`` for the v1 layout, a positive int for the
            sharded v2 layout (see :func:`write_corpus_dir`).

    Returns:
        The directory path.

    Raises:
        SourceError: when the directory cannot be written.
    """
    projects: Iterable[GeneratedProject] = corpus.projects
    if limit is not None:
        projects = stratified(list(projects), limit)
    return write_corpus_dir(projects, root, seed=corpus.seed,
                            shard_size=shard_size).root


class CorpusDirSource:
    """A corpus directory as a lazy, lightweight history source.

    The instance carries only the root path and the parsed manifest —
    pickling it to a worker costs a few kilobytes; each worker reads
    and parses only the project files (v1) or shard line ranges (v2)
    it is assigned. Both layouts present the same protocol surface.
    The manifest is read and indexed once per instance.

    Args:
        root: directory written by :func:`write_corpus_dir`.

    Raises:
        SourceError: (on first use) for a missing/invalid manifest.
    """

    lightweight = True
    #: Every load is a generated project; the manifest must agree.
    mode = "corpus"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._manifest: dict | None = None

    @property
    def version(self) -> int:
        """The manifest's layout version (1 per-project, 2 sharded)."""
        self._index()
        return int(self._manifest["version"])

    def _index(self) -> dict[str, dict]:
        if self._manifest is None:
            path = self.root / MANIFEST_NAME
            try:
                manifest = json.loads(path.read_text())
            except OSError as exc:
                raise SourceError(
                    f"not a corpus directory (cannot read {path}): "
                    f"{exc}") from exc
            except json.JSONDecodeError as exc:
                raise SourceError(
                    f"{path}: invalid manifest JSON: {exc}") from exc
            if manifest.get("format") != CORPUS_DIR_FORMAT:
                raise SourceError(
                    f"{path}: not a {CORPUS_DIR_FORMAT} manifest")
            if manifest.get("version") not in SUPPORTED_CORPUS_VERSIONS:
                raise SourceError(
                    f"{path}: unsupported corpus-dir version "
                    f"{manifest.get('version')!r} (expected one of "
                    f"{SUPPORTED_CORPUS_VERSIONS})")
            if manifest.get("mode", self.mode) != self.mode:
                raise SourceError(
                    f"{path}: unsupported corpus-dir mode "
                    f"{manifest['mode']!r} (expected {self.mode!r})")
            if manifest["version"] == CORPUS_DIR_VERSION_SHARDED:
                by_id = {}
                for shard in manifest["shards"]:
                    for entry in shard["projects"]:
                        by_id[entry["id"]] = dict(entry,
                                                  file=shard["file"])
                manifest["_by_id"] = by_id
            else:
                manifest["_by_id"] = {
                    entry["id"]: entry
                    for entry in manifest["projects"]
                }
            self._manifest = manifest
        return self._manifest["_by_id"]

    def _entry(self, pid: str) -> dict:
        try:
            return self._index()[pid]
        except KeyError:
            raise SourceError(
                f"unknown project id {pid!r} in corpus directory "
                f"{self.root}") from None

    @property
    def seed(self) -> int:
        """The seed recorded at export time (0 for foreign corpora)."""
        self._index()
        return int(self._manifest.get("seed", 0))

    def identity(self) -> list:
        """Content identity: a run's source fingerprint.

        Hashes the manifest file itself — it indexes every project's
        SHA-256, so any content change on disk changes this identity.
        Read afresh on every call, unlike the memoized index.
        """
        path = self.root / MANIFEST_NAME
        try:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        except OSError as exc:
            raise SourceError(
                f"not a corpus directory (cannot read {path}): "
                f"{exc}") from exc
        return ["dir", CORPUS_DIR_FORMAT, digest]

    def project_ids(self) -> tuple[str, ...]:
        return tuple(self._index())

    def _handle(self, entry: dict) -> SourceHandle:
        version = self._manifest["version"]
        return SourceHandle(
            pid=entry["id"],
            fingerprint=f"{CORPUS_DIR_FORMAT}-v{version}:"
                        f"{entry['sha256']}")

    def fingerprint(self, pid: str) -> str:
        # The manifest digest covers the full project content —
        # commits, metadata and plan — which is exactly the record
        # computation's input; no file read needed.
        return self._handle(self._entry(pid)).fingerprint

    def iter_handles(self) -> Iterator[SourceHandle]:
        """One handle per project, straight off the manifest index."""
        for entry in self._index().values():
            yield self._handle(entry)

    def count(self) -> int:
        """Project total without touching any data file."""
        return len(self._index())

    def stratum(self, pid: str) -> str | None:
        """The recorded pattern (v2 manifests; None on v1)."""
        return self._entry(pid).get("pattern")

    def iter_handle_shards(self
                           ) -> Iterator[tuple[str, list[SourceHandle]]]:
        """``(shard_key, handles)`` per shard.

        The key folds in the resolved root, the shard file name and
        the shard's content hash, so it changes exactly when that
        shard's bytes do. A v1 corpus is one logical shard keyed off
        the manifest digest. The engine enumerates through
        :meth:`iter_handles` and calls nothing here; perfbench's
        tracer still wraps this method by name.
        """
        self._index()
        where = str(self.root.expanduser().resolve())
        if self._manifest["version"] == CORPUS_DIR_VERSION_SHARDED:
            for shard in self._manifest["shards"]:
                key = _shard_key(where, shard["file"], shard["sha256"])
                yield key, [self._handle(dict(entry, file=shard["file"]))
                            for entry in shard["projects"]]
            return
        digest = self.identity()[-1]
        yield (_shard_key(where, MANIFEST_NAME, digest),
               [self._handle(entry) for entry in self._index().values()])

    def version_chain(self, pid: str) -> tuple[str, ...]:
        """The project's version-hash chain (one hash per commit).

        Corpus payloads are one cheap JSON read, so the chain is
        derived from the loaded commits; what the delta layer's prefix
        proof then avoids is *parsing* the prefix versions' DDL — the
        dominant cost. Appending commits to a project extends its
        chain; editing any existing commit changes a prefix hash and
        fails the proof.
        """
        from repro.engine.delta import commit_chain
        return commit_chain(self.load(pid).history.commits)

    def load(self, pid: str) -> GeneratedProject:
        entry = self._entry(pid)
        if self._manifest["version"] == CORPUS_DIR_VERSION_SHARDED:
            return self._load_sharded(pid, entry)
        path = self.root / entry["file"]
        try:
            text = path.read_text()
        except OSError as exc:
            raise SourceError(
                f"cannot read project {pid!r} ({path}): {exc}") from exc
        if hashlib.sha256(text.encode("utf-8")).hexdigest() \
                != entry["sha256"]:
            raise SourceError(
                f"{path}: project file of {pid!r} does not match its "
                f"manifest sha256 (edited, corrupt or truncated)")
        return _parse_project_jsonl(text, str(path))

    def _load_sharded(self, pid: str, entry: dict) -> GeneratedProject:
        path = self.root / entry["file"]
        try:
            with path.open("rb") as handle:
                handle.seek(entry["offset"])
                blob = handle.read(entry["length"])
        except OSError as exc:
            raise SourceError(
                f"cannot read project {pid!r} ({path}): {exc}") from exc
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise SourceError(
                f"{path}: shard entry for {pid!r} does not match its "
                f"manifest sha256 (corrupt or truncated shard)")
        try:
            record = json.loads(blob)
        except json.JSONDecodeError as exc:
            raise SourceError(
                f"{path}: invalid JSON: {exc}") from exc
        return project_from_dict(record)

    def __len__(self) -> int:
        return len(self._index())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorpusDirSource({str(self.root)!r})"


def _shard_key(*parts: object) -> str:
    blob = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def import_corpus_dir(root: str | Path) -> Corpus:
    """Load a whole corpus directory back into an in-memory corpus.

    Raises:
        SourceError: for a missing/invalid manifest or project file.
    """
    source = CorpusDirSource(root)
    projects = tuple(source.load(pid) for pid in source.project_ids())
    return Corpus(projects=projects, seed=source.seed)
