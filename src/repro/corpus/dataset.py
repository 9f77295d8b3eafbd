"""Persistence of generated corpora as JSON.

The on-disk format keeps everything needed to re-run the study without
re-generating: project metadata, the full DDL commit histories and the
source-code series. Landmark plans are stored too, so tests can verify
measured-vs-planned agreement after a round trip.
"""

from __future__ import annotations

import json
from datetime import datetime
from pathlib import Path

from repro.corpus.generator import Corpus, GeneratedProject
from repro.corpus.planner import LandmarkPlan
from repro.errors import CorpusError
from repro.history.commit import Commit
from repro.history.heartbeat import ActivitySeries
from repro.history.repository import SchemaHistory
from repro.patterns.taxonomy import Pattern
from repro.sqlddl.dialect import Dialect

_FORMAT_VERSION = 1


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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus to ``path`` as a single JSON document.

    Raises:
        CorpusError: when the file cannot be written.
    """
    document = {
        "format_version": _FORMAT_VERSION,
        "seed": corpus.seed,
        "projects": [project_to_dict(p) for p in corpus.projects],
    }
    try:
        Path(path).write_text(json.dumps(document))
    except OSError as exc:
        raise CorpusError(f"cannot write corpus {path}: {exc}") from exc


def load_corpus(path: str | Path) -> Corpus:
    """Load a corpus previously written by :func:`save_corpus`.

    Raises:
        CorpusError: for an unreadable file, version mismatch or
            malformed content.
    """
    try:
        document = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}: invalid JSON: {exc}") from exc
    version = document.get("format_version")
    if version != _FORMAT_VERSION:
        raise CorpusError(f"{path}: unsupported corpus format {version!r}")
    projects = tuple(project_from_dict(r) for r in document["projects"])
    return Corpus(projects=projects, seed=document.get("seed", 0))
