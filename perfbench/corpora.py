"""The benchmark's inputs: corpus directories generated from a seed.

Every workload studies a ``dir:`` corpus written here; the program
receives only the directory. ``repro`` must be importable (the
harness puts the checkout's ``src`` on ``sys.path`` first).
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from datetime import timedelta
from pathlib import Path

#: Projects of the paper corpus that grow before the refresh step, and
#: the snapshot commits appended to each.
GROWN_PROJECTS = 8
APPENDED_COMMITS = 2

#: Scale corpus: this many times the paper's per-pattern population,
#: written as a sharded (v2) corpus directory.
SCALE_FACTOR = 4
SCALE_SHARD_SIZE = 64


def _paper_projects(seed: int) -> list:
    """The generator's 151-project draw of the paper's population."""
    from repro.sources import SyntheticSource
    source = SyntheticSource(seed)
    return [source.load(pid) for pid in source.project_ids()]


def _grow(history, commits: int):
    """``history`` with ``commits`` appended full-snapshot commits."""
    from repro.history.commit import Commit
    from repro.history.repository import SchemaHistory
    grown = list(history.commits)
    for i in range(commits):
        grown.append(Commit(
            sha=f"perfbench-grow-{i}",
            timestamp=grown[-1].timestamp + timedelta(days=30),
            ddl_text=grown[-1].ddl_text
            + f"\nCREATE TABLE perfbench_extra_{i} (id INT);\n"))
    return SchemaHistory(
        history.project_name, grown,
        project_start=history.project_start,
        project_end=max(history.project_end, grown[-1].timestamp),
        dialect=history.dialect, incremental=history.incremental)


def paper_corpus(seed: int, root: Path) -> dict[str, Path]:
    """The 151-project paper corpus as a v1 (file per project) dir."""
    from repro.sources import write_corpus_dir
    write_corpus_dir(_paper_projects(seed), root / "orig", seed=seed)
    return {"orig": root / "orig"}


def scale_corpus(seed: int, root: Path) -> dict[str, Path]:
    """A corpus of ``SCALE_FACTOR`` x the paper population, sharded."""
    from repro.patterns.taxonomy import PAPER_POPULATION
    from repro.sources import SyntheticSource, write_corpus_dir
    source = SyntheticSource(seed, population={
        pattern: SCALE_FACTOR * count
        for pattern, count in PAPER_POPULATION.items()})
    write_corpus_dir((source.load(pid) for pid in source.project_ids()),
                     root / "orig", seed=seed,
                     shard_size=SCALE_SHARD_SIZE)
    return {"orig": root / "orig"}


def paper_and_grown_corpus(seed: int, root: Path) -> dict[str, Path]:
    """The paper corpus plus a copy in which ``GROWN_PROJECTS``
    projects, picked by ``seed``, gained ``APPENDED_COMMITS`` commits."""
    from repro.sources import write_corpus_dir
    projects = _paper_projects(seed)
    write_corpus_dir(projects, root / "orig", seed=seed)
    chosen = random.Random(seed).sample(range(len(projects)),
                                        GROWN_PROJECTS)
    for index in chosen:
        projects[index] = dataclasses.replace(
            projects[index],
            history=_grow(projects[index].history, APPENDED_COMMITS))
    write_corpus_dir(projects, root / "grown", seed=seed)
    return {"orig": root / "orig", "grown": root / "grown"}


def manifest_digest(corpora: dict[str, Path]) -> str:
    """One digest over the corpora's manifests (they index every
    project's SHA-256, so equal digests mean equal inputs)."""
    digest = hashlib.sha256()
    for name in sorted(corpora):
        digest.update(name.encode())
        digest.update((corpora[name] / "manifest.json").read_bytes())
    return digest.hexdigest()
