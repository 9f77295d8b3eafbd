"""A 40-project corpus directory shaped like real dumps.

The projects come from ``SyntheticSource(1, with_noise=True)`` (``SET``
and ``INSERT`` noise between statements), drawn with ``round_robin``
across patterns, and every other project's commits are rewritten
mysqldump-style, with ``DROP TABLE IF EXISTS t;`` before each ``CREATE
TABLE t``. CI's incremental-parse smoke writes it with::

    python -c "from tests.integration.dump_corpus import write_dump_corpus; write_dump_corpus('/tmp/dump-corpus')"

and ``test_golden_digests.py`` pins its study stdout as ``dump-40``.
"""

import dataclasses
import re

from repro.history.repository import SchemaHistory
from repro.sources import write_corpus_dir
from repro.sources.base import round_robin
from repro.sources.synthetic import SyntheticSource

_CREATE = re.compile(r"^CREATE TABLE (\S+)", re.MULTILINE)


def _mysqldump(project):
    history = project.history
    commits = [dataclasses.replace(commit, ddl_text=_CREATE.sub(
        r"DROP TABLE IF EXISTS \1;\nCREATE TABLE \1", commit.ddl_text))
        for commit in history.commits]
    return dataclasses.replace(project, history=SchemaHistory(
        history.project_name, commits,
        project_start=history.project_start,
        project_end=history.project_end, dialect=history.dialect,
        incremental=history.incremental))


def write_dump_corpus(target) -> None:
    """Write the dump-shaped corpus directory to ``target``."""
    source = SyntheticSource(1, with_noise=True)
    pids = round_robin(source.project_ids(), source.stratum, 40)
    write_corpus_dir((_mysqldump(source.load(pid)) if index % 2
                      else source.load(pid)
                      for index, pid in enumerate(pids)),
                     target, seed=1)
