"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import sys
from datetime import datetime

import pytest

from repro.corpus.generator import generate_corpus
from repro.history.commit import Commit
from repro.history.repository import SchemaHistory
from repro.patterns.taxonomy import Pattern

#: A compact population (one-ish project per pattern) for fast tests.
SMALL_POPULATION = {
    Pattern.FLATLINER: 2,
    Pattern.RADICAL_SIGN: 3,
    Pattern.SIGMOID: 2,
    Pattern.LATE_RISER: 2,
    Pattern.QUANTUM_STEPS: 2,
    Pattern.REGULARLY_CURATED: 2,
    Pattern.SMOKING_FUNNEL: 1,
    Pattern.SIESTA: 2,
}


@pytest.fixture(scope="session")
def small_corpus():
    """A small deterministic corpus without exception projects."""
    return generate_corpus(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False)


@pytest.fixture
def pinned_start_method():
    """The start method ``repro``'s worker pools must use: ``fork`` on
    Linux, the platform default elsewhere.

    While the test runs, the interpreter's default start method is
    forced to ``spawn``, so a pool that leaves the choice to the
    interpreter shows up as ``spawn``; the previous default is restored
    afterwards.
    """
    previous = multiprocessing.get_start_method(allow_none=True)
    expected = "fork" if sys.platform == "linux" \
        else multiprocessing.get_context().get_start_method()
    multiprocessing.set_start_method("spawn", force=True)
    yield expected
    multiprocessing.set_start_method(previous, force=True)


@pytest.fixture(scope="session")
def full_corpus():
    """The full paper-sized 151-project corpus (session-cached)."""
    return generate_corpus(seed=20250325)


@pytest.fixture(scope="session")
def default_corpus_json(tmp_path_factory):
    """``repro-schema generate FILE`` at the default seed (the file)."""
    from repro.cli import main
    path = tmp_path_factory.mktemp("generated") / "corpus.json"
    assert main(["generate", str(path)]) == 0
    return path


@pytest.fixture(scope="session")
def full_study():
    """The complete study results on the full corpus."""
    from repro.study.pipeline import records_from_corpus, run_study
    corpus = generate_corpus(seed=20250325)
    return run_study(records_from_corpus(corpus))


def make_history(ddl_texts: list[str], project_start: datetime | None = None,
                 project_end: datetime | None = None,
                 start_month: int = 0,
                 months_apart: int = 1,
                 name: str = "test-project") -> SchemaHistory:
    """Build a history with one commit per DDL text, months apart."""
    commits = []
    for index, ddl in enumerate(ddl_texts):
        month_offset = start_month + index * months_apart
        year = 2020 + month_offset // 12
        month = month_offset % 12 + 1
        commits.append(Commit(sha=f"c{index}",
                              timestamp=datetime(year, month, 15),
                              ddl_text=ddl))
    return SchemaHistory(name, commits, project_start=project_start,
                         project_end=project_end)


@pytest.fixture
def simple_history() -> SchemaHistory:
    """A 3-commit, 24-month history: birth at month 0, small growth."""
    ddl1 = "CREATE TABLE users (id INT PRIMARY KEY, email VARCHAR(100));"
    ddl2 = ddl1 + ("\nCREATE TABLE orders (id INT PRIMARY KEY, "
                   "user_id INT REFERENCES users (id), total "
                   "DECIMAL(8,2));")
    ddl3 = ddl2.replace("VARCHAR(100)", "TEXT")
    return make_history([ddl1, ddl2, ddl3],
                        project_start=datetime(2020, 1, 1),
                        project_end=datetime(2021, 12, 31))
