"""Shared fixtures for the benchmark harness.

Every benchmark renders its paper artifact (table/figure) and registers
the text through :func:`record`; a terminal-summary hook prints all
artifacts after the timing tables, and copies are written under
``benchmarks/results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.corpus.generator import DEFAULT_SEED, generate_corpus
from repro.engine import StudyConfig
from repro.study.pipeline import records_from_corpus, run_study

_RESULTS_DIR = Path(__file__).parent / "results"
_RENDERED: dict[str, str] = {}

#: The one execution configuration every benchmark shares (serial,
#: uncached).
STUDY_CONFIG = StudyConfig(seed=DEFAULT_SEED)


def record(name: str, text: str) -> None:
    """Register one rendered paper artifact for the summary printout."""
    _RENDERED[name] = text
    _RESULTS_DIR.mkdir(exist_ok=True)
    (_RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def corpus():
    """The paper-sized synthetic corpus (one per session)."""
    return generate_corpus(config=STUDY_CONFIG)


@pytest.fixture(scope="session")
def records(corpus):
    """Measured + labeled study records for the corpus."""
    return records_from_corpus(corpus, config=STUDY_CONFIG)


@pytest.fixture(scope="session")
def study(records):
    """The full study results bundle."""
    return run_study(records, config=STUDY_CONFIG)


def pytest_terminal_summary(terminalreporter):
    """Print every rendered paper artifact after the benchmark run."""
    if not _RENDERED:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 72)
    write("REPRODUCED PAPER ARTIFACTS "
          "(copies under benchmarks/results/)")
    write("=" * 72)
    for name in sorted(_RENDERED):
        write("")
        write(f"--- {name} " + "-" * max(0, 60 - len(name)))
        for line in _RENDERED[name].splitlines():
            write(line)
