"""One record shape on every path.

A study record holds measured facts only — no history, no source
series — so a record pickles to the same bytes however it was made:
serially, in a ``--jobs`` worker, from the disk cache, from a session's
hot cache, or off a delta checkpoint after an append. The other
whole-record tests compare with ``==``; these also compare pickles, so
a field that equality ignores cannot hide a difference between paths.
"""

import pickle

import pytest

from repro.engine import (
    EngineSession,
    StudyConfig,
    compute_records_from_source,
    execute_study_from_source,
)
from repro.sources import CorpusDirSource, GitDirSource, InMemorySource
from tests.engine.test_delta import (  # noqa: F401  (fixtures)
    _git,
    corpus_root,
    git_repo,
    grow_corpus_dir,
    needs_git,
)


def pickled(records) -> list[bytes]:
    return [pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
            for record in records]


def assert_same_records(records, reference) -> None:
    assert list(records) == list(reference)
    assert pickled(records) == pickled(reference)


def corpus_records(corpus, config, session=None):
    return compute_records_from_source(
        InMemorySource(corpus.projects, mode="corpus"), config,
        session=session)


@pytest.fixture(scope="module")
def cold(small_corpus):
    records, _ = corpus_records(small_corpus, StudyConfig())
    return records


class TestSmallCorpusPaths:
    def test_jobs2(self, small_corpus, cold):
        records, _ = corpus_records(small_corpus, StudyConfig(jobs=2))
        assert_same_records(records, cold)

    def test_cache_fill_and_disk_warm(self, small_corpus, cold,
                                      tmp_path):
        config = StudyConfig(cache_dir=tmp_path)
        filled, _ = corpus_records(small_corpus, config)
        warm, report = corpus_records(small_corpus, config)
        assert report.cache_hits == len(small_corpus)
        assert_same_records(filled, cold)
        assert_same_records(warm, cold)

    def test_session_hot(self, small_corpus, cold, tmp_path):
        config = StudyConfig(cache_dir=tmp_path)
        with EngineSession(config) as session:
            corpus_records(small_corpus, config, session)
            hot, report = corpus_records(small_corpus, config, session)
        assert report.hot_hits == len(small_corpus)
        assert_same_records(hot, cold)


class TestDeltaRefresh:
    def test_grown_corpus_dir(self, corpus_root, tmp_path):
        config = StudyConfig(cache_dir=tmp_path / "cache")
        execute_study_from_source(CorpusDirSource(corpus_root), config)
        grow_corpus_dir(corpus_root, [0, 1], 3)
        results, report = execute_study_from_source(
            CorpusDirSource(corpus_root), config)
        assert report.delta_appended == 2
        cold, _ = execute_study_from_source(CorpusDirSource(corpus_root),
                                            StudyConfig())
        assert_same_records(results.records, cold.records)

    @needs_git
    def test_git_appended_commit(self, git_repo, tmp_path):
        config = StudyConfig(cache_dir=tmp_path / "cache")
        execute_study_from_source(GitDirSource(git_repo), config)
        (git_repo / "schema.sql").write_text(
            "CREATE TABLE users (id INT, name TEXT);\n"
            "CREATE TABLE posts (id INT);\n")
        _git(git_repo, "commit", "-qam", "three",
             env_date="2021-01-10T00:00:00Z")
        results, report = execute_study_from_source(
            GitDirSource(git_repo), config)
        assert report.delta_appended == 1
        cold, _ = execute_study_from_source(GitDirSource(git_repo),
                                            StudyConfig())
        assert_same_records(results.records, cold.records)


def test_default_seed_records_pickle_small(full_study):
    # 151 records of measured facts: ~0.26 MB, where records that
    # carried their histories pickled to 4.28 MB.
    assert len(full_study.records) == 151
    assert sum(map(len, pickled(full_study.records))) <= 400_000
