"""Delta re-study: checkpoints, prefix proofs, the suffix kernel.

The golden differential suite — the acceptance bar of the append-only
incremental recompute:

* appending K versions to a cached project and refreshing re-parses
  only the K new versions (pinned via the delta counters) and yields
  records and rendered reports **byte-identical** to a cold full study
  of the grown source — for corpus directories and git repositories;
* a rewrite of old history fails the version-chain prefix proof and
  falls back to a full recompute, still byte-identical, and so does a
  migration-style history whose checkpoint read its commits as
  snapshots — once, since that recompute drops the checkpoint;
* a fault-injected append heals under the retry policy with the same
  output; corrupt and older-format checkpoint files read as "no
  checkpoint";
* the run ledger round-trips the new delta and hot-cache counters.
"""

import dataclasses
import os
import random
import shutil
import subprocess
from datetime import timedelta

import pytest

from repro.corpus.ddlgen import realize_history
from repro.engine import (
    DeltaStore,
    EngineSession,
    ErrorPolicy,
    FaultPlan,
    StudyConfig,
    delta_store_for,
    execute_study_from_source,
    read_ledger,
)
from repro.engine.delta import (
    DELTA_FORMAT_VERSION,
    DELTA_SUBDIR,
    commit_chain,
)
from repro.history.commit import Commit
from repro.history.repository import SchemaHistory
from repro.patterns.taxonomy import Pattern
from repro.report.markdown import markdown_report
from repro.sources import (
    CorpusDirSource,
    GitDirSource,
    export_corpus_dir,
    import_corpus_dir,
)
from repro.sources.synthetic import SyntheticSource

#: Enough projects for every study analysis (Shapiro-Wilk needs 3+).
POPULATION = {
    Pattern.FLATLINER: 2,
    Pattern.SIGMOID: 2,
    Pattern.QUANTUM_STEPS: 2,
    Pattern.SIESTA: 2,
}


def grow_history(history: SchemaHistory, k: int) -> SchemaHistory:
    """``history`` with ``k`` appended snapshot commits."""
    commits = list(history.commits)
    for i in range(k):
        ts = commits[-1].timestamp + timedelta(days=30)
        ddl = commits[-1].ddl_text \
            + f"\nCREATE TABLE delta_extra_{i} (id INT);\n"
        commits.append(Commit(sha=f"grow-{i}", timestamp=ts,
                              ddl_text=ddl))
    return SchemaHistory(
        history.project_name, commits,
        project_start=history.project_start,
        project_end=max(history.project_end, commits[-1].timestamp),
        dialect=history.dialect, incremental=history.incremental)


def grow_corpus_dir(root, indexes, k: int) -> None:
    """Re-export ``root`` with the chosen projects grown by ``k``."""
    corpus = import_corpus_dir(root)
    projects = list(corpus.projects)
    for idx in indexes:
        projects[idx] = dataclasses.replace(
            projects[idx],
            history=grow_history(projects[idx].history, k))
    shutil.rmtree(root)
    export_corpus_dir(dataclasses.replace(corpus, projects=projects),
                      root)


@pytest.fixture
def corpus_root(tmp_path):
    """A small corpus exported as a ``dir:`` source."""
    from repro.corpus.generator import generate_corpus
    corpus = generate_corpus(seed=99, population=POPULATION,
                             with_exceptions=False)
    root = tmp_path / "corpus"
    export_corpus_dir(corpus, root)
    return root


def study(root, cache_dir, **kwargs):
    config = StudyConfig(cache_dir=cache_dir, **kwargs)
    return execute_study_from_source(CorpusDirSource(root), config)


class TestDeltaStoreGating:
    def test_no_cache_dir_disables(self):
        source = SyntheticSource(seed=99, population=POPULATION)
        assert delta_store_for(source, StudyConfig()) is None

    def test_chainless_source_disables(self, tmp_path):
        class Chainless:
            pass
        config = StudyConfig(cache_dir=tmp_path)
        assert delta_store_for(Chainless(), config) is None

    def test_active_for_chain_sources(self, corpus_root, tmp_path):
        config = StudyConfig(cache_dir=tmp_path / "cache")
        store = delta_store_for(CorpusDirSource(corpus_root), config)
        assert isinstance(store, DeltaStore)
        assert store.root == tmp_path / "cache" / DELTA_SUBDIR


class TestCheckpointLifecycle:
    def test_cold_study_writes_checkpoints(self, corpus_root, tmp_path):
        cache = tmp_path / "cache"
        _, report = study(corpus_root, cache)
        source = CorpusDirSource(corpus_root)
        store = DeltaStore(cache / DELTA_SUBDIR)
        for pid in source.project_ids():
            checkpoint = store.load(pid, "corpus")
            assert checkpoint is not None
            history = source.load(pid).history
            assert checkpoint.chain == commit_chain(history.commits)
            assert checkpoint.last_commit_ts \
                == history.commits[-1].timestamp

    def test_corrupt_checkpoint_reads_as_missing(self, corpus_root,
                                                 tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        store = DeltaStore(cache / DELTA_SUBDIR)
        pid = CorpusDirSource(corpus_root).project_ids()[0]
        path = store.path_for(pid, "corpus")
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert store.load(pid, "corpus") is None

    def test_wrong_mode_reads_as_missing(self, corpus_root, tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        store = DeltaStore(cache / DELTA_SUBDIR)
        pid = CorpusDirSource(corpus_root).project_ids()[0]
        assert store.load(pid, "corpus") is not None
        assert store.load(pid, "histories") is None

    def test_older_format_reads_as_missing(self, corpus_root, tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        store = DeltaStore(cache / DELTA_SUBDIR)
        pid = CorpusDirSource(corpus_root).project_ids()[0]
        checkpoint = store.load(pid, "corpus")
        assert store.save(dataclasses.replace(
            checkpoint, format=DELTA_FORMAT_VERSION - 1))
        assert store.load(pid, "corpus") is None
        grow_corpus_dir(corpus_root, [0], 2)
        results, report = study(corpus_root, cache)
        assert report.delta_appended == 0
        assert report.delta_rewritten == 0
        cold, _ = study(corpus_root, tmp_path / "cold")
        assert results.records == cold.records


class TestCorpusAppend:
    K = 3

    def test_refresh_parses_only_the_suffix(self, corpus_root,
                                            tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        old_chain_len = len(
            CorpusDirSource(corpus_root).load(
                CorpusDirSource(corpus_root).project_ids()[0]
            ).history.commits)
        grow_corpus_dir(corpus_root, [0, 1], self.K)

        results, report = study(corpus_root, cache)
        assert report.delta_appended == 2
        assert report.delta_rewritten == 0
        assert report.delta_parsed == 2 * self.K
        assert report.delta_reused >= 2 * old_chain_len
        # Only the grown projects recomputed; the rest were cache hits.
        assert report.cache_misses == 2

        cold, cold_report = study(corpus_root, tmp_path / "cold")
        assert cold_report.delta_appended == 0
        assert results.records == cold.records
        assert markdown_report(results) == markdown_report(cold)

    def test_refresh_summary_line(self, corpus_root, tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        grow_corpus_dir(corpus_root, [0], 1)
        _, report = study(corpus_root, cache)
        summary = report.format_delta_summary()
        assert "1 appended" in summary
        assert "1 parsed" in summary

    def test_second_refresh_is_pure_cache_hit(self, corpus_root,
                                              tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        grow_corpus_dir(corpus_root, [0], 2)
        first, _ = study(corpus_root, cache)
        again, report = study(corpus_root, cache)
        assert report.cache_misses == 0
        assert report.delta_appended == 0
        assert again.records == first.records

    def test_repeated_appends_keep_extending(self, corpus_root,
                                             tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        for _ in range(3):
            grow_corpus_dir(corpus_root, [0], 1)
            results, report = study(corpus_root, cache)
            assert report.delta_appended == 1
            assert report.delta_parsed == 1
        cold, _ = study(corpus_root, tmp_path / "cold")
        assert results.records == cold.records


class TestRewriteFallback:
    def rewrite_first_commit(self, root) -> None:
        corpus = import_corpus_dir(root)
        projects = list(corpus.projects)
        history = projects[0].history
        commits = list(history.commits)
        commits[0] = dataclasses.replace(
            commits[0],
            ddl_text=commits[0].ddl_text
            + "\nCREATE TABLE rewritten_base (id INT);\n")
        projects[0] = dataclasses.replace(
            projects[0],
            history=SchemaHistory(
                history.project_name, commits,
                project_start=history.project_start,
                project_end=history.project_end,
                dialect=history.dialect,
                incremental=history.incremental))
        shutil.rmtree(root)
        export_corpus_dir(
            dataclasses.replace(corpus, projects=projects), root)

    def test_rewritten_history_recomputes_in_full(self, corpus_root,
                                                  tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        self.rewrite_first_commit(corpus_root)
        results, report = study(corpus_root, cache)
        assert report.delta_rewritten == 1
        assert report.delta_appended == 0
        cold, _ = study(corpus_root, tmp_path / "cold")
        assert results.records == cold.records
        assert markdown_report(results) == markdown_report(cold)

    def test_rewrite_then_append_recovers(self, corpus_root, tmp_path):
        # The full recompute after a rewrite refreshes the checkpoint,
        # so the *next* append rides the delta path again.
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        self.rewrite_first_commit(corpus_root)
        study(corpus_root, cache)
        grow_corpus_dir(corpus_root, [0], 2)
        results, report = study(corpus_root, cache)
        assert report.delta_appended == 1
        assert report.delta_parsed == 2
        cold, _ = study(corpus_root, tmp_path / "cold")
        assert results.records == cold.records


class TestMigrationStyleFallback:
    def export_styled(self, root, history, incremental: bool) -> None:
        """Re-export ``root`` with project 2 on ``history``'s commits,
        read as migrations (``incremental``) or as snapshots."""
        corpus = import_corpus_dir(root)
        projects = list(corpus.projects)
        projects[2] = dataclasses.replace(
            projects[2],
            history=SchemaHistory(
                history.project_name, history.commits,
                project_start=history.project_start,
                project_end=history.project_end,
                dialect=history.dialect, incremental=incremental))
        shutil.rmtree(root)
        export_corpus_dir(
            dataclasses.replace(corpus, projects=projects), root)

    def restyle_as_migrations(self, root, cache):
        """Study project 2 read as snapshots, then re-study it read as
        migrations: its history and the re-study's results and report.

        The chain still proves the prefix, but the checkpoint the first
        study wrote folded the wrong reading of the same commits.
        """
        sigmoid = import_corpus_dir(root).projects[2]
        history = realize_history(
            sigmoid.plan, random.Random(3), sigmoid.name,
            sigmoid.history.dialect, commit_style="incremental")
        self.export_styled(root, history, incremental=False)
        study(root, cache)
        self.export_styled(root, history, incremental=True)
        return history, *study(root, cache)

    def test_snapshot_checkpoint_never_serves_migrations(self,
                                                         corpus_root,
                                                         tmp_path):
        _, results, report = self.restyle_as_migrations(
            corpus_root, tmp_path / "cache")
        assert report.cache_misses == 1
        assert report.delta_rewritten == 1
        assert report.delta_appended == 0
        cold, _ = study(corpus_root, tmp_path / "cold")
        assert markdown_report(results) == markdown_report(cold)

    def test_growth_after_migrations_counts_no_rewrite(self, corpus_root,
                                                       tmp_path):
        # The re-study that found the stale snapshot checkpoint drops
        # it, so the next growth recomputes without tripping the guard.
        cache = tmp_path / "cache"
        history, _, _ = self.restyle_as_migrations(corpus_root, cache)
        grown = Commit(sha="grow-0",
                       timestamp=history.commits[-1].timestamp
                       + timedelta(days=30),
                       ddl_text="CREATE TABLE delta_extra_0 (id INT);\n")
        self.export_styled(corpus_root, SchemaHistory(
            history.project_name, [*history.commits, grown],
            project_start=history.project_start,
            project_end=max(history.project_end, grown.timestamp),
            dialect=history.dialect), incremental=True)
        results, report = study(corpus_root, cache)
        assert report.cache_misses == 1
        assert report.delta_rewritten == 0
        cold, _ = study(corpus_root, tmp_path / "cold")
        assert markdown_report(results) == markdown_report(cold)


class TestFaultInjectedAppend:
    def test_retry_heals_and_stays_identical(self, corpus_root,
                                             tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        grow_corpus_dir(corpus_root, [0], 2)
        pid = CorpusDirSource(corpus_root).project_ids()[0]
        config = StudyConfig(
            cache_dir=cache,
            error_policy=ErrorPolicy.retry(max_retries=2,
                                           backoff_base=0.0),
            faults=FaultPlan.parse(f"source@{pid}*1"))
        results, report = execute_study_from_source(
            CorpusDirSource(corpus_root), config)
        assert not report.failures
        assert report.retries == 1
        assert report.delta_appended >= 1
        cold, _ = study(corpus_root, tmp_path / "cold")
        assert results.records == cold.records


class TestCorruptCheckpointFallback:
    def test_torn_checkpoint_recomputes_identically(self, corpus_root,
                                                    tmp_path):
        cache = tmp_path / "cache"
        study(corpus_root, cache)
        grow_corpus_dir(corpus_root, [0], 2)
        pid = CorpusDirSource(corpus_root).project_ids()[0]
        store = DeltaStore(cache / DELTA_SUBDIR)
        store.path_for(pid, "corpus").write_bytes(b"garbage")
        results, report = study(corpus_root, cache)
        assert report.delta_appended == 0
        assert report.delta_rewritten == 0
        cold, _ = study(corpus_root, tmp_path / "cold")
        assert results.records == cold.records


class TestLedgerRoundTrip:
    def test_delta_and_hot_counters_persist(self, corpus_root,
                                            tmp_path):
        cache = tmp_path / "cache"
        config = StudyConfig(cache_dir=cache)
        with EngineSession(config) as session:
            session.refresh(CorpusDirSource(corpus_root))
            grow_corpus_dir(corpus_root, [0], 2)
            session.refresh(CorpusDirSource(corpus_root))
        runs = read_ledger(cache)
        assert len(runs) == 2
        cold, warm = runs
        assert cold["delta_appended"] == 0
        assert warm["delta_appended"] == 1
        assert warm["delta_parsed"] == 2
        assert warm["delta_rewritten"] == 0
        for run in runs:
            assert "hot_hits" in run and "hot_misses" in run
            assert "evictions" in run


needs_git = pytest.mark.skipif(shutil.which("git") is None,
                               reason="git binary not available")


def _git(root, *args, env_date=None):
    env = dict(os.environ,
               GIT_AUTHOR_NAME="t", GIT_AUTHOR_EMAIL="t@t",
               GIT_COMMITTER_NAME="t", GIT_COMMITTER_EMAIL="t@t",
               HOME=str(root))
    if env_date:
        env["GIT_AUTHOR_DATE"] = env_date
        env["GIT_COMMITTER_DATE"] = env_date
    subprocess.run(["git", "-C", str(root), *args], check=True,
                   capture_output=True, env=env)


@pytest.fixture
def git_repo(tmp_path):
    """Three DDL projects, two commits of history."""
    root = tmp_path / "repo"
    root.mkdir()
    _git(root, "init", "-q", ".")
    (root / "schema.sql").write_text("CREATE TABLE users (id INT);\n")
    (root / "audit.sql").write_text(
        "CREATE TABLE audit (at TIMESTAMP);\n")
    (root / "logs.sql").write_text("CREATE TABLE logs (msg TEXT);\n")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "one",
         env_date="2020-01-15T10:00:00Z")
    (root / "schema.sql").write_text(
        "CREATE TABLE users (id INT, name TEXT);\n")
    _git(root, "commit", "-qam", "two",
         env_date="2020-06-20T10:00:00Z")
    return root


@needs_git
class TestGitAppend:
    def test_appended_commit_rides_the_delta_path(self, git_repo,
                                                  tmp_path):
        cache = tmp_path / "cache"
        config = StudyConfig(cache_dir=cache)
        execute_study_from_source(GitDirSource(git_repo), config)

        (git_repo / "schema.sql").write_text(
            "CREATE TABLE users (id INT, name TEXT);\n"
            "CREATE TABLE posts (id INT);\n")
        _git(git_repo, "commit", "-qam", "three",
             env_date="2021-01-10T00:00:00Z")

        results, report = execute_study_from_source(
            GitDirSource(git_repo), config)
        assert report.delta_appended == 1
        assert report.delta_parsed == 1
        assert report.delta_reused == 2
        assert report.cache_misses == 1

        cold, _ = execute_study_from_source(
            GitDirSource(git_repo),
            StudyConfig(cache_dir=tmp_path / "cold"))
        assert results.records == cold.records
        assert markdown_report(results) == markdown_report(cold)

    def test_amended_history_falls_back(self, git_repo, tmp_path):
        cache = tmp_path / "cache"
        config = StudyConfig(cache_dir=cache)
        execute_study_from_source(GitDirSource(git_repo), config)

        (git_repo / "schema.sql").write_text(
            "CREATE TABLE users (id INT, name TEXT, email TEXT);\n")
        _git(git_repo, "commit", "-qa", "--amend", "-m", "two'",
             env_date="2020-06-20T10:00:00Z")

        results, report = execute_study_from_source(
            GitDirSource(git_repo), config)
        assert report.delta_rewritten == 1
        assert report.delta_appended == 0
        cold, _ = execute_study_from_source(
            GitDirSource(git_repo),
            StudyConfig(cache_dir=tmp_path / "cold"))
        assert results.records == cold.records

    def test_version_chain_is_oldest_first(self, git_repo):
        source = GitDirSource(git_repo)
        chain = source.version_chain("schema.sql")
        assert len(chain) == 2
        history = source.load("schema.sql")
        assert "name" not in history.commits[0].ddl_text
        assert "name" in history.commits[1].ddl_text

    def test_load_delta_fetches_only_the_suffix(self, git_repo):
        source = GitDirSource(git_repo)
        suffix = source.load_delta("schema.sql", 1)
        assert len(suffix) == 1
        assert "name" in suffix[0].ddl_text
        assert source.load_delta("schema.sql", 2) == []
