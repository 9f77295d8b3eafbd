"""GitDirSource against a real repository built commit-by-commit."""

import shutil
import subprocess
from datetime import datetime

import pytest

from repro.engine import ErrorPolicy
from repro.engine.stream import HandleStream
from repro.errors import SourceError
from repro.sources import GitDirSource

pytestmark = pytest.mark.skipif(shutil.which("git") is None,
                                reason="git binary not available")


def _git(root, *args, env_date=None):
    import os
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
def repo(tmp_path):
    """Two DDL files, one query file, one noise-path file, 3 commits."""
    root = tmp_path / "repo"
    root.mkdir()
    _git(root, "init", "-q", ".")
    (root / "schema.sql").write_text(
        "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT);\n")
    (root / "query.sql").write_text("SELECT 1;\n")
    (root / "examples").mkdir()
    (root / "examples" / "demo.sql").write_text(
        "CREATE TABLE demo (x INT);\n")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "one",
         env_date="2020-01-15T10:00:00+02:00")
    (root / "schema.sql").write_text(
        "CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, "
        "email TEXT);\n")
    _git(root, "commit", "-qam", "two",
         env_date="2020-06-20T10:00:00Z")
    (root / "audit.sql").write_text(
        "CREATE TABLE audit (at TIMESTAMP);\n")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "three",
         env_date="2021-01-10T00:00:00Z")
    return root


class TestDiscovery:
    def test_keeps_only_committed_ddl_files(self, repo):
        source = GitDirSource(repo)
        assert source.mode == "histories"
        # query.sql has no DDL; examples/demo.sql is a noise path.
        assert source.project_ids() == ("audit.sql", "schema.sql")

    def test_noise_filter_can_be_disabled(self, repo):
        source = GitDirSource(repo, drop_noise=False)
        assert "examples/demo.sql" in source.project_ids()

    def test_not_a_repository(self, tmp_path):
        with pytest.raises(SourceError, match="git"):
            GitDirSource(tmp_path / "nowhere").project_ids()


class TestLoad:
    def test_history_per_commit(self, repo):
        history = GitDirSource(repo).load("schema.sql")
        assert history.project_name == "schema"
        assert len(history.commits) == 2
        assert "email" not in history.commits[0].ddl_text
        assert "email" in history.commits[1].ddl_text

    def test_timestamps_are_naive_utc(self, repo):
        history = GitDirSource(repo).load("schema.sql")
        first = history.commits[0].timestamp
        assert first.tzinfo is None
        assert first == datetime(2020, 1, 15, 8, 0)  # +02:00 shifted

    def test_unknown_file(self, repo):
        with pytest.raises(SourceError, match="no committed versions"):
            GitDirSource(repo).load("missing.sql")


class TestFingerprints:
    def test_changes_with_new_commit(self, repo):
        source = GitDirSource(repo)
        before = source.fingerprint("schema.sql")
        untouched = source.fingerprint("audit.sql")
        (repo / "schema.sql").write_text(
            "CREATE TABLE users (id INTEGER PRIMARY KEY);\n")
        _git(repo, "commit", "-qam", "four",
             env_date="2021-06-01T00:00:00Z")
        fresh = GitDirSource(repo)
        assert fresh.fingerprint("schema.sql") != before
        assert fresh.fingerprint("audit.sql") == untouched


class TestStudyIntegration:
    def test_records_from_git_source(self, repo):
        from repro.engine import compute_records_from_source
        records, _ = compute_records_from_source(GitDirSource(repo))
        assert [r.name for r in records] == ["audit", "schema"]


class TestTipMemo:
    """HEAD changes invalidate the cached discovery/fingerprint memos
    of one live source instance — the cheap ``rev-parse HEAD`` probe
    replaces a full history walk when nothing moved."""

    def test_same_instance_sees_new_commits(self, repo):
        source = GitDirSource(repo)
        assert "extra.sql" not in source.project_ids()
        before = source.fingerprint("schema.sql")
        (repo / "extra.sql").write_text(
            "CREATE TABLE extra (id INT);\n")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-qm", "extra",
             env_date="2021-06-01T00:00:00Z")
        assert "extra.sql" in source.project_ids()
        # Untouched project's fingerprint survives the tip change.
        assert source.fingerprint("schema.sql") == before

    def test_fingerprint_memoized_until_tip_moves(self, repo):
        source = GitDirSource(repo)
        tip = source.tip()
        assert source.fingerprint("schema.sql") \
            == source.fingerprint("schema.sql")
        (repo / "schema.sql").write_text("CREATE TABLE users (x INT);\n")
        _git(repo, "commit", "-qam", "more",
             env_date="2021-07-01T00:00:00Z")
        assert source.tip() != tip
        assert "x INT" in source.load("schema.sql").commits[-1].ddl_text

    def test_unchanged_head_reenumerates_with_one_rev_parse(self, repo):
        source = GitDirSource(repo)
        first = list(source.iter_handles())
        calls = []
        git = source._git

        def counting(*args):
            calls.append(args[0])
            return git(*args)

        source._git = counting
        assert list(source.iter_handles()) == first
        assert calls == ["rev-parse"]

    def test_capturing_enumeration_checks_head_once(self, repo):
        """Under a fault-capturing policy the stream bridges through
        ``project_ids()`` and ``fingerprint(pid)``, and still checks
        HEAD once per enumeration."""
        source = GitDirSource(repo)
        first = list(HandleStream(source, ErrorPolicy.skip()))
        assert first
        calls = []
        git = source._git

        def counting(*args):
            calls.append(args[0])
            return git(*args)

        source._git = counting
        assert list(HandleStream(source, ErrorPolicy.skip())) == first
        assert calls == ["rev-parse"]
        # Outside an enumeration every fingerprint checks HEAD.
        source.fingerprint(first[0].pid)
        assert calls == ["rev-parse", "rev-parse"]

    def test_identity_tracks_head(self, repo):
        source = GitDirSource(repo)
        before = source.identity()
        (repo / "schema.sql").write_text("CREATE TABLE users (y INT);\n")
        _git(repo, "commit", "-qam", "again",
             env_date="2021-08-01T00:00:00Z")
        assert source.identity() != before
