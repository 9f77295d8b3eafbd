"""The HistorySource protocol, SourceHandle and the in-memory adapter."""

import pickle

import pytest

from repro.errors import SourceError
from repro.sources import (
    CorpusDirSource,
    GitDirSource,
    HistorySource,
    InMemorySource,
    SyntheticSource,
    check_mode,
    source_from_spec,
)
from repro.sources.base import SourceHandle
from tests.conftest import make_history


class TestCheckMode:
    def test_accepts_both_modes(self):
        assert check_mode("corpus") == "corpus"
        assert check_mode("histories") == "histories"

    def test_rejects_unknown(self):
        with pytest.raises(SourceError, match="unknown source mode"):
            check_mode("parquet")


class TestProtocol:
    def test_all_sources_satisfy_protocol(self, tmp_path):
        from repro.corpus.generator import Corpus
        from repro.sources import export_corpus_dir
        root = export_corpus_dir(Corpus(projects=(), seed=1), tmp_path)
        assert isinstance(SyntheticSource(), HistorySource)
        # isinstance on a runtime protocol probes the attributes, so
        # the corpus dir must hold a readable manifest.
        assert isinstance(CorpusDirSource(root), HistorySource)
        assert isinstance(GitDirSource(tmp_path), HistorySource)
        assert isinstance(InMemorySource([]), HistorySource)

    def test_handle_is_hashable_and_frozen(self):
        handle = SourceHandle(pid="p", fingerprint="f")
        assert handle in {handle}
        with pytest.raises(AttributeError):
            handle.pid = "other"

    def test_attached_item_is_not_identity(self):
        bare = SourceHandle(pid="p", fingerprint="f")
        loaded = SourceHandle(pid="p", fingerprint="f", item=["project"])
        assert loaded == bare
        assert hash(loaded) == hash(bare)
        assert repr(loaded) == repr(bare)


class TestInMemorySource:
    def test_corpus_mode(self, small_corpus):
        source = InMemorySource(small_corpus.projects, mode="corpus")
        assert not source.lightweight
        assert len(source) == len(small_corpus)
        pids = source.project_ids()
        assert len(pids) == len(set(pids))
        first = source.load(pids[0])
        assert first is small_corpus.projects[0]

    def test_pids_are_project_names(self, small_corpus):
        source = InMemorySource(small_corpus.projects, mode="corpus")
        assert source.project_ids() \
            == tuple(p.name for p in small_corpus.projects)

    def test_only_repeated_names_get_a_suffix(self):
        histories = [make_history(["CREATE TABLE t (a INT);"], name=name)
                     for name in ("p", "q", "p", "p", "p#2")]
        source = InMemorySource(histories, mode="histories")
        assert source.project_ids() == ("p", "q", "p#2", "p#3", "p#2#2")
        assert all(source.load(pid) is history for pid, history
                   in zip(source.project_ids(), histories))

    def test_pickles_empty(self):
        history = make_history(["CREATE TABLE t (a INT);"])
        source = InMemorySource([history], mode="histories")
        copy = pickle.loads(pickle.dumps(source))
        assert copy.mode == "histories"
        assert copy.project_ids() == ()

    def test_histories_mode(self):
        history = make_history(["CREATE TABLE t (a INT);"])
        source = InMemorySource([history], mode="histories")
        assert source.mode == "histories"
        assert source.load(source.project_ids()[0]) is history

    def test_fingerprint_tracks_content(self):
        h1 = make_history(["CREATE TABLE t (a INT);"], name="p")
        h2 = make_history(["CREATE TABLE t (a INT, b INT);"], name="p")
        fp = lambda h: InMemorySource([h], mode="histories").fingerprint(
            InMemorySource([h], mode="histories").project_ids()[0])
        assert fp(h1) != fp(h2)
        assert fp(h1) == fp(make_history(["CREATE TABLE t (a INT);"],
                                         name="p"))

    def test_unknown_pid(self):
        with pytest.raises(SourceError, match="unknown project id"):
            InMemorySource([]).load("00000:ghost")

    def test_unknown_mode(self):
        with pytest.raises(SourceError):
            InMemorySource([], mode="nope")


class TestSourceFromSpec:
    def test_synthetic_default_seed(self):
        source = source_from_spec("synthetic:")
        assert isinstance(source, SyntheticSource)

    def test_synthetic_explicit_seed(self):
        assert source_from_spec("synthetic:42").seed == 42

    def test_synthetic_seed_from_config(self):
        from repro.engine import StudyConfig
        source = source_from_spec("synthetic:", StudyConfig(seed=7))
        assert source.seed == 7

    def test_dir_and_git(self, tmp_path):
        assert isinstance(source_from_spec(f"dir:{tmp_path}"),
                          CorpusDirSource)
        assert isinstance(source_from_spec(f"git:{tmp_path}"),
                          GitDirSource)

    @pytest.mark.parametrize("bad", [
        "synthetic", "dir:", "git:", "csv:x", "synthetic:abc",
    ])
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(SourceError):
            source_from_spec(bad)
