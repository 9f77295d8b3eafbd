"""The JSONL corpus-directory format: export → import is lossless."""

import dataclasses
import json
import random

import pytest

from repro.corpus.dataset import load_corpus, project_to_dict, save_corpus
from repro.corpus.ddlgen import realize_history
from repro.corpus.generator import Corpus
from repro.errors import SourceError
from repro.history.heartbeat import schema_heartbeat
from repro.patterns.taxonomy import Pattern
from repro.report.markdown import markdown_report
from repro.sources import (
    CorpusDirSource,
    SyntheticSource,
    export_corpus_dir,
    import_corpus_dir,
    write_corpus_dir,
)
from repro.sources.corpusdir import stratified
from repro.study.pipeline import records_from_corpus, run_study


@pytest.fixture(scope="module")
def corpus_dir(small_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus") / "dir"
    return export_corpus_dir(small_corpus, root)


class TestRoundTrip:
    def test_projects_survive_byte_for_byte(self, small_corpus,
                                            corpus_dir):
        back = import_corpus_dir(corpus_dir)
        assert back.seed == small_corpus.seed
        assert len(back) == len(small_corpus)
        for original, restored in zip(small_corpus.projects,
                                      back.projects):
            assert project_to_dict(restored) == project_to_dict(original)

    def test_study_report_identical(self, small_corpus, corpus_dir):
        """The acceptance bar: same study, byte-identical report."""
        original = run_study(records_from_corpus(small_corpus))
        restored = run_study(
            records_from_corpus(import_corpus_dir(corpus_dir)))
        assert markdown_report(restored) == markdown_report(original)

    def test_export_is_deterministic(self, small_corpus, corpus_dir,
                                     tmp_path):
        again = export_corpus_dir(small_corpus, tmp_path / "again")
        a = (corpus_dir / "manifest.json").read_text()
        b = (again / "manifest.json").read_text()
        assert a == b


def _incremental_project():
    """A seed-3 Sigmoid project realized as incremental-style commits."""
    source = SyntheticSource(seed=3, population={Pattern.SIGMOID: 1})
    project = source.load(source.project_ids()[0])
    history = realize_history(project.plan, random.Random(3), project.name,
                              project.history.dialect,
                              commit_style="incremental")
    return dataclasses.replace(project, history=history)


def _round_trip(project, layout, tmp_path):
    if layout == "json":
        save_corpus(Corpus(projects=(project,), seed=3),
                    tmp_path / "corpus.json")
        return load_corpus(tmp_path / "corpus.json").projects[0]
    write_corpus_dir([project], tmp_path,
                     shard_size=4 if layout == "v2" else None)
    return CorpusDirSource(tmp_path).load(project.name)


@pytest.mark.parametrize("layout", ["v1", "v2", "json"])
def test_incremental_history_round_trips(layout, tmp_path):
    project = _incremental_project()
    restored = _round_trip(project, layout, tmp_path)
    assert restored.history.incremental is True
    assert schema_heartbeat(restored.history).monthly \
        == schema_heartbeat(project.history).monthly


class TestSource:
    def test_lazy_listing_and_load(self, small_corpus, corpus_dir):
        source = CorpusDirSource(corpus_dir)
        assert source.lightweight
        assert source.mode == "corpus"
        assert source.seed == small_corpus.seed
        assert source.project_ids() == tuple(
            p.name for p in small_corpus.projects)
        loaded = source.load(source.project_ids()[0])
        assert project_to_dict(loaded) \
            == project_to_dict(small_corpus.projects[0])

    def test_fingerprint_needs_no_project_file(self, small_corpus,
                                               tmp_path):
        # The manifest digest is the fingerprint: remove the payload
        # files and fingerprints must still come back.
        root = export_corpus_dir(small_corpus, tmp_path / "gone")
        source = CorpusDirSource(root)
        pid = source.project_ids()[0]
        (root / "projects" / f"{pid}.jsonl").unlink()
        assert source.fingerprint(pid)
        with pytest.raises(SourceError, match="cannot read project"):
            source.load(pid)

    def test_unknown_pid(self, corpus_dir):
        with pytest.raises(SourceError, match="unknown project id"):
            CorpusDirSource(corpus_dir).load("ghost")


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SourceError, match="not a corpus directory"):
            CorpusDirSource(tmp_path).project_ids()

    def test_wrong_format_tag(self, tmp_path):
        (tmp_path / "manifest.json").write_text(
            json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(SourceError, match="not a repro-corpus-dir"):
            CorpusDirSource(tmp_path).project_ids()

    def test_future_version(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps(
            {"format": "repro-corpus-dir", "version": 99,
             "projects": []}))
        with pytest.raises(SourceError, match="unsupported"):
            CorpusDirSource(tmp_path).project_ids()

    def test_corrupt_project_file(self, small_corpus, tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "corrupt")
        source = CorpusDirSource(root)
        pid = source.project_ids()[0]
        (root / "projects" / f"{pid}.jsonl").write_text("{nope\n")
        with pytest.raises(SourceError, match="does not match its "
                                              "manifest sha256"):
            source.load(pid)

    def test_edited_project_file(self, small_corpus, tmp_path):
        # Valid JSON that is not what the manifest indexed: studying it
        # would attach the edited text to the exported fingerprint, so a
        # cached study would serve the old report for it.
        root = export_corpus_dir(small_corpus, tmp_path / "edited")
        source = CorpusDirSource(root)
        pid = source.project_ids()[0]
        path = root / "projects" / f"{pid}.jsonl"
        path.write_text(path.read_text().replace("CREATE TABLE",
                                                 "CREATE  TABLE"))
        with pytest.raises(SourceError, match="does not match its "
                                              "manifest sha256"):
            source.load(pid)


class TestStratifiedLimit:
    def test_small_export_spans_patterns(self, small_corpus, tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "five",
                                 limit=5)
        back = import_corpus_dir(root)
        assert len(back) == 5
        patterns = {p.intended_pattern for p in back.projects}
        assert len(patterns) >= 4

    def test_round_robin_order(self, small_corpus):
        picked = stratified(small_corpus.projects, 4)
        assert len({p.intended_pattern for p in picked}) == 4

    def test_limit_beyond_size_keeps_all(self, small_corpus):
        picked = stratified(small_corpus.projects, 10_000)
        assert len(picked) == len(small_corpus)
