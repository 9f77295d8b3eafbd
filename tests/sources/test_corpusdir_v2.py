"""The sharded v2 corpus-directory layout: round-trip, integrity,
golden equivalence with v1, and the streaming write surface."""

import json

import pytest

from repro.errors import SourceError
from repro.report.markdown import markdown_report
from repro.sources import (
    CorpusDirSource,
    export_corpus_dir,
    import_corpus_dir,
    write_corpus_dir,
)
from repro.sources.corpusdir import (
    CORPUS_DIR_VERSION_SHARDED,
    project_to_dict,
)
from repro.study.pipeline import records_from_corpus, run_study


@pytest.fixture(scope="module")
def sharded_dir(small_corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus_v2") / "dir"
    return export_corpus_dir(small_corpus, root, shard_size=4)


class TestShardedLayout:
    def test_manifest_schema(self, small_corpus, sharded_dir):
        manifest = json.loads(
            (sharded_dir / "manifest.json").read_text())
        assert manifest["version"] == CORPUS_DIR_VERSION_SHARDED
        assert manifest["shard_size"] == 4
        assert manifest["count"] == len(small_corpus)
        assert sum(s["count"] for s in manifest["shards"]) \
            == len(small_corpus)
        for shard in manifest["shards"]:
            assert (sharded_dir / shard["file"]).exists()
            assert len(shard["projects"]) == shard["count"] <= 4

    def test_no_per_project_files(self, sharded_dir):
        assert not (sharded_dir / "projects").exists()

    def test_write_is_deterministic(self, small_corpus, sharded_dir,
                                    tmp_path):
        again = export_corpus_dir(small_corpus, tmp_path / "again",
                                  shard_size=4)
        assert (again / "manifest.json").read_text() \
            == (sharded_dir / "manifest.json").read_text()

    def test_streaming_write_reports_counts(self, small_corpus,
                                            tmp_path):
        report = write_corpus_dir(iter(small_corpus.projects),
                                  tmp_path / "stream",
                                  seed=small_corpus.seed,
                                  shard_size=7)
        assert report.projects == len(small_corpus)
        assert report.shards == -(-len(small_corpus) // 7)

    def test_bad_shard_size(self, small_corpus, tmp_path):
        with pytest.raises(SourceError, match="shard_size"):
            write_corpus_dir(small_corpus.projects, tmp_path / "x",
                             shard_size=0)


class TestRoundTrip:
    def test_projects_survive(self, small_corpus, sharded_dir):
        # GeneratedProject has identity equality — compare the
        # serialized dicts, never the objects.
        back = import_corpus_dir(sharded_dir)
        assert back.seed == small_corpus.seed
        for original, restored in zip(small_corpus.projects,
                                      back.projects):
            assert project_to_dict(restored) \
                == project_to_dict(original)

    def test_v1_and_v2_hold_identical_projects(self, small_corpus,
                                               sharded_dir, tmp_path):
        v1 = export_corpus_dir(small_corpus, tmp_path / "v1")
        flat = import_corpus_dir(v1)
        sharded = import_corpus_dir(sharded_dir)
        assert [project_to_dict(p) for p in flat.projects] \
            == [project_to_dict(p) for p in sharded.projects]

    def test_study_report_identical_to_v1(self, small_corpus,
                                          sharded_dir):
        """The acceptance bar: sharded in, byte-identical study out."""
        reference = markdown_report(
            run_study(records_from_corpus(small_corpus)))
        sharded = markdown_report(run_study(records_from_corpus(
            import_corpus_dir(sharded_dir))))
        assert sharded == reference


class TestSource:
    def test_version_and_listing(self, small_corpus, sharded_dir):
        source = CorpusDirSource(sharded_dir)
        assert source.version == CORPUS_DIR_VERSION_SHARDED
        assert source.count() == len(small_corpus)
        assert source.project_ids() == tuple(
            p.name for p in small_corpus.projects)

    def test_seek_load(self, small_corpus, sharded_dir):
        source = CorpusDirSource(sharded_dir)
        last = small_corpus.projects[-1]
        assert project_to_dict(source.load(last.name)) \
            == project_to_dict(last)

    def test_stratum_is_recorded_pattern(self, small_corpus,
                                         sharded_dir):
        source = CorpusDirSource(sharded_dir)
        project = small_corpus.projects[0]
        assert source.stratum(project.name) \
            == project.intended_pattern.value

    def test_iter_handle_shards_covers_everything(self, small_corpus,
                                                  sharded_dir):
        shards = list(CorpusDirSource(sharded_dir).iter_handle_shards())
        keys = [key for key, _ in shards]
        assert len(set(keys)) == len(keys)
        pids = [h.pid for _, handles in shards for h in handles]
        assert pids == [p.name for p in small_corpus.projects]

    def test_handles_match_fingerprints(self, sharded_dir):
        source = CorpusDirSource(sharded_dir)
        for handle in source.iter_handles():
            assert handle.fingerprint == source.fingerprint(handle.pid)


class TestIntegrity:
    def test_corrupt_shard_is_rejected(self, small_corpus, tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "corrupt",
                                 shard_size=4)
        source = CorpusDirSource(root)
        manifest = json.loads((root / "manifest.json").read_text())
        shard = manifest["shards"][0]
        path = root / shard["file"]
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SourceError, match="does not match"):
            source.load(shard["projects"][0]["id"])

    def test_truncated_shard_is_rejected(self, small_corpus, tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "short",
                                 shard_size=100)
        source = CorpusDirSource(root)
        path = root / "shards" / "0000.jsonl"
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(SourceError, match="does not match"):
            source.load(source.project_ids()[-1])

    def test_missing_shard_file(self, small_corpus, tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "gone",
                                 shard_size=100)
        source = CorpusDirSource(root)
        (root / "shards" / "0000.jsonl").unlink()
        assert source.fingerprint(source.project_ids()[0])
        with pytest.raises(SourceError, match="cannot read project"):
            source.load(source.project_ids()[0])


class TestStratifiedShardedExport:
    def test_limit_spans_patterns(self, small_corpus, tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "five",
                                 limit=5, shard_size=2)
        back = import_corpus_dir(root)
        assert len(back) == 5
        assert len({p.intended_pattern for p in back.projects}) >= 4
