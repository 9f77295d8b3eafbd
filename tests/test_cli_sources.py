"""CLI coverage for --source and the corpus export command."""

import json

import pytest

from repro.cli import _print_study_report, main
from repro.sources import (
    SyntheticSource,
    export_corpus_dir,
    import_corpus_dir,
)
from repro.sources.corpusdir import project_to_dict
from repro.study.pipeline import run_full_study


@pytest.fixture
def cdir(tmp_path, small_corpus):
    """The small corpus exported as a corpus directory."""
    return export_corpus_dir(small_corpus, tmp_path / "cdir")


class TestCorpusExportImport:
    def test_round_trip(self, tmp_path, capsys):
        cdir = tmp_path / "cdir"
        assert main(["corpus", "export", str(cdir), "--limit", "16"]) == 0
        assert "wrote 16 projects" in capsys.readouterr().out
        manifest = json.loads((cdir / "manifest.json").read_text())
        assert manifest["format"] == "repro-corpus-dir"

        # Every exported project loads back as the one it was written
        # from.
        source = SyntheticSource()
        back = import_corpus_dir(cdir)
        assert back.seed == source.seed
        assert [project_to_dict(p) for p in back.projects] \
            == [project_to_dict(source.load(p.name))
                for p in back.projects]

    def test_limited_export(self, tmp_path, capsys):
        cdir = tmp_path / "five"
        assert main(["corpus", "export", str(cdir), "--limit", "5"]) == 0
        assert "wrote 5 projects" in capsys.readouterr().out
        manifest = json.loads((cdir / "manifest.json").read_text())
        assert len(manifest["projects"]) == 5


class TestStudySources:
    def test_dir_source_matches_saved_corpus(self, cdir, small_corpus,
                                             capsys):
        results, _ = run_full_study(small_corpus)
        capsys.readouterr()
        _print_study_report(results)
        reference = capsys.readouterr().out
        assert main(["study", "--source", f"dir:{cdir}"]) == 0
        assert capsys.readouterr().out == reference

    def test_timings_report_cache_counts(self, tmp_path, cdir, capsys):
        cache = tmp_path / "cache"
        for expected in ("16 miss", "16 hit"):
            capsys.readouterr()
            assert main(["study", "--source", f"dir:{cdir}",
                         "--cache-dir", str(cache), "--timings"]) == 0
            err = capsys.readouterr().err
            assert "TOTAL" in err
            assert expected in err

    def test_unknown_source_kind_fails_cleanly(self, capsys):
        assert main(["study", "--source", "csv:whatever"]) == 1
        assert "unknown source kind" in capsys.readouterr().err

    def test_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["study",
                     "--source", f"dir:{tmp_path / 'nope'}"]) == 1
        assert "error:" in capsys.readouterr().err


class TestReportAndExportSources:
    def test_report_from_dir_source(self, tmp_path, cdir, capsys):
        out = tmp_path / "report.md"
        assert main(["report", str(out),
                     "--source", f"dir:{cdir}"]) == 0
        assert out.read_text().startswith("#")

    def test_export_from_dir_source(self, tmp_path, cdir, capsys):
        out = tmp_path / "csv"
        assert main(["export", str(out),
                     "--source", f"dir:{cdir}"]) == 0
        assert any(out.iterdir())


class TestSingleErrorPath:
    def test_classify_empty_directory(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["classify", str(tmp_path / "empty")]) == 1
        assert "error: no histories found" in capsys.readouterr().err


class TestProcessSession:
    def test_two_invocations_share_one_session(self, tmp_path, cdir,
                                               capsys):
        """Back-to-back CLI studies reuse the process engine session."""
        import repro.cli as cli
        from repro.engine import read_ledger

        cli._SESSION = None  # isolate from earlier in-process runs
        cache = tmp_path / "cache"
        for _ in range(2):
            assert main(["study", "--source", f"dir:{cdir}",
                         "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        session = cli._SESSION
        assert session is not None
        assert len(session.runs) == 2
        assert session.runs[1].cache_hit_rate == 1.0
        assert session.runs[0].result_digest == \
            session.runs[1].result_digest
        ledger = read_ledger(cache)
        assert len(ledger) == 2
        assert ledger[1]["cache_hit_rate"] == 1.0


class TestShardedExportCli:
    def test_shard_size_export_runs_identical_study(self, tmp_path,
                                                    capsys):
        flat = tmp_path / "flat"
        assert main(["corpus", "export", str(flat), "--limit", "16"]) == 0
        capsys.readouterr()
        assert main(["study", "--source", f"dir:{flat}"]) == 0
        reference = capsys.readouterr().out
        cdir = tmp_path / "sharded"
        assert main(["corpus", "export", str(cdir), "--limit", "16",
                     "--shard-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "wrote 16 projects" in out
        assert "4 shards" in out
        manifest = json.loads((cdir / "manifest.json").read_text())
        assert manifest["version"] == 2
        assert main(["study", "--source", f"dir:{cdir}"]) == 0
        assert capsys.readouterr().out == reference

    def test_limited_sharded_export(self, tmp_path, capsys):
        cdir = tmp_path / "limited"
        assert main(["corpus", "export", str(cdir), "--limit", "5",
                     "--shard-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "wrote 5 projects" in out
        assert "3 shards" in out


class TestSampledStudyCli:
    def test_stratified_sample_completes(self, cdir, capsys):
        assert main(["study", "--source", f"dir:{cdir}",
                     "--sample", "8", "--stratified"]) == 0
        assert "Sec. 6.3" in capsys.readouterr().out

    def test_sample_is_deterministic(self, cdir, capsys):
        assert main(["study", "--source", f"dir:{cdir}",
                     "--sample", "6"]) == 0
        first = capsys.readouterr().out
        assert main(["study", "--source", f"dir:{cdir}",
                     "--sample", "6"]) == 0
        assert capsys.readouterr().out == first


class TestCorpusFileSampling:
    """A corpus exported to files samples exactly like the source it
    was exported from."""

    def study_stdout(self, capsys, *argv):
        capsys.readouterr()
        assert main(["study", *argv]) == 0
        return capsys.readouterr().out

    def test_sample_matches_synthetic(self, default_corpus_dir, capsys):
        assert self.study_stdout(capsys,
                                 "--source", f"dir:{default_corpus_dir}",
                                 "--sample", "20") \
            == self.study_stdout(capsys, "--sample", "20")

    def test_stratified_sample_matches_synthetic(self, default_corpus_dir,
                                                 capsys):
        assert self.study_stdout(capsys,
                                 "--source", f"dir:{default_corpus_dir}",
                                 "--sample", "20", "--stratified") \
            == self.study_stdout(capsys, "--sample", "20",
                                 "--stratified")

    def test_export_writes_the_sample(self, default_corpus_dir,
                                      tmp_path, capsys):
        out = tmp_path / "export"
        assert main(["export", str(out),
                     "--source", f"dir:{default_corpus_dir}",
                     "--sample", "20"]) == 0
        rows = (out / "measurements.csv").read_text().splitlines()
        assert len(rows) == 1 + 20
