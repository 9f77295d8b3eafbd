"""Integration tests for the diff and export CLI subcommands."""

import csv

import pytest

from repro.cli import main
from repro.sources import export_corpus_dir


class TestDiffCommand:
    @pytest.fixture
    def two_files(self, tmp_path):
        old = tmp_path / "old.sql"
        new = tmp_path / "new.sql"
        old.write_text("CREATE TABLE users (id INT, email TEXT);")
        new.write_text("CREATE TABLE users (id INT, email TEXT, "
                       "name TEXT);\nCREATE TABLE posts (id INT);")
        return old, new

    def test_diff_output(self, two_files, capsys):
        old, new = two_files
        code = main(["diff", str(old), str(new)])
        assert code == 0
        out = capsys.readouterr().out
        assert "tables added:   posts" in out
        assert "affected attributes: 2" in out
        assert "injected" in out
        assert "born_with_table" in out

    def test_diff_rename_detection(self, tmp_path, capsys):
        old = tmp_path / "old.sql"
        new = tmp_path / "new.sql"
        old.write_text("CREATE TABLE user (id INT, email TEXT);")
        new.write_text("CREATE TABLE users (id INT, email TEXT);")
        code = main(["diff", str(old), str(new), "--detect-renames"])
        assert code == 0
        out = capsys.readouterr().out
        assert "user->users" in out
        assert "affected attributes: 0" in out

    def test_diff_missing_file(self, tmp_path, capsys):
        code = main(["diff", str(tmp_path / "a.sql"),
                     str(tmp_path / "b.sql")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExportCommand:
    def test_export_from_saved_corpus(self, tmp_path, capsys,
                                      small_corpus):
        corpus_path = export_corpus_dir(small_corpus, tmp_path / "c")
        out_dir = tmp_path / "dataset"
        code = main(["export", str(out_dir),
                     "--source", f"dir:{corpus_path}"])
        assert code == 0
        for name in ("measurements.csv", "heartbeats.csv",
                     "vectors.csv"):
            assert (out_dir / name).exists()
        with (out_dir / "measurements.csv").open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(small_corpus)
