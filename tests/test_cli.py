"""Integration tests for the command-line interface."""

import json
import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

from repro.cli import main
from repro.corpus.dataset import save_corpus
from repro.history.repository import save_history_to_jsonl
from tests.conftest import make_history


@pytest.fixture
def history_jsonl(tmp_path):
    history = make_history(
        ["CREATE TABLE t (a INT);",
         "CREATE TABLE t (a INT); CREATE TABLE u (b INT, c INT);"],
        project_start=datetime(2020, 1, 1),
        project_end=datetime(2022, 1, 1),
        name="cli-proj")
    path = tmp_path / "proj.jsonl"
    save_history_to_jsonl(history, path)
    return path


class TestGenerate:
    def test_generate_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        # A tiny corpus via the default population takes ~seconds; use
        # the real command but a fixed seed.
        code = main(["generate", str(out), "--seed", "3"])
        assert code == 0
        document = json.loads(out.read_text())
        assert len(document["projects"]) == 151
        assert "wrote 151 projects" in capsys.readouterr().out


class TestStudy:
    def test_study_on_saved_corpus(self, tmp_path, capsys, small_corpus):
        path = tmp_path / "c.json"
        save_corpus(small_corpus, path)
        code = main(["study", "--corpus", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Fig. 7" in out
        assert "Sec. 6.1" in out


class TestProfile:
    def test_profile_output(self, history_jsonl, capsys):
        code = main(["profile", str(history_jsonl)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-proj" in out
        assert "pattern:" in out
        assert "schema birth:" in out

    def test_directory_input(self, tmp_path, capsys):
        (tmp_path / "2020-01-01.sql").write_text(
            "CREATE TABLE t (a INT);")
        (tmp_path / "2021-06-01.sql").write_text(
            "CREATE TABLE t (a INT, b INT);")
        code = main(["profile", str(tmp_path)])
        assert code == 0
        assert "pattern:" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["profile", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestChart:
    def test_ascii_chart(self, history_jsonl, capsys):
        code = main(["chart", str(history_jsonl)])
        assert code == 0
        assert "* schema" in capsys.readouterr().out

    def test_svg_chart(self, history_jsonl, tmp_path, capsys):
        svg = tmp_path / "out.svg"
        code = main(["chart", str(history_jsonl), "--svg", str(svg)])
        assert code == 0
        assert svg.read_text().startswith("<svg")


class TestRuntimeImports:
    def test_study_imports_neither_scipy_nor_numpy(self):
        """The runtime is standard-library only: a CLI study loads no
        scipy or numpy (they are test oracles, not dependencies)."""
        script = (
            "import sys\n"
            "import repro.cli\n"
            "status = repro.cli.main(['study', '--sample', '12', "
            "'--stratified'])\n"
            "loaded = [name for name in ('scipy', 'numpy') "
            "if name in sys.modules]\n"
            "sys.exit(f'imported {loaded}' if loaded else status)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src") \
            + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True,
                                timeout=120)
        assert result.returncode == 0, result.stderr
        assert "Table 1" in result.stdout


class TestNoIncrementalScope:
    """``--no-incremental`` holds for one ``main()`` call, not for the
    rest of the interpreter."""

    @staticmethod
    def record_default(monkeypatch):
        import repro.cli as cli
        from repro.history.repository import incremental_parse_default
        seen = []
        monkeypatch.setattr(
            cli, "_cmd_study",
            lambda args: seen.append(incremental_parse_default()) or 0)
        return seen

    def test_default_is_back_after_the_call(self, monkeypatch):
        from repro.history.repository import (
            NO_INCREMENTAL_ENV,
            incremental_parse_default,
        )
        monkeypatch.delenv(NO_INCREMENTAL_ENV, raising=False)
        seen = self.record_default(monkeypatch)
        assert main(["study", "--no-incremental"]) == 0
        assert main(["study"]) == 0
        # Off during the flagged call (workers spawned then inherit it),
        # on again for the next in-process study.
        assert seen == [False, True]
        assert incremental_parse_default() is True

    def test_previous_setting_is_restored(self, monkeypatch):
        from repro.history.repository import NO_INCREMENTAL_ENV
        monkeypatch.setenv(NO_INCREMENTAL_ENV, "yes")
        seen = self.record_default(monkeypatch)
        assert main(["study", "--no-incremental"]) == 0
        assert seen == [False]
        assert os.environ[NO_INCREMENTAL_ENV] == "yes"
