"""Integration tests for the command-line interface."""

import os
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

from repro.cli import main
from repro.history.repository import save_history_to_jsonl
from repro.sources import export_corpus_dir
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


@pytest.fixture
def small_export(tmp_path, small_corpus):
    return export_corpus_dir(small_corpus, tmp_path / "corpus")


def parse_memo_total(err):
    """The TOTAL row's ``parse memo`` cell of a ``--timings`` table."""
    lines = err.splitlines()
    start = lines.index("Execution report")
    header = [cell.strip() for cell in lines[start + 1].split(" | ")]
    total = next(line for line in lines[start:]
                 if line.startswith("TOTAL "))
    cells = [cell.strip() for cell in total.split(" | ")]
    return cells[header.index("parse memo")]


class TestStudy:
    def test_study_on_saved_corpus(self, small_export, capsys):
        code = main(["study", "--source", f"dir:{small_export}"])
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

    @pytest.fixture
    def fresh_session(self, monkeypatch):
        """The CLI's process session, new for this test and closed
        after it, so no earlier test's warm pool is reused."""
        import repro.cli as cli
        monkeypatch.setattr(cli, "_SESSION", None)
        yield
        if cli._SESSION is not None:
            cli._SESSION.close()

    @staticmethod
    def memo_cell(capsys, corpus, jobs, *flags):
        capsys.readouterr()
        assert main(["study", "--source", f"dir:{corpus}",
                     "--jobs", jobs, "--timings", *flags]) == 0
        return parse_memo_total(capsys.readouterr().err)

    def test_warm_pool_takes_the_flag(self, small_export,
                                      fresh_session, capsys):
        assert "hit" in self.memo_cell(capsys, small_export, "2")
        assert self.memo_cell(capsys, small_export, "2",
                              "--no-incremental") == "-"

    def test_warm_pool_drops_the_flag(self, small_export,
                                      fresh_session, capsys):
        serial = self.memo_cell(capsys, small_export, "1")
        assert "hit" in serial
        assert self.memo_cell(capsys, small_export, "2",
                              "--no-incremental") == "-"
        assert self.memo_cell(capsys, small_export, "2") == serial


class TestCountFlags:
    """Out-of-range counts fail before anything is written or studied."""

    def assert_usage_error(self, capsys, argv, flag):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be")
        assert "Traceback" not in err

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_export_limit(self, tmp_path, capsys, limit):
        self.assert_usage_error(
            capsys, ["corpus", "export", str(tmp_path / "out"),
                     "--limit", limit], "--limit")
        assert not (tmp_path / "out").exists()

    def test_refresh_watch(self, small_export, tmp_path, capsys):
        self.assert_usage_error(
            capsys, ["refresh", "--source", f"dir:{small_export}",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--watch", "-1"], "--watch")
        assert not (tmp_path / "cache").exists()

    def test_refresh_max_polls(self, small_export, tmp_path, capsys):
        self.assert_usage_error(
            capsys, ["refresh", "--source", f"dir:{small_export}",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--watch", "1", "--max-polls", "0"], "--max-polls")
        assert not (tmp_path / "cache").exists()
