"""CLI crash-recovery surface: exit 130, --resume, the resume listing."""

import re

import pytest

from repro.cli import EXIT_INTERRUPTED, main
from repro.engine import read_journal
from repro.sources import export_corpus_dir

#: Mid-corpus project (10th of 16 in the small corpus): interrupting at
#: its dispatch point leaves earlier work journaled, later work undone.
MID_PROJECT = "quantum-steps-01"

RESUME_HINT = re.compile(
    r"interrupted — resume with: repro-schema study --resume "
    r"(r[0-9a-f]{12})")


@pytest.fixture
def corpus_path(tmp_path, small_corpus):
    return export_corpus_dir(small_corpus, tmp_path / "corpus")


def run_study(corpus_path, *extra):
    return main(["study", "--source", f"dir:{corpus_path}", *extra])


def interrupt_run(corpus_path, cache_dir, capsys):
    """Run a study that gets interrupted; return the hinted run id."""
    code = run_study(corpus_path, "--cache-dir", str(cache_dir),
                     "--fault-plan", f"interrupt@{MID_PROJECT}")
    assert code == EXIT_INTERRUPTED
    match = RESUME_HINT.search(capsys.readouterr().err)
    assert match is not None
    return match.group(1)


class TestInterruptedExit:
    def test_exit_130_with_resume_hint(self, corpus_path, tmp_path,
                                       capsys):
        run_id = interrupt_run(corpus_path, tmp_path / "cache", capsys)
        assert read_journal(tmp_path / "cache", run_id).status \
            == "interrupted"

    def test_keyboard_interrupt_is_130(self, corpus_path, capsys,
                                       monkeypatch):
        def boom(args):
            raise KeyboardInterrupt
        monkeypatch.setattr("repro.cli._run_study_like", boom)
        assert run_study(corpus_path) == EXIT_INTERRUPTED
        assert "interrupted" in capsys.readouterr().err

    def test_refresh_interrupts_too(self, corpus_path, tmp_path,
                                    capsys):
        code = main(["refresh", "--source", f"dir:{corpus_path}",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--fault-plan", f"interrupt@{MID_PROJECT}"])
        assert code == EXIT_INTERRUPTED
        assert RESUME_HINT.search(capsys.readouterr().err)


class TestResumeFlow:
    def test_resume_completes_byte_identically(self, corpus_path,
                                               tmp_path, capsys):
        cold = run_study(corpus_path)
        cold_out = capsys.readouterr().out
        assert cold == 0

        cache = tmp_path / "cache"
        run_id = interrupt_run(corpus_path, cache, capsys)
        code = run_study(corpus_path, "--cache-dir", str(cache),
                         "--resume", run_id)
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == cold_out
        assert read_journal(cache, run_id).status == "interrupted"

    def test_resume_without_cache_dir_is_an_error(self, corpus_path,
                                                  capsys):
        code = run_study(corpus_path, "--resume", "rdeadbeef0000")
        assert code == 1
        assert "resume needs a cache dir" in capsys.readouterr().err

    def test_resume_unknown_run_is_an_error(self, corpus_path,
                                            tmp_path, capsys):
        code = run_study(corpus_path,
                         "--cache-dir", str(tmp_path / "cache"),
                         "--resume", "rdeadbeef0000")
        assert code == 1
        assert "no journal for run" in capsys.readouterr().err


class TestResumeListing:
    def test_lists_interrupted_runs(self, corpus_path, tmp_path,
                                    capsys):
        cache = tmp_path / "cache"
        run_id = interrupt_run(corpus_path, cache, capsys)
        assert main(["resume", str(cache)]) == 0
        captured = capsys.readouterr()
        assert run_id in captured.out
        assert "interrupted" in captured.out
        assert "--resume RUN_ID" in captured.err

    def test_json_listing(self, corpus_path, tmp_path, capsys):
        import json
        cache = tmp_path / "cache"
        run_id = interrupt_run(corpus_path, cache, capsys)
        assert main(["resume", str(cache), "--json"]) == 0
        rows = [json.loads(line) for line in
                capsys.readouterr().out.splitlines()]
        assert rows[0]["run_id"] == run_id
        assert rows[0]["status"] == "interrupted"
        assert rows[0]["items"] > 0

    def test_empty_cache_dir(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path)]) == 0
        assert "no resumable runs" in capsys.readouterr().out

    def test_completed_runs_not_listed(self, corpus_path, tmp_path,
                                       capsys):
        cache = tmp_path / "cache"
        assert run_study(corpus_path, "--cache-dir", str(cache)) == 0
        assert main(["resume", str(cache)]) == 0
        assert "no resumable runs" in capsys.readouterr().out


class TestDegradationWarnings:
    def test_enospc_warns_and_still_succeeds(self, corpus_path,
                                             tmp_path, capsys):
        code = run_study(corpus_path,
                         "--cache-dir", str(tmp_path / "cache"),
                         "--fault-plan", "enospc@flatliner-01")
        captured = capsys.readouterr()
        assert code == 0
        assert "continuing memory-only" in captured.err
