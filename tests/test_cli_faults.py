"""CLI fault-tolerance flags, exit codes and the env fault plan."""

import pytest

from repro.cli import EXIT_PARTIAL, main
from repro.sources import export_corpus_dir


@pytest.fixture
def corpus_path(tmp_path, small_corpus):
    return export_corpus_dir(small_corpus, tmp_path / "corpus")


def run_study(corpus_path, *extra):
    return main(["study", "--source", f"dir:{corpus_path}", *extra])


class TestExitCodes:
    def test_clean_run_is_zero(self, corpus_path, capsys):
        assert run_study(corpus_path, "--on-error", "skip") == 0
        assert "skipped" not in capsys.readouterr().err

    def test_skip_with_faults_is_partial(self, corpus_path, capsys):
        code = run_study(corpus_path, "--on-error", "skip",
                         "--fault-plan", "parse@flatliner-01")
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "1 project(s) skipped" in err
        assert "flatliner-01 [records] ParseError" in err

    def test_fail_with_faults_is_error(self, corpus_path, capsys):
        code = run_study(corpus_path,
                         "--fault-plan", "parse@flatliner-01")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_retry_heals_to_zero(self, corpus_path, capsys):
        clean = run_study(corpus_path)
        clean_out = capsys.readouterr().out
        code = run_study(corpus_path, "--on-error", "retry",
                         "--max-retries", "2",
                         "--fault-plan", "source@flatliner-01*2")
        assert clean == 0 and code == 0
        # The healed run prints byte-identical study output.
        assert capsys.readouterr().out == clean_out

    def test_retry_budget_zero_skips(self, corpus_path):
        code = run_study(corpus_path, "--on-error", "retry",
                         "--max-retries", "0",
                         "--fault-plan", "source@flatliner-01")
        assert code == EXIT_PARTIAL

    def test_bad_fault_plan_is_usage_error(self, corpus_path, capsys):
        code = run_study(corpus_path, "--fault-plan", "meteor@x")
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEnvFaultPlan:
    def test_env_plan_applies(self, corpus_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "parse@flatliner-01")
        code = run_study(corpus_path, "--on-error", "skip")
        assert code == EXIT_PARTIAL
        assert "flatliner-01" in capsys.readouterr().err

    def test_flag_overrides_env(self, corpus_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "parse@~1")
        code = run_study(corpus_path, "--on-error", "skip",
                         "--fault-plan", "parse@flatliner-01")
        assert code == EXIT_PARTIAL


class TestTimingsFaultColumn:
    def test_faults_column_in_timings(self, corpus_path, capsys):
        code = run_study(corpus_path, "--on-error", "skip",
                         "--fault-plan", "parse@flatliner-01",
                         "--timings")
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "faults" in err
        assert "1 fail / 0 retry" in err
