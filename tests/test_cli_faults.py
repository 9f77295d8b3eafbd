"""CLI fault-tolerance flags, exit codes and the fault-plan flag."""

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

    @pytest.mark.parametrize("mode", ["fail", "skip"])
    def test_negative_retry_budget_is_an_error(self, corpus_path, capsys,
                                               mode):
        # The policy validates its budget whatever the mode.
        code = run_study(corpus_path, "--on-error", mode,
                         "--max-retries", "-1")
        assert code == 1
        assert "max_retries must be >= 0" in capsys.readouterr().err

    def test_bad_fault_plan_is_usage_error(self, corpus_path, capsys):
        code = run_study(corpus_path, "--fault-plan", "meteor@x")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_stage_suffix_is_rejected(self, corpus_path, capsys,
                                      tmp_path):
        # Faults fire in the map stage; a token naming a stage is an
        # error before any work starts.
        cache = tmp_path / "cache"
        code = run_study(corpus_path, "--on-error", "skip",
                         "--cache-dir", str(cache),
                         "--fault-plan", "parse@x#records")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad fault token")
        assert captured.out == ""
        assert not cache.exists()


class TestTimingsFaultColumn:
    def test_faults_column_in_timings(self, corpus_path, capsys):
        code = run_study(corpus_path, "--on-error", "skip",
                         "--fault-plan", "parse@flatliner-01",
                         "--timings")
        assert code == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "faults" in err
        assert "1 fail / 0 retry" in err
