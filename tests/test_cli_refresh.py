"""CLI coverage of ``repro-schema refresh`` and the delta surfaces.

Pins the incremental re-study contract at the outermost layer: refresh
stdout after an append is byte-identical to a cold ``study`` of the
grown source, the delta summary and ``--timings`` delta column land on
stderr, ``--watch`` skips unchanged polls, and the ledger table shows
the hot/delta columns.
"""

import dataclasses
import shutil
from datetime import timedelta

import pytest

from repro.cli import main
from repro.corpus.generator import generate_corpus
from repro.history.commit import Commit
from repro.history.repository import SchemaHistory
from repro.patterns.taxonomy import Pattern
from repro.sources import export_corpus_dir, import_corpus_dir

POPULATION = {
    Pattern.FLATLINER: 2,
    Pattern.SIGMOID: 2,
    Pattern.QUANTUM_STEPS: 2,
    Pattern.SIESTA: 2,
}


@pytest.fixture
def corpus_root(tmp_path):
    corpus = generate_corpus(seed=99, population=POPULATION,
                             with_exceptions=False)
    root = tmp_path / "corpus"
    export_corpus_dir(corpus, root)
    return root


def grow(root, indexes, k):
    corpus = import_corpus_dir(root)
    projects = list(corpus.projects)
    for idx in indexes:
        history = projects[idx].history
        commits = list(history.commits)
        for i in range(k):
            ts = commits[-1].timestamp + timedelta(days=30)
            commits.append(Commit(
                sha=f"grow-{i}", timestamp=ts,
                ddl_text=commits[-1].ddl_text
                + f"\nCREATE TABLE delta_extra_{i} (id INT);\n"))
        projects[idx] = dataclasses.replace(
            projects[idx],
            history=SchemaHistory(
                history.project_name, commits,
                project_start=history.project_start,
                project_end=max(history.project_end,
                                commits[-1].timestamp),
                dialect=history.dialect,
                incremental=history.incremental))
    shutil.rmtree(root)
    export_corpus_dir(dataclasses.replace(corpus, projects=projects),
                      root)


class TestRefresh:
    def test_refresh_matches_cold_study_after_append(self, tmp_path,
                                                     corpus_root,
                                                     capsys):
        cache = tmp_path / "cache"
        assert main(["study", "--source", f"dir:{corpus_root}",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()

        grow(corpus_root, [0, 1], 2)
        assert main(["refresh", "--source", f"dir:{corpus_root}",
                     "--cache-dir", str(cache)]) == 0
        refreshed = capsys.readouterr()
        assert "2 appended" in refreshed.err
        assert "4 parsed" in refreshed.err

        assert main(["study", "--source", f"dir:{corpus_root}",
                     "--cache-dir", str(tmp_path / "cold")]) == 0
        cold = capsys.readouterr()
        assert refreshed.out == cold.out

    def test_refresh_without_growth_reports_unchanged(self, tmp_path,
                                                      corpus_root,
                                                      capsys):
        cache = tmp_path / "cache"
        main(["study", "--source", f"dir:{corpus_root}",
              "--cache-dir", str(cache)])
        capsys.readouterr()
        assert main(["refresh", "--source", f"dir:{corpus_root}",
                     "--cache-dir", str(cache)]) == 0
        err = capsys.readouterr().err
        assert "8 unchanged / 0 appended" in err

    def test_timings_show_delta_column(self, tmp_path, corpus_root,
                                       capsys):
        cache = tmp_path / "cache"
        main(["study", "--source", f"dir:{corpus_root}",
              "--cache-dir", str(cache)])
        grow(corpus_root, [0], 1)
        capsys.readouterr()
        assert main(["refresh", "--source", f"dir:{corpus_root}",
                     "--cache-dir", str(cache), "--timings"]) == 0
        err = capsys.readouterr().err
        assert "delta" in err
        assert "1 app / 0 rew / " in err
        assert "[hot " in err

    def test_watch_skips_unchanged_polls(self, tmp_path, corpus_root,
                                         capsys):
        cache = tmp_path / "cache"
        main(["study", "--source", f"dir:{corpus_root}",
              "--cache-dir", str(cache)])
        capsys.readouterr()
        assert main(["refresh", "--source", f"dir:{corpus_root}",
                     "--cache-dir", str(cache),
                     "--watch", "0.01", "--max-polls", "3"]) == 0
        err = capsys.readouterr().err
        assert err.count("source unchanged, skipping") == 2


class TestLedgerColumns:
    def test_hot_and_delta_columns(self, tmp_path, corpus_root,
                                   capsys):
        cache = tmp_path / "cache"
        main(["study", "--source", f"dir:{corpus_root}",
              "--cache-dir", str(cache)])
        grow(corpus_root, [0], 2)
        main(["refresh", "--source", f"dir:{corpus_root}",
              "--cache-dir", str(cache)])
        capsys.readouterr()
        assert main(["ledger", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "hot" in out and "delta" in out
        assert "1a/0r/2p" in out

    def test_json_ledger_carries_delta_fields(self, tmp_path,
                                              corpus_root, capsys):
        import json
        cache = tmp_path / "cache"
        main(["study", "--source", f"dir:{corpus_root}",
              "--cache-dir", str(cache)])
        capsys.readouterr()
        assert main(["ledger", str(cache), "--json"]) == 0
        run = json.loads(capsys.readouterr().out.splitlines()[0])
        for key in ("delta_appended", "delta_rewritten",
                    "delta_reused", "delta_parsed", "hot_hits",
                    "hot_misses", "evictions"):
            assert key in run
