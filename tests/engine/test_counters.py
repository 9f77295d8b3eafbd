"""Run counters: the ``repro.obs`` registry and what renders from it.

* the registry itself — named counts, snapshots and moved-only diffs;
* counters do not depend on where the work ran: a serial and a
  ``--jobs 2`` run report the same totals, which holds only if every
  worker's diff reaches the parent;
* the ``--timings`` layout and the ledger's key set are pinned for one
  fixed small run with a cache dir and a refresh: ``perfbench`` parses
  the TOTAL row's cache cell and CI reads ledger keys such as
  ``delta_rewritten``; the ``repro-schema ledger`` table shows each
  run's TOTAL cells;
* the statement memo and heartbeat kernel move exact counts on a small
  records map and on the default study, so a fast path that silently
  falls back to re-parsing or rebuilding fails here.
"""

import sys
import threading

import pytest

from repro import obs
from repro.cli import main
from repro.corpus.generator import generate_corpus
from repro.engine import (
    EngineSession,
    StudyConfig,
    execute_study_from_source,
)
from repro.engine.executor import COLUMNS
from repro.patterns.taxonomy import Pattern
from repro.sources import CorpusDirSource, SyntheticSource, export_corpus_dir
from repro.study.pipeline import records_from_corpus
from tests.conftest import SMALL_POPULATION
from tests.engine.test_delta import POPULATION, grow_corpus_dir

#: Registry counters a run reports; none depends on where the work ran.
PLACEMENT_FREE = tuple(name for _, names, _ in COLUMNS for name in names)


class TestRegistry:
    def test_since_reports_only_moved_counters(self):
        before = obs.snapshot()
        obs.count("test_registry_a")
        obs.count("test_registry_a", 2)
        obs.count("test_registry_b", 0)
        assert obs.since(before) == {"test_registry_a": 3}

    def test_snapshot_is_a_copy(self):
        counts = obs.snapshot()
        counts["test_registry_c"] = 99
        assert "test_registry_c" not in obs.snapshot()


def export_small_corpus(root):
    export_corpus_dir(generate_corpus(seed=99, population=POPULATION,
                                      with_exceptions=False), root)
    return root


def placement_free(report) -> dict:
    return {name: report.counters[name] for name in PLACEMENT_FREE}


class TestWorkPlacement:
    def test_cold_study_serial_equals_parallel(self):
        source = SyntheticSource(seed=99, population=SMALL_POPULATION,
                                 with_exceptions=False)
        _, serial = execute_study_from_source(source, StudyConfig())
        _, parallel = execute_study_from_source(source,
                                                StudyConfig(jobs=2))
        assert placement_free(parallel) == placement_free(serial)
        assert serial.parse_hits > 0 and serial.kernel_series > 0
        assert serial.pack_rows == len(source)

    def test_parallel_map_unpickles_its_extras_once_per_worker(
            self, tmp_path):
        # Eight one-project chunks carry one pickle of the source and
        # the scheme; each of the two workers unpickles it once.
        root = export_small_corpus(tmp_path / "corpus")
        _, report = execute_study_from_source(
            CorpusDirSource(root), StudyConfig(jobs=2, chunk_size=1))
        records = report.timings[0]
        assert (records.stage, records.items) == ("records", 8)
        assert 1 <= records.counters["extras_unpickled"] <= 2
        _, serial = execute_study_from_source(CorpusDirSource(root),
                                              StudyConfig())
        assert "extras_unpickled" not in serial.counters

    def test_threads_count_only_their_own_work(self, tmp_path):
        # One session and cache dir per thread, run concurrently: each
        # report counts its own run exactly, as a solo run does.
        def study(cache_dir, session=None):
            source = SyntheticSource(seed=99, population=SMALL_POPULATION,
                                     with_exceptions=False)
            return execute_study_from_source(
                source, StudyConfig(cache_dir=cache_dir), session=session)

        _, solo = study(tmp_path / "solo")
        reports, errors = [], []

        def run(cache_dir):
            try:
                with EngineSession() as session:
                    reports.append(study(cache_dir, session)[1])
            except BaseException as exc:  # noqa: BLE001 - test capture
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run,
                                        args=(tmp_path / f"t{index}",))
                       for index in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(reports) == 3
        for report in reports:
            assert report.counters == solo.counters

    def test_refresh_serial_equals_parallel(self, tmp_path):
        reports = {}
        for jobs in (1, 2):
            root = export_small_corpus(tmp_path / f"corpus-{jobs}")
            config = StudyConfig(cache_dir=tmp_path / f"cache-{jobs}",
                                 jobs=jobs)
            with EngineSession(config) as session:
                session.refresh(CorpusDirSource(root))
                grow_corpus_dir(root, [0, 1], 2)
                _, reports[jobs] = session.refresh(CorpusDirSource(root))
        assert placement_free(reports[2]) == placement_free(reports[1])
        assert reports[1].format_delta_summary() == (
            "delta: 6 unchanged / 2 appended / 0 rewritten; "
            "versions: 2 reused / 4 parsed")


#: ``--timings`` header and the records/table/TOTAL rows of the pinned
#: run, time column left out.
HEADER = ["stage", "items", "chunk", "cache", "parse memo",
          "heartbeat kernel", "pack", "delta", "faults"]
TABLE_ROW = ["-", "-", "-", "-", "-", "8 row", "-", "-"]
COLD_ROWS = {
    "records": ["8", "-", "0 hit / 8 miss", "213 hit / 144 miss",
                "8 built / 24 reuse", "-", "-", "-"],
    "table": TABLE_ROW,
    "TOTAL": ["-", "-", "0 hit / 8 miss [hot 0/8, evict 0]",
              "213 hit / 144 miss", "8 built / 24 reuse",
              "8 row", "-", "-"],
}
REFRESH_ROWS = {
    "records": ["8", "-", "6 hit / 2 miss", "25 hit / 27 miss",
                "2 built / 6 reuse", "-",
                "2 app / 0 rew / 2 reuse / 4 parse", "-"],
    "table": TABLE_ROW,
    "TOTAL": ["-", "-", "6 hit / 2 miss [hot 6/2, evict 0]",
              "25 hit / 27 miss", "2 built / 6 reuse", "8 row",
              "2 app / 0 rew / 2 reuse / 4 parse", "-"],
}

#: The ledger row's run-level counters of the pinned run, zeros included.
COLD_LEDGER = {
    "cache_hits": 0, "cache_misses": 8, "hot_hits": 0, "hot_misses": 8,
    "evictions": 0, "delta_appended": 0, "delta_rewritten": 0,
    "delta_reused": 0, "delta_parsed": 0, "parse_hits": 213,
    "parse_misses": 144, "kernel_series": 8, "kernel_reuse": 24,
    "quarantined": 0, "retries": 0, "pack_rows": 8, "pool_spawns": 0,
    "journal_chunks": 8, "journal_replayed": 0, "write_failures": 0,
    "pruned": 0,
}
REFRESH_LEDGER = {
    **COLD_LEDGER, "cache_hits": 6, "cache_misses": 2, "hot_hits": 6,
    "hot_misses": 2, "delta_appended": 2, "delta_reused": 2,
    "delta_parsed": 4, "parse_hits": 25, "parse_misses": 27,
    "kernel_series": 2, "kernel_reuse": 6, "journal_chunks": 2,
}
RUN_KEYS = {
    "run_id", "started", "seconds", "source_fingerprint", "config",
    "stages", "items", "cache_hit_rate", "failures", "degraded",
    "result_digest", "run_uid", "interrupted", "resumed_from",
    *COLD_LEDGER,
}
RECORDS_STAGE = {"stage": "records", "items": 8, "cache_hits": 0,
                 "cache_misses": 8, "hot_misses": 8, "parse_hits": 213,
                 "parse_misses": 144, "kernel_series": 8,
                 "kernel_reuse": 24}
REFRESH_STAGE = {**RECORDS_STAGE, "cache_hits": 6, "cache_misses": 2,
                 "hot_hits": 6, "hot_misses": 2, "parse_hits": 25,
                 "parse_misses": 27, "kernel_series": 2,
                 "kernel_reuse": 6, "delta_appended": 2,
                 "delta_reused": 2, "delta_parsed": 4}


def table_cells(report) -> list[list[str]]:
    """``format_table`` rows split into cells, time column dropped."""
    lines = report.format_table().splitlines()
    assert lines[0] == "Execution report"
    assert set(lines[2]) <= {"-", "+"}
    rows = [[cell.strip() for cell in line.split(" | ")]
            for line in [lines[1], *lines[3:]]]
    return [[row[0], *row[2:]] for row in rows]


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """A cold study then a refresh after two projects grew by two
    commits, in one session over one cache dir: the two reports, the
    session's two ledger records and the cache dir."""
    tmp = tmp_path_factory.mktemp("pinned")
    root = export_small_corpus(tmp / "corpus")
    config = StudyConfig(cache_dir=tmp / "cache")
    with EngineSession(config) as session:
        _, cold = execute_study_from_source(CorpusDirSource(root),
                                            config, session=session)
        grow_corpus_dir(root, [0, 1], 2)
        _, refresh = session.refresh(CorpusDirSource(root))
    return {"reports": [cold, refresh], "records": session.runs,
            "cache": config.cache_dir}


class TestPinnedLayout:
    @pytest.mark.parametrize("run, expected",
                             [(0, COLD_ROWS), (1, REFRESH_ROWS)])
    def test_timings_cells(self, pinned_run, run, expected):
        report = pinned_run["reports"][run]
        header, *rows = table_cells(report)
        assert header == HEADER
        assert [row[0] for row in rows] \
            == [t.stage for t in report.timings] + ["TOTAL"]
        for stage, *cells in rows:
            assert cells == expected.get(stage, ["-"] * 8), stage

    @pytest.mark.parametrize("run, counters, records",
                             [(0, COLD_LEDGER, RECORDS_STAGE),
                              (1, REFRESH_LEDGER, REFRESH_STAGE)])
    def test_ledger_keys(self, pinned_run, run, counters, records):
        row = pinned_run["records"][run].to_dict()
        assert set(row) == RUN_KEYS
        assert {name: row[name] for name in counters} == counters
        first, table, *analyses = row["stages"]
        assert {k: v for k, v in first.items() if k != "ms"} == records
        assert {k: v for k, v in table.items() if k != "ms"} \
            == {"stage": "table", "pack_rows": 8}
        assert all(set(stage) == {"stage", "ms"} for stage in analyses)

    @pytest.mark.parametrize("run", [0, 1])
    def test_ledger_row_shows_the_total_cells(self, pinned_run, run,
                                              capsys):
        report = pinned_run["reports"][run]
        assert pinned_run["records"][run] is report
        total = table_cells(report)[-1]
        assert main(["ledger", str(pinned_run["cache"])]) == 0
        lines = capsys.readouterr().out.splitlines()
        header, row = ([cell.strip() for cell in line.split(" | ")]
                       for line in (lines[1], lines[3 + run]))
        assert row[0] == report.run_uid
        assert row[header.index("cache"):header.index("faults") + 1] \
            == total[HEADER.index("cache"):]


class TestExactCounts:
    def test_small_records_map(self):
        corpus = generate_corpus(
            seed=7, population={Pattern.FLATLINER: 1,
                                Pattern.RADICAL_SIGN: 2,
                                Pattern.SIESTA: 1},
            with_exceptions=False)
        before = obs.snapshot()
        assert len(records_from_corpus(corpus)) == 4
        moved = obs.since(before)
        assert {name: moved.get(name, 0)
                for name in ("parse_hits", "parse_misses",
                             "kernel_series", "kernel_reuse")} == {
            "parse_hits": 24, "parse_misses": 78,
            "kernel_series": 4, "kernel_reuse": 12}

    def test_default_study(self):
        # A synthetic source realizes each project afresh, so no
        # history arrives already parsed; the default-seed digest pin
        # holds the output.
        _, report = execute_study_from_source(SyntheticSource(),
                                              StudyConfig())
        assert {name: report.counters[name]
                for name in ("parse_hits", "parse_misses",
                             "kernel_series", "kernel_reuse",
                             "pack_rows")} == {
            "parse_hits": 11_414, "parse_misses": 4_194,
            "kernel_series": 151, "kernel_reuse": 453, "pack_rows": 151}
