"""Engine sessions: warm pool, hot cache, run ledger.

The acceptance bar of the session layer:

* golden equivalence — the same study executed twice through one
  session renders byte-identical reports to two cold runs, with the
  second in-session run served entirely from cache;
* pool persistence — two parallel runs through one session spawn
  exactly one worker pool, and a ``BrokenProcessPool`` respawns it
  transparently on the next use;
* the hot layer — repeat gets skip the disk entirely, the LRU bound
  evicts, and injected cache corruption is never masked by a stale
  hot copy;
* the run ledger — every execution lands in ``session.runs`` and in
  ``<cache_dir>/ledger.jsonl`` with its hit rate, failures and result
  digest.
"""

import json

import pytest

from repro import obs
from repro.corpus.generator import plan_corpus
from repro.engine import (
    EngineSession,
    ErrorPolicy,
    FaultPlan,
    HotResultCache,
    MISS,
    StudyConfig,
    execute_study_from_source,
    read_ledger,
    source_session_key,
)
from repro.engine.session import LEDGER_NAME
from repro.errors import EngineError
from repro.history.repository import incremental_parse_disabled
from repro.report.markdown import markdown_report
from repro.sources import (
    CorpusDirSource,
    SyntheticSource,
    export_corpus_dir,
    synthetic,
)
from repro.sources.base import InMemorySource
from tests.conftest import SMALL_POPULATION


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False)


def study(source, session=None, **kwargs):
    return execute_study_from_source(source, StudyConfig(**kwargs),
                                     session=session)


class TestGoldenEquivalence:
    def test_twice_in_one_session_equals_two_cold_runs(self, source,
                                                       tmp_path):
        cache_dir = tmp_path / "cache"
        cold1, _ = study(source, cache_dir=cache_dir / "a")
        cold2, _ = study(source, cache_dir=cache_dir / "a")
        with EngineSession() as session:
            warm1, r1 = study(source, session,
                              cache_dir=cache_dir / "b")
            warm2, r2 = study(source, session,
                              cache_dir=cache_dir / "b")
        expected = markdown_report(cold1)
        assert markdown_report(cold2) == expected
        assert markdown_report(warm1) == expected
        assert markdown_report(warm2) == expected
        # The second in-session run is pure hits, served hot.
        assert r1.timing("records").counters["cache_misses"] \
            == len(source)
        assert r2.timing("records").counters["cache_hits"] == len(source)
        assert r2.cache_misses == 0
        assert session.runs[0].result_digest == \
            session.runs[1].result_digest

    def test_parallel_session_run_same_bytes(self, source):
        serial, _ = study(source)
        with EngineSession() as session:
            parallel, _ = study(source, session, jobs=2)
        assert markdown_report(parallel) == markdown_report(serial)


class TestPoolPersistence:
    def test_one_spawn_across_two_runs(self, source):
        # No cache dir: the second run genuinely needs the pool again.
        with EngineSession() as session:
            study(source, session, jobs=2)
            study(source, session, jobs=2)
        assert [run.pool_spawns for run in session.runs] == [1, 0]

    def test_start_method_is_pinned(self, pinned_start_method):
        # fork on Linux: workers inherit the parent's imported modules
        # (Python 3.14 would otherwise switch the default to forkserver).
        with EngineSession() as session:
            assert session.pool(2)._mp_context.get_start_method() \
                == pinned_start_method

    def test_jobs_change_retires_the_pool(self, source):
        with EngineSession() as session:
            study(source, session, jobs=2)
            study(source, session, jobs=3)
        assert [run.pool_spawns for run in session.runs] == [1, 1]

    def test_incremental_flip_retires_the_pool(self, source):
        # Forked workers keep the parse default they saw at spawn.
        with EngineSession() as session:
            study(source, session, jobs=2)
            with incremental_parse_disabled():
                study(source, session, jobs=2)
            study(source, session, jobs=2)
        assert [run.pool_spawns for run in session.runs] == [1, 1, 1]

    def test_broken_pool_respawns_transparently(self, source):
        crash = FaultPlan.parse("crash@flatliner-01")
        with EngineSession() as session:
            degraded, r1 = study(source, session, jobs=2,
                                 error_policy=ErrorPolicy.skip(),
                                 faults=crash)
            assert r1.degraded
            assert r1.pool_spawns == 1
            clean, r2 = study(source, session, jobs=2)
            assert not r2.degraded
            # The dead pool was discarded and a fresh one spawned.
            assert r2.pool_spawns == 1
        assert markdown_report(degraded) == markdown_report(clean)


class TestHotLayer:
    def test_lru_eviction(self, tmp_path):
        cache = HotResultCache(tmp_path, hot_entries=2)
        before = obs.snapshot()
        for key in ("a" * 64, "b" * 64, "c" * 64):
            cache.put(key, key[0])
        assert obs.since(before) == {"evictions": 1}
        # The evicted entry still serves from disk, then re-warms.
        before = obs.snapshot()
        assert cache.get("a" * 64) == "a"
        assert obs.since(before)["hot_misses"] == 1
        assert cache.get("a" * 64) == "a"
        assert obs.since(before)["hot_hits"] == 1

    def test_hot_hit_skips_disk(self, tmp_path):
        cache = HotResultCache(tmp_path)
        key = "d" * 64
        cache.put(key, {"value": 7})
        # Remove the disk entry: only the hot layer can answer now.
        cache.disk._path(key).unlink()
        before = obs.snapshot()
        assert cache.get(key) == {"value": 7}
        assert obs.since(before) == {"hot_hits": 1}
        cache.forget_hot()
        assert cache.get(key) is MISS

    def test_corruption_not_masked_by_hot_copy(self, tmp_path):
        cache = HotResultCache(tmp_path)
        key = "e" * 64
        cache.put(key, "precious")
        assert cache.corrupt_entry(key)
        # A stale hot copy must not hide the injected corruption.
        before = obs.snapshot()
        assert cache.get(key) is MISS
        assert obs.since(before) == {"hot_misses": 1, "quarantined": 1}

    def test_zero_entries_disables_hot_layer(self, tmp_path):
        cache = HotResultCache(tmp_path, hot_entries=0)
        key = "f" * 64
        cache.put(key, 1)
        before = obs.snapshot()
        assert cache.get(key) == 1
        assert obs.since(before) == {"hot_misses": 1}


class TestRunLedger:
    def test_two_runs_two_entries(self, source, tmp_path):
        cache_dir = tmp_path / "cache"
        with EngineSession() as session:
            study(source, session, cache_dir=cache_dir)
            study(source, session, cache_dir=cache_dir)
        assert [r.run_id for r in session.runs] == [1, 2]
        assert session.runs[1].cache_hit_rate == 1.0
        assert session.runs[1].counters["hot_hits"] == len(source)
        persisted = read_ledger(cache_dir)
        assert len(persisted) == 2
        assert persisted[0]["result_digest"] == \
            persisted[1]["result_digest"]
        assert persisted[1]["cache_hit_rate"] == 1.0
        assert persisted[0]["config"]["seed"] == StudyConfig().seed

    def test_failures_recorded(self, source, tmp_path):
        with EngineSession() as session:
            study(source, session, cache_dir=tmp_path,
                  error_policy=ErrorPolicy.skip(),
                  faults=FaultPlan.parse("parse@flatliner-01"))
        record = session.runs[0]
        assert len(record.failures) == 1
        assert "flatliner-01" in record.failures[0].summary()
        assert record.counters["cache_hits"] \
            + record.counters["cache_misses"] > 0
        assert read_ledger(tmp_path)[0]["failures"] \
            == [record.failures[0].summary()]

    def test_ledger_survives_torn_lines(self, source, tmp_path):
        with EngineSession() as session:
            study(source, session, cache_dir=tmp_path)
        ledger = tmp_path / LEDGER_NAME
        ledger.write_text(ledger.read_text(encoding="utf-8")
                          + "{not json\n", encoding="utf-8")
        # Torn lines are skipped but *reported*, never silent.
        with pytest.warns(RuntimeWarning, match="torn"):
            assert len(read_ledger(tmp_path)) == 1

    def test_no_cache_dir_keeps_memory_ledger_only(self, source):
        with EngineSession() as session:
            study(source, session)
        assert len(session.runs) == 1

    def test_throwaway_session_still_ledgers(self, source, tmp_path):
        # session=None opens a one-shot session; the JSONL persists.
        study(source, cache_dir=tmp_path)
        assert len(read_ledger(tmp_path)) == 1


class TestHandleRegistry:
    def test_enumerated_once_per_session(self, monkeypatch):
        # The source memoizes its own plan: a second study of the same
        # instance re-enumerates it without planning the corpus again.
        calls = []

        def counting_plan(*args):
            calls.append(args)
            return plan_corpus(*args)

        monkeypatch.setattr(synthetic, "plan_corpus", counting_plan)
        source = SyntheticSource(seed=99, population=SMALL_POPULATION,
                                 with_exceptions=False)
        with EngineSession() as session:
            study(source, session)
            study(source, session)
        assert len(calls) == 1

    def test_in_memory_source_never_memoized(self, small_corpus):
        source = InMemorySource(small_corpus.projects, mode="corpus")
        with EngineSession() as session:
            results, _ = execute_study_from_source(source,
                                                   session=session)
            assert len(results.records) == len(source)


class TestSourceSessionKey:
    def test_lightweight_sources_have_keys(self, source, small_corpus,
                                           tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "dir")
        keys = {source_session_key(source),
                source_session_key(CorpusDirSource(root))}
        assert None not in keys
        assert len(keys) == 2

    def test_key_tracks_identity(self):
        one = SyntheticSource(seed=1, population=SMALL_POPULATION)
        two = SyntheticSource(seed=2, population=SMALL_POPULATION)
        same = SyntheticSource(seed=1, population=SMALL_POPULATION)
        assert source_session_key(one) == source_session_key(same)
        assert source_session_key(one) != source_session_key(two)

    def test_in_memory_source_has_none(self, small_corpus):
        source = InMemorySource(small_corpus.projects, mode="corpus")
        assert source_session_key(source) is None


class TestLifecycle:
    def test_closed_session_refuses_work(self):
        session = EngineSession()
        session.close()
        assert session.closed
        with pytest.raises(EngineError):
            session.pool(2)
        with pytest.raises(EngineError):
            session.cache_for("somewhere")

    def test_close_is_idempotent(self):
        session = EngineSession()
        session.close()
        session.close()

    def test_context_manager_closes(self, source):
        with EngineSession() as session:
            study(source, session)
        assert session.closed
        # The ledger stays readable after close.
        assert len(session.runs) == 1

    def test_cache_registry_one_per_dir(self, tmp_path):
        with EngineSession() as session:
            a = session.cache_for(tmp_path / "x")
            b = session.cache_for(tmp_path / "x")
            c = session.cache_for(tmp_path / "y")
            assert a is b
            assert a is not c
            assert session.cache_for(None) is None
