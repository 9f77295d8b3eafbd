"""Every source must render the same study through the handle plan.

Same acceptance bar as test_golden_equivalence, one layer up: a study
driven by ``SyntheticSource`` — serial, process-parallel and warm-cache
— must render a byte-identical report to the same corpus studied from
memory, workers must receive nothing heavier than
:class:`SourceHandle`\\ s (an in-memory project crosses once, on its
handle), and a warm cache must serve the whole study without a single
``load()`` call.
"""

import pickle

import pytest

from repro.engine import (
    HandleStream,
    StudyConfig,
    compute_records_from_source,
    execute_study_from_source,
)
from repro.report.markdown import markdown_report
from repro.sources import CorpusDirSource, InMemorySource, \
    SyntheticSource, export_corpus_dir
from repro.sources.base import SourceHandle
from tests.conftest import SMALL_POPULATION


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False)


@pytest.fixture(scope="module")
def legacy_report(small_corpus):
    results, _ = execute_study_from_source(
        InMemorySource(small_corpus.projects, mode="corpus"),
        StudyConfig())
    return markdown_report(results)


class TestGoldenEquivalence:
    def test_serial(self, source, legacy_report):
        results, report = execute_study_from_source(source,
                                                    StudyConfig())
        assert markdown_report(results) == legacy_report
        assert report.timing("records").items == len(source)

    def test_parallel_jobs4(self, source, legacy_report):
        results, _ = execute_study_from_source(source,
                                               StudyConfig(jobs=4))
        assert markdown_report(results) == legacy_report

    def test_warm_cache(self, source, legacy_report, tmp_path):
        config = StudyConfig(cache_dir=tmp_path)
        cold, cold_report = execute_study_from_source(source, config)
        warm, warm_report = execute_study_from_source(source, config)
        assert markdown_report(cold) == legacy_report
        assert markdown_report(warm) == legacy_report
        assert cold_report.timing("records").counters["cache_misses"] \
            == len(source)
        assert warm_report.timing("records").counters["cache_hits"] \
            == len(source)
        assert warm_report.cache_hits == len(source)
        assert warm_report.cache_misses == 0

    def test_corpus_dir_source_same_report(self, small_corpus,
                                           legacy_report, tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "dir")
        results, _ = execute_study_from_source(CorpusDirSource(root),
                                               StudyConfig())
        assert markdown_report(results) == legacy_report


class TestHandlesOnlyCrossTheBoundary:
    def test_parallel_fanout_ships_handles(self, source, monkeypatch):
        """No project or history is pickled parent → worker."""
        import repro.engine.session as session_mod
        shipped = []

        class SpyPool(session_mod.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                # the executor submits _invoke_chunk(invoke, items)
                if len(args) == 2 and isinstance(args[1], list):
                    shipped.extend(args[1])
                return super().submit(fn, *args, **kwargs)

        # Pool construction lives in the engine session now.
        monkeypatch.setattr(session_mod, "ProcessPoolExecutor", SpyPool)
        compute_records_from_source(source, StudyConfig(jobs=2))
        assert len(shipped) == len(source)
        assert all(isinstance(item, SourceHandle) for item in shipped)

    def test_in_memory_projects_cross_once(self, small_corpus,
                                           legacy_report, monkeypatch):
        """Each project rides its handle; the broadcast stays small."""
        import repro.engine.session as session_mod
        shipped = []
        broadcasts = []

        class SpyPool(session_mod.ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                # _invoke_chunk(invoke, items): ``invoke`` binds the
                # stage's broadcast inputs (source, scheme).
                if len(args) == 2 and isinstance(args[1], list):
                    broadcasts.append(len(pickle.dumps(args[0])))
                    shipped.extend(pickle.loads(pickle.dumps(args[1])))
                return super().submit(fn, *args, **kwargs)

        # The serial study behind legacy_report parsed these histories
        # in place; what crosses to a worker must not carry that state.
        history = small_corpus.projects[0].history
        assert history._versions is not None
        assert history._delta_state is not None
        monkeypatch.setattr(session_mod, "ProcessPoolExecutor", SpyPool)
        source = InMemorySource(small_corpus.projects, mode="corpus")
        results, _ = execute_study_from_source(source,
                                               StudyConfig(jobs=2))
        assert markdown_report(results) == legacy_report
        names = [project.name for project in small_corpus.projects]
        assert [handle.pid for handle in shipped] == names
        assert [handle.item.name for handle in shipped] == names
        assert all(handle.item.history._versions is None
                   and handle.item.history._delta_state is None
                   for handle in shipped)
        assert len(broadcasts) > 1
        assert max(broadcasts) <= 4096


class TestWarmCacheNeverLoads:
    def test_second_run_skips_load(self, tmp_path):
        loads = []

        class CountingSource(SyntheticSource):
            def load(self, pid):
                loads.append(pid)
                return super().load(pid)

        source = CountingSource(seed=99, population=SMALL_POPULATION,
                                with_exceptions=False)
        config = StudyConfig(cache_dir=tmp_path / "cache")
        compute_records_from_source(source, config)
        assert len(loads) == len(source)
        loads.clear()
        compute_records_from_source(source, config)
        assert loads == []


class TestHandles:
    def test_one_handle_per_project(self, source):
        handles = list(HandleStream(source))
        assert len(handles) == len(source)
        assert [h.pid for h in handles] == list(source.project_ids())
        assert all(h.fingerprint == source.fingerprint(h.pid)
                   for h in handles)


class TestEmptySource:
    def test_zero_projects_raise(self, tmp_path):
        from repro.errors import AnalysisError
        from repro.corpus.generator import Corpus
        root = export_corpus_dir(Corpus(projects=(), seed=1),
                                 tmp_path / "empty")
        with pytest.raises(AnalysisError):
            execute_study_from_source(CorpusDirSource(root))


class TestShardedGoldenEquivalence:
    """The v2 sharded layout, cold and session-warm, must render the
    same bytes as the legacy in-memory path."""

    def test_cold_and_warm_are_byte_identical(self, small_corpus,
                                              legacy_report, tmp_path):
        from repro.engine import EngineSession
        root = export_corpus_dir(small_corpus, tmp_path / "v2",
                                 shard_size=4)
        config = StudyConfig(cache_dir=tmp_path / "cache")
        with EngineSession(config) as session:
            cold, cold_report = execute_study_from_source(
                CorpusDirSource(root), config, session=session)
            warm, warm_report = execute_study_from_source(
                CorpusDirSource(root), config, session=session)
        assert markdown_report(cold) == legacy_report
        assert markdown_report(warm) == legacy_report
        assert cold_report.cache_misses == len(small_corpus)
        assert warm_report.cache_hits == len(small_corpus)

    def test_parallel_sharded_matches(self, small_corpus,
                                      legacy_report, tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "v2p",
                                 shard_size=4)
        results, _ = execute_study_from_source(CorpusDirSource(root),
                                               StudyConfig(jobs=2))
        assert markdown_report(results) == legacy_report
