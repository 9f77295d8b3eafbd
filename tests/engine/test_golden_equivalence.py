"""Golden equivalence: the engine must reproduce the legacy pipeline.

The pre-engine driver measured, labeled and classified projects in one
eager in-process loop. These tests pin that behavior: the engine-run
study — serial, process-parallel and warm-cache — must produce results
identical to the straight-line legacy computation on a seeded corpus.
"""

import pytest

from repro.analysis.records import StudyRecord
from repro.engine import StudyConfig, execute_study_from_source
from repro.labels.quantization import DEFAULT_SCHEME, label_profile
from repro.metrics.profile import ProjectProfile
from repro.patterns.classifier import classify
from repro.report.markdown import markdown_report
from repro.sources import InMemorySource
from repro.study.pipeline import (
    records_from_corpus,
    run_full_study,
    run_study,
)


def _legacy_records(corpus, scheme=DEFAULT_SCHEME):
    """The pre-engine per-project loop, verbatim."""
    records = []
    for project in corpus.projects:
        profile = ProjectProfile.from_history(project.history)
        labeled = label_profile(profile, scheme)
        strict = classify(labeled)
        records.append(StudyRecord(
            name=project.name,
            pattern=project.intended_pattern,
            labeled=labeled,
            is_exception=strict is not project.intended_pattern,
        ))
    return records


@pytest.fixture(scope="module")
def golden(small_corpus):
    records = _legacy_records(small_corpus)
    return records, run_study(records)


def _assert_same_study(results, reference):
    assert results.records == reference.records
    assert results.correlations == reference.correlations
    assert results.tree_misclassified == reference.tree_misclassified
    assert results.strict_agreement == reference.strict_agreement
    # The rendered report covers every remaining artifact (tables,
    # tree, coverage, prediction, …) — byte-identical or bust.
    assert markdown_report(results) == markdown_report(reference)


class TestEngineMatchesLegacy:
    def test_serial(self, small_corpus, golden):
        legacy_records, legacy_results = golden
        records = records_from_corpus(small_corpus)
        assert records == legacy_records
        results, report = run_full_study(small_corpus, StudyConfig())
        _assert_same_study(results, legacy_results)
        assert report.timing("records").items == len(small_corpus)

    def test_parallel_jobs4(self, small_corpus, golden):
        legacy_records, legacy_results = golden
        config = StudyConfig(jobs=4)
        records = records_from_corpus(small_corpus, config=config)
        assert records == legacy_records
        results, _ = run_full_study(small_corpus, config)
        _assert_same_study(results, legacy_results)

    def test_warm_cache(self, small_corpus, golden, tmp_path):
        _, legacy_results = golden
        config = StudyConfig(cache_dir=tmp_path)
        cold, cold_report = run_full_study(small_corpus, config)
        warm, warm_report = run_full_study(small_corpus, config)
        _assert_same_study(cold, legacy_results)
        _assert_same_study(warm, legacy_results)
        assert cold_report.timing("records").counters["cache_misses"] \
            == len(small_corpus)
        warm = warm_report.timing("records").counters
        assert warm["cache_hits"] == len(small_corpus)
        assert warm.get("cache_misses", 0) == 0

    def test_parallel_then_cache_interoperate(self, small_corpus,
                                              golden, tmp_path):
        """A cache primed by a parallel run serves a serial run."""
        _, legacy_results = golden
        parallel = StudyConfig(jobs=2, cache_dir=tmp_path)
        run_full_study(small_corpus, parallel)
        serial = StudyConfig(cache_dir=tmp_path)
        results, report = run_full_study(small_corpus, serial)
        _assert_same_study(results, legacy_results)
        assert report.timing("records").counters["cache_hits"] \
            == len(small_corpus)


class TestEngineOnHistories:
    def test_blind_map_matches_legacy(self, small_corpus):
        from repro.study.pipeline import records_from_histories
        histories = [p.history for p in small_corpus]
        serial = records_from_histories(histories)
        parallel = records_from_histories(
            histories, config=StudyConfig(jobs=2))
        assert parallel == serial
        results, _ = execute_study_from_source(
            InMemorySource(histories, mode="histories"))
        assert tuple(serial) == results.records


class TestEmptyInput:
    def test_empty_projects_raise(self):
        from repro.errors import AnalysisError
        with pytest.raises(AnalysisError):
            execute_study_from_source(InMemorySource([]), StudyConfig())
