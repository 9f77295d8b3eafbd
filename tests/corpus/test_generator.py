"""Unit tests for corpus assembly."""

import pytest

from repro.corpus import generator
from repro.corpus.generator import generate_corpus
from repro.errors import CorpusError
from repro.patterns.taxonomy import (
    PAPER_EXCEPTIONS,
    PAPER_POPULATION,
    Pattern,
)


class TestGenerateCorpus:
    def test_paper_population(self, full_corpus):
        assert len(full_corpus) == 151
        assert full_corpus.counts() == PAPER_POPULATION

    def test_exception_counts(self, full_corpus):
        by_pattern = full_corpus.by_pattern()
        for pattern, projects in by_pattern.items():
            exceptional = sum(1 for p in projects if p.is_exception)
            assert exceptional == PAPER_EXCEPTIONS[pattern]

    def test_names_unique(self, full_corpus):
        names = [p.name for p in full_corpus]
        assert len(set(names)) == len(names)

    def test_deterministic(self):
        population = {Pattern.FLATLINER: 2, Pattern.SIESTA: 1}
        a = generate_corpus(seed=5, population=population)
        b = generate_corpus(seed=5, population=population)
        assert [p.name for p in a] == [p.name for p in b]
        assert [p.history.commits[0].ddl_text for p in a] \
            == [p.history.commits[0].ddl_text for p in b]

    def test_parallel_pool_start_method_is_pinned(self, monkeypatch,
                                                  pinned_start_method):
        started = []
        real = generator.ProcessPoolExecutor

        def recording(*args, **kwargs):
            pool = real(*args, **kwargs)
            started.append(pool._mp_context.get_start_method())
            return pool

        monkeypatch.setattr(generator, "ProcessPoolExecutor", recording)
        population = {Pattern.FLATLINER: 2, Pattern.SIESTA: 1}
        corpus = generate_corpus(seed=5, population=population, jobs=2)
        assert started == [pinned_start_method]
        assert len(corpus) == 3

    def test_different_seeds_differ(self):
        population = {Pattern.RADICAL_SIGN: 2}
        a = generate_corpus(seed=1, population=population)
        b = generate_corpus(seed=2, population=population)
        assert [p.plan.schedule for p in a] \
            != [p.plan.schedule for p in b]

    def test_histories_longer_than_a_year(self, full_corpus):
        # The paper's corpus filter: lifespan > 12 months.
        assert all(p.history.pup_months > 12 for p in full_corpus)

    def test_source_series_span_pup(self, full_corpus):
        for project in full_corpus.projects[:20]:
            assert project.source.months == project.history.pup_months

    def test_without_exceptions(self):
        population = {Pattern.SIGMOID: 3}
        corpus = generate_corpus(seed=3, population=population,
                                 with_exceptions=False)
        assert not any(p.is_exception for p in corpus)

    def test_negative_population_raises(self):
        with pytest.raises(CorpusError):
            generate_corpus(seed=1,
                            population={Pattern.FLATLINER: -1})

    def test_custom_population_over_quota(self):
        # More projects than the Fig-7 bucket quota: generator must
        # still deliver by reusing the dominant bucket.
        corpus = generate_corpus(
            seed=4, population={Pattern.FLATLINER: 30},
            with_exceptions=False)
        assert len(corpus) == 30

    def test_dialect_mix_present(self, full_corpus):
        dialects = {p.history.dialect for p in full_corpus}
        assert len(dialects) >= 2
