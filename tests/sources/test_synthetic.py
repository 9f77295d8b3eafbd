"""SyntheticSource: lazy realization must equal eager generation."""

import pytest

from repro.corpus.generator import generate_corpus
from repro.errors import SourceError
from repro.sources import SyntheticSource
from repro.sources.corpusdir import project_to_dict
from tests.conftest import SMALL_POPULATION


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False)


class TestLazyEqualsEager:
    def test_ids_match_corpus_order(self, source, small_corpus):
        assert source.project_ids() == tuple(
            p.name for p in small_corpus.projects)

    def test_loads_reproduce_generation(self, source, small_corpus):
        # Dict form compares everything that reaches disk or a worker:
        # commits, plan, source series, metadata.
        for project in small_corpus.projects:
            assert project_to_dict(source.load(project.name)) \
                == project_to_dict(project)

    def test_full_default_corpus_plan(self):
        # Planning the paper corpus is cheap; realization is what the
        # laziness defers. 151 ids, no project materialized.
        assert len(SyntheticSource()) == 151


class TestFingerprints:
    def test_stable_across_instances(self, source):
        other = SyntheticSource(seed=99, population=SMALL_POPULATION,
                                with_exceptions=False)
        for pid in source.project_ids():
            assert source.fingerprint(pid) == other.fingerprint(pid)

    def test_seed_changes_fingerprints(self, source):
        other = SyntheticSource(seed=100, population=SMALL_POPULATION,
                                with_exceptions=False)
        pid = source.project_ids()[0]
        assert other.project_ids()[0] == pid
        assert source.fingerprint(pid) != other.fingerprint(pid)

    def test_unique_per_project(self, source):
        prints = [source.fingerprint(p) for p in source.project_ids()]
        assert len(prints) == len(set(prints))


class TestErrors:
    def test_unknown_pid_load(self, source):
        with pytest.raises(SourceError, match="unknown project id"):
            source.load("no-such-project")

    def test_unknown_pid_fingerprint(self, source):
        with pytest.raises(SourceError):
            source.fingerprint("no-such-project")


class TestPickling:
    def test_source_pickles_small(self, source):
        import pickle
        source.project_ids()  # populate the plan before shipping
        blob = pickle.dumps(source)
        assert len(blob) < 50_000
        clone = pickle.loads(blob)
        assert clone.project_ids() == source.project_ids()
