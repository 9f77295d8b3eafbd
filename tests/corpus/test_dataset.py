"""Unit tests for the corpus record codec.

:func:`~repro.sources.corpusdir.project_to_dict` and
:func:`~repro.sources.corpusdir.project_from_dict` are the per-project
record both corpus-directory layouts store.
"""

import json

import pytest

from repro.errors import CorpusError
from repro.history.heartbeat import schema_heartbeat
from repro.sources.corpusdir import project_from_dict, project_to_dict


def round_trip(project):
    """A project through its record, as JSON text and back."""
    return project_from_dict(json.loads(json.dumps(project_to_dict(project))))


class TestRoundTrip:
    def test_save_load_identity(self, small_corpus):
        for original in small_corpus:
            restored = round_trip(original)
            assert restored.name == original.name
            assert restored.intended_pattern is original.intended_pattern
            assert restored.is_exception == original.is_exception
            assert restored.plan.schedule == original.plan.schedule
            assert restored.source.monthly == original.source.monthly
            assert [c.ddl_text for c in restored.history.commits] \
                == [c.ddl_text for c in original.history.commits]

    def test_loaded_history_measures_identically(self, small_corpus):
        for original in small_corpus:
            assert schema_heartbeat(round_trip(original).history).monthly \
                == schema_heartbeat(original.history).monthly


class TestErrors:
    def test_malformed_record(self):
        with pytest.raises(CorpusError):
            project_from_dict({"name": "x"})
