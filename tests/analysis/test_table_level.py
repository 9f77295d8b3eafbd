"""Unit tests for the table-level rigidity analysis."""

import pytest

from repro.analysis.table_level import compute_table_level
from repro.errors import AnalysisError
from tests.conftest import make_history


@pytest.fixture(scope="module")
def histories(small_corpus):
    return [project.history for project in small_corpus]


class TestTableLevel:
    def test_basic_aggregates(self, histories):
        result = compute_table_level(histories)
        assert result.total_lives > 0
        assert 0.0 <= result.rigid_share <= 1.0
        assert 0.0 <= result.alive_share <= 1.0
        assert len(result.rigidity_by_birth_quarter) == 4
        assert all(0.0 <= q <= 1.0
                   for q in result.rigidity_by_birth_quarter)

    def test_table_rigidity_trait(self, histories):
        # The corpus is expansion-biased with whole-table granule change,
        # so most table lives never change after birth.
        result = compute_table_level(histories)
        assert result.rigid_share > 0.5

    def test_most_tables_survive(self, histories):
        result = compute_table_level(histories)
        assert result.alive_share > 0.6

    def test_empty_raises(self):
        with pytest.raises(AnalysisError):
            compute_table_level([])

    def test_tableless_histories_raise(self):
        history = make_history(["-- just a comment"])
        with pytest.raises(AnalysisError):
            compute_table_level([history])
