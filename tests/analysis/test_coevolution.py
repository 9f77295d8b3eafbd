"""Unit tests for the joint schema/source co-evolution measures."""

import math

import pytest

from repro.analysis.coevolution import compute_coevolution
from repro.errors import AnalysisError
from repro.study.pipeline import records_from_corpus


@pytest.fixture(scope="module")
def records(small_corpus):
    return records_from_corpus(small_corpus)


@pytest.fixture(scope="module")
def sources(small_corpus):
    return {project.name: project.source for project in small_corpus}


class TestCoevolution:
    def test_rows_for_all_projects(self, records, sources):
        result = compute_coevolution(records, sources)
        assert len(result.rows) == len(records)

    def test_measures_bounded(self, records, sources):
        result = compute_coevolution(records, sources)
        for row in result.rows:
            assert row.schema_birth_lag_months >= 0
            assert 0.0 <= row.schema_source_overlap <= 1.0
            assert 0.0 < row.source_active_share <= 1.0
            assert 0.0 < row.schema_active_share <= 1.0
            assert math.isnan(row.activity_rho) \
                or -1.0 - 1e-9 <= row.activity_rho <= 1.0 + 1e-9

    def test_lag_equals_birth_month(self, records, sources):
        result = compute_coevolution(records, sources)
        by_name = {row.name: row for row in result.rows}
        for record in records:
            assert by_name[record.name].schema_birth_lag_months \
                == record.profile.birth_month

    def test_aggregates(self, records, sources):
        result = compute_coevolution(records, sources)
        assert result.median_birth_lag >= 0
        assert 0.0 <= result.median_overlap <= 1.0
        assert 0.0 <= result.share_born_with_project <= 1.0

    def test_no_source_series_raises(self, records):
        with pytest.raises(AnalysisError):
            compute_coevolution(records, {})

    def test_schema_sparser_than_source(self, records, sources):
        # The corpus trait: source activity is spread over most months,
        # schema activity over few.
        result = compute_coevolution(records, sources)
        schema_shares = [r.schema_active_share for r in result.rows]
        source_shares = [r.source_active_share for r in result.rows]
        assert sum(schema_shares) < sum(source_shares)
