"""Differential tests: columnar RecordTable kernels vs per-record oracles.

The fused backend must be *byte-identical* to the per-record analysis
implementations — same floats, same dict insertion order, same rendered
report. Each kernel is checked against its oracle on the small corpus,
and the pack itself round-trips (``pack -> unpack -> pack``) under
hypothesis-driven record subsets.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import report
from repro.analysis.activity_relation import compute_activity_relation
from repro.analysis.change_mix import compute_change_mix
from repro.analysis.coverage import compute_coverage
from repro.analysis.normality import compute_normality
from repro.analysis.prediction import compute_prediction
from repro import obs
from repro.analysis.records import MEASURE_NAMES, measures_of
from repro.analysis.stats_tables import (
    compute_section34_stats,
    compute_table1,
)
from repro.analysis.table import (
    N_LABELS,
    N_MEASURES,
    PackedRecord,
    RecordTable,
    pack_record,
)
from repro.diff.changes import N_KINDS
from repro.errors import AnalysisError
from repro.mining.correlation import spearman_matrix
from repro.study.pipeline import records_from_corpus, run_study
from tests.analysis.per_record_oracle import run_oracle_study


@pytest.fixture(scope="module")
def records(small_corpus):
    return records_from_corpus(small_corpus)


@pytest.fixture(scope="module")
def table(records):
    return RecordTable.from_records(records)


class TestPack:
    def test_row_shape(self, records):
        row = pack_record(records[0])
        assert isinstance(row, PackedRecord)
        assert row.name == records[0].name
        assert len(row.labels) == N_LABELS
        assert len(row.measures) == N_MEASURES
        assert len(row.kind_counts) == N_KINDS

    def test_table_columns_align(self, records, table):
        assert len(table) == len(records)
        assert len(table.kind_counts) == len(records) * N_KINDS
        assert all(len(col) == len(records) for col in table.labels)
        assert all(len(col) == len(records) for col in table.measures)

    def test_measure_map_matches_measures_of(self, records, table):
        theirs = measures_of(records)
        ours = table.measure_map()
        assert list(ours) == list(MEASURE_NAMES)
        for name in MEASURE_NAMES:
            assert list(ours[name]) == list(theirs[name])

    def test_pack_counter_ticks(self, records):
        before = obs.snapshot()
        pack_record(records[0])
        assert obs.since(before) == {"pack_rows": 1}

    def test_empty_table(self):
        empty = RecordTable.from_rows([])
        assert len(empty) == 0
        assert empty.unpack() == []


class TestRoundTrip:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_pack_unpack_pack(self, records, data):
        indexes = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(records) - 1),
            max_size=len(records)))
        rows = [pack_record(records[i]) for i in indexes]
        table = RecordTable.from_rows(rows)
        assert table.unpack() == rows
        assert RecordTable.from_rows(table.unpack()) == table

    def test_full_corpus_round_trip(self, records, table):
        rows = [pack_record(r) for r in records]
        assert table.unpack() == rows
        assert RecordTable.from_rows(rows) == table
        assert [row.name for row in rows] == list(table.names)


class TestKernelsMatchOracles:
    """Every fused stage result equals its per-record oracle."""

    @pytest.fixture(scope="class")
    def fused(self, records):
        return run_study(records)

    @pytest.fixture(scope="class")
    def oracle(self, records):
        return run_oracle_study(records)

    def test_table1(self, fused, oracle, records):
        assert fused.table1 == oracle.table1 == compute_table1(records)
        # insertion order of the nested dicts must match exactly
        for key in fused.table1.rows:
            assert list(fused.table1.rows[key]) \
                == list(oracle.table1.rows[key])

    def test_stats34(self, fused, oracle, records):
        assert fused.stats34 == oracle.stats34 \
            == compute_section34_stats(records)

    def test_table2(self, fused, oracle):
        assert fused.table2 == oracle.table2

    def test_strict_agreement(self, fused, oracle):
        assert fused.strict_agreement == oracle.strict_agreement

    def test_correlations(self, fused, oracle, records):
        theirs = spearman_matrix(measures_of(records))
        assert list(fused.correlations) == list(theirs)
        for pair, rho in theirs.items():
            ours = fused.correlations[pair]
            assert ours == rho or (ours != ours and rho != rho), pair
        assert list(fused.correlations) == list(oracle.correlations)

    def test_coverage(self, fused, oracle, records):
        assert fused.coverage == oracle.coverage \
            == compute_coverage(records)

    def test_prediction(self, fused, oracle, records):
        assert fused.prediction == oracle.prediction \
            == compute_prediction(records)

    def test_activity(self, fused, oracle, records):
        assert fused.activity == oracle.activity \
            == compute_activity_relation(records)

    def test_change_mix(self, fused, oracle, records):
        assert fused.change_mix == oracle.change_mix \
            == compute_change_mix(records)

    def test_normality(self, fused, oracle, records):
        assert fused.normality == oracle.normality \
            == compute_normality(records)

    def test_centroids(self, fused, oracle):
        assert fused.centroids == oracle.centroids

    def test_tree(self, fused, oracle):
        assert report.render_tree(fused) == report.render_tree(oracle)
        assert fused.tree_misclassified == oracle.tree_misclassified

    def test_rendered_report_byte_identical(self, fused, oracle):
        sections = (report.render_table1, report.render_table2,
                    report.render_correlations, report.render_fig4_overview,
                    report.render_tree, report.render_coverage,
                    report.render_prediction, report.render_section34,
                    report.render_section52, report.render_section61,
                    report.render_section63)
        for render in sections:
            assert render(fused) == render(oracle), render.__name__


class TestEdges:
    def test_empty_corpus_raises(self):
        from repro.engine.study_plan import _stage_core_stats
        with pytest.raises(AnalysisError):
            _stage_core_stats(RecordTable.from_rows([]))

    def test_run_study_zero_records(self):
        with pytest.raises(AnalysisError):
            run_study([])
