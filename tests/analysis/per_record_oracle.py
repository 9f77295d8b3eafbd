"""The per-record analysis backend: the differential oracle.

These are the original object-walking implementations of the paper's
corpus-level analyses, one stage per artifact over the raw record
list. The study runs the fused kernels over the
:class:`~repro.analysis.table.RecordTable` instead
(:mod:`repro.engine.study_plan`); both must produce byte-identical
:class:`~repro.study.pipeline.StudyResults`.
``tests/analysis/test_record_table.py`` holds them to it, and
``benchmarks/bench_perf_pipeline.py`` times one against the other.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.activity_relation import compute_activity_relation
from repro.analysis.change_mix import compute_change_mix
from repro.analysis.coverage import compute_coverage
from repro.analysis.normality import compute_normality
from repro.analysis.prediction import compute_prediction
from repro.analysis.records import StudyRecord, measures_of
from repro.analysis.stats_tables import (
    compute_section34_stats,
    compute_table1,
)
from repro.engine import StudyConfig, StudyPlan, execute_plan
from repro.engine.stage import Stage
from repro.engine.study_plan import _stage_results, _stage_tree, tree_sample
from repro.mining.centroids import centroid_report
from repro.mining.correlation import spearman_matrix
from repro.patterns.classifier import ClassificationResult, classify
from repro.patterns.exceptions import exception_report
from repro.patterns.taxonomy import Pattern


def _stage_table1(records):
    return compute_table1(records)


def _stage_stats34(records):
    return compute_section34_stats(records)


def _stage_table2(records):
    # Table 2 needs (labeled, result)-style pairs; rebuild results from
    # the records' assignment.
    return exception_report(
        (r.labeled, ClassificationResult(pattern=r.pattern,
                                         is_exception=r.is_exception))
        for r in records)


def _stage_correlations(records):
    return spearman_matrix(measures_of(records))


def _stage_tree_features(records):
    samples = [tree_sample(r) for r in records]
    labels = [r.pattern.value for r in records]
    return samples, labels


def _stage_tree_misclassified(tree, features, records):
    samples, labels = features
    return tuple(records[i].name
                 for i in tree.training_errors(samples, labels))


def _stage_centroids(records):
    vector_groups: dict[str, list] = {}
    for record in records:
        if record.pattern is Pattern.UNCLASSIFIED:
            continue
        vector_groups.setdefault(record.pattern.value, []).append(
            record.profile.vector)
    return centroid_report(vector_groups)


def _stage_coverage(records):
    return compute_coverage(records)


def _stage_prediction(records):
    return compute_prediction(records)


def _stage_activity(records):
    return compute_activity_relation(records)


def _stage_change_mix(records):
    return compute_change_mix(records)


def _stage_normality(records):
    return compute_normality(records)


def _stage_strict_agreement(records):
    # Oracle form: re-classifies every record from scratch. The fused
    # kernel reads the carried is_exception flag instead (agreement and
    # the exception flag are complementary by construction).
    return sum(1 for r in records if classify(r.labeled) is r.pattern)


def oracle_stages() -> list[Stage]:
    """The per-record analysis DAG, over the ``records`` input."""
    on_records = [
        ("table1", _stage_table1),
        ("stats34", _stage_stats34),
        ("table2", _stage_table2),
        ("correlations", _stage_correlations),
        ("tree_features", _stage_tree_features),
        ("centroids", _stage_centroids),
        ("coverage", _stage_coverage),
        ("prediction", _stage_prediction),
        ("activity", _stage_activity),
        ("change_mix", _stage_change_mix),
        ("normality", _stage_normality),
        ("strict_agreement", _stage_strict_agreement),
    ]
    stages = [Stage(name=name, fn=fn, inputs=("records",))
              for name, fn in on_records]
    stages.append(Stage(name="tree", fn=_stage_tree,
                        inputs=("tree_features",)))
    stages.append(Stage(name="tree_misclassified",
                        fn=_stage_tree_misclassified,
                        inputs=("tree", "tree_features", "records")))
    stages.append(Stage(
        name="results", fn=_stage_results,
        inputs=("records", "table1", "stats34", "table2", "correlations",
                "tree", "tree_misclassified", "centroids", "coverage",
                "prediction", "activity", "change_mix", "normality",
                "strict_agreement")))
    return stages


def run_oracle_study(records: Sequence[StudyRecord],
                     config: StudyConfig | None = None):
    """Every paper analysis over ``records``, the per-record way."""
    results, _ = execute_plan(StudyPlan(oracle_stages()),
                              {"records": tuple(records)}, config)
    return results["results"]
