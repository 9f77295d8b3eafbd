"""The paper's study expressed as a declarative stage DAG.

Two plans are built here:

* the **records plan** — one :class:`~repro.engine.stage.MapStage`
  turning each project (or external history) into a classified
  :class:`~repro.analysis.records.StudyRecord`: history → profile →
  labels → classification. Embarrassingly parallel and content-cached.
* the **analysis plan** — the corpus-level stages of the paper
  (Tables 1/2, §3.4, Fig. 2 correlations, the Fig. 5 tree, §5.2
  centroids, Fig. 6 coverage, Fig. 7 prediction, §6.1 activity, §6.3
  change mix, §3.4.1 normality, strict agreement) assembled into one
  :class:`~repro.study.pipeline.StudyResults` bundle.

The analyses run in two interchangeable backends. The default
**columnar** backend computes every stage as a fused kernel over the
:class:`~repro.analysis.table.RecordTable` — the flat column pack the
map stage assembles incrementally at harvest time — with Table 1, the
§3.4 statistics and strict agreement fused into one pass over the
label columns. The **per-record** backend (``columnar=False``) is the
original object-walking implementation, kept verbatim as the
differential oracle: both produce byte-identical
:class:`StudyResults`, and the golden/differential tests hold them to
it.

All stage bodies are module-level functions so the process backend can
pickle them by reference.
"""

from __future__ import annotations

import copy
import dataclasses
import statistics
import time
from typing import Any, Iterable, NamedTuple, Sequence

from repro.analysis.activity_relation import (
    ActivityRelationResult,
    ActivityRow,
    compute_activity_relation,
)
from repro.analysis.change_mix import (
    TABLE_GRANULE_INDEXES,
    ChangeMixResult,
    ChangeMixRow,
    compute_change_mix,
)
from repro.analysis.coverage import (
    CoverageResult,
    agm_bucket,
    compute_coverage,
)
from repro.analysis.normality import compute_normality, normality_of
from repro.analysis.prediction import (
    PredictionResult,
    birth_bucket,
    compute_prediction,
)
from repro.analysis.records import StudyRecord, measures_of
from repro.analysis.stats_tables import (
    TABLE1_ROWS,
    Section34Stats,
    Table1Result,
    compute_section34_stats,
    compute_table1,
)
from repro.analysis.table import (
    LABEL_INDEX,
    LABEL_VALUES,
    PATTERN_ORDER,
    PATTERN_VALUES,
    REAL_POSITION,
    UNCLASSIFIED_INDEX,
    RecordTable,
    pack_record,
)
from repro.diff.changes import KIND_ORDER, N_KINDS
from repro.engine.cache import fingerprint
from repro.engine.config import StudyConfig
from repro.engine.executor import ExecutionReport, execute_plan
from repro.engine.faults import ProjectFailure
from repro.engine.stage import MapStage, Stage, StudyPlan
from repro.errors import AnalysisError
from repro.history.repository import SchemaHistory
from repro.labels.classes import BirthVolumeClass
from repro.labels.quantization import LabelScheme, label_profile
from repro.metrics.profile import ProjectProfile
from repro.mining.centroids import centroid_report
from repro.mining.correlation import spearman_matrix, spearman_matrix_ranked
from repro.mining.decision_tree import DecisionTree
from repro.patterns.classifier import (
    ClassificationResult,
    classify,
    classify_with_tolerance,
)
from repro.patterns.exceptions import ExceptionReport, exception_report
from repro.patterns.taxonomy import Pattern, REAL_PATTERNS

#: Bump when the history → record computation changes observably; this
#: invalidates every cached StudyRecord (the cache key mixes it in).
#: "2": columnar ChangeBreakdown — cached record pickles changed shape.
RECORDS_STAGE_VERSION = "2"


# ----------------------------------------------------------------------
# per-project map stage


def corpus_record(project, scheme: LabelScheme) -> StudyRecord:
    """Measure, label and strictly check one generated project.

    The assigned pattern is the generator's ground truth — the synthetic
    counterpart of the paper's manual annotation; the exception flag is
    recomputed from the formal definitions.
    """
    profile = ProjectProfile.from_history(project.history,
                                          source=project.source)
    labeled = label_profile(profile, scheme)
    strict = classify(labeled)
    return StudyRecord(
        name=project.name,
        pattern=project.intended_pattern,
        labeled=labeled,
        is_exception=strict is not project.intended_pattern,
    )


def history_record(history: SchemaHistory,
                   scheme: LabelScheme) -> StudyRecord:
    """Measure, label and *blindly* classify one external history."""
    profile = ProjectProfile.from_history(history)
    labeled = label_profile(profile, scheme)
    result = classify_with_tolerance(labeled)
    return StudyRecord(
        name=history.project_name,
        pattern=result.pattern,
        labeled=labeled,
        is_exception=result.is_exception,
    )


def history_fingerprint_parts(history: SchemaHistory) -> list:
    """The content of a history that determines its measurements."""
    return [
        history.project_name,
        history.project_start,
        history.project_end,
        history.dialect.traits.name,
        history.incremental,
        [(c.timestamp, c.ddl_text) for c in history.commits],
    ]


def corpus_record_key(project, extras: tuple, version: str) -> str:
    """Content hash of one generated project's record computation."""
    (scheme,) = extras
    return fingerprint(
        "corpus-record", version, scheme.to_dict(),
        project.name, project.intended_pattern,
        project.is_exception, project.exception_kind,
        history_fingerprint_parts(project.history),
        tuple(project.source.monthly) if project.source else None,
    )


def history_record_key(history: SchemaHistory, extras: tuple,
                       version: str) -> str:
    """Content hash of one external history's record computation."""
    (scheme,) = extras
    return fingerprint("history-record", version, scheme.to_dict(),
                       history_fingerprint_parts(history))


def bare_history(history: SchemaHistory | None) -> SchemaHistory | None:
    """A shallow copy of ``history`` without its parsed-version cache."""
    if history is None or history._versions is None:
        return history
    bare = copy.copy(history)
    bare._versions = None
    return bare


def strip_project(project):
    """A copy of a generated project with a bare history (pre-pickle)."""
    bare = bare_history(project.history)
    if bare is project.history:
        return project
    return dataclasses.replace(project, history=bare)


def strip_record(record: StudyRecord) -> StudyRecord:
    """Shed the parsed-version cache before a record is pickled.

    The materialized :class:`SchemaVersion` list dominates a record's
    pickle size yet is a pure derivation of the commits; consumers
    rebuild it lazily. The original record is left untouched.
    """
    bare = bare_history(record.profile.history)
    if bare is record.profile.history:
        return record
    profile = dataclasses.replace(record.profile, history=bare)
    labeled = dataclasses.replace(record.labeled, profile=profile)
    return dataclasses.replace(record, labeled=labeled)


def source_record(handle, source, scheme: LabelScheme) -> StudyRecord:
    """Load one project from its source and turn it into a record.

    This is the worker side of the handle-based fan-out: the engine
    ships only ``(handle, source)`` — the source being a lightweight
    path-or-spec object — and the expensive materialization
    (generation, file parsing, git extraction) happens here, in
    whichever process runs the item. Dispatch follows ``source.mode``:
    ``"corpus"`` loads carry ground truth, ``"histories"`` loads are
    classified blindly.
    """
    loaded = source.load(handle.pid)
    if source.mode == "corpus":
        return corpus_record(loaded, scheme)
    return history_record(loaded, scheme)


def source_record_key(handle, extras: tuple, version: str) -> str:
    """Content hash of one handle's record computation.

    The handle's fingerprint stands in for the project content, so the
    key is computable without loading the project — the point of the
    lazy path: a warm cache never materializes anything. The delta
    plan's extra broadcast input (the checkpoint store) deliberately
    does not participate: checkpoints accelerate the compute, they
    never change its result, so delta and non-delta runs share cache
    entries.
    """
    source, scheme = extras[0], extras[1]
    return fingerprint("source-record", version, source.mode,
                       scheme.to_dict(), handle.pid, handle.fingerprint)


def source_record_delta(handle, source, scheme: LabelScheme,
                        store) -> StudyRecord:
    """Delta-aware :func:`source_record`: serve appends in O(K).

    With a checkpoint store, the project's version chain is compared
    against its last checkpoint: an unchanged-prefix chain routes the
    suffix through the delta kernel (parse only the K new versions,
    extend the checkpointed series and snapshot); anything else — no
    checkpoint, rewritten history, unusable state — computes in full
    exactly as :func:`source_record`, then writes a fresh checkpoint
    so the *next* growth is O(K). Results are byte-identical across
    every path; projects whose fingerprint did not move at all are
    result-cache hits and never reach this function.
    """
    from repro.engine import delta as delta_mod
    if store is None:
        return source_record(handle, source, scheme)
    if source.mode == "corpus":
        loaded = source.load(handle.pid)
        history = loaded.history
        chain = delta_mod.commit_chain(history.commits)
        served = delta_mod.serve_corpus_delta(store, handle.pid,
                                              loaded, chain, scheme)
        if served is not None:
            return served
        record = corpus_record(loaded, scheme)
        checkpoint = delta_mod.capture_checkpoint(
            handle.pid, "corpus", history, record, chain, scheme)
        if checkpoint is not None:
            store.save(checkpoint)
        return record
    chain = source.version_chain(handle.pid)
    served = delta_mod.serve_history_delta(store, handle.pid, source,
                                           chain, scheme)
    if served is not None:
        return served
    history = source.load(handle.pid)
    record = history_record(history, scheme)
    checkpoint = delta_mod.capture_checkpoint(
        handle.pid, "histories", history, record, chain, scheme)
    if checkpoint is not None:
        store.save(checkpoint)
    return record


# ----------------------------------------------------------------------
# corpus-level analysis stages — per-record backend (the differential
# oracles; the fused columnar kernels below must match them byte for
# byte)


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


def tree_sample(record: StudyRecord) -> dict[str, str]:
    """The four Fig.-5 features of one record."""
    labeled = record.labeled
    return {
        "birth_timing": labeled.birth_timing.value,
        "top_band_timing": labeled.top_band_timing.value,
        "interval_birth_to_top": labeled.interval_birth_to_top.value,
        "agm_bucket": agm_bucket(labeled.active_growth_months),
    }


def _stage_tree_features(records):
    samples = [tree_sample(r) for r in records]
    labels = [r.pattern.value for r in records]
    return samples, labels


def _stage_tree(features):
    samples, labels = features
    return DecisionTree(max_depth=4).fit(samples, labels)


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


# ----------------------------------------------------------------------
# corpus-level analysis stages — fused columnar kernels over the
# RecordTable (the default backend)


#: Dense birth-volume label indexes the §3.4 kernel compares against.
_BV_HIGH = LABEL_INDEX[0][BirthVolumeClass.HIGH]
_BV_FULL = LABEL_INDEX[0][BirthVolumeClass.FULL]


def _stage_pack_table(records) -> RecordTable:
    """Pack precomputed records (analysis-only plans; the full study
    plans get the table from the map stage's harvest-time pack)."""
    return RecordTable.from_records(records)


class _CoreStats(NamedTuple):
    """The fused Table-1 + §3.4 + strict-agreement bundle."""

    table1: Table1Result
    stats34: Section34Stats
    strict_agreement: int


def _stage_core_stats(table: RecordTable) -> _CoreStats:
    """One pass over the label/measure columns for three stages.

    Table 1 tallies the seven dense label-index columns;
    the §3.4 statistics read the measure, landmark and label columns;
    strict agreement falls out of the is_exception column, because the
    record builders set the flag exactly when the strict classification
    disagrees with the assigned pattern — no re-classification pass.
    """
    total = len(table)
    if not total:
        raise AnalysisError("empty corpus")
    rows: dict[str, dict[str, int]] = {}
    for (key, _, _), values, column in zip(TABLE1_ROWS, LABEL_VALUES,
                                           table.labels):
        counts = [0] * len(values)
        for index in column:
            counts[index] += 1
        rows[key] = dict(zip(values, counts))
    birth_pct = table.measures[1]
    top_pct = table.measures[2]
    interval_pct = table.measures[3]
    agm = table.measures[5]
    birth_volume = table.labels[0]
    stats34 = Section34Stats(
        total=total,
        born_at_v0=sum(1 for m in table.birth_month if m == 0),
        born_first_10pct=sum(1 for v in birth_pct if v <= 0.10),
        born_first_25pct=sum(1 for v in birth_pct if v <= 0.25),
        top_attained_first_25pct=sum(1 for v in top_pct if v <= 0.25),
        high_activity_at_birth=sum(
            1 for i in birth_volume if i >= _BV_HIGH),
        full_activity_at_birth=sum(
            1 for i in birth_volume if i == _BV_FULL),
        vault_share=sum(table.has_vault) / total,
        zero_active_growth=sum(1 for v in agm if v == 0),
        at_most_one_active_growth=sum(1 for v in agm if v <= 1),
        interval_birth_top_under_10pct=sum(
            1 for v in interval_pct if v < 0.10),
        interval_birth_top_zero=sum(
            1 for m in table.interval_birth_to_top_months if m == 0),
    )
    agreement = total - sum(table.is_exception)
    return _CoreStats(table1=Table1Result(rows=rows, total=total),
                      stats34=stats34, strict_agreement=agreement)


def _stage_core_table1(core: _CoreStats) -> Table1Result:
    return core.table1


def _stage_core_stats34(core: _CoreStats) -> Section34Stats:
    return core.stats34


def _stage_core_agreement(core: _CoreStats) -> int:
    return core.strict_agreement


def _stage_table2_table(table: RecordTable) -> ExceptionReport:
    # Overlaps stay 0 by construction: the definitions are disjoint
    # (the oracle's count_strict_matches > 1 branch never fires).
    population = [0] * len(REAL_PATTERNS)
    exceptions = [0] * len(REAL_PATTERNS)
    unclassified = 0
    for pattern, is_exception in zip(table.pattern, table.is_exception):
        position = REAL_POSITION.get(pattern)
        if position is None:
            unclassified += 1
            continue
        population[position] += 1
        if is_exception:
            exceptions[position] += 1
    rows = tuple((pattern, population[k], exceptions[k], 0)
                 for k, pattern in enumerate(REAL_PATTERNS))
    return ExceptionReport(rows=rows, unclassified=unclassified)


def _stage_correlations_table(table: RecordTable):
    return spearman_matrix_ranked(table.measure_map())


def _stage_tree_features_table(table: RecordTable):
    birth_values = LABEL_VALUES[1]
    top_values = LABEL_VALUES[2]
    interval_values = LABEL_VALUES[3]
    samples = [
        {
            "birth_timing": birth_values[table.labels[1][i]],
            "top_band_timing": top_values[table.labels[2][i]],
            "interval_birth_to_top": interval_values[table.labels[3][i]],
            "agm_bucket": agm_bucket(table.active_growth_months[i]),
        }
        for i in range(len(table))
    ]
    labels = [PATTERN_VALUES[p] for p in table.pattern]
    return samples, labels


def _stage_tree_misclassified_table(tree, features, table: RecordTable):
    samples, labels = features
    return tuple(table.names[i]
                 for i in tree.training_errors(samples, labels))


def _stage_centroids_table(table: RecordTable):
    vector_groups: dict[str, list] = {}
    for index, pattern in enumerate(table.pattern):
        if pattern == UNCLASSIFIED_INDEX:
            continue
        vector_groups.setdefault(PATTERN_VALUES[pattern], []).append(
            table.vectors[index])
    return centroid_report(vector_groups)


def _stage_coverage_table(table: RecordTable) -> CoverageResult:
    if not len(table):
        raise AnalysisError("empty corpus")
    birth_values = LABEL_VALUES[1]
    top_values = LABEL_VALUES[2]
    interval_values = LABEL_VALUES[3]
    cells: dict[tuple, dict[Pattern, int]] = {}
    for i in range(len(table)):
        cell = (
            birth_values[table.labels[1][i]],
            top_values[table.labels[2][i]],
            interval_values[table.labels[3][i]],
            agm_bucket(table.active_growth_months[i]),
        )
        bucket = cells.setdefault(cell, {})
        pattern = PATTERN_ORDER[table.pattern[i]]
        bucket[pattern] = bucket.get(pattern, 0) + 1
    # 4 birth classes x 4 top classes x 5 interval classes x 3 AGM buckets.
    return CoverageResult(cells=cells, total_cells_possible=4 * 4 * 5 * 3)


def _stage_prediction_table(table: RecordTable) -> PredictionResult:
    if not len(table):
        raise AnalysisError("empty corpus")
    counts = [[0, 0, 0, 0] for _ in REAL_PATTERNS]
    bucket_totals = [0, 0, 0, 0]
    for pattern, month in zip(table.pattern, table.birth_month):
        bucket = birth_bucket(month)
        bucket_totals[bucket] += 1
        position = REAL_POSITION.get(pattern)
        if position is not None:
            counts[position][bucket] += 1
    return PredictionResult(
        counts={pattern: tuple(counts[k])
                for k, pattern in enumerate(REAL_PATTERNS)},
        bucket_totals=tuple(bucket_totals),
        total=len(table),
    )


def _pattern_members(table: RecordTable) -> list[list[int]]:
    """Record indexes per real pattern, in REAL_PATTERNS order."""
    members: list[list[int]] = [[] for _ in REAL_PATTERNS]
    for index, pattern in enumerate(table.pattern):
        position = REAL_POSITION.get(pattern)
        if position is not None:
            members[position].append(index)
    return members


def _stage_activity_table(table: RecordTable) -> ActivityRelationResult:
    if not len(table):
        raise AnalysisError("empty corpus")
    rows: list[ActivityRow] = []
    for position, indexes in enumerate(_pattern_members(table)):
        if not indexes:
            continue
        rows.append(ActivityRow(
            pattern=REAL_PATTERNS[position],
            count=len(indexes),
            median_post_birth=statistics.median(
                table.post_birth_activity[i] for i in indexes),
            median_total=statistics.median(
                table.total_activity[i] for i in indexes),
            median_expansion=statistics.median(
                table.expansion[i] for i in indexes),
            median_maintenance=statistics.median(
                table.maintenance[i] for i in indexes),
            median_pup=statistics.median(
                table.pup_months[i] for i in indexes),
            median_birth_size=statistics.median(
                table.schema_size_at_birth[i] for i in indexes),
        ))
    return ActivityRelationResult(rows=tuple(rows))


def _stage_change_mix_table(table: RecordTable) -> ChangeMixResult:
    if not len(table):
        raise AnalysisError("empty corpus")
    kind_counts = table.kind_counts
    rows: list[ChangeMixRow] = []
    grand_flat = [0] * N_KINDS
    grand_expansion = 0
    for position, indexes in enumerate(_pattern_members(table)):
        if not indexes:
            continue
        flat_totals = [0] * N_KINDS
        for i in indexes:
            offset = i * N_KINDS
            for k in range(N_KINDS):
                flat_totals[k] += kind_counts[offset + k]
            grand_expansion += table.expansion[i]
        for k in range(N_KINDS):
            grand_flat[k] += flat_totals[k]
        total_events = sum(flat_totals)
        table_events = sum(flat_totals[k] for k in TABLE_GRANULE_INDEXES)
        rows.append(ChangeMixRow(
            pattern=REAL_PATTERNS[position],
            count=len(indexes),
            kind_totals=dict(zip(KIND_ORDER, flat_totals)),
            median_expansion_fraction=statistics.median(
                table.expansion_fraction[i] for i in indexes),
            table_granule_fraction=(table_events / total_events
                                    if total_events else 0.0),
            monothematic_projects=sum(
                1 for i in indexes if table.post_birth_kinds[i] <= 1),
        ))
    grand_total = sum(grand_flat)
    grand_table = sum(grand_flat[k] for k in TABLE_GRANULE_INDEXES)
    return ChangeMixResult(
        rows=tuple(rows),
        overall_expansion_fraction=(grand_expansion / grand_total
                                    if grand_total else 0.0),
        overall_table_granule_fraction=(grand_table / grand_total
                                        if grand_total else 0.0),
    )


def _stage_normality_table(table: RecordTable):
    return normality_of(table.measure_map(), len(table))


def _stage_results(records, table1, stats34, table2, correlations, tree,
                   tree_misclassified, centroids, coverage, prediction,
                   activity, change_mix, normality, strict_agreement):
    from repro.study.pipeline import StudyResults
    return StudyResults(
        records=tuple(records),
        table1=table1,
        stats34=stats34,
        table2=table2,
        correlations=correlations,
        tree=tree,
        tree_misclassified=tree_misclassified,
        centroids=centroids,
        coverage=coverage,
        prediction=prediction,
        activity=activity,
        change_mix=change_mix,
        normality=normality,
        strict_agreement=strict_agreement,
    )


def _analysis_stages(columnar: bool = True) -> list[Stage]:
    """The corpus-level stages of :func:`run_study`, as a DAG.

    Args:
        columnar: with the default True, every analysis is a fused
            kernel over the ``table`` value (the map stage's packed
            secondary output, or an explicit packing stage in
            analysis-only plans); Table 1, §3.4 and strict agreement
            share one ``core_stats`` pass, split back into their
            historical stage names by three unpacking stages so
            reports and ``timing(...)`` lookups keep working. False
            selects the per-record oracle implementations.
    """
    if columnar:
        stages = [
            Stage(name="core_stats", fn=_stage_core_stats,
                  inputs=("table",)),
            Stage(name="table1", fn=_stage_core_table1,
                  inputs=("core_stats",)),
            Stage(name="stats34", fn=_stage_core_stats34,
                  inputs=("core_stats",)),
            Stage(name="strict_agreement", fn=_stage_core_agreement,
                  inputs=("core_stats",)),
            Stage(name="table2", fn=_stage_table2_table,
                  inputs=("table",)),
            Stage(name="correlations", fn=_stage_correlations_table,
                  inputs=("table",)),
            Stage(name="tree_features", fn=_stage_tree_features_table,
                  inputs=("table",)),
            Stage(name="centroids", fn=_stage_centroids_table,
                  inputs=("table",)),
            Stage(name="coverage", fn=_stage_coverage_table,
                  inputs=("table",)),
            Stage(name="prediction", fn=_stage_prediction_table,
                  inputs=("table",)),
            Stage(name="activity", fn=_stage_activity_table,
                  inputs=("table",)),
            Stage(name="change_mix", fn=_stage_change_mix_table,
                  inputs=("table",)),
            Stage(name="normality", fn=_stage_normality_table,
                  inputs=("table",)),
            Stage(name="tree", fn=_stage_tree,
                  inputs=("tree_features",)),
            Stage(name="tree_misclassified",
                  fn=_stage_tree_misclassified_table,
                  inputs=("tree", "tree_features", "table")),
        ]
    else:
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


# ----------------------------------------------------------------------
# plan builders


def records_map_stage(source: str = "corpus",
                      packed: bool = False) -> MapStage:
    """The per-project map stage.

    Args:
        source: ``"corpus"`` for generated projects (ground-truth
            pattern), ``"histories"`` for external histories (blind,
            tolerant classification).
        packed: also assemble the :class:`RecordTable` incrementally at
            harvest time and publish it as the secondary output
            ``table`` — the feed of the columnar analysis kernels.
            Records-only plans leave it off; caching is unaffected
            either way (packed rows never enter the result cache).
    """
    pack = dict(pack_fn=pack_record,
                pack_finish_fn=RecordTable.from_rows,
                pack_output="table") if packed else {}
    if source == "corpus":
        return MapStage(name="records", fn=corpus_record,
                        inputs=("projects", "scheme"),
                        version=RECORDS_STAGE_VERSION,
                        cache_key_fn=corpus_record_key,
                        transport_fn=strip_record,
                        item_transport_fn=strip_project, **pack)
    if source == "histories":
        return MapStage(name="records", fn=history_record,
                        inputs=("projects", "scheme"),
                        version=RECORDS_STAGE_VERSION,
                        cache_key_fn=history_record_key,
                        transport_fn=strip_record,
                        item_transport_fn=bare_history, **pack)
    raise AnalysisError(f"unknown records source {source!r}")


def build_records_plan(source: str = "corpus") -> StudyPlan:
    """A plan computing only the classified study records."""
    return StudyPlan([records_map_stage(source)])


def build_analysis_plan(columnar: bool = True) -> StudyPlan:
    """The corpus-level analyses, given precomputed records.

    The columnar backend packs the given records into a
    :class:`RecordTable` in one explicit stage, then runs the fused
    kernels; ``columnar=False`` runs the per-record oracles directly.
    """
    if columnar:
        return StudyPlan([
            Stage(name="table", fn=_stage_pack_table,
                  inputs=("records",)),
            *_analysis_stages(),
        ])
    return StudyPlan(_analysis_stages(columnar=False))


def build_study_plan(source: str = "corpus",
                     columnar: bool = True) -> StudyPlan:
    """The full study DAG: per-project map + every paper analysis.

    With the default columnar backend the map stage packs the table
    incrementally while it maps, so the analyses start from the flat
    columns without a second pass over the records.
    """
    return StudyPlan([records_map_stage(source, packed=columnar),
                      *_analysis_stages(columnar)])


def source_map_stage(packed: bool = False,
                     delta: bool = False) -> MapStage:
    """The per-project map stage over source handles.

    Unlike :func:`records_map_stage`, the mapped items are
    :class:`~repro.sources.base.SourceHandle`\\ s — (pid, fingerprint)
    pairs a few dozen bytes each — and the source object travels to
    workers once as a broadcast extra. No ``item_transport_fn`` is
    needed: there is nothing to strip from a handle. ``packed`` wires
    the harvest-time table pack exactly as in
    :func:`records_map_stage`. ``delta`` additionally broadcasts a
    checkpoint store (the ``delta_store`` initial input — a picklable
    path holder; workers read and write the checkpoint files
    themselves) and maps through :func:`source_record_delta`; version
    and cache keys are untouched, so delta and plain plans share the
    result cache.
    """
    pack = dict(pack_fn=pack_record,
                pack_finish_fn=RecordTable.from_rows,
                pack_output="table") if packed else {}
    if delta:
        return MapStage(name="records", fn=source_record_delta,
                        inputs=("handles", "source", "scheme",
                                "delta_store"),
                        version=RECORDS_STAGE_VERSION,
                        cache_key_fn=source_record_key,
                        transport_fn=strip_record, **pack)
    return MapStage(name="records", fn=source_record,
                    inputs=("handles", "source", "scheme"),
                    version=RECORDS_STAGE_VERSION,
                    cache_key_fn=source_record_key,
                    transport_fn=strip_record, **pack)


def build_source_records_plan(delta: bool = False) -> StudyPlan:
    """A plan computing only the records, from source handles."""
    return StudyPlan([source_map_stage(delta=delta)])


def build_source_study_plan(columnar: bool = True,
                            delta: bool = False) -> StudyPlan:
    """The full study DAG driven by source handles."""
    return StudyPlan([source_map_stage(packed=columnar, delta=delta),
                      *_analysis_stages(columnar)])


# ----------------------------------------------------------------------
# high-level entry points


def compute_records(projects: Iterable[Any],
                    config: StudyConfig | None = None,
                    source: str = "corpus",
                    session=None
                    ) -> tuple[list[StudyRecord], ExecutionReport]:
    """Run the per-project map stage over ``projects``."""
    config = config or StudyConfig()
    results, report = execute_plan(
        build_records_plan(source),
        {"projects": list(projects), "scheme": config.scheme},
        config, session=session)
    return list(results["records"]), report


def run_analyses(records: Sequence[StudyRecord],
                 config: StudyConfig | None = None,
                 session=None,
                 columnar: bool = True):
    """Run every corpus-level analysis over classified records.

    ``columnar=False`` selects the per-record oracle backend — same
    results, used by the differential tests and the scaling benchmark.

    Raises:
        AnalysisError: for an empty record list.
    """
    if not records:
        raise AnalysisError("cannot run the study on zero records")
    results, _ = execute_plan(build_analysis_plan(columnar),
                              {"records": tuple(records)}, config,
                              session=session)
    return results["results"]


def execute_study(projects: Iterable[Any],
                  config: StudyConfig | None = None,
                  source: str = "corpus",
                  session=None):
    """Run the whole study DAG: map + analyses, one plan execution.

    Returns:
        ``(StudyResults, ExecutionReport)``.

    Raises:
        AnalysisError: for an empty project list.
    """
    projects = list(projects)
    if not projects:
        raise AnalysisError("cannot run the study on zero records")
    config = config or StudyConfig()
    results, report = execute_plan(
        build_study_plan(source),
        {"projects": projects, "scheme": config.scheme},
        config, session=session)
    return results["results"], report


# ----------------------------------------------------------------------
# source-driven entry points


def source_handles(source) -> list:
    """One :class:`SourceHandle` per project of ``source``.

    Listing and fingerprinting stay in the parent process (they are
    cheap by protocol contract); loading does not happen here.
    """
    handles, _ = safe_source_handles(source, None)
    return handles


def safe_source_handles(source, policy=None
                        ) -> tuple[list, "list[ProjectFailure]"]:
    """Handles plus the projects whose fingerprinting failed.

    Fingerprinting runs in the parent, before the map stage — a git
    invocation can fail right here. Under a capturing error policy the
    failing project is quarantined (after the policy's retry budget,
    for transient errors) instead of killing the listing; with no
    policy, or fail-fast, the exception propagates unchanged.
    """
    from repro.sources.base import SourceHandle
    handles: list = []
    failures: list[ProjectFailure] = []
    for pid in source.project_ids():
        attempt = 0
        while True:
            attempt += 1
            try:
                handles.append(SourceHandle(
                    pid=pid, fingerprint=source.fingerprint(pid)))
                break
            except Exception as exc:
                if policy is None or not policy.captures:
                    raise
                if attempt < policy.attempts_for(exc):
                    delay = policy.backoff_seconds(pid, attempt)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                failures.append(ProjectFailure.from_exception(
                    pid, "handles", exc, attempts=attempt))
                break
    return handles, failures


def _legacy_inputs(source) -> list:
    """Every project of a non-lightweight source, loaded eagerly."""
    return [source.load(pid) for pid in source.project_ids()]


def _handle_feed(source, config: StudyConfig, session):
    """The map-stage feed of a lightweight source.

    Returns ``(feed, stream)``: the feed is the lazily enumerated
    :class:`~repro.engine.stream.HandleStream` itself (the executor
    pulls it under its bounded window), or — under ``config.sample`` —
    the deterministic sampled handle list drawn from it. The stream
    is returned alongside because its quarantined fingerprint
    failures are only complete once the feed has been consumed.
    """
    from repro.engine.stream import HandleStream, sample_handles
    stream = HandleStream(source, config.error_policy, session)
    if config.sample is None:
        return stream, stream
    feed = sample_handles(stream, config.sample, config.seed,
                          config.stratified, source=source)
    return feed, stream


def compute_records_from_source(source,
                                config: StudyConfig | None = None,
                                session=None
                                ) -> tuple[list[StudyRecord],
                                           ExecutionReport]:
    """Run the per-project map stage over a history source.

    Lightweight sources fan out as a streamed handle feed (workers
    load; the parent never materializes the handle list unless
    sampling); others fall back to the item-based plan — same
    results, and the legacy cache keys keep working for callers that
    adapt in-memory objects.
    """
    config = config or StudyConfig()
    if not source.lightweight:
        return compute_records(_legacy_inputs(source), config,
                               source.mode, session=session)
    from repro.engine.delta import delta_store_for
    store = delta_store_for(source, config)
    feed, stream = _handle_feed(source, config, session)
    results, report = execute_plan(
        build_source_records_plan(delta=store is not None),
        {"handles": feed, "source": source,
         "scheme": config.scheme, "delta_store": store},
        config, session=session, feed_failures=stream.failures)
    return list(results["records"]), report


def execute_study_from_source(source,
                              config: StudyConfig | None = None,
                              session=None):
    """Run the whole study DAG over a history source.

    Returns:
        ``(StudyResults, ExecutionReport)``.

    Raises:
        AnalysisError: for a source with zero projects.
    """
    config = config or StudyConfig()
    if not source.lightweight:
        return execute_study(_legacy_inputs(source), config,
                             source.mode, session=session)
    from repro.sources.base import source_count
    if source_count(source) == 0:
        raise AnalysisError("cannot run the study on zero records")
    from repro.engine.delta import delta_store_for
    store = delta_store_for(source, config)
    feed, stream = _handle_feed(source, config, session)
    results, report = execute_plan(
        build_source_study_plan(delta=store is not None),
        {"handles": feed, "source": source, "scheme": config.scheme,
         "delta_store": store},
        config, session=session, feed_failures=stream.failures)
    return results["results"], report
