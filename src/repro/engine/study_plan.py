"""The paper's study expressed as a declarative stage DAG.

Two plans are built here:

* the **records plan** — one :class:`~repro.engine.stage.MapStage`
  turning each source handle into a classified
  :class:`~repro.analysis.records.StudyRecord`: history → profile →
  labels → classification. Embarrassingly parallel and content-cached.
  Every source — synthetic, corpus directory, git checkout or
  in-memory objects — maps through it.
* the **analysis plan** — the corpus-level stages of the paper
  (Tables 1/2, §3.4, Fig. 2 correlations, the Fig. 5 tree, §5.2
  centroids, Fig. 6 coverage, Fig. 7 prediction, §6.1 activity, §6.3
  change mix, §3.4.1 normality, strict agreement) assembled into one
  :class:`~repro.study.pipeline.StudyResults` bundle.

Every analysis is a fused kernel over the
:class:`~repro.analysis.table.RecordTable` — the flat column pack that
the ``table`` stage builds once from the surviving records — with
Table 1, the §3.4 statistics and strict agreement fused into one pass
over the label columns. The ``table`` stage is the only place a table
is built: both plans run it just before the analyses, and the study
plan right after its map. The original object-walking implementations
live on as the differential oracle in
``tests/analysis/per_record_oracle.py``: both produce byte-identical
:class:`StudyResults`, and the golden/differential tests hold them to
it.

All stage bodies are module-level functions so the process backend can
pickle them by reference.
"""

from __future__ import annotations

import copy
import dataclasses
import statistics
from typing import NamedTuple, Sequence

from repro.analysis.activity_relation import (
    ActivityRelationResult,
    ActivityRow,
)
from repro.analysis.change_mix import (
    TABLE_GRANULE_INDEXES,
    ChangeMixResult,
    ChangeMixRow,
)
from repro.analysis.coverage import (
    CoverageResult,
    agm_bucket,
)
from repro.analysis.normality import normality_of
from repro.analysis.prediction import (
    PredictionResult,
    birth_bucket,
)
from repro.analysis.records import StudyRecord
from repro.analysis.stats_tables import (
    TABLE1_ROWS,
    Section34Stats,
    Table1Result,
)
from repro.analysis.table import (
    LABEL_INDEX,
    LABEL_VALUES,
    PATTERN_ORDER,
    PATTERN_VALUES,
    REAL_POSITION,
    UNCLASSIFIED_INDEX,
    RecordTable,
)
from repro.diff.changes import KIND_ORDER, N_KINDS
from repro.engine.cache import fingerprint
from repro.engine.config import StudyConfig
from repro.engine.executor import ExecutionReport, execute_plan
from repro.engine.stage import MapStage, Stage, StudyPlan
from repro.errors import AnalysisError
from repro.history.repository import SchemaHistory
from repro.labels.classes import BirthVolumeClass
from repro.labels.quantization import LabelScheme, label_profile
from repro.metrics.profile import ProjectProfile
from repro.mining.centroids import centroid_report
from repro.mining.correlation import spearman_matrix_ranked
from repro.mining.decision_tree import DecisionTree
from repro.patterns.classifier import (
    classify,
    classify_with_tolerance,
)
from repro.patterns.exceptions import ExceptionReport
from repro.patterns.taxonomy import Pattern, REAL_PATTERNS

#: Bump when the history → record computation changes observably; this
#: invalidates every cached StudyRecord (the cache key mixes it in).
#: "2": columnar ChangeBreakdown — cached record pickles changed shape.
#: "3": profiles no longer carry ``history`` or ``source`` — a cached
#: record from "2" would unpickle with fields the class lacks.
RECORDS_STAGE_VERSION = "3"


# ----------------------------------------------------------------------
# per-project map stage


def corpus_record(project, scheme: LabelScheme) -> StudyRecord:
    """Measure, label and strictly check one generated project.

    The assigned pattern is the generator's ground truth — the synthetic
    counterpart of the paper's manual annotation; the exception flag is
    recomputed from the formal definitions.
    """
    profile = ProjectProfile.from_history(project.history)
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


def bare_history(history: SchemaHistory) -> SchemaHistory:
    """A shallow copy of ``history`` without its parsed-version cache."""
    if history._versions is None:
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
    """``record`` as it is pickled: records hold no derived caches, so
    this is the identity (kept for callers sizing what a worker ships).
    """
    return record


def strip_handle(handle):
    """A copy of a handle whose attached project is stripped (pre-pickle).

    Handles of lightweight sources carry no project and pass through.
    """
    item = handle.item
    if item is None:
        return handle
    bare = bare_history(item) if isinstance(item, SchemaHistory) \
        else strip_project(item)
    if bare is item:
        return handle
    return dataclasses.replace(handle, item=bare)


def source_record(handle, source, scheme: LabelScheme) -> StudyRecord:
    """Load one project from its source and turn it into a record.

    This is the worker side of the handle-based fan-out: the engine
    ships only ``(handle, source)``. For a lightweight source — a
    path-or-spec object — the expensive materialization (generation,
    file parsing, git extraction) happens here, in whichever process
    runs the item; other sources' handles arrive with the project
    attached. Dispatch follows ``source.mode``: ``"corpus"`` loads
    carry ground truth, ``"histories"`` loads are classified blindly.
    """
    loaded = handle.item if handle.item is not None \
        else source.load(handle.pid)
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
    so the *next* growth is O(K). A full compute that yields no
    checkpoint (a migration-style history) drops the stored one, which
    could never serve again. Results are byte-identical across every
    path; projects whose fingerprint did not move at all are
    result-cache hits and never reach this function.
    """
    from repro.engine import delta as delta_mod
    if store is None:
        return source_record(handle, source, scheme)
    if source.mode == "corpus":
        mode = "corpus"
        loaded = source.load(handle.pid)
        history = loaded.history
        chain = delta_mod.commit_chain(history.commits)
        served = delta_mod.serve_corpus_delta(store, handle.pid,
                                              loaded, chain, scheme)
        if served is not None:
            return served
        record = corpus_record(loaded, scheme)
    else:
        mode = "histories"
        chain = source.version_chain(handle.pid)
        served = delta_mod.serve_history_delta(store, handle.pid, source,
                                               chain, scheme)
        if served is not None:
            return served
        history = source.load(handle.pid)
        record = history_record(history, scheme)
    checkpoint = delta_mod.capture_checkpoint(
        handle.pid, mode, history, record, chain)
    if checkpoint is None:
        store.discard(handle.pid, mode)
    else:
        store.save(checkpoint)
    return record


# ----------------------------------------------------------------------
# corpus-level analysis stages — fused kernels over the RecordTable


def tree_sample(record: StudyRecord) -> dict[str, str]:
    """The four Fig.-5 features of one record."""
    labeled = record.labeled
    return {
        "birth_timing": labeled.birth_timing.value,
        "top_band_timing": labeled.top_band_timing.value,
        "interval_birth_to_top": labeled.interval_birth_to_top.value,
        "agm_bucket": agm_bucket(labeled.active_growth_months),
    }


#: Dense birth-volume label indexes the §3.4 kernel compares against.
_BV_HIGH = LABEL_INDEX[0][BirthVolumeClass.HIGH]
_BV_FULL = LABEL_INDEX[0][BirthVolumeClass.FULL]


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


def _stage_tree(features):
    samples, labels = features
    return DecisionTree(max_depth=4).fit(samples, labels)


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


def _analysis_stages() -> list[Stage]:
    """The corpus-level stages of :func:`run_study`, as a DAG.

    Every analysis is a fused kernel over the ``table`` value, which
    :func:`_table_stage` produces; Table 1, §3.4 and strict agreement
    share one ``core_stats`` pass, split back into their historical
    stage names by three unpacking stages so reports and
    ``timing(...)`` lookups keep working.
    """
    return [
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
        Stage(name="results", fn=_stage_results,
              inputs=("records", "table1", "stats34", "table2",
                      "correlations", "tree", "tree_misclassified",
                      "centroids", "coverage", "prediction", "activity",
                      "change_mix", "normality", "strict_agreement")),
    ]


def _table_stage() -> Stage:
    """The stage packing the surviving ``records`` into the
    :class:`RecordTable` every analysis reads, once, after the map."""
    return Stage(name="table", fn=RecordTable.from_records,
                 inputs=("records",))


# ----------------------------------------------------------------------
# plan builders


def build_analysis_plan() -> StudyPlan:
    """The corpus-level analyses, given precomputed records."""
    return StudyPlan([_table_stage(), *_analysis_stages()])


def source_map_stage(delta: bool = False) -> MapStage:
    """The per-project map stage over source handles.

    The mapped items are :class:`~repro.sources.base.SourceHandle`\\ s
    — (pid, fingerprint) pairs a few dozen bytes each, plus the
    project itself for a source that is not lightweight — and the
    source object travels to workers as a broadcast extra.
    :func:`strip_handle` sheds an attached project's parse cache
    before its handle is pickled. ``delta`` additionally broadcasts a
    checkpoint store (the ``delta_store`` initial input — a picklable
    path holder; workers read and write the checkpoint files
    themselves) and maps through :func:`source_record_delta`; version
    and cache keys are untouched, so delta and plain plans share the
    result cache.
    """
    fn, inputs = source_record, ("handles", "source", "scheme")
    if delta:
        fn, inputs = source_record_delta, (*inputs, "delta_store")
    return MapStage(name="records", fn=fn, inputs=inputs,
                    version=RECORDS_STAGE_VERSION,
                    cache_key_fn=source_record_key,
                    item_transport_fn=strip_handle)


def build_source_records_plan(delta: bool = False) -> StudyPlan:
    """A plan computing only the records, from source handles."""
    return StudyPlan([source_map_stage(delta=delta)])


def build_source_study_plan(delta: bool = False) -> StudyPlan:
    """The full study DAG driven by source handles: the map, then the
    ``table`` stage, then the analyses."""
    return StudyPlan([source_map_stage(delta=delta), _table_stage(),
                      *_analysis_stages()])


# ----------------------------------------------------------------------
# high-level entry points


def run_analyses(records: Sequence[StudyRecord],
                 config: StudyConfig | None = None,
                 session=None):
    """Run every corpus-level analysis over classified records.

    Raises:
        AnalysisError: for an empty record list.
    """
    if not records:
        raise AnalysisError("cannot run the study on zero records")
    results, _ = execute_plan(build_analysis_plan(),
                              {"records": tuple(records)}, config,
                              session=session)
    return results["results"]


def _handle_feed(source, config: StudyConfig):
    """The map-stage feed of a source.

    Returns ``(feed, stream)``: the feed is the lazily enumerated
    :class:`~repro.engine.stream.HandleStream` itself (the executor
    pulls it under its bounded window), or — under ``config.sample`` —
    the deterministic sampled handle list drawn from it. The stream
    is returned alongside because its quarantined fingerprint
    failures are only complete once the feed has been consumed.
    """
    from repro.engine.stream import HandleStream, sample_handles
    stream = HandleStream(source, config.error_policy)
    if config.sample is None:
        return stream, stream
    feed = sample_handles(stream, config.sample, config.seed,
                          config.stratified, source=source)
    return feed, stream


def _execute_source_plan(build, source, config: StudyConfig, session):
    """Execute ``build(delta=...)`` over ``source``'s handle feed."""
    from repro.engine.delta import delta_store_for
    store = delta_store_for(source, config)
    feed, stream = _handle_feed(source, config)
    return execute_plan(
        build(delta=store is not None),
        {"handles": feed, "source": source, "scheme": config.scheme,
         "delta_store": store},
        config, session=session, feed_failures=stream.failures)


def compute_records_from_source(source,
                                config: StudyConfig | None = None,
                                session=None
                                ) -> tuple[list[StudyRecord],
                                           ExecutionReport]:
    """Run the per-project map stage over a history source.

    The source fans out as a streamed handle feed: the parent never
    materializes the handle list unless sampling.
    """
    results, report = _execute_source_plan(
        build_source_records_plan, source, config or StudyConfig(),
        session)
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
    from repro.sources.base import source_count
    if source_count(source) == 0:
        raise AnalysisError("cannot run the study on zero records")
    results, report = _execute_source_plan(
        build_source_study_plan, source, config or StudyConfig(),
        session)
    return results["results"], report
