"""End-to-end study driver.

Since the engine refactor this module is a thin compatibility facade:
the actual execution lives in :mod:`repro.engine.study_plan`, which
expresses the study as a stage DAG with parallel per-project mapping
and content-addressed caching. In-memory corpora and histories are
wrapped in an :class:`~repro.sources.base.InMemorySource` and map as
source handles, like every other source. :func:`records_from_corpus`,
:func:`records_from_histories` and :func:`run_study` keep their
historical signatures; :func:`run_full_study` is the engine-native
entry point that also returns per-stage timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.activity_relation import ActivityRelationResult
from repro.analysis.change_mix import ChangeMixResult
from repro.analysis.coverage import CoverageResult
from repro.analysis.normality import NormalityResult
from repro.analysis.prediction import PredictionResult
from repro.analysis.records import StudyRecord
from repro.analysis.stats_tables import Section34Stats, Table1Result
from repro.corpus.generator import Corpus
from repro.engine.config import StudyConfig
from repro.engine.executor import ExecutionReport
from repro.engine.study_plan import (
    compute_records_from_source,
    execute_study_from_source,
    run_analyses,
    tree_sample,
)
from repro.sources.base import InMemorySource
from repro.history.repository import SchemaHistory
from repro.labels.quantization import DEFAULT_SCHEME, LabelScheme
from repro.mining.centroids import CentroidReport
from repro.mining.decision_tree import DecisionTree
from repro.patterns.classifier import ClassificationResult  # noqa: F401
from repro.patterns.exceptions import ExceptionReport

#: The four defining features the Fig.-5 decision tree splits on.
TREE_FEATURES = ("birth_timing", "top_band_timing",
                 "interval_birth_to_top", "agm_bucket")

__all__ = [
    "StudyResults",
    "TREE_FEATURES",
    "records_from_corpus",
    "records_from_histories",
    "run_full_study",
    "run_full_study_from_source",
    "run_study",
]


def _tree_sample(record: StudyRecord) -> dict[str, str]:
    return tree_sample(record)


@dataclass(frozen=True)
class StudyResults:
    """Every quantitative artifact of the paper, computed on one corpus.

    Attributes:
        records: the classified study records.
        table1: label distribution (Table 1).
        stats34: §3.4 headline statistics.
        table2: exception/overlap accounting (Table 2).
        correlations: Spearman matrix over the time measures (Fig. 2).
        tree: the fitted decision tree (Fig. 5).
        tree_misclassified: names of projects the tree gets wrong.
        centroids: per-pattern centroid/MDC report (§5.2).
        coverage: active-domain coverage (Fig. 6).
        prediction: birth-month conditional probabilities (Fig. 7).
        activity: per-pattern activity statistics (§6.1).
        change_mix: change-type mixture (§6.3).
        normality: Shapiro–Wilk results (§3.4.1).
        strict_agreement: records whose strict definition-based
            classification equals their assigned pattern.
    """

    records: tuple[StudyRecord, ...]
    table1: Table1Result
    stats34: Section34Stats
    table2: ExceptionReport
    correlations: dict[tuple[str, str], float]
    tree: DecisionTree
    tree_misclassified: tuple[str, ...]
    centroids: CentroidReport
    coverage: CoverageResult
    prediction: PredictionResult
    activity: ActivityRelationResult
    change_mix: ChangeMixResult
    normality: NormalityResult
    strict_agreement: int

    @property
    def total(self) -> int:
        """Corpus size."""
        return len(self.records)


def _effective_config(config: StudyConfig | None,
                      scheme: LabelScheme) -> StudyConfig:
    """Resolve the (config, scheme) compatibility overlap.

    An explicit ``config`` wins; otherwise a serial no-cache config is
    built around the given scheme, matching the historical behavior.
    """
    if config is not None:
        return config
    return StudyConfig(scheme=scheme)


def records_from_corpus(corpus: Corpus,
                        scheme: LabelScheme = DEFAULT_SCHEME,
                        config: StudyConfig | None = None,
                        session=None) -> list[StudyRecord]:
    """Measure and label a generated corpus.

    The assigned pattern is the generator's ground truth — the synthetic
    counterpart of the paper's manual annotation; the exception flag is
    recomputed from the formal definitions (a project is an exception
    when its labels violate its assigned pattern's definition).

    Args:
        corpus: the generated corpus.
        scheme: quantization boundaries (ignored when ``config`` is
            given — the config's scheme applies).
        config: execution configuration (workers, cache, progress).
        session: optional :class:`~repro.engine.session.EngineSession`
            whose warm pool/cache/ledger the run should use.
    """
    records, _ = compute_records_from_source(
        InMemorySource(corpus.projects, mode="corpus"),
        _effective_config(config, scheme), session=session)
    return records


def records_from_histories(histories: Iterable[SchemaHistory],
                           scheme: LabelScheme = DEFAULT_SCHEME,
                           config: StudyConfig | None = None,
                           session=None) -> list[StudyRecord]:
    """Measure, label and *blindly* classify external histories."""
    records, _ = compute_records_from_source(
        InMemorySource(histories, mode="histories"),
        _effective_config(config, scheme), session=session)
    return records


def run_study(records: Sequence[StudyRecord],
              config: StudyConfig | None = None,
              session=None) -> StudyResults:
    """Run every analysis of the paper over classified records.

    Raises:
        AnalysisError: for an empty record list.
    """
    return run_analyses(records, config, session=session)


def run_full_study(corpus: Corpus,
                   config: StudyConfig | None = None,
                   session=None
                   ) -> tuple[StudyResults, ExecutionReport]:
    """Corpus in, complete study out — one engine plan execution.

    The per-project map runs on ``config.jobs`` workers and is served
    from ``config.cache_dir`` when warm; the returned report carries
    per-stage wall-clock timings and cache statistics. Under a
    skip/retry ``config.error_policy`` the analyses are computed over
    the surviving projects — mirroring how the paper computes over the
    151 survivors of its 195 mined histories — and every quarantined
    project is listed in ``report.failures``.

    Pass ``session`` (an :class:`~repro.engine.session.EngineSession`)
    to keep the worker pool, the cache's hot layer and the run ledger
    warm across repeated studies; without one, each call opens and
    closes a throwaway session (the historical one-shot behavior).

    Raises:
        AnalysisError: for an empty corpus.
    """
    return run_full_study_from_source(
        InMemorySource(corpus.projects, mode="corpus"), config,
        session=session)


def run_full_study_from_source(source,
                               config: StudyConfig | None = None,
                               session=None
                               ) -> tuple[StudyResults, ExecutionReport]:
    """Any history source in, complete study out.

    Every source streams to workers as handles. Lightweight sources
    (synthetic specs, corpus directories, git repositories) load
    lazily there — the executor keeps only a bounded window of work
    in flight, so handle-side memory stays flat no matter how many
    projects the source enumerates; in-memory sources ship each
    project once, attached to its handle.
    ``config.sample``/``config.stratified`` restrict the run to a
    deterministic seeded subset. Either way the returned pair matches
    :func:`run_full_study`, including the survivors-only semantics of
    skip/retry error policies and the optional warm ``session``.

    Raises:
        AnalysisError: for a source with zero projects.
    """
    return execute_study_from_source(source, config, session=session)
