"""Joint schema/source evolution measures (extension; cf. paper [45]).

The paper's closest prior work studies how schema and source code
co-evolve. Our corpus pairs every schema heartbeat with a (synthetic)
source-code series, so the joint measures can be computed — with the
explicit caveat that the source side carries no real signal beyond its
construction (spread over the whole project, first/last month active).
The measures themselves are the real deliverable: point them at real
paired histories and they report the paper-[45]-style facts.

The source series come from the source's projects
(:attr:`~repro.corpus.generator.GeneratedProject.source`), keyed by
project name: study records hold the schema side only.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.records import StudyRecord
from repro.errors import AnalysisError
from repro.history.heartbeat import ActivitySeries
from repro.mining.correlation import spearman_rho


@dataclass(frozen=True)
class CoevolutionRow:
    """Joint schema/source measures of one project.

    Attributes:
        name: project name.
        schema_birth_lag_months: months between project start (first
            source activity) and schema birth.
        schema_source_overlap: share of schema-active months that are
            also source-active.
        activity_rho: Spearman correlation of the two monthly series
            (NaN when either side is constant).
        source_active_share: share of months with source activity.
        schema_active_share: share of months with schema activity.
    """

    name: str
    schema_birth_lag_months: int
    schema_source_overlap: float
    activity_rho: float
    source_active_share: float
    schema_active_share: float


@dataclass(frozen=True)
class CoevolutionResult:
    """Corpus-level aggregates of the joint measures.

    Attributes:
        rows: per-project measures (projects with a source series only).
        median_birth_lag: median schema-birth lag in months.
        median_overlap: median schema/source overlap share.
        share_born_with_project: projects whose schema is born in the
            project's first month.
    """

    rows: tuple[CoevolutionRow, ...]
    median_birth_lag: float
    median_overlap: float
    share_born_with_project: float


def _project_row(record: StudyRecord,
                 source: ActivitySeries) -> CoevolutionRow:
    schema = record.profile.heartbeat
    months = schema.months
    schema_active = set(schema.active_month_indices)
    source_active = set(source.active_month_indices)
    overlap = (len(schema_active & source_active) / len(schema_active)
               if schema_active else 0.0)
    rho = spearman_rho(list(schema.monthly), list(source.monthly)) \
        if months >= 2 else float("nan")
    return CoevolutionRow(
        name=record.name,
        schema_birth_lag_months=record.profile.birth_month,
        schema_source_overlap=overlap,
        activity_rho=rho,
        source_active_share=len(source_active) / months,
        schema_active_share=len(schema_active) / months,
    )


def compute_coevolution(records: Sequence[StudyRecord],
                        sources: Mapping[str, ActivitySeries]
                        ) -> CoevolutionResult:
    """Compute the joint schema/source measures over a corpus.

    Args:
        records: the study records (the schema side).
        sources: project name → source-code activity series; records
            without an entry are left out.

    Raises:
        AnalysisError: when no record has a source series.
    """
    rows = [_project_row(record, sources[record.name])
            for record in records if record.name in sources]
    if not rows:
        raise AnalysisError("no project carries a source-code series")
    return CoevolutionResult(
        rows=tuple(rows),
        median_birth_lag=statistics.median(
            r.schema_birth_lag_months for r in rows),
        median_overlap=statistics.median(
            r.schema_source_overlap for r in rows),
        share_born_with_project=sum(
            1 for r in rows if r.schema_birth_lag_months == 0)
        / len(rows),
    )
