"""Table-level timing analysis (extension; companion-study territory).

The paper's companion line of work ("Gravitating to rigidity", "Schema
evolution survival guide for tables") studies the same questions at the
granularity of individual *table lives*. With :func:`table_lives` in the
library, the corpus-level aggregates come for free; this module computes
them so the table-level traits can be cross-checked against the
schema-level patterns:

* the share of rigid tables (no post-birth change at all),
* rigidity conditioned on the birth quarter of the table,
* survival (share of tables alive at the end of their project),
* update intensity of the survivors.

Study records hold measured facts only, so the table lives are derived
from the source's histories, not from the records.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable

from repro.errors import AnalysisError
from repro.history.repository import SchemaHistory
from repro.metrics.tables import TableLife, table_lives


@dataclass(frozen=True)
class TableLevelResult:
    """Corpus-wide table-life statistics.

    Attributes:
        total_lives: number of table lives across the corpus.
        rigid_share: share of lives with zero post-birth change.
        alive_share: share of lives that survive to the project's end.
        rigidity_by_birth_quarter: rigid share per quarter of project
            life the table was born in (4 values).
        median_updates_active: median update events among the tables
            that did change.
        median_birth_size: median attributes at table creation.
    """

    total_lives: int
    rigid_share: float
    alive_share: float
    rigidity_by_birth_quarter: tuple[float, float, float, float]
    median_updates_active: float
    median_birth_size: float


def _birth_quarter(life: TableLife, pup_months: int) -> int:
    if pup_months <= 1:
        return 0
    pct = life.birth_month / (pup_months - 1)
    return min(int(pct * 4), 3)


def compute_table_level(histories: Iterable[SchemaHistory]
                        ) -> TableLevelResult:
    """Aggregate table lives over a corpus of schema histories.

    Raises:
        AnalysisError: for an empty corpus or a corpus without any table.
    """
    lives: list[TableLife] = []
    quarters: list[int] = []
    for history in histories:
        project_lives = table_lives(history)
        lives.extend(project_lives)
        quarters.extend(_birth_quarter(l, history.pup_months)
                        for l in project_lives)
    if not lives:
        raise AnalysisError("no table lives in the given histories")

    rigid_flags = [life.update_events == 0 for life in lives]
    per_quarter: list[list[bool]] = [[], [], [], []]
    for quarter, rigid in zip(quarters, rigid_flags):
        per_quarter[quarter].append(rigid)
    quarter_shares = tuple(
        (sum(flags) / len(flags)) if flags else 0.0
        for flags in per_quarter)
    active_updates = [life.update_events for life in lives
                      if life.update_events > 0]
    return TableLevelResult(
        total_lives=len(lives),
        rigid_share=sum(rigid_flags) / len(lives),
        alive_share=sum(1 for l in lives if l.is_alive) / len(lives),
        rigidity_by_birth_quarter=quarter_shares,
        median_updates_active=(statistics.median(active_updates)
                               if active_updates else 0.0),
        median_birth_size=statistics.median(l.birth_size for l in lives),
    )
