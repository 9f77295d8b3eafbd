"""Columnar pack of classified study records (the analysis backend).

The corpus-level analyses of the paper (Tables 1/2, §3.4, Fig. 2/5/6/7,
§6.1/§6.3) historically ran as a dozen independent passes over
:class:`~repro.analysis.records.StudyRecord` objects, each pass chasing
the same ``record.labeled.profile.landmarks...`` attribute chains. This
module mirrors the columnar timeline kernels of the diff layer
(``KIND_ORDER``/``KIND_INDEX`` flat tuples) one level up: a
:class:`RecordTable` is the whole corpus flattened into dense columns —
pattern and label enums as small-int index columns, the Fig.-2 measure
vector as float columns, per-record change-kind count rows, interned
names — over which the analysis stages run as fused kernels.

A record flattens to one :class:`PackedRecord` row
(:func:`pack_record`), and :meth:`RecordTable.from_records` packs a
record list in one pass — the study plan's ``table`` stage, which runs
once, in the parent, after the map. Rows round-trip:
``RecordTable.from_rows(rows).unpack() == list(rows)``.

Packing never feeds the result cache — cache keys and payloads are
untouched — so cold, warm and mixed runs pack the same table from the
same records.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from repro import obs
from repro.analysis.records import MEASURE_NAMES, StudyRecord
from repro.analysis.stats_tables import TABLE1_ROWS
from repro.diff.changes import N_KINDS
from repro.patterns.taxonomy import Pattern, REAL_PATTERNS

#: Dense pattern index table, the corpus-level analog of ``KIND_INDEX``:
#: every pattern in declaration order, ``UNCLASSIFIED`` last.
PATTERN_ORDER: tuple[Pattern, ...] = tuple(Pattern)

PATTERN_INDEX: dict[Pattern, int] = {
    pattern: index for index, pattern in enumerate(PATTERN_ORDER)
}

#: ``PATTERN_ORDER[i].value`` memoized — kernels emit label strings
#: without touching the enum.
PATTERN_VALUES: tuple[str, ...] = tuple(p.value for p in PATTERN_ORDER)

UNCLASSIFIED_INDEX = PATTERN_INDEX[Pattern.UNCLASSIFIED]

#: Pattern index -> position in ``REAL_PATTERNS`` (the paper's Table-2
#: order, which differs from declaration order); no entry for
#: ``UNCLASSIFIED``.
REAL_POSITION: dict[int, int] = {
    PATTERN_INDEX[pattern]: position
    for position, pattern in enumerate(REAL_PATTERNS)
}

#: The seven label columns as (LabeledProfile attribute, enum class),
#: derived from ``TABLE1_ROWS`` so the fused Table-1 kernel can zip the
#: two without an order mismatch ever being possible.
LABEL_COLUMNS: tuple[tuple[str, type], ...] = tuple(
    (attr, enum_cls) for _, enum_cls, attr in TABLE1_ROWS)

#: Per label column: enum member -> dense index (declaration order).
LABEL_INDEX: tuple[dict, ...] = tuple(
    {member: index for index, member in enumerate(enum_cls)}
    for _, enum_cls in LABEL_COLUMNS)

#: Per label column: dense index -> ``member.value`` string.
LABEL_VALUES: tuple[tuple[str, ...], ...] = tuple(
    tuple(member.value for member in enum_cls)
    for _, enum_cls in LABEL_COLUMNS)

N_LABELS = len(LABEL_COLUMNS)
N_MEASURES = len(MEASURE_NAMES)

#: One multi-attribute getter pulling all seven label members off a
#: LabeledProfile in a single C-level call (pack hot loop).
_LABEL_MEMBERS = attrgetter(*(attr for attr, _ in LABEL_COLUMNS))


class PackedRecord(NamedTuple):
    """One study record flattened to plain scalars and flat tuples.

    This is the row of :class:`RecordTable`. Everything an analysis
    kernel reads is here; nothing else (history, heartbeat, parse
    caches) is.

    Attributes:
        name: project name.
        pattern: dense index into :data:`PATTERN_ORDER`.
        is_exception: the record's exception flag. Because
            classification sets ``is_exception`` if and only if the
            strict definition-based classification disagrees with the
            assigned pattern (for corpus, history and tolerant paths
            alike), this column also answers strict agreement without
            re-classifying.
        labels: the seven label-enum dense indexes, in
            :data:`LABEL_COLUMNS` (= Table 1) order.
        measures: the eight Fig.-2 measures, in ``MEASURE_NAMES`` order.
        birth_month: absolute schema-birth month (Fig.-7 bucketing).
        interval_birth_to_top_months: the §3.4 growth interval.
        has_vault: landmark vault flag.
        active_growth_months: AGM as the label layer carries it
            (agm bucketing for the tree and Fig. 6).
        pup_months: project update period (§6.1 median duration).
        total_activity / post_birth_activity / expansion / maintenance /
            schema_size_at_birth: the §6.1 activity aggregates.
        kind_counts: lifetime events per change kind — the record's
            kind-count row, ``KIND_ORDER`` aligned (§6.3).
        expansion_fraction: the breakdown's expansion share (§6.3).
        post_birth_kinds: distinct change kinds used outside the birth
            month — the per-record reduction of the month×kind count
            rows; monothematy is ``post_birth_kinds <= 1``.
        vector: the 20-point cumulative-progress vector (§5.2).
    """

    name: str
    pattern: int
    is_exception: bool
    labels: tuple[int, ...]
    measures: tuple[float, ...]
    birth_month: int
    interval_birth_to_top_months: int
    has_vault: bool
    active_growth_months: int
    pup_months: int
    total_activity: int
    post_birth_activity: int
    expansion: int
    maintenance: int
    schema_size_at_birth: int
    kind_counts: tuple[int, ...]
    expansion_fraction: float
    post_birth_kinds: int
    vector: tuple[float, ...]


def _post_birth_kinds(profile) -> int:
    """Distinct change kinds used outside the birth month.

    The per-record reduction of the month×kind count rows that
    :func:`repro.analysis.change_mix._is_monothematic` walks; computing
    it at pack time lets the fused §6.3 kernel answer monothematy with
    a single integer comparison per record. Instead of re-walking the
    months, it exploits ``totals.breakdown`` being *exactly* the sum of
    the monthly breakdowns: a kind was used outside birth iff its
    project total exceeds its birth-month count — O(kinds), not
    O(months × kinds).
    """
    series = profile.heartbeat
    if series.breakdowns is None:
        return 0
    birth_flat = series.breakdowns[profile.birth_month].flat
    total_flat = profile.totals.breakdown.flat
    return sum(1 for total, born in zip(total_flat, birth_flat)
               if total > born)


def pack_record(record: StudyRecord) -> PackedRecord:
    """Flatten one study record into its table row.

    Each row counts as ``pack_rows`` in :mod:`repro.obs`, so
    ``--timings`` attributes packing work to the stage that did it.
    """
    labeled = record.labeled
    profile = labeled.profile
    marks = profile.landmarks
    totals = profile.totals
    obs.count("pack_rows")
    return PackedRecord(
        name=record.name,
        pattern=PATTERN_INDEX[record.pattern],
        is_exception=record.is_exception,
        labels=tuple(map(dict.__getitem__, LABEL_INDEX,
                         _LABEL_MEMBERS(labeled))),
        measures=(
            marks.birth_volume_fraction,
            marks.birth_pct,
            marks.top_band_pct,
            marks.interval_birth_to_top_pct,
            marks.interval_top_to_end_pct,
            float(marks.active_growth_months),
            marks.active_pct_growth,
            marks.active_pct_pup,
        ),
        birth_month=marks.birth_month,
        interval_birth_to_top_months=marks.interval_birth_to_top_months,
        has_vault=marks.has_vault,
        active_growth_months=labeled.active_growth_months,
        pup_months=marks.pup_months,
        total_activity=totals.total_activity,
        post_birth_activity=totals.post_birth_activity,
        expansion=totals.expansion,
        maintenance=totals.maintenance,
        schema_size_at_birth=totals.schema_size_at_birth,
        kind_counts=totals.breakdown.flat,
        expansion_fraction=totals.breakdown.expansion_fraction,
        post_birth_kinds=_post_birth_kinds(profile),
        vector=profile.vector,
    )


@dataclass(frozen=True)
class RecordTable:
    """The corpus as flat columns, one entry per surviving record.

    Column-oriented twin of a ``StudyRecord`` list: every attribute an
    analysis kernel reads is a dense tuple indexed by record position
    (the map stage's item order, survivors only), so a corpus-level
    statistic is one tight loop over machine scalars instead of N
    attribute chains through five nested objects.

    Attributes:
        names: interned project names.
        pattern: dense :data:`PATTERN_ORDER` indexes.
        is_exception: exception flags (`True` iff strict classification
            disagrees with the assigned pattern — see
            :class:`PackedRecord`).
        labels: seven label-index columns, :data:`LABEL_COLUMNS` order.
        measures: eight measure columns, ``MEASURE_NAMES`` order.
        birth_month / interval_birth_to_top_months / has_vault /
            active_growth_months / pup_months: landmark columns.
        total_activity / post_birth_activity / expansion / maintenance /
            schema_size_at_birth: activity-total columns.
        kind_counts: row-major flat kind counts — record ``i`` owns
            ``kind_counts[i * N_KINDS : (i + 1) * N_KINDS]``.
        expansion_fraction: per-record expansion share.
        post_birth_kinds: distinct post-birth change kinds per record.
        vectors: the 20-point §5.2 vectors.
    """

    names: tuple[str, ...]
    pattern: tuple[int, ...]
    is_exception: tuple[bool, ...]
    labels: tuple[tuple[int, ...], ...]
    measures: tuple[tuple[float, ...], ...]
    birth_month: tuple[int, ...]
    interval_birth_to_top_months: tuple[int, ...]
    has_vault: tuple[bool, ...]
    active_growth_months: tuple[int, ...]
    pup_months: tuple[int, ...]
    total_activity: tuple[int, ...]
    post_birth_activity: tuple[int, ...]
    expansion: tuple[int, ...]
    maintenance: tuple[int, ...]
    schema_size_at_birth: tuple[int, ...]
    kind_counts: tuple[int, ...]
    expansion_fraction: tuple[float, ...]
    post_birth_kinds: tuple[int, ...]
    vectors: tuple[tuple[float, ...], ...]

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def from_rows(cls, rows: Iterable[PackedRecord]) -> "RecordTable":
        """Assemble packed rows, in record order, into one table.

        Empty input yields a valid zero-length table.
        """
        rows = list(rows)
        if not rows:
            return cls(
                names=(), pattern=(), is_exception=(),
                labels=((),) * N_LABELS, measures=((),) * N_MEASURES,
                birth_month=(), interval_birth_to_top_months=(),
                has_vault=(), active_growth_months=(), pup_months=(),
                total_activity=(), post_birth_activity=(), expansion=(),
                maintenance=(), schema_size_at_birth=(), kind_counts=(),
                expansion_fraction=(), post_birth_kinds=(), vectors=())
        return cls(
            names=tuple(sys.intern(row.name) for row in rows),
            pattern=tuple(row.pattern for row in rows),
            is_exception=tuple(row.is_exception for row in rows),
            labels=tuple(zip(*(row.labels for row in rows))),
            measures=tuple(zip(*(row.measures for row in rows))),
            birth_month=tuple(row.birth_month for row in rows),
            interval_birth_to_top_months=tuple(
                row.interval_birth_to_top_months for row in rows),
            has_vault=tuple(row.has_vault for row in rows),
            active_growth_months=tuple(
                row.active_growth_months for row in rows),
            pup_months=tuple(row.pup_months for row in rows),
            total_activity=tuple(row.total_activity for row in rows),
            post_birth_activity=tuple(
                row.post_birth_activity for row in rows),
            expansion=tuple(row.expansion for row in rows),
            maintenance=tuple(row.maintenance for row in rows),
            schema_size_at_birth=tuple(
                row.schema_size_at_birth for row in rows),
            kind_counts=tuple(
                value for row in rows for value in row.kind_counts),
            expansion_fraction=tuple(
                row.expansion_fraction for row in rows),
            post_birth_kinds=tuple(row.post_birth_kinds for row in rows),
            vectors=tuple(row.vector for row in rows),
        )

    @classmethod
    def from_records(cls, records: Sequence[StudyRecord]
                     ) -> "RecordTable":
        """Pack a record list in one go (the ``table`` stage)."""
        return cls.from_rows(pack_record(record) for record in records)

    def unpack(self) -> list[PackedRecord]:
        """The table back as rows — inverse of :meth:`from_rows`."""
        return [
            PackedRecord(
                name=self.names[i],
                pattern=self.pattern[i],
                is_exception=self.is_exception[i],
                labels=tuple(column[i] for column in self.labels),
                measures=tuple(column[i] for column in self.measures),
                birth_month=self.birth_month[i],
                interval_birth_to_top_months=self
                .interval_birth_to_top_months[i],
                has_vault=self.has_vault[i],
                active_growth_months=self.active_growth_months[i],
                pup_months=self.pup_months[i],
                total_activity=self.total_activity[i],
                post_birth_activity=self.post_birth_activity[i],
                expansion=self.expansion[i],
                maintenance=self.maintenance[i],
                schema_size_at_birth=self.schema_size_at_birth[i],
                kind_counts=self.kind_row(i),
                expansion_fraction=self.expansion_fraction[i],
                post_birth_kinds=self.post_birth_kinds[i],
                vector=self.vectors[i],
            )
            for i in range(len(self))
        ]

    def kind_row(self, index: int) -> tuple[int, ...]:
        """Record ``index``'s per-kind lifetime event counts."""
        offset = index * N_KINDS
        return self.kind_counts[offset:offset + N_KINDS]

    def measure_map(self) -> dict[str, tuple[float, ...]]:
        """The measure columns keyed by name, ``MEASURE_NAMES`` order —
        the columnar stand-in for :func:`measures_of`."""
        return dict(zip(MEASURE_NAMES, self.measures))
