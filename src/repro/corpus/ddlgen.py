"""Realize a landmark plan as a real DDL commit history.

The :class:`DdlScribe` keeps a synthetic schema state and applies, per
scheduled month, operations worth *exactly* the planned number of
affected attributes; after every active month it snapshots the whole
schema as a full ``.sql`` dump — the commit format of the paper's dataset.

Exactness rules (so the measured diff equals the plan):

* creations worth ``k`` units add a table with ``k`` columns, or inject
  single columns;
* maintenance units eject columns, change types, toggle FK participation
  or drop whole tables — always on material that existed *before* this
  month, and never touching the same attribute twice within one month
  (two touches would collapse into fewer measured events).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime

from repro.corpus.planner import LandmarkPlan
from repro.corpus.templates import (
    changed_type,
    column_name_pool,
    fresh_column_type,
    table_name_pool,
)
from repro.errors import CorpusError
from repro.history.commit import Commit
from repro.history.repository import SchemaHistory
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.writer import write_statement


@dataclass
class _ColumnSpec:
    name: str
    data_type: ast.DataType
    not_null: bool = False
    is_pk: bool = False
    fk_target: str | None = None  # table name referenced, or None


@dataclass
class _TableSpec:
    name: str
    columns: list[_ColumnSpec] = field(default_factory=list)
    column_pool: object = None
    # Rendered ``CREATE TABLE ...;`` of the current state; every
    # mutation of ``columns`` or of a column clears it.
    text: str | None = None

    def column(self, name: str) -> _ColumnSpec | None:
        for col in self.columns:
            if col.name == name:
                return col
        return None


class DdlScribe:
    """Synthesizes an evolving schema, one month of operations at a time.

    Args:
        rng: seeded random generator.
        dialect: dialect of the emitted SQL text.
    """

    def __init__(self, rng: random.Random,
                 dialect: Dialect = Dialect.GENERIC):
        self._rng = rng
        self._dialect = dialect
        self._tables: dict[str, _TableSpec] = {}
        self._order: list[str] = []
        self._table_pool = table_name_pool(rng)
        # Per-month bookkeeping (reset by begin_month).
        self._preexisting: set[str] = set()
        self._touched: set[tuple[str, str]] = set()
        self._dropped_this_month: set[str] = set()
        self._month_statements: list[ast.Statement] = []

    # ------------------------------------------------------------------
    # month lifecycle

    def begin_month(self) -> None:
        """Start a month: snapshot which material is fair game for
        maintenance operations."""
        self._preexisting = set(self._order)
        self._touched = set()
        self._dropped_this_month = set()
        self._month_statements = []

    def apply_units(self, units: int, maintenance_bias: float,
                    birth: bool = False) -> None:
        """Apply operations worth exactly ``units`` affected attributes.

        Args:
            units: planned attribute units for this month (> 0).
            maintenance_bias: probability mass of maintenance operations.
            birth: True for the birth month (creations only).
        """
        remaining = units
        while remaining > 0:
            do_maintenance = (not birth
                              and self._rng.random() < maintenance_bias)
            spent = 0
            if do_maintenance:
                spent = self._try_maintenance(remaining)
            if spent == 0:
                spent = self._do_expansion(remaining, birth)
            remaining -= spent

    # ------------------------------------------------------------------
    # expansion operations

    def _do_expansion(self, remaining: int, birth: bool) -> int:
        """Add a table or inject a column; returns units spent (>= 1)."""
        add_table = (birth or not self._order
                     or (remaining >= 2 and self._rng.random() < 0.6))
        if add_table:
            size = min(remaining, self._rng.randint(2, 9)) \
                if remaining > 1 else 1
            self._create_table(size)
            return size
        return self._inject_column()

    def _create_table(self, size: int) -> None:
        name = self._table_pool.take()
        spec = _TableSpec(name=name, column_pool=column_name_pool(self._rng))
        spec.columns.append(_ColumnSpec(
            name="id", data_type=ast.DataType("INTEGER"),
            not_null=True, is_pk=True))
        spec.column_pool._used.add("id")
        for _ in range(size - 1):
            spec.columns.append(self._fresh_column(spec))
        self._tables[name] = spec
        self._order.append(name)
        self._month_statements.append(self._render_table(spec))

    def _fresh_column(self, spec: _TableSpec) -> _ColumnSpec:
        col_name = spec.column_pool.take()
        fk_target = None
        # Occasionally make the new column a foreign key to an existing,
        # *pre-existing this month* table (keeps event accounting exact).
        candidates = [t for t in self._order
                      if t != spec.name and t in self._preexisting]
        if candidates and self._rng.random() < 0.15:
            fk_target = self._rng.choice(candidates)
            data_type = ast.DataType("INTEGER")
        else:
            data_type = fresh_column_type(self._rng)
        return _ColumnSpec(name=col_name, data_type=data_type,
                           not_null=self._rng.random() < 0.4,
                           fk_target=fk_target)

    def _inject_column(self) -> int:
        table = self._tables[self._rng.choice(self._order)]
        col = self._fresh_column(table)
        table.columns.append(col)
        table.text = None
        self._touched.add((table.name, col.name))
        self._month_statements.append(ast.AlterTable(
            name=table.name,
            actions=(ast.AddColumn(column=self._column_def(col)),)))
        return 1

    # ------------------------------------------------------------------
    # maintenance operations

    def _try_maintenance(self, remaining: int) -> int:
        """Attempt one maintenance op; returns units spent (0 if none
        was possible)."""
        ops = ["eject", "retype", "rekey", "drop_table"]
        self._rng.shuffle(ops)
        for op in ops:
            if op == "drop_table" and remaining >= 1:
                spent = self._drop_table(remaining)
            elif op == "eject":
                spent = self._eject_column()
            elif op == "retype":
                spent = self._retype_column()
            else:
                spent = self._rekey_column()
            if spent:
                return spent
        return 0

    def _maintenance_candidates(self) -> list[_TableSpec]:
        return [self._tables[name] for name in self._order
                if name in self._preexisting]

    def _untouched_columns(self, table: _TableSpec,
                           include_pk: bool = False) -> list[_ColumnSpec]:
        return [c for c in table.columns
                if (include_pk or not c.is_pk)
                and (table.name, c.name) not in self._touched]

    def _eject_column(self) -> int:
        for table in self._shuffled(self._maintenance_candidates()):
            victims = [c for c in self._untouched_columns(table)
                       if not self._is_referenced_column(table.name, c.name)]
            if len(table.columns) > 1 and victims:
                victim = self._rng.choice(victims)
                table.columns.remove(victim)
                table.text = None
                self._touched.add((table.name, victim.name))
                self._month_statements.append(ast.AlterTable(
                    name=table.name,
                    actions=(ast.DropColumn(name=victim.name),)))
                # The name is NOT released: re-adding an equally named
                # column later would collapse the eject+inject pair into
                # a single measured event.
                return 1
        return 0

    def _retype_column(self) -> int:
        for table in self._shuffled(self._maintenance_candidates()):
            victims = [c for c in self._untouched_columns(table)
                       if c.fk_target is None]
            if victims:
                victim = self._rng.choice(victims)
                victim.data_type = changed_type(victim.data_type, self._rng)
                table.text = None
                self._touched.add((table.name, victim.name))
                self._month_statements.append(ast.AlterTable(
                    name=table.name,
                    actions=(ast.AlterColumnType(
                        name=victim.name,
                        data_type=victim.data_type),)))
                return 1
        return 0

    def _rekey_column(self) -> int:
        """Flip one column's FK participation (add an FK)."""
        # Iterate the ordered list, not the set: set order depends on
        # the interpreter's hash seed and would break cross-process
        # determinism of the corpus.
        targets = [t for t in self._order if t in self._preexisting]
        if not targets:
            return 0
        for table in self._shuffled(self._maintenance_candidates()):
            victims = [c for c in self._untouched_columns(table)
                       if c.fk_target is None
                       and c.data_type.name in ("INTEGER", "BIGINT")]
            choices = [t for t in targets if t != table.name]
            if victims and choices:
                victim = self._rng.choice(victims)
                victim.fk_target = self._rng.choice(choices)
                table.text = None
                self._touched.add((table.name, victim.name))
                self._month_statements.append(ast.AlterTable(
                    name=table.name,
                    actions=(ast.AddConstraint(
                        constraint=ast.ForeignKeyConstraint(
                            columns=(victim.name,),
                            ref_table=victim.fk_target,
                            ref_columns=("id",))),)))
                return 1
        return 0

    def _drop_table(self, remaining: int) -> int:
        referenced = self._referenced_tables()
        candidates = [
            table for table in self._maintenance_candidates()
            if len(table.columns) <= remaining
            and len(self._order) > 1
            and table.name not in referenced
            and not any((table.name, c.name) in self._touched
                        for c in table.columns)
        ]
        if not candidates:
            return 0
        victim = self._rng.choice(candidates)
        size = len(victim.columns)
        del self._tables[victim.name]
        self._order.remove(victim.name)
        self._dropped_this_month.add(victim.name)
        self._month_statements.append(
            ast.DropTable(names=(victim.name,)))
        # Table names are never recycled (see _eject_column).
        return size

    def _referenced_tables(self) -> set[str]:
        """Names of the tables some live column references (only ever
        used for membership, so set order cannot leak into draws)."""
        return {col.fk_target for table in self._tables.values()
                for col in table.columns if col.fk_target is not None}

    def _is_referenced_column(self, table: str, column: str) -> bool:
        # FKs in this generator always reference the target's "id".
        return column == "id" and table in self._referenced_tables()

    def _shuffled(self, items: list) -> list:
        items = list(items)
        self._rng.shuffle(items)
        return items

    # ------------------------------------------------------------------
    # snapshotting

    def snapshot_sql(self) -> str:
        """Render the current schema as a full SQL dump.

        Only tables changed since the previous dump are rendered again;
        the others reuse their memoised text.
        """
        lines = [f"-- synthetic schema dump ({len(self._order)} tables)"]
        for name in self._order:
            spec = self._tables[name]
            if spec.text is None:
                spec.text = write_statement(self._render_table(spec),
                                            self._dialect) + ";"
            lines.append(spec.text)
        return "\n\n".join(lines) + "\n"

    def month_sql(self) -> str:
        """Render only this month's statements (migration-script style)."""
        lines = [f"-- migration ({len(self._month_statements)} statements)"]
        lines += [write_statement(s, self._dialect) + ";"
                  for s in self._month_statements]
        return "\n\n".join(lines) + "\n"

    def _column_def(self, col: _ColumnSpec) -> ast.ColumnDef:
        references = None
        if col.fk_target is not None:
            references = ast.ForeignKeyRef(table=col.fk_target,
                                           columns=("id",))
        return ast.ColumnDef(name=col.name, data_type=col.data_type,
                             not_null=col.not_null, references=references)

    def _render_table(self, spec: _TableSpec) -> ast.CreateTable:
        columns = tuple(self._column_def(c) for c in spec.columns)
        pk = tuple(c.name for c in spec.columns if c.is_pk)
        constraints: tuple[ast.TableConstraint, ...] = ()
        if pk:
            constraints = (ast.PrimaryKeyConstraint(columns=pk),)
        return ast.CreateTable(name=spec.name, columns=columns,
                               constraints=constraints)

    @property
    def table_count(self) -> int:
        """Number of live tables."""
        return len(self._order)


def _month_to_date(base_year: int, base_month: int, offset: int,
                   day: int) -> datetime:
    """The ``offset``-th month after (base_year, base_month), on ``day``."""
    total = (base_year * 12 + (base_month - 1)) + offset
    return datetime(total // 12, total % 12 + 1, min(day, 28))


def realize_history(plan: LandmarkPlan, rng: random.Random,
                    project_name: str,
                    dialect: Dialect = Dialect.GENERIC,
                    with_noise: bool = False,
                    commit_style: str = "snapshot") -> SchemaHistory:
    """Turn a landmark plan into a full DDL commit history.

    Args:
        plan: the validated activity plan.
        rng: seeded random generator.
        project_name: name for the resulting history.
        dialect: SQL dialect of the emitted dumps.
        with_noise: decorate every dump with realistic non-DDL noise
            (headers, SETs, INSERTs) that the robust parser must skip.
        commit_style: ``"snapshot"`` (default) — every commit carries the
            whole DDL file, the paper's dataset format; ``"incremental"``
            — every commit carries only the month's migration statements
            and the history materializes versions cumulatively. Both
            styles measure identically (property-tested).

    Returns:
        A :class:`~repro.history.repository.SchemaHistory` whose measured
        heartbeat reproduces the plan's schedule exactly.

    Raises:
        CorpusError: propagated from plan validation.
    """
    if commit_style not in ("snapshot", "incremental"):
        raise CorpusError(f"unknown commit style {commit_style!r}")
    plan.validate()
    base_year = rng.randint(2010, 2021)
    base_month = rng.randint(1, 12)
    scribe = DdlScribe(rng, dialect)
    commits: list[Commit] = []
    for month in sorted(plan.schedule):
        units = plan.schedule[month]
        scribe.begin_month()
        scribe.apply_units(units, plan.maintenance_bias,
                           birth=(month == plan.birth_month))
        timestamp = _month_to_date(base_year, base_month, month,
                                   rng.randint(1, 28))
        ddl_text = (scribe.snapshot_sql()
                    if commit_style == "snapshot"
                    else scribe.month_sql())
        if with_noise:
            import zlib

            from repro.corpus.noise import decorate_dump
            # Independent, stable RNG stream per commit: noise must not
            # consume draws from the main generator, or a noisy corpus
            # would sample different landmarks than its clean twin.
            noise_seed = zlib.crc32(f"{project_name}-{month}".encode())
            ddl_text = decorate_dump(ddl_text, random.Random(noise_seed),
                                     dialect)
        commits.append(Commit(
            sha=f"{project_name}-m{month:03d}",
            timestamp=timestamp,
            ddl_text=ddl_text,
            message=f"schema update in project month {month}",
        ))
    if not commits:
        raise CorpusError("plan produced no commits")
    start = _month_to_date(base_year, base_month, 0, 1)
    end = _month_to_date(base_year, base_month, plan.pup_months - 1, 28)
    return SchemaHistory(project_name, commits, project_start=start,
                         project_end=end, dialect=dialect,
                         incremental=(commit_style == "incremental"))
