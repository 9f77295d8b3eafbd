"""Build logical schemas by applying DDL statement streams.

The builder keeps mutable per-table state while statements are applied and
emits immutable :class:`~repro.schema.model.Schema` snapshots. Two modes:

* **strict** — schema violations (duplicate CREATE without IF NOT EXISTS,
  ALTER of a missing table, ...) raise :class:`~repro.errors.SchemaError`.
* **lenient** (default) — violations are recorded in
  :attr:`SchemaBuilder.issues` and the statement is skipped, which is how
  history extraction must behave on real-world dumps that occasionally
  re-create tables or drop what is not there.

One function folds a ``CREATE TABLE`` into a fresh table,
:func:`fold_create`, over its element folds (:mod:`repro.sqlddl.memo`):
the builder's for a parsed statement, the fold kernel's cached ones for
a cut span. A folded create enters a builder as a lazy table state
(:meth:`SchemaBuilder.install`) until an ``ALTER`` needs its own copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import SchemaError
from repro.schema.model import Attribute, ForeignKey, Schema, Table
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.memo import ColumnFold, fold_element
from repro.sqlddl.normalize import canonical_type, normalize_identifier


@dataclass
class _ColumnState:
    """Mutable working copy of one attribute while building."""

    name: str
    data_type: object | None
    not_null: bool


@dataclass
class _TableState:
    """Mutable working copy of one table while building.

    ``trace`` records, in application order, an opaque token per
    statement that shaped this table (the statement's content hash in
    the incremental path, a unique sentinel otherwise). Because the
    fold of statements over a fresh state is deterministic, two states
    with equal ``(name, trace)`` are guaranteed content-identical —
    which lets :meth:`SchemaBuilder.snapshot_reusing` hand back the
    previous version's frozen :class:`Table` object untouched.
    """

    name: str
    columns: list[_ColumnState] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[ForeignKey] = field(default_factory=list)
    unique_keys: list[tuple[str, ...]] = field(default_factory=list)
    named_constraints: dict[str, str] = field(default_factory=dict)
    trace: list = field(default_factory=list)
    #: The ``CREATE TABLE`` fold this state reads through while set;
    #: :meth:`thaw` fills the fields above before any use of them.
    folded: FoldedCreate | None = None

    def thaw(self) -> None:
        """Copy the fold's content into this state's own fields (a
        no-op once they are its own)."""
        folded = self.folded
        if folded is None:
            return
        table = folded.table
        self.columns = [_ColumnState(c.name, c.data_type, c.not_null)
                        for c in folded.columns]
        self.primary_key = list(table.primary_key)
        self.foreign_keys = list(table.foreign_keys)
        self.unique_keys = list(table.unique_keys)
        self.named_constraints = dict(folded.named)
        self.folded = None

    def column(self, name: str) -> _ColumnState | None:
        for col in self.columns:
            if col.name == name:
                return col
        return None

    def column_index(self, name: str) -> int:
        for index, col in enumerate(self.columns):
            if col.name == name:
                return index
        return -1


@dataclass(frozen=True, slots=True)
class FoldedCreate:
    """One ``CREATE TABLE`` folded into a fresh table: the table, the
    lenient-mode issues the fold raised, and for
    :meth:`_TableState.thaw` the folds of the columns it kept and the
    ``(name, kind)`` of its named constraints."""

    table: Table
    issues: tuple[str, ...]
    columns: tuple[ColumnFold, ...]
    named: tuple[tuple[str, str], ...]


def _interned(column: ColumnFold, in_pk: bool, in_fk: bool) -> Attribute:
    """``column``'s attribute, interned on its fold per key membership."""
    slot = 2 * in_pk + in_fk
    attribute = column.attributes[slot]
    if attribute is None:
        attribute = column.attributes[slot] = Attribute(
            column.name, column.data_type, column.not_null or in_pk,
            in_pk, in_fk)
    return attribute


def _apply_inline_keys(state: _TableState, column: ColumnFold) -> None:
    name = column.name
    if column.primary_key:
        state.primary_key = [name]
    if column.unique and (name,) not in state.unique_keys:
        state.unique_keys.append((name,))
    if column.references is not None:
        fk = ForeignKey((name,), *column.references)
        if fk not in state.foreign_keys:
            state.foreign_keys.append(fk)


def _apply_constraint(state: _TableState,
                      constraint: ast.TableConstraint,
                      problem: Callable[[str], None]) -> None:
    """Apply a constraint whose names :func:`fold_element` normalised."""
    if isinstance(constraint, ast.PrimaryKeyConstraint):
        state.primary_key = list(constraint.columns)
        kind = "primary key"
    elif isinstance(constraint, ast.ForeignKeyConstraint):
        fk = ForeignKey(constraint.columns, constraint.ref_table,
                        constraint.ref_columns)
        if fk not in state.foreign_keys:
            state.foreign_keys.append(fk)
        kind = "foreign key"
    elif isinstance(constraint, ast.UniqueConstraint):
        if constraint.columns not in state.unique_keys:
            state.unique_keys.append(constraint.columns)
        kind = "unique"
    elif isinstance(constraint, (ast.CheckConstraint, ast.IndexKey)):
        return  # checks and plain indexes: no logical-model effect
    else:
        problem(f"unsupported constraint {type(constraint).__name__}")
        return
    if constraint.name:
        state.named_constraints[constraint.name] = kind


def fold_create(name: str, columns: Iterable[ColumnFold],
                constraints: Iterable[ast.TableConstraint]) -> FoldedCreate:
    """Fold one ``CREATE TABLE`` into a fresh table named ``name``:
    columns first, in order (a repeated name is an issue and dropped),
    then constraints; attributes are interned on their column folds."""
    state = _TableState(name=name)
    issues: list[str] = []
    kept: list[ColumnFold] = []
    seen: set[str] = set()
    for column in columns:
        if column.name in seen:
            issues.append(f"duplicate column {name}.{column.name}")
            continue
        seen.add(column.name)
        kept.append(column)
        if column.primary_key or column.unique or column.references:
            _apply_inline_keys(state, column)
    for constraint in constraints:
        _apply_constraint(state, constraint, issues.append)
    return FoldedCreate(_table(state, kept, _interned), tuple(issues),
                        tuple(kept), tuple(state.named_constraints.items()))


def fold_statement(stmt: ast.CreateTable) -> FoldedCreate:
    """:func:`fold_create` of a parsed ``CREATE TABLE``."""
    return fold_create(normalize_identifier(stmt.name),
                       map(fold_element, stmt.columns),
                       map(fold_element, stmt.constraints))


def _table(state: _TableState, columns: Iterable,
           attribute: Callable[..., Attribute]) -> Table:
    """``state``'s table over ``columns``, made attributes by
    ``attribute(column, in_pk, in_fk)``."""
    keyed = set(state.primary_key)
    referencing = {c for fk in state.foreign_keys for c in fk.columns}
    return Table(state.name, tuple([
        attribute(c, c.name in keyed, c.name in referencing)
        for c in columns]), tuple(state.primary_key),
        tuple(state.foreign_keys), tuple(state.unique_keys))


def _fresh(column: _ColumnState, in_pk: bool, in_fk: bool) -> Attribute:
    return Attribute(column.name, column.data_type,
                     column.not_null or in_pk, in_pk, in_fk)


class SchemaBuilder:
    """Applies DDL statements to an evolving logical schema.

    Args:
        strict: raise on schema violations instead of recording them.

    Attributes:
        issues: human-readable descriptions of every lenient-mode skip.
    """

    def __init__(self, strict: bool = False):
        self._strict = strict
        self._tables: dict[str, _TableState] = {}
        self._order: list[str] = []
        self._views: list[str] = []
        self._token: object | None = None
        self.issues: list[str] = []

    # ------------------------------------------------------------------
    # public API

    def apply_script(self, script: ast.Script) -> "SchemaBuilder":
        """Apply every statement of ``script`` in order; returns self."""
        for statement in script.statements:
            self.apply(statement)
        return self

    def apply(self, statement: ast.Statement,
              token: object | None = None) -> None:
        """Apply one DDL statement.

        Args:
            statement: the statement to fold into the working schema.
            token: opaque identity of the statement's *content* (the
                incremental path passes the segment hash). Recorded in
                the trace of every table the statement shapes; when
                omitted, a unique sentinel is recorded instead, which
                soundly disables cross-version reuse for that table.
        """
        self._token = token
        if isinstance(statement, ast.CreateTable):
            self._apply_create_table(statement)
        elif isinstance(statement, ast.DropTable):
            self._apply_drop_table(statement)
        elif isinstance(statement, ast.AlterTable):
            self._apply_alter_table(statement)
        elif isinstance(statement, ast.CreateTableLike):
            self._apply_create_table_like(statement)
        elif isinstance(statement, ast.CreateView):
            self._apply_create_view(statement)
        elif isinstance(statement, ast.DropView):
            self._apply_drop_view(statement)
        elif isinstance(statement, (ast.CreateIndex, ast.DropIndex)):
            pass  # physical level: no logical schema effect
        else:
            self._problem(f"unsupported statement type "
                          f"{type(statement).__name__}")

    def snapshot(self) -> Schema:
        """Emit an immutable snapshot of the current schema."""
        tables = tuple(self._snapshot_table(self._tables[name])
                       for name in self._order)
        return Schema(tables=tables, views=tuple(self._views))

    def snapshot_reusing(
        self, previous: dict | None,
    ) -> tuple[Schema, dict]:
        """Snapshot, reusing frozen tables from a previous version.

        Args:
            previous: pool from the prior version's snapshot —
                ``(name, trace) -> Table`` — or None on the first
                version.

        Returns:
            The schema plus this version's pool. A table whose
            ``(name, trace)`` key appears in ``previous`` is returned
            as the *same* frozen :class:`Table` object (enabling the
            diff engine's identity fast path); anything else is built
            fresh.
        """
        pool: dict = {}
        tables = []
        for name in self._order:
            state = self._tables[name]
            key = (state.name, tuple(state.trace))
            table = previous.get(key) if previous else None
            if table is None:
                table = self._snapshot_table(state)
            pool[key] = table
            tables.append(table)
        schema = Schema(tables=tuple(tables), views=tuple(self._views))
        return schema, pool

    def _stamp(self, state: _TableState) -> None:
        """Record the current statement in ``state``'s trace."""
        state.trace.append(self._token if self._token is not None
                           else object())

    def _apply_create_table_like(self, stmt: ast.CreateTableLike) -> None:
        import copy

        name = normalize_identifier(stmt.name)
        template = normalize_identifier(stmt.template)
        source = self._tables.get(template)
        if source is None:
            self._problem(f"cannot clone missing table {template!r}")
            return
        if name in self._tables:
            if stmt.if_not_exists:
                return
            self._problem(f"table {name!r} already exists")
            self._remove_table(name)
        source.thaw()
        clone = copy.deepcopy(source)
        clone.name = name
        # The clone's content derives from the source's full fold, so
        # its trace must be the source's trace (shared tokens, not
        # deep copies) plus this statement.
        clone.trace = list(source.trace)
        self._stamp(clone)
        self._tables[name] = clone
        self._order.append(name)

    def _apply_create_view(self, stmt: ast.CreateView) -> None:
        name = normalize_identifier(stmt.name)
        if name in self._views:
            if stmt.or_replace or stmt.if_not_exists:
                return
            self._problem(f"view {name!r} already exists")
            return
        self._views.append(name)

    def _apply_drop_view(self, stmt: ast.DropView) -> None:
        for raw in stmt.names:
            name = normalize_identifier(raw)
            if name in self._views:
                self._views.remove(name)
            elif not stmt.if_exists:
                self._problem(f"cannot drop missing view {name!r}")

    # ------------------------------------------------------------------
    # statement handlers

    def _apply_create_table(self, stmt: ast.CreateTable) -> None:
        if stmt.temporary:
            return  # temp tables are not part of the persistent schema
        self.install(fold_statement(stmt), stmt.if_not_exists, self._token)

    def install(self, folded: FoldedCreate, if_not_exists: bool,
                token: object | None = None) -> None:
        """Apply a folded, non-temporary ``CREATE TABLE`` as :meth:`apply`
        does a parsed one: a lazy state reading through ``folded``."""
        self._token = token
        name = folded.table.name
        if name in self._tables:
            if if_not_exists:
                return
            self._problem(f"table {name!r} already exists")
            # Real dumps re-create tables; treat as replace in lenient mode.
            self._remove_table(name)
        for issue in folded.issues:
            self._problem(issue)
        state = _TableState(name=name, folded=folded)
        self._stamp(state)
        self._tables[name] = state
        self._order.append(name)

    def _apply_drop_table(self, stmt: ast.DropTable) -> None:
        for raw in stmt.names:
            name = normalize_identifier(raw)
            if name not in self._tables:
                if not stmt.if_exists:
                    self._problem(f"cannot drop missing table {name!r}")
                continue
            self._remove_table(name)

    def _apply_alter_table(self, stmt: ast.AlterTable) -> None:
        name = normalize_identifier(stmt.name)
        state = self._tables.get(name)
        if state is None:
            if not stmt.if_exists:
                self._problem(f"cannot alter missing table {name!r}")
            return
        state.thaw()
        self._stamp(state)
        for action in stmt.actions:
            self._apply_alter_action(state, action)

    # ------------------------------------------------------------------
    # ALTER actions

    def _apply_alter_action(self, state: _TableState,
                            action: ast.AlterAction) -> None:
        if isinstance(action, ast.AddColumn):
            self._add_column_to_state(state, action.column,
                                      position=action.position)
        elif isinstance(action, ast.DropColumn):
            self._drop_column(state, action)
        elif isinstance(action, ast.ModifyColumn):
            self._modify_column(state, action.column.name, action.column)
        elif isinstance(action, ast.ChangeColumn):
            self._modify_column(state, action.old_name, action.column)
        elif isinstance(action, ast.AlterColumnType):
            col = self._require_column(state, action.name)
            if col is not None:
                col.data_type = canonical_type(action.data_type)
        elif isinstance(action, ast.AlterColumnDefault):
            self._require_column(state, action.name)  # defaults: no-op
        elif isinstance(action, ast.AlterColumnNullability):
            col = self._require_column(state, action.name)
            if col is not None:
                col.not_null = action.not_null
        elif isinstance(action, ast.AddConstraint):
            _apply_constraint(state, fold_element(action.constraint),
                              self._problem)
        elif isinstance(action, ast.DropConstraint):
            self._drop_constraint(state, action)
        elif isinstance(action, ast.RenameTable):
            self._rename_table(state, action.new_name)
        elif isinstance(action, ast.RenameColumn):
            self._rename_column(state, action.old_name, action.new_name)
        elif isinstance(action, ast.TableOption):
            pass  # OWNER TO / SET SCHEMA: physical level
        else:
            self._problem(f"unsupported alter action "
                          f"{type(action).__name__}")

    def _drop_column(self, state: _TableState, action: ast.DropColumn) -> None:
        name = normalize_identifier(action.name)
        index = state.column_index(name)
        if index < 0:
            if not action.if_exists:
                self._problem(f"cannot drop missing column "
                              f"{state.name}.{name}")
            return
        del state.columns[index]
        state.primary_key = [c for c in state.primary_key if c != name]
        state.foreign_keys = [fk for fk in state.foreign_keys
                              if name not in fk.columns]
        state.unique_keys = [uk for uk in state.unique_keys
                             if name not in uk]

    def _modify_column(self, state: _TableState, old_name: str,
                       coldef: ast.ColumnDef) -> None:
        old = normalize_identifier(old_name)
        col = self._require_column(state, old)
        if col is None:
            return
        column = fold_element(coldef)
        col.data_type = column.data_type
        col.not_null = column.not_null
        if column.name != old:
            self._rename_column(state, old, column.name,
                                already_checked=col)
        _apply_inline_keys(state, column)

    def _rename_table(self, state: _TableState, new_raw: str) -> None:
        new_name = normalize_identifier(new_raw)
        if new_name == state.name:
            return
        if new_name in self._tables:
            self._problem(f"cannot rename {state.name!r} to existing "
                          f"table {new_name!r}")
            return
        old_name = state.name
        state.name = new_name
        self._tables[new_name] = state
        del self._tables[old_name]
        self._order[self._order.index(old_name)] = new_name

    def _rename_column(self, state: _TableState, old_raw: str, new_raw: str,
                       already_checked: _ColumnState | None = None) -> None:
        old = normalize_identifier(old_raw)
        new = normalize_identifier(new_raw)
        col = already_checked or self._require_column(state, old)
        if col is None:
            return
        if new != old and state.column(new) is not None:
            self._problem(f"cannot rename {state.name}.{old} to existing "
                          f"column {new}")
            return
        col.name = new
        state.primary_key = [new if c == old else c
                             for c in state.primary_key]
        state.foreign_keys = [
            ForeignKey(columns=tuple(new if c == old else c
                                     for c in fk.columns),
                       ref_table=fk.ref_table, ref_columns=fk.ref_columns)
            for fk in state.foreign_keys
        ]
        state.unique_keys = [tuple(new if c == old else c for c in uk)
                             for uk in state.unique_keys]

    def _drop_constraint(self, state: _TableState,
                         action: ast.DropConstraint) -> None:
        if action.kind == "primary key":
            state.primary_key = []
            return
        name = normalize_identifier(action.name or "")
        kind = state.named_constraints.pop(name, None)
        if kind == "foreign key" or action.kind == "foreign key":
            # Drop the FK registered under this name; fall back to
            # dropping the last FK when the name is unknown (MySQL dumps
            # use auto-generated names the model does not track).
            if state.foreign_keys:
                state.foreign_keys.pop()
            return
        if kind == "unique":
            if state.unique_keys:
                state.unique_keys.pop()
            return
        if kind == "primary key":
            state.primary_key = []
            return
        # Unknown names (indexes, checks) have no logical effect.

    # ------------------------------------------------------------------
    # shared pieces

    def _add_column_to_state(self, state: _TableState, coldef: ast.ColumnDef,
                             position: str | None = None) -> None:
        column = fold_element(coldef)
        name = column.name
        if state.column(name) is not None:
            self._problem(f"duplicate column {state.name}.{name}")
            return
        col = _ColumnState(name=name, data_type=column.data_type,
                           not_null=column.not_null)
        index = len(state.columns)
        if position == "FIRST":
            index = 0
        elif position and position.startswith("AFTER "):
            anchor = normalize_identifier(position[len("AFTER "):])
            anchor_index = state.column_index(anchor)
            if anchor_index >= 0:
                index = anchor_index + 1
        state.columns.insert(index, col)
        _apply_inline_keys(state, column)

    def _require_column(self, state: _TableState,
                        raw_name: str) -> _ColumnState | None:
        name = normalize_identifier(raw_name)
        col = state.column(name)
        if col is None:
            self._problem(f"missing column {state.name}.{name}")
        return col

    def _remove_table(self, name: str) -> None:
        self._tables.pop(name, None)
        if name in self._order:
            self._order.remove(name)

    def _problem(self, message: str) -> None:
        if self._strict:
            raise SchemaError(message)
        self.issues.append(message)

    # ------------------------------------------------------------------
    # snapshot

    def _snapshot_table(self, state: _TableState) -> Table:
        if state.folded is not None:
            return state.folded.table
        return _table(state, state.columns, _fresh)


def build_schema(script: ast.Script, strict: bool = False) -> Schema:
    """Build a schema by applying every statement of ``script``.

    This is the one-shot convenience over :class:`SchemaBuilder` used when
    each history commit holds a full DDL dump.
    """
    builder = SchemaBuilder(strict=strict)
    builder.apply_script(script)
    return builder.snapshot()
