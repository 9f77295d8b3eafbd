"""Statement memo of one fold kernel, over process-wide element folds.

Each snapshot of a history repeats the previous one nearly verbatim,
so a :class:`StatementMemo` caches the parse of every statement span by
the splitter's content hash: a statement is parsed once per *history*.

A missed ``CREATE TABLE`` mostly repeats its previous version too, so
it is cut into head, body elements and tail
(:func:`~repro.sqlddl.splitter.cut_create_table`) and read from two
process-wide caches, never parsed whole: *element folds* map each
element text to its folded facts (:func:`fold_element` of one
:func:`~repro.sqlddl.parser.parse_table_element` call), *templates*
each (head, tail) pair to the ``CREATE TABLE`` it parses to around an
empty body. AST nodes carry no source positions and every cut falls
between tokens, so the pieces equal the whole-span parse. Element texts
repeat across histories, and the same text can lex differently per
dialect, so each cache keeps a text-keyed map per dialect, bounded over
all of them. Both fills are pure functions of their keys.

A span that does not cut cleanly (another head, an element the parser
does not consume exactly, a lex or parse error) is parsed whole into a
:class:`ParsedSegment`: the statement, the
:class:`~repro.sqlddl.ast_nodes.SkippedStatement` the classic path
would record, or a ``fallback`` marker: the span cannot be parsed in
isolation, so the caller re-runs the classic whole-file parse. Every
lookup counts as ``parse_hits`` or ``parse_misses`` in :mod:`repro.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.errors import LexError
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.lexer import tokenize
from repro.sqlddl.normalize import canonical_type, normalize_identifier
from repro.sqlddl.parser import (
    _split_statements,
    parse_table_element,
    parse_token_group,
)
from repro.sqlddl.splitter import Segment, cut_create_table

__all__ = ["CutCreate", "ParsedSegment", "StatementMemo", "parse_counters"]


@dataclass(frozen=True, slots=True)
class ColumnFold:
    """A column definition's facts, normalised (``references``: the
    ``(table, columns)`` of an inline ``REFERENCES``), and the schema
    layer's memo of its attribute, one slot per key membership."""

    name: str
    data_type: ast.DataType | None
    not_null: bool
    primary_key: bool
    unique: bool
    references: tuple[str, tuple[str, ...]] | None
    attributes: list = field(default_factory=lambda: [None] * 4,
                             compare=False, repr=False)


def _names(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(normalize_identifier(name) for name in names)


def fold_element(element: object) -> ColumnFold | ast.TableConstraint:
    """The folded facts of one parsed column definition, or the table
    constraint with its names normalised."""
    if isinstance(element, ast.ColumnDef):
        ref = element.references
        return ColumnFold(
            normalize_identifier(element.name),
            canonical_type(element.data_type), element.not_null,
            element.primary_key, element.unique,
            None if ref is None else (normalize_identifier(ref.table),
                                      _names(ref.columns)))
    if isinstance(element, ast.ForeignKeyConstraint):
        element = replace(element, ref_columns=_names(element.ref_columns),
                          ref_table=normalize_identifier(element.ref_table))
    if isinstance(element, (ast.PrimaryKeyConstraint, ast.UniqueConstraint,
                            ast.ForeignKeyConstraint)):
        element = replace(element, columns=_names(element.columns),
                          name=normalize_identifier(element.name or ""))
    return element


#: The two process-wide caches (one map per dialect each) and their
#: bounds over all dialects: at ~370 B an entry (interned attributes
#: included) they hold at most ~15 MiB together.
_ELEMENT_FOLDS: dict[Dialect, dict] = {}
_TEMPLATES: dict[Dialect, dict] = {}
_ELEMENT_BOUND, _TEMPLATE_BOUND = 1 << 15, 1 << 13
_MISSING = object()


def _store(cache: dict[Dialect, dict], bound: int, table: dict,
           key: object, value: object) -> object:
    """``table[key] = value`` in a map of ``cache``, emptied if full."""
    maps = list(cache.values())
    if sum(map(len, maps)) >= bound:
        for each in maps:
            each.clear()
    table[key] = value
    return value


def _parse_template(head: str, tail: str, dialect: Dialect
                    ) -> ast.CreateTable | None:
    """The empty-body ``CREATE TABLE`` of a head and tail, or None."""
    try:
        group = [*tokenize(head, dialect)[:-1],
                 *tokenize(tail, dialect)[:-1]]
    except LexError:
        return None
    statement, _ = parse_token_group(group, dialect, table_body=())
    return statement if isinstance(statement, ast.CreateTable) else None


def parse_counters() -> tuple[int, int]:
    """(hits, misses) over all statement memos, as counted in
    :mod:`repro.obs`."""
    counts = obs.snapshot()
    return counts.get("parse_hits", 0), counts.get("parse_misses", 0)


@dataclass(frozen=True, slots=True)
class ParsedSegment:
    """Parse outcome of one statement span.

    Exactly one of the three shapes holds: ``statement`` set (parsed
    DDL), ``skipped`` set (non-DDL or parse error, as the classic path
    records it), or ``fallback`` True (the span cannot be handled in
    isolation — the caller must full-parse the whole version).
    """

    statement: ast.Statement | None = None
    skipped: ast.SkippedStatement | None = None
    fallback: bool = False


@dataclass(frozen=True, slots=True)
class CutCreate:
    """A ``CREATE TABLE`` span read from its cut: its head and tail's
    template (the statement around an empty body) and its element
    folds, columns and table constraints each in order."""

    template: ast.CreateTable
    columns: tuple[ColumnFold, ...]
    constraints: tuple[ast.TableConstraint, ...]

    fallback = False


class StatementMemo:
    """Caches parsed statements of one schema history.

    The statement entries are scoped per fold kernel, so their lifetime
    matches the history whose versions they serve; element folds and
    templates come from the process-wide caches above.
    """

    def __init__(self, dialect: Dialect = Dialect.GENERIC):
        self.dialect = dialect
        self._entries: dict[str, ParsedSegment | CutCreate] = {}
        self._folds = _ELEMENT_FOLDS.setdefault(dialect, {})
        self._templates = _TEMPLATES.setdefault(dialect, {})

    def parse(self, segment: Segment) -> ParsedSegment | CutCreate:
        """The parse outcome of ``segment``, cached by content hash."""
        entry = self._entries.get(segment.content_hash)
        if entry is not None:
            obs.count("parse_hits")
            return entry
        obs.count("parse_misses")
        entry = self._parse_segment(segment.text)
        self._entries[segment.content_hash] = entry
        return entry

    def _parse_segment(self, text: str) -> ParsedSegment | CutCreate:
        pieces = cut_create_table(text, self.dialect)
        if pieces is not None:
            create = self._cut_create(*pieces)
            if create is not None:
                return create
        try:
            tokens = tokenize(text, self.dialect)
        except LexError:
            # A span the lexer rejects poisons the whole file in the
            # classic path (one "lex-error" skip, empty schema), which
            # per-segment parsing cannot reproduce — punt to full parse.
            return ParsedSegment(fallback=True)
        groups = _split_statements(tokens)
        if len(groups) != 1:
            # The raw-text split disagreed with the token-level split
            # (zero groups: trivia-only span; several: a semicolon the
            # scanner failed to see). Never silently diverge.
            return ParsedSegment(fallback=True)
        statement, skipped = parse_token_group(groups[0], self.dialect)
        if skipped is not None:
            return ParsedSegment(skipped=skipped)
        return ParsedSegment(statement=statement)

    def _cut_create(self, head: str, elements: list[str],
                    tail: str) -> CutCreate | None:
        """The entry of a cut ``CREATE TABLE`` span, or None to parse
        it whole."""
        dialect, folds = self.dialect, self._folds
        columns, constraints = [], []
        for text in elements:
            fold = folds.get(text, _MISSING)
            if fold is _MISSING:
                element = parse_table_element(text, dialect)
                fold = _store(_ELEMENT_FOLDS, _ELEMENT_BOUND, folds, text,
                              element and fold_element(element))
            if fold is None:
                return None
            (columns if type(fold) is ColumnFold else constraints).append(
                fold)
        template = self._templates.get((head, tail), _MISSING)
        if template is _MISSING:
            template = _store(_TEMPLATES, _TEMPLATE_BOUND, self._templates,
                              (head, tail),
                              _parse_template(head, tail, dialect))
        if template is None:
            return None
        return CutCreate(template, tuple(columns), tuple(constraints))
