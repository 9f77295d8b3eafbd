"""Statement memo of one fold kernel, over process-wide element caches.

Within one schema history only ~25-30% of statement instances are
unique, because each snapshot repeats the previous one nearly verbatim.
A :class:`StatementMemo` caches the parse result of every statement
span (keyed by the splitter's content hash), so a statement is parsed
once per *history* instead of once per *version*. Statements rarely
repeat across histories, so this memo lives as long as its kernel.

A changed ``CREATE TABLE`` mostly repeats its previous version too: one
column added among a dozen unchanged ones. So a missed ``CREATE TABLE``
span is cut into head, body elements and tail
(:func:`~repro.sqlddl.splitter.cut_create_table`); only element texts
unseen in the process are tokenized and parsed, and the statement is
assembled by :func:`~repro.sqlddl.parser.parse_token_group` over the
head and tail tokens with the parsed body handed in. AST nodes carry no
source positions and every cut falls between tokens, so the assembled
statement equals the whole-span parse. Anything that does not assemble
cleanly (another head, an element the parser does not consume exactly,
a lex or parse error) takes the whole-span route below, so skip records
and fallback markers always come from it.

Element texts, unlike statements, repeat across histories: projects
share idioms such as ``id INTEGER NOT NULL`` or ``PRIMARY KEY (id)``.
So parsed elements and the head and tail tokens live in two bounded
process-wide caches keyed by ``(text, dialect)`` (the same text can lex
differently per dialect). Both cached calls are pure functions of their
key returning immutable values (frozen AST nodes, token tuples), so
sharing them across histories cannot change any output; a
:class:`~repro.errors.LexError` propagates and is not cached.

Safety: the memo must never change what the pipeline observes. Each
entry is a :class:`ParsedSegment` holding either the frozen statement
AST, the :class:`~repro.sqlddl.ast_nodes.SkippedStatement` that the
classic path would record, or a ``fallback`` marker meaning "this span
cannot be parsed in isolation" (its tokenization fails, or it does not
lex to exactly one statement group). Callers seeing a fallback entry
must re-run the classic whole-file parse for that version, which
reproduces the full-parse behaviour bit for bit.

Every lookup also counts as ``parse_hits`` or ``parse_misses`` in
:mod:`repro.obs`, so the execution engine reports memo activity per
stage next to its cache stats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import obs
from repro.errors import LexError
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.lexer import tokenize
from repro.sqlddl.parser import (
    _split_statements,
    parse_table_element,
    parse_token_group,
)
from repro.sqlddl.splitter import Segment, cut_create_table

__all__ = [
    "ParsedSegment",
    "StatementMemo",
    "parse_counters",
]


#: Bounds of the two caches below. Distinct element texts grow with the
#: corpus and a session's process lives long, so both are bounded: at
#: ~520 B an entry they hold at most ~20 MiB together.
_ELEMENT_CACHE_SIZE = 1 << 15
_PIECE_CACHE_SIZE = 1 << 13


@lru_cache(maxsize=_ELEMENT_CACHE_SIZE)
def _parse_element(text: str, dialect: Dialect
                   ) -> ast.ColumnDef | ast.TableConstraint | None:
    """:func:`parse_table_element`, cached per process."""
    return parse_table_element(text, dialect)


@lru_cache(maxsize=_PIECE_CACHE_SIZE)
def _piece_tokens(text: str, dialect: Dialect) -> tuple:
    """The tokens of a head or tail text (without the EOF token),
    cached per process."""
    return tuple(tokenize(text, dialect)[:-1])


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


class StatementMemo:
    """Caches parsed statements of one schema history.

    The statement entries are scoped per fold kernel, so their lifetime
    matches the history whose versions they serve; body elements and
    head and tail tokens come from the process-wide caches above.
    """

    def __init__(self, dialect: Dialect = Dialect.GENERIC):
        self.dialect = dialect
        self._entries: dict[str, ParsedSegment] = {}

    def parse(self, segment: Segment) -> ParsedSegment:
        """The parse outcome of ``segment``, cached by content hash."""
        entry = self._entries.get(segment.content_hash)
        if entry is not None:
            obs.count("parse_hits")
            return entry
        obs.count("parse_misses")
        entry = self._parse_segment(segment.text)
        self._entries[segment.content_hash] = entry
        return entry

    def _parse_segment(self, text: str) -> ParsedSegment:
        pieces = cut_create_table(text, self.dialect)
        if pieces is not None:
            statement = self._assemble(*pieces)
            if statement is not None:
                return ParsedSegment(statement=statement)
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

    def _assemble(self, head: str, elements: list[str],
                  tail: str) -> ast.CreateTable | None:
        """The ``CREATE TABLE`` of a cut span, or None to parse it
        whole."""
        body = []
        for text in elements:
            element = _parse_element(text, self.dialect)
            if element is None:
                return None
            body.append(element)
        try:
            group = [*_piece_tokens(head, self.dialect),
                     *_piece_tokens(tail, self.dialect)]
        except LexError:
            return None
        statement, _ = parse_token_group(group, self.dialect,
                                         table_body=tuple(body))
        if not isinstance(statement, ast.CreateTable):
            return None
        return statement
