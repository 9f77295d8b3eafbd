"""Per-history statement memo: content hash → parsed statement.

Parsing dominates the cold pipeline (~93% of records time), yet most of
it is wasted: within one schema history only ~25-30% of statement
instances are unique, because each snapshot repeats the previous one
nearly verbatim. A :class:`StatementMemo` caches the parse result of
every statement span (keyed by the splitter's content hash), so a
statement is parsed once per *history* instead of once per *version*.

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

from repro import obs
from repro.errors import LexError
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.lexer import tokenize
from repro.sqlddl.parser import _split_statements, parse_token_group
from repro.sqlddl.splitter import Segment

__all__ = [
    "ParsedSegment",
    "StatementMemo",
    "parse_counters",
]


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

    The memo is scoped per history (not global) so its lifetime matches
    the object whose versions it serves, and concurrent per-project
    workers never contend on shared state.
    """

    def __init__(self, dialect: Dialect = Dialect.GENERIC):
        self.dialect = dialect
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, ParsedSegment] = {}

    def parse(self, segment: Segment) -> ParsedSegment:
        """The parse outcome of ``segment``, cached by content hash."""
        entry = self._entries.get(segment.content_hash)
        if entry is not None:
            self.hits += 1
            obs.count("parse_hits")
            return entry
        self.misses += 1
        obs.count("parse_misses")
        entry = self._parse_segment(segment.text)
        self._entries[segment.content_hash] = entry
        return entry

    def _parse_segment(self, text: str) -> ParsedSegment:
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
