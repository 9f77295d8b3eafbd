"""Lexer-level statement segmentation for incremental parsing.

Consecutive versions of a schema-history snapshot are near-identical:
a handful of changed statements per month against a file of hundreds.
The splitter exploits that redundancy *below* the parser: it slices a
DDL script into statement spans at top-level semicolons — respecting
exactly the comment, string and quoting conventions of the lexer — and
content-hashes each span, **without** tokenizing or parsing anything.
The hashes key the per-history statement memo
(:class:`repro.sqlddl.memo.StatementMemo`), so only statements that
actually changed since the previous version are ever parsed again.

Segmentation is equivalent to the token-level split of
:func:`repro.sqlddl.parser.parse_script` (which splits the token stream
at every ``;`` token): a semicolon inside a string literal, quoted
identifier, dollar-quoted string or comment never ends a segment, and
spans holding only trivia (whitespace/comments) yield no segment, just
as they yield no tokens. Unterminated constructs (an open string or
block comment running to EOF) are swallowed into the final segment and
marked as content, so the later per-segment tokenization reproduces the
whole-file :class:`~repro.errors.LexError` and the caller can fall back
to the classic full parse.

Beside the split, :func:`cut_create_table` cuts one ``CREATE TABLE``
span into its head, its body elements and its tail with the same scan
helpers, so the statement memo can read each column definition, table
constraint and head/tail pair from a per-process cache instead of
parsing every changed table whole.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from repro.sqlddl.dialect import Dialect, DialectTraits

__all__ = ["Segment", "cut_create_table", "segment_hash", "split_statements"]


@dataclass(frozen=True, slots=True)
class Segment:
    """One statement span of a DDL script.

    Attributes:
        text: the span text, stripped of surrounding whitespace, without
            the terminating semicolon. May still carry interior trivia
            (comments between tokens), which the hash covers too.
        content_hash: BLAKE2b-128 hex digest of ``text`` — the key under
            which the parsed statement is memoized.
    """

    text: str
    content_hash: str


def segment_hash(text: str) -> str:
    """The content hash of one statement span (BLAKE2b-128)."""
    return hashlib.blake2b(text.encode("utf-8"),
                           digest_size=16).hexdigest()


#: Per-dialect scan patterns matching every character that can change
#: the segmentation state (plus any ``extra`` characters the scan
#: stops at); everything between matches is ordinary text.
_PATTERNS: dict[tuple[str, str], re.Pattern] = {}


def _pattern_for(traits: DialectTraits, extra: str = "") -> re.Pattern:
    key = (traits.name, extra)
    pattern = _PATTERNS.get(key)
    if pattern is None:
        chars = ";'-/$" + extra + "".join(traits.identifier_quotes)
        if traits.hash_comments:
            chars += "#"
        pattern = _PATTERNS[key] = re.compile("[" + re.escape(chars) + "]")
    return pattern


def _line_end(text: str, pos: int) -> int:
    """Index just past the current line comment."""
    end = text.find("\n", pos)
    return len(text) if end < 0 else end + 1


def _scan_string(text: str, pos: int) -> int:
    """Index just past a ``'...'`` literal opening at ``pos``.

    Mirrors the lexer: backslash escapes one character, a doubled quote
    is an escaped quote. Unterminated literals swallow the rest of the
    input (the later tokenization fails the same way).
    """
    i = pos + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n:
            i += 2
            continue
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                i += 2
                continue
            return i + 1
        i += 1
    return n


def _scan_quoted(text: str, pos: int, close: str, doubled: bool) -> int:
    """Index just past a quoted identifier opening at ``pos``."""
    i = pos + 1
    n = len(text)
    while i < n:
        if text[i] == close:
            if doubled and i + 1 < n and text[i + 1] == close:
                i += 2
                continue
            return i + 1
        i += 1
    return n


def _scan_dollar(text: str, pos: int) -> int | None:
    """Index just past a dollar-quoted string opening at ``pos``.

    Returns None when ``pos`` does not open a dollar quote — either the
    ``$`` sits inside a word (the lexer's word reader consumes ``$``
    characters, so ``a$b$c`` is one identifier) or no ``$tag$``
    delimiter follows.
    """
    if pos > 0:
        prev = text[pos - 1]
        if prev.isalnum() or prev in "_$":
            return None
    i = pos + 1
    n = len(text)
    while i < n and (text[i].isalnum() or text[i] == "_"):
        i += 1
    if i >= n or text[i] != "$":
        return None
    delimiter = text[pos:i + 1]
    end = text.find(delimiter, i + 1)
    if end < 0:
        return n
    return end + len(delimiter)


def split_statements(text: str,
                     dialect: Dialect = Dialect.GENERIC) -> list[Segment]:
    """Split ``text`` into hashed statement segments.

    Args:
        text: the full ``.sql`` file content.
        dialect: dialect whose comment/quoting traits apply (must match
            the dialect later used to parse the segments).

    Returns:
        Content-bearing segments in source order; trivia-only spans are
        dropped, matching the token-level split of ``parse_script``.
    """
    traits = dialect.traits
    pattern = _pattern_for(traits)
    identifier_quotes = traits.identifier_quotes
    segments: list[Segment] = []
    n = len(text)
    start = 0
    pos = 0
    has_content = False

    def emit(end: int) -> None:
        span = text[start:end].strip()
        segments.append(Segment(text=span, content_hash=segment_hash(span)))

    while pos < n:
        match = pattern.search(text, pos)
        if match is None:
            if not has_content and text[pos:].strip():
                has_content = True
            pos = n
            break
        i = match.start()
        if not has_content and text[pos:i].strip():
            has_content = True
        ch = text[i]
        if ch == ";":
            if has_content:
                emit(i)
            start = pos = i + 1
            has_content = False
        elif ch == "'":
            pos = _scan_string(text, i)
            has_content = True
        elif ch == "-":
            if text.startswith("--", i):
                pos = _line_end(text, i)
            else:
                has_content = True
                pos = i + 1
        elif ch == "#":  # in the pattern only when the dialect allows it
            pos = _line_end(text, i)
        elif ch == "/":
            if text.startswith("/*", i):
                end = text.find("*/", i + 2)
                if end < 0:  # unterminated: keep span, lexing will fail
                    has_content = True
                    pos = n
                else:
                    pos = end + 2
            else:
                has_content = True
                pos = i + 1
        elif ch == "$":
            end = _scan_dollar(text, i)
            has_content = True
            pos = i + 1 if end is None else end
        elif ch in identifier_quotes:
            pos = _scan_quoted(text, i, "]" if ch == "[" else ch,
                               doubled=ch != "[")
            has_content = True
        else:  # a quote character the dialect treats as plain punctuation
            has_content = True
            pos = i + 1
    if has_content:
        emit(n)
    return segments


#: A span the element cut applies to opens ``CREATE [TEMPORARY] TABLE``.
_CREATE_TABLE = re.compile(r"CREATE\s+(?:TEMP(?:ORARY)?\s+)?TABLE\b",
                           re.IGNORECASE)


def _content_start(text: str, traits: DialectTraits) -> int | None:
    """Index of the first character past leading whitespace and
    comments (None: an unterminated block comment)."""
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if text.startswith("--", pos) or (
                traits.hash_comments and text.startswith("#", pos)):
            pos = _line_end(text, pos)
        elif text.startswith("/*", pos):
            end = text.find("*/", pos + 2)
            if end < 0:
                return None
            pos = end + 2
        else:
            return pos


def cut_create_table(text: str, dialect: Dialect = Dialect.GENERIC
                     ) -> tuple[str, list[str], str] | None:
    """Cut a ``CREATE [TEMPORARY] TABLE`` span at its body's structure.

    Returns ``(head, elements, tail)``: the head runs from the first
    token (leading comments excluded) up to and including the first
    top-level ``(``; the
    elements are the stripped texts between the body's top-level
    commas (one column definition or table constraint each); the tail
    starts at the ``)`` closing the body. Every cut falls on a
    parenthesis or comma outside any string, comment or quoted
    identifier, so each piece lexes to exactly the tokens it has
    inside ``text``.

    Returns None (no cut) for any other span, and when the head or body
    holds a ``$`` or ``;`` outside strings and comments, an
    unterminated construct, unbalanced parentheses or an empty element.
    """
    traits = dialect.traits
    start = _content_start(text, traits)
    if start is None or _CREATE_TABLE.match(text, start) is None:
        return None
    pattern = _pattern_for(traits, "(),")
    identifier_quotes = traits.identifier_quotes
    depth = 0
    head_end = 0
    cuts: list[int] = []
    pos = start
    while True:
        match = pattern.search(text, pos)
        if match is None:
            return None  # the body never closes
        i = match.start()
        ch = text[i]
        pos = i + 1
        if ch == "(":
            depth += 1
            if depth == 1:
                head_end = pos
        elif ch == ")":
            depth -= 1
            if depth == 0:
                break
            if depth < 0:
                return None
        elif ch == ",":
            if depth == 1:
                cuts.append(i)
        elif ch == "'":
            pos = _scan_string(text, i)
        elif ch == "-":
            if text.startswith("--", i):
                pos = _line_end(text, i)
        elif ch == "#":  # in the pattern only when the dialect allows it
            pos = _line_end(text, i)
        elif ch == "/":
            if text.startswith("/*", i):
                end = text.find("*/", i + 2)
                if end < 0:
                    return None
                pos = end + 2
        elif ch in identifier_quotes:
            pos = _scan_quoted(text, i, "]" if ch == "[" else ch,
                               doubled=ch != "[")
        else:  # ``$`` (a possible dollar quote) or ``;``
            return None
    bounds = [head_end - 1, *cuts, i]
    elements = [text[left + 1:right].strip()
                for left, right in zip(bounds, bounds[1:])]
    if not all(elements):
        return None
    return text[start:head_end], elements, text[i:]
