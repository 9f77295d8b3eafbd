"""Hand-written lexer for SQL DDL scripts.

The lexer understands the comment and quoting conventions that actually
occur in FOSS ``.sql`` dumps:

* ``-- line comments`` and ``/* block comments */`` (everywhere),
* ``# line comments`` (MySQL),
* backtick / double-quote / bracket quoted identifiers, with doubled-quote
  escapes (``"a""b"`` is the identifier ``a"b``),
* single-quoted strings with doubled-quote and backslash escapes,
* integer, decimal and scientific-notation numeric literals,
* everything else as single-character punctuation.

The lexer is deliberately permissive: it never tries to validate SQL, it
only slices it into tokens. Characters it genuinely cannot place (e.g. a
stray ``\\x00``) raise :class:`~repro.errors.LexError` — but the robust
script parser catches those per-statement.
"""

from __future__ import annotations

import re
import sys

from repro.errors import LexError
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.tokens import Token, TokenType

# Backslash appears in pg_dump COPY terminators (`\.`); treating it as
# punctuation lets the robust script parser skip those lines instead of
# failing the whole file.
_PUNCT_CHARS = set("(),;.=+-*/<>%!&|^~?:@$[]{}\\")
_CLOSING_QUOTE = {"`": "`", '"': '"', "[": "]"}


class Lexer:
    """Tokenizes one SQL script string.

    Args:
        text: the SQL source.
        dialect: dialect whose comment/quoting traits apply.
    """

    def __init__(self, text: str, dialect: Dialect = Dialect.GENERIC):
        self._text = text
        self._dialect = dialect
        self._pos = 0
        self._line = 1
        self._col = 1

    def tokens(self) -> list[Token]:
        """Lex the whole input and return all tokens plus an EOF token."""
        out: list[Token] = []
        while True:
            token = self.next_token()
            out.append(token)
            if token.type is TokenType.EOF:
                return out

    def next_token(self) -> Token:
        """Return the next token, skipping whitespace and comments."""
        self._skip_trivia()
        if self._pos >= len(self._text):
            return Token(TokenType.EOF, "", self._line, self._col)

        ch = self._text[self._pos]
        line, col = self._line, self._col

        if ch in _CLOSING_QUOTE and ch in self._dialect.traits.identifier_quotes:
            # Identifiers and keywords recur massively across the
            # versions of one history; interning collapses them into a
            # shared pool so memoized ASTs alias rather than duplicate.
            value = sys.intern(self._read_quoted(ch, _CLOSING_QUOTE[ch]))
            return Token(TokenType.QUOTED_IDENT, value, line, col)
        if ch == "'":
            value = self._read_string()
            return Token(TokenType.STRING, value, line, col)
        if ch == "$" and self._looks_like_dollar_quote():
            value = self._read_dollar_quoted()
            return Token(TokenType.STRING, value, line, col)
        if ch.isdigit() or (ch == "." and self._peek_is_digit(1)):
            value = self._read_number()
            return Token(TokenType.NUMBER, value, line, col)
        if ch.isalpha() or ch == "_":
            value = sys.intern(self._read_word())
            return Token(TokenType.WORD, value, line, col)
        if ch in _PUNCT_CHARS:
            self._advance()
            return Token(TokenType.PUNCT, ch, line, col)

        raise LexError(f"unexpected character {ch!r}", line, col)

    # ------------------------------------------------------------------
    # internals

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self._pos < len(self._text):
                if self._text[self._pos] == "\n":
                    self._line += 1
                    self._col = 1
                else:
                    self._col += 1
                self._pos += 1

    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        return self._text[index] if index < len(self._text) else ""

    def _peek_is_digit(self, offset: int) -> bool:
        ch = self._peek(offset)
        return bool(ch) and ch.isdigit()

    def _skip_trivia(self) -> None:
        """Skip whitespace and comments until real content (or EOF)."""
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch.isspace():
                self._advance()
            elif ch == "-" and self._peek(1) == "-":
                self._skip_line()
            elif ch == "#" and self._dialect.traits.hash_comments:
                self._skip_line()
            elif ch == "/" and self._peek(1) == "*":
                self._skip_block_comment()
            else:
                return

    def _skip_line(self) -> None:
        while self._pos < len(self._text) and self._text[self._pos] != "\n":
            self._advance()

    def _skip_block_comment(self) -> None:
        start_line, start_col = self._line, self._col
        self._advance(2)  # consume /*
        while self._pos < len(self._text):
            if self._text[self._pos] == "*" and self._peek(1) == "/":
                self._advance(2)
                return
            self._advance()
        raise LexError("unterminated block comment", start_line, start_col)

    def _read_quoted(self, open_char: str, close_char: str) -> str:
        start_line, start_col = self._line, self._col
        self._advance()  # opening quote
        parts: list[str] = []
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch == close_char:
                if self._peek(1) == close_char and open_char != "[":
                    parts.append(close_char)
                    self._advance(2)
                    continue
                self._advance()
                return "".join(parts)
            parts.append(ch)
            self._advance()
        raise LexError("unterminated quoted identifier", start_line, start_col)

    def _read_string(self) -> str:
        start_line, start_col = self._line, self._col
        self._advance()  # opening '
        parts: list[str] = []
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch == "\\" and self._peek(1):
                parts.append(self._peek(1))
                self._advance(2)
                continue
            if ch == "'":
                if self._peek(1) == "'":
                    parts.append("'")
                    self._advance(2)
                    continue
                self._advance()
                return "".join(parts)
            parts.append(ch)
            self._advance()
        raise LexError("unterminated string literal", start_line, start_col)

    def _looks_like_dollar_quote(self) -> bool:
        """True when the cursor sits on a PostgreSQL dollar quote:
        ``$$`` or ``$tag$`` (tag = identifier characters)."""
        offset = 1
        while True:
            ch = self._peek(offset)
            if ch == "$":
                return True
            if not ch or not (ch.isalnum() or ch == "_"):
                return False
            offset += 1

    def _read_dollar_quoted(self) -> str:
        """Read a ``$tag$ ... $tag$`` string, returning its body."""
        start_line, start_col = self._line, self._col
        self._advance()  # opening $
        tag_chars: list[str] = []
        while self._pos < len(self._text) and self._text[self._pos] != "$":
            tag_chars.append(self._text[self._pos])
            self._advance()
        self._advance()  # closing $ of the opening delimiter
        delimiter = "$" + "".join(tag_chars) + "$"
        body_start = self._pos
        end = self._text.find(delimiter, body_start)
        if end < 0:
            raise LexError("unterminated dollar-quoted string",
                           start_line, start_col)
        body = self._text[body_start:end]
        self._advance(end - body_start + len(delimiter))
        return body

    def _read_number(self) -> str:
        parts: list[str] = []
        seen_dot = False
        seen_exp = False
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch.isdigit():
                parts.append(ch)
            elif ch == "." and not seen_dot and not seen_exp:
                seen_dot = True
                parts.append(ch)
            elif ch in "eE" and not seen_exp and parts and parts[-1].isdigit():
                nxt = self._peek(1)
                nxt2 = self._peek(2)
                if nxt.isdigit() or (nxt in "+-" and nxt2.isdigit()):
                    seen_exp = True
                    parts.append(ch)
                else:
                    break
            elif ch in "+-" and parts and parts[-1] in "eE":
                parts.append(ch)
            else:
                break
            self._advance()
        return "".join(parts)

    def _read_word(self) -> str:
        start = self._pos
        while self._pos < len(self._text):
            ch = self._text[self._pos]
            if ch.isalnum() or ch in "_$":
                self._advance()
            else:
                break
        return self._text[start:self._pos]


# ----------------------------------------------------------------------
# regex fast path
#
# One master regex per dialect lexes the overwhelmingly common token
# shapes in a single :meth:`re.Pattern.finditer` sweep. The fast path is
# *conservative*: its character classes are ASCII-only and it knows
# nothing about dollar quotes, so any input the master pattern cannot
# cover contiguously (a gap between matches, or a tail it cannot reach)
# makes :func:`_fast_lex` return None and the whole text re-lexes through
# the classic :class:`Lexer` — including its exact LexError messages and
# positions. Anything the fast path *does* return is token-for-token
# identical to the classic result (see tests/sqlddl/test_lexer_fast.py).

#: Number literal, mirroring the classic `_read_number` quirks:
#: one dot max, exponent only directly after a digit, `1.` allowed.
#: ASCII digits only: a word the classic path continues through another
#: script's digit (``A\u0ce6``) must fall back, not split.
_NUMBER_PATTERN = (
    r"[0-9]+\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+\.(?![0-9])"
    r"|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+(?:[eE][+-]?[0-9]+)?"
)

#: Punctuation the master pattern may claim outright. `$` is absent
#: (possible dollar quote → fallback), `[` is appended per dialect,
#: `-`/`/` are guarded so comment openers never lex as punctuation —
#: an *unterminated* block comment must fall through to the classic
#: LexError rather than tokenize as `/` `*`.
_PUNCT_SAFE = r"[(),;.=+*<>%!&|^~?:@\]{}\\]|-(?!-)|/(?!\*)"
_PUNCT_WITH_BRACKET = r"[(),;.=+*<>%!&|^~?:@\[\]{}\\]|-(?!-)|/(?!\*)"

_STRING_ESCAPE = re.compile(r"\\(.)|''", re.S)


def _string_unescape(match: re.Match) -> str:
    backslashed = match.group(1)
    return backslashed if backslashed is not None else "'"


def _build_master_pattern(dialect: Dialect) -> re.Pattern:
    traits = dialect.traits
    quotes = traits.identifier_quotes
    parts = [
        r"(?P<WS>[ \t\r\n\f\v]+)",
        r"(?P<LINEC>--[^\n]*)",
    ]
    if traits.hash_comments:
        parts.append(r"(?P<HASHC>#[^\n]*)")
    parts.append(r"(?P<BLOCKC>/\*(?s:.*?)\*/)")
    if "`" in quotes:
        parts.append(r"(?P<BTICK>`[^`]*(?:``[^`]*)*`)")
    if '"' in quotes:
        parts.append(r'(?P<DQUOTE>"[^"]*(?:""[^"]*)*")')
    if "[" in quotes:
        parts.append(r"(?P<BRACKET>\[[^\]]*\])")
    parts.append(r"(?P<STRING>'(?:[^'\\]|''|\\(?s:.))*')")
    parts.append(rf"(?P<NUMBER>{_NUMBER_PATTERN})")
    parts.append(r"(?P<WORD>[A-Za-z_][A-Za-z0-9_$]*)")
    # `[` is a quoted-identifier opener in bracket dialects: there an
    # unterminated `[ident` must fall back (classic raises), so it stays
    # out of the punctuation class; elsewhere it is plain punctuation.
    punct = _PUNCT_SAFE if "[" in quotes else _PUNCT_WITH_BRACKET
    parts.append(rf"(?P<PUNCT>{punct})")
    return re.compile("|".join(parts))


_MASTER_PATTERNS: dict[Dialect, re.Pattern] = {}


def _master_pattern(dialect: Dialect) -> re.Pattern:
    pattern = _MASTER_PATTERNS.get(dialect)
    if pattern is None:
        pattern = _MASTER_PATTERNS[dialect] = _build_master_pattern(dialect)
    return pattern


def _fast_lex(text: str, dialect: Dialect) -> list[Token] | None:
    """Lex ``text`` in one regex sweep, or None for the classic path."""
    tokens: list[Token] = []
    append = tokens.append
    intern = sys.intern
    word_type = TokenType.WORD
    punct_type = TokenType.PUNCT
    pos = 0
    line = 1
    last_nl = -1  # index of the last newline seen; col = index - last_nl
    for match in _master_pattern(dialect).finditer(text):
        start = match.start()
        if start != pos:
            return None
        pos = match.end()
        kind = match.lastgroup
        if kind == "WS":
            raw = match.group()
            newlines = raw.count("\n")
            if newlines:
                line += newlines
                last_nl = start + raw.rindex("\n")
        elif kind == "WORD":
            append(Token(word_type, intern(match.group()),
                         line, start - last_nl))
        elif kind == "PUNCT":
            append(Token(punct_type, match.group(), line, start - last_nl))
        elif kind == "NUMBER":
            append(Token(TokenType.NUMBER, match.group(),
                         line, start - last_nl))
        elif kind == "STRING":
            raw = match.group()
            body = raw[1:-1]
            if "\\" in body or "''" in body:
                body = _STRING_ESCAPE.sub(_string_unescape, body)
            append(Token(TokenType.STRING, body, line, start - last_nl))
            newlines = raw.count("\n")
            if newlines:
                line += newlines
                last_nl = start + raw.rindex("\n")
        elif kind in ("BTICK", "DQUOTE", "BRACKET"):
            raw = match.group()
            body = raw[1:-1]
            if kind != "BRACKET":
                quote = raw[0]
                doubled = quote + quote
                if doubled in body:
                    body = body.replace(doubled, quote)
            append(Token(TokenType.QUOTED_IDENT, intern(body),
                         line, start - last_nl))
            newlines = raw.count("\n")
            if newlines:
                line += newlines
                last_nl = start + raw.rindex("\n")
        elif kind == "BLOCKC":
            raw = match.group()
            newlines = raw.count("\n")
            if newlines:
                line += newlines
                last_nl = start + raw.rindex("\n")
        # LINEC / HASHC: cannot contain a newline — nothing to track.
    if pos != len(text):
        return None
    append(Token(TokenType.EOF, "", line, pos - last_nl))
    return tokens


def tokenize(text: str, dialect: Dialect = Dialect.GENERIC) -> list[Token]:
    """Tokenize ``text`` and return all tokens including the final EOF."""
    tokens = _fast_lex(text, dialect)
    if tokens is None:
        return Lexer(text, dialect).tokens()
    return tokens
