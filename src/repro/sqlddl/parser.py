"""Recursive-descent parser for SQL DDL.

Two entry points:

* :func:`parse_statement` — parse exactly one DDL statement, raising
  :class:`~repro.errors.ParseError` on anything it cannot understand.
* :func:`parse_script` — parse a whole ``.sql`` file *robustly*: the file
  is split into statements at top-level semicolons; statements that are
  not DDL (INSERT, SET, COMMENT ON, ...) or that fail to parse are
  recorded as :class:`~repro.sqlddl.ast_nodes.SkippedStatement` instead of
  aborting the file. This mirrors how schema-history extractors must treat
  real dump files.

Only the logical-schema statements are materialized: CREATE TABLE,
ALTER TABLE, DROP TABLE, plus CREATE/DROP INDEX (parsed but ignored by the
logical schema builder).
"""

from __future__ import annotations

from repro.errors import LexError, ParseError
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import ALL_AUTOINCREMENT_WORDS, Dialect
from repro.sqlddl.lexer import tokenize
from repro.sqlddl.tokens import EOF_TOKEN, Token, TokenType

# Words that terminate a column flag loop when seen at the top level of a
# column definition.
_CONSTRAINT_STARTERS = (
    "CONSTRAINT", "PRIMARY", "FOREIGN", "UNIQUE", "CHECK", "KEY", "INDEX",
    "FULLTEXT", "SPATIAL",
)

# Multi-word type names we join into one DataType.name.
_TYPE_SECOND_WORDS = {
    "DOUBLE": ("PRECISION",),
    "CHARACTER": ("VARYING",),
    "BIT": ("VARYING",),
    "LONG": ("VARCHAR", "VARBINARY"),
}

_REFERENTIAL_ACTIONS = ("CASCADE", "RESTRICT", "SET", "NO")


def _is_serial(data_type: ast.DataType) -> bool:
    """True for PostgreSQL SERIAL-family types, which imply auto-increment."""
    from repro.sqlddl.dialect import ALL_SERIAL_TYPES
    return data_type.name.upper() in ALL_SERIAL_TYPES


class Parser:
    """Parses a token stream into DDL AST nodes.

    The parser is cursor-based; all ``_parse_*`` helpers consume tokens and
    raise :class:`ParseError` when the input diverges from the grammar.
    """

    def __init__(self, tokens: list[Token], dialect: Dialect = Dialect.GENERIC,
                 table_body: tuple | None = None):
        self._tokens = tokens
        self._dialect = dialect
        self._pos = 0
        #: Pre-parsed ``CREATE TABLE`` body elements that stand in for
        #: the body between the ``(`` and ``)`` tokens (see
        #: :func:`parse_token_group`); consumed by the first body parse.
        self._table_body = table_body

    # ------------------------------------------------------------------
    # cursor helpers
    #
    # The token list always ends with an EOF token and the cursor never
    # moves past it (_advance stops there), so offset-0 reads index the
    # list directly; only lookahead peeks need the bounds check.

    def _peek(self, offset: int = 0) -> Token:
        index = self._pos + offset
        if index < len(self._tokens):
            return self._tokens[index]
        return self._tokens[-1]  # EOF

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> ParseError:
        token = self._tokens[self._pos]
        return ParseError(f"{message}, got {token.describe()}",
                          token.line, token.column)

    def _accept_word(self, *words: str) -> Token | None:
        token = self._tokens[self._pos]
        if token.type is TokenType.WORD and token.value.upper() in words:
            self._pos += 1  # a WORD is never the EOF sentinel
            return token
        return None

    def _expect_word(self, *words: str) -> Token:
        token = self._accept_word(*words)
        if token is None:
            raise self._error(f"expected {' or '.join(words)}")
        return token

    def _accept_punct(self, char: str) -> Token | None:
        token = self._tokens[self._pos]
        if token.type is TokenType.PUNCT and token.value == char:
            self._pos += 1  # a PUNCT is never the EOF sentinel
            return token
        return None

    def _expect_punct(self, char: str) -> Token:
        token = self._accept_punct(char)
        if token is None:
            raise self._error(f"expected {char!r}")
        return token

    def at_end(self) -> bool:
        """True when only the EOF token (and optional semicolons) remain."""
        return self._tokens[self._pos].type is TokenType.EOF

    # ------------------------------------------------------------------
    # identifiers and simple lists

    def _parse_identifier(self) -> str:
        """Parse a possibly schema-qualified identifier, returning the last
        (object) component. ``mydb.users`` parses to ``users``."""
        token = self._peek()
        if token.type not in (TokenType.WORD, TokenType.QUOTED_IDENT):
            raise self._error("expected identifier")
        self._advance()
        name = token.value
        while self._accept_punct("."):
            part = self._peek()
            if part.type not in (TokenType.WORD, TokenType.QUOTED_IDENT):
                raise self._error("expected identifier after '.'")
            self._advance()
            name = part.value
        return name

    def _parse_column_name_list(self) -> tuple[str, ...]:
        """Parse ``(col [(len)] [ASC|DESC], ...)`` returning column names."""
        self._expect_punct("(")
        names: list[str] = []
        while True:
            names.append(self._parse_identifier())
            if self._accept_punct("("):  # MySQL key prefix length
                while not self._peek().is_punct(")"):
                    if self._peek().type is TokenType.EOF:
                        raise self._error("unterminated key prefix length")
                    self._advance()
                self._expect_punct(")")
            self._accept_word("ASC", "DESC")
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return tuple(names)

    def _capture_balanced(self) -> str:
        """Consume a parenthesized group, returning its inner text."""
        self._expect_punct("(")
        depth = 1
        parts: list[str] = []
        while depth > 0:
            token = self._peek()
            if token.type is TokenType.EOF:
                raise self._error("unterminated parenthesized expression")
            self._advance()
            if token.is_punct("("):
                depth += 1
            elif token.is_punct(")"):
                depth -= 1
                if depth == 0:
                    break
            parts.append(_render_token(token))
        return _join_tokens(parts)

    def _parse_value_expr(self) -> str:
        """Parse a DEFAULT-style value: literal, NULL, identifier, call or
        a parenthesized expression; returned as raw text."""
        token = self._peek()
        if token.is_punct("("):
            return "(" + self._capture_balanced() + ")"
        if token.is_punct("-") or token.is_punct("+"):
            self._advance()
            rest = self._parse_value_expr()
            return token.value + rest
        if token.type is TokenType.NUMBER:
            self._advance()
            return self._with_cast_suffix(token.value)
        if token.type is TokenType.STRING:
            self._advance()
            literal = "'" + token.value.replace("'", "''") + "'"
            return self._with_cast_suffix(literal)
        if token.type in (TokenType.WORD, TokenType.QUOTED_IDENT):
            self._advance()
            text = token.value
            if self._peek().is_punct("("):
                text += "(" + self._capture_balanced() + ")"
            return self._with_cast_suffix(text)
        raise self._error("expected default value expression")

    def _with_cast_suffix(self, text: str) -> str:
        """Consume optional PostgreSQL ``::type`` casts after a value."""
        while self._peek().is_punct(":") and self._peek(1).is_punct(":"):
            self._advance()
            self._advance()
            cast_type = self._parse_data_type()
            text += "::" + cast_type.render()
        return text

    # ------------------------------------------------------------------
    # statement dispatch

    def parse_statement(self) -> ast.Statement:
        """Parse one DDL statement starting at the cursor."""
        token = self._peek()
        if token.is_word("CREATE"):
            return self._parse_create()
        if token.is_word("DROP"):
            return self._parse_drop()
        if token.is_word("ALTER"):
            return self._parse_alter()
        raise self._error("expected CREATE, DROP or ALTER")

    # ------------------------------------------------------------------
    # CREATE

    def _parse_create(self) -> ast.Statement:
        self._expect_word("CREATE")
        or_replace = False
        if self._accept_word("OR"):
            self._expect_word("REPLACE")
            or_replace = True
        temporary = bool(self._accept_word("TEMPORARY", "TEMP"))
        unique_index = bool(self._accept_word("UNIQUE"))
        if self._accept_word("TABLE"):
            return self._parse_create_table(temporary=temporary)
        if self._accept_word("INDEX"):
            return self._parse_create_index(unique=unique_index)
        if self._accept_word("VIEW"):
            return self._parse_create_view(or_replace=or_replace)
        raise self._error("expected TABLE, INDEX or VIEW after CREATE")

    def _parse_create_view(self, or_replace: bool) -> ast.CreateView:
        if_not_exists = self._parse_if_not_exists()
        name = self._parse_identifier()
        columns: tuple[str, ...] = ()
        if self._peek().is_punct("("):
            columns = self._parse_column_name_list()
        self._expect_word("AS")
        query = self._capture_rest()
        return ast.CreateView(name=name, columns=columns, query=query,
                              or_replace=or_replace,
                              if_not_exists=if_not_exists)

    def _capture_rest(self) -> str:
        """Consume every remaining token of the statement as raw text."""
        parts: list[str] = []
        while self._peek().type is not TokenType.EOF \
                and not self._peek().is_punct(";"):
            parts.append(_render_token(self._advance()))
        return _join_tokens(parts)

    def _parse_if_not_exists(self) -> bool:
        if self._peek().is_word("IF"):
            self._advance()
            self._expect_word("NOT")
            self._expect_word("EXISTS")
            return True
        return False

    def _parse_create_table(self, temporary: bool) -> ast.Statement:
        if_not_exists = self._parse_if_not_exists()
        name = self._parse_identifier()
        if self._accept_word("LIKE"):
            template = self._parse_identifier()
            return ast.CreateTableLike(name=name, template=template,
                                       if_not_exists=if_not_exists)
        self._expect_punct("(")
        elements = self._table_body
        if elements is None:
            elements = [self._parse_table_element()]
            while self._accept_punct(","):
                elements.append(self._parse_table_element())
        else:
            self._table_body = None
        self._expect_punct(")")
        options = self._parse_table_options()
        return ast.CreateTable(
            name=name,
            columns=tuple(e for e in elements
                          if isinstance(e, ast.ColumnDef)),
            constraints=tuple(e for e in elements
                              if not isinstance(e, ast.ColumnDef)),
            if_not_exists=if_not_exists,
            temporary=temporary,
            options=options,
        )

    def _parse_table_element(self) -> ast.ColumnDef | ast.TableConstraint:
        """Parse one element of a ``CREATE TABLE`` body."""
        if self._looks_like_table_constraint():
            return self._parse_table_constraint()
        return self._parse_column_def()

    def _looks_like_table_constraint(self) -> bool:
        token = self._peek()
        if not token.is_word(*_CONSTRAINT_STARTERS):
            return False
        # "PRIMARY", "KEY" etc. are legal column names when followed by a
        # type word; a constraint keyword is followed by another keyword,
        # an identifier (constraint/index name) or an opening paren.
        if token.is_word("CONSTRAINT", "FOREIGN", "FULLTEXT", "SPATIAL"):
            return True
        nxt = self._peek(1)
        if token.is_word("PRIMARY"):
            return nxt.is_word("KEY")
        if token.is_word("UNIQUE"):
            return nxt.is_word("KEY", "INDEX") or nxt.is_punct("(")
        if token.is_word("CHECK"):
            return nxt.is_punct("(")
        if token.is_word("KEY", "INDEX"):
            if nxt.is_punct("("):
                return True
            if nxt.type in (TokenType.WORD, TokenType.QUOTED_IDENT) \
                    and self._peek(2).is_punct("("):
                # Disambiguate "KEY idx (col)" from a column named "key"
                # with a parameterized type ("key VARCHAR(10)"): a key's
                # column list starts with an identifier, type parameters
                # start with a number or string.
                inner = self._peek(3)
                return inner.type in (TokenType.WORD,
                                      TokenType.QUOTED_IDENT)
        return False

    def _parse_table_constraint(self) -> ast.TableConstraint:
        name: str | None = None
        if self._accept_word("CONSTRAINT"):
            if self._peek().type in (TokenType.WORD, TokenType.QUOTED_IDENT) \
                    and not self._peek().is_word("PRIMARY", "FOREIGN",
                                                 "UNIQUE", "CHECK"):
                name = self._parse_identifier()
        if self._accept_word("PRIMARY"):
            self._expect_word("KEY")
            columns = self._parse_column_name_list()
            return ast.PrimaryKeyConstraint(columns=columns, name=name)
        if self._accept_word("FOREIGN"):
            self._expect_word("KEY")
            if not self._peek().is_punct("("):
                # MySQL allows an index name here.
                self._parse_identifier()
            columns = self._parse_column_name_list()
            return self._parse_references_tail(columns, name)
        if self._accept_word("UNIQUE"):
            self._accept_word("KEY", "INDEX")
            idx_name = None
            if self._peek().type in (TokenType.WORD, TokenType.QUOTED_IDENT):
                idx_name = self._parse_identifier()
            columns = self._parse_column_name_list()
            return ast.UniqueConstraint(columns=columns, name=name or idx_name)
        if self._accept_word("CHECK"):
            expression = self._capture_balanced()
            return ast.CheckConstraint(expression=expression, name=name)
        if self._accept_word("FULLTEXT", "SPATIAL"):
            self._accept_word("KEY", "INDEX")
            idx_name = None
            if self._peek().type in (TokenType.WORD, TokenType.QUOTED_IDENT):
                idx_name = self._parse_identifier()
            columns = self._parse_column_name_list()
            return ast.IndexKey(columns=columns, name=idx_name)
        if self._accept_word("KEY", "INDEX"):
            idx_name = None
            if self._peek().type in (TokenType.WORD, TokenType.QUOTED_IDENT):
                idx_name = self._parse_identifier()
            columns = self._parse_column_name_list()
            return ast.IndexKey(columns=columns, name=idx_name)
        raise self._error("expected table constraint")

    def _parse_references_tail(self, columns: tuple[str, ...],
                               name: str | None) -> ast.ForeignKeyConstraint:
        self._expect_word("REFERENCES")
        ref = self._parse_references_clause()
        return ast.ForeignKeyConstraint(
            columns=columns,
            ref_table=ref.table,
            ref_columns=ref.columns,
            name=name,
            on_delete=ref.on_delete,
            on_update=ref.on_update,
        )

    def _parse_references_clause(self) -> ast.ForeignKeyRef:
        """Parse the part after REFERENCES: table, columns and FK actions."""
        table = self._parse_identifier()
        ref_columns: tuple[str, ...] = ()
        if self._peek().is_punct("("):
            ref_columns = self._parse_column_name_list()
        on_delete = on_update = None
        while self._peek().is_word("ON", "MATCH"):
            if self._accept_word("MATCH"):
                self._advance()  # FULL | PARTIAL | SIMPLE
                continue
            self._expect_word("ON")
            which = self._expect_word("DELETE", "UPDATE").upper()
            action = self._parse_referential_action()
            if which == "DELETE":
                on_delete = action
            else:
                on_update = action
        return ast.ForeignKeyRef(table=table, columns=ref_columns,
                                 on_delete=on_delete, on_update=on_update)

    def _parse_referential_action(self) -> str:
        token = self._expect_word(*_REFERENTIAL_ACTIONS)
        action = token.upper()
        if action == "SET":
            action += " " + self._expect_word("NULL", "DEFAULT").upper()
        elif action == "NO":
            action += " " + self._expect_word("ACTION").upper()
        return action

    # ------------------------------------------------------------------
    # column definitions

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self._parse_identifier()
        data_type = None
        if self._peek().type is TokenType.WORD and not self._column_flag_ahead():
            data_type = self._parse_data_type()
        flags = self._parse_column_flags()
        auto_inc = flags.pop("auto_increment", False)
        if data_type is not None and _is_serial(data_type):
            auto_inc = True
        return ast.ColumnDef(name=name, data_type=data_type,
                             auto_increment=auto_inc, **flags)

    def _column_flag_ahead(self) -> bool:
        """True when the next word starts column flags, not a type name."""
        return self._peek().is_word(
            "NOT", "NULL", "DEFAULT", "PRIMARY", "UNIQUE", "REFERENCES",
            "COMMENT", "CHECK", "COLLATE", "CONSTRAINT", "GENERATED",
            *ALL_AUTOINCREMENT_WORDS,
        )

    def _parse_data_type(self) -> ast.DataType:
        first = self._advance()
        type_name = first.upper()
        second_options = _TYPE_SECOND_WORDS.get(type_name, ())
        if second_options and self._peek().is_word(*second_options):
            type_name += " " + self._advance().upper()
        params: tuple[str, ...] = ()
        if self._peek().is_punct("("):
            params = self._parse_type_params()
        # TIMESTAMP/TIME WITH(OUT) TIME ZONE
        if type_name in ("TIMESTAMP", "TIME") and self._peek().is_word(
                "WITH", "WITHOUT"):
            with_word = self._advance().upper()
            self._expect_word("TIME")
            self._expect_word("ZONE")
            type_name += f" {with_word} TIME ZONE"
        unsigned = bool(self._accept_word("UNSIGNED"))
        zerofill = bool(self._accept_word("ZEROFILL"))
        # MySQL charset/collation attached to the type.
        if self._accept_word("CHARACTER"):
            self._expect_word("SET")
            self._advance()
        if self._accept_word("COLLATE"):
            self._advance()
        return ast.DataType(name=type_name, params=params,
                            unsigned=unsigned, zerofill=zerofill)

    def _parse_type_params(self) -> tuple[str, ...]:
        self._expect_punct("(")
        params: list[str] = []
        while True:
            token = self._peek()
            if token.type is TokenType.NUMBER:
                self._advance()
                params.append(token.value)
            elif token.type is TokenType.STRING:
                self._advance()
                params.append("'" + token.value.replace("'", "''") + "'")
            elif token.type is TokenType.WORD:  # e.g. VARCHAR(MAX)
                self._advance()
                params.append(token.value)
            else:
                raise self._error("expected type parameter")
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        return tuple(params)

    def _parse_column_flags(self) -> dict:
        """Parse the flag soup after a column type; order-insensitive."""
        flags: dict = {
            "not_null": False, "default": None, "primary_key": False,
            "unique": False, "auto_increment": False, "references": None,
            "comment": None,
        }
        while True:
            token = self._peek()
            if token.is_word("NOT"):
                self._advance()
                self._expect_word("NULL")
                flags["not_null"] = True
            elif token.is_word("NULL"):
                self._advance()
                flags["not_null"] = False
            elif token.is_word("DEFAULT"):
                self._advance()
                flags["default"] = self._parse_value_expr()
            elif token.is_word("PRIMARY"):
                self._advance()
                self._expect_word("KEY")
                flags["primary_key"] = True
            elif token.is_word("UNIQUE"):
                self._advance()
                self._accept_word("KEY")
                flags["unique"] = True
            elif token.is_word(*ALL_AUTOINCREMENT_WORDS):
                self._advance()
                flags["auto_increment"] = True
            elif token.is_word("REFERENCES"):
                self._advance()
                flags["references"] = self._parse_references_clause()
            elif token.is_word("COMMENT"):
                self._advance()
                comment = self._peek()
                if comment.type is not TokenType.STRING:
                    raise self._error("expected string after COMMENT")
                self._advance()
                flags["comment"] = comment.value
            elif token.is_word("COLLATE"):
                self._advance()
                self._advance()
            elif token.is_word("CHECK"):
                self._advance()
                self._capture_balanced()  # column check: parsed, not stored
            elif token.is_word("CONSTRAINT"):
                self._advance()
                self._parse_identifier()  # named inline constraint: skip name
            elif token.is_word("ON"):
                # MySQL "ON UPDATE CURRENT_TIMESTAMP" on timestamp columns.
                self._advance()
                self._expect_word("UPDATE")
                self._parse_value_expr()
            elif token.is_word("GENERATED"):
                self._parse_generated_clause(flags)
            else:
                return flags

    def _parse_generated_clause(self, flags: dict) -> None:
        """Parse ``GENERATED ALWAYS AS (expr)`` / identity columns."""
        self._expect_word("GENERATED")
        self._expect_word("ALWAYS", "BY")
        if self._peek().is_word("DEFAULT"):
            self._advance()
        if self._accept_word("AS"):
            if self._peek().is_word("IDENTITY"):
                self._advance()
                flags["auto_increment"] = True
                if self._peek().is_punct("("):
                    self._capture_balanced()
            else:
                self._capture_balanced()
                self._accept_word("STORED", "VIRTUAL")
        else:
            self._expect_word("AS")

    # ------------------------------------------------------------------
    # table options

    def _parse_table_options(self) -> tuple[tuple[str, str], ...]:
        """Parse MySQL-style trailing options: ``ENGINE=InnoDB`` etc."""
        options: list[tuple[str, str]] = []
        while True:
            self._accept_punct(",")
            token = self._peek()
            if token.type is not TokenType.WORD:
                return tuple(options)
            # Option keys may be multi-word: DEFAULT CHARSET,
            # DEFAULT CHARACTER SET, CHARACTER SET, DEFAULT COLLATE.
            key = self._advance().upper()
            while key in ("DEFAULT", "CHARACTER", "DEFAULT CHARACTER") \
                    and self._peek().type is TokenType.WORD:
                key += " " + self._advance().upper()
            self._accept_punct("=")
            value_token = self._peek()
            if value_token.type in (TokenType.WORD, TokenType.NUMBER,
                                    TokenType.STRING, TokenType.QUOTED_IDENT):
                self._advance()
                options.append((key, value_token.value))
            else:
                return tuple(options)

    # ------------------------------------------------------------------
    # DROP

    def _parse_drop(self) -> ast.Statement:
        self._expect_word("DROP")
        if self._accept_word("TABLE"):
            if_exists = self._parse_if_exists()
            names = [self._parse_identifier()]
            while self._accept_punct(","):
                names.append(self._parse_identifier())
            self._accept_word("CASCADE", "RESTRICT")
            return ast.DropTable(names=tuple(names), if_exists=if_exists)
        if self._accept_word("INDEX"):
            if_exists = self._parse_if_exists()
            name = self._parse_identifier()
            table = None
            if self._accept_word("ON"):
                table = self._parse_identifier()
            self._accept_word("CASCADE", "RESTRICT")
            return ast.DropIndex(name=name, table=table, if_exists=if_exists)
        if self._accept_word("VIEW"):
            if_exists = self._parse_if_exists()
            names = [self._parse_identifier()]
            while self._accept_punct(","):
                names.append(self._parse_identifier())
            self._accept_word("CASCADE", "RESTRICT")
            return ast.DropView(names=tuple(names), if_exists=if_exists)
        raise self._error("expected TABLE, INDEX or VIEW after DROP")

    def _parse_if_exists(self) -> bool:
        if self._peek().is_word("IF"):
            self._advance()
            self._expect_word("EXISTS")
            return True
        return False

    # ------------------------------------------------------------------
    # ALTER TABLE

    def _parse_alter(self) -> ast.AlterTable:
        self._expect_word("ALTER")
        self._expect_word("TABLE")
        if_exists = self._parse_if_exists()
        self._accept_word("ONLY")  # PostgreSQL
        name = self._parse_identifier()
        actions: list[ast.AlterAction] = [self._parse_alter_action()]
        while self._accept_punct(","):
            actions.append(self._parse_alter_action())
        return ast.AlterTable(name=name, actions=tuple(actions),
                              if_exists=if_exists)

    def _parse_alter_action(self) -> ast.AlterAction:
        if self._accept_word("ADD"):
            return self._parse_alter_add()
        if self._accept_word("DROP"):
            return self._parse_alter_drop()
        if self._accept_word("MODIFY"):
            self._accept_word("COLUMN")
            return ast.ModifyColumn(column=self._parse_column_def())
        if self._accept_word("CHANGE"):
            self._accept_word("COLUMN")
            old_name = self._parse_identifier()
            return ast.ChangeColumn(old_name=old_name,
                                    column=self._parse_column_def())
        if self._accept_word("ALTER"):
            return self._parse_alter_column()
        if self._accept_word("RENAME"):
            return self._parse_alter_rename()
        if self._accept_word("OWNER"):
            self._expect_word("TO")
            return ast.TableOption(
                text="OWNER TO " + self._parse_identifier())
        if self._accept_word("SET"):
            self._expect_word("SCHEMA")
            return ast.TableOption(
                text="SET SCHEMA " + self._parse_identifier())
        raise self._error("expected ALTER TABLE action")

    def _parse_alter_add(self) -> ast.AlterAction:
        if self._accept_word("CONSTRAINT"):
            name = None
            if not self._peek().is_word("PRIMARY", "FOREIGN", "UNIQUE",
                                        "CHECK"):
                name = self._parse_identifier()
            constraint = self._parse_named_constraint_body(name)
            return ast.AddConstraint(constraint=constraint)
        if self._peek().is_word("PRIMARY", "FOREIGN", "UNIQUE", "CHECK",
                                "KEY", "INDEX", "FULLTEXT", "SPATIAL"):
            constraint = self._parse_table_constraint()
            return ast.AddConstraint(constraint=constraint)
        self._accept_word("COLUMN")
        self._parse_if_not_exists()
        column = self._parse_column_def()
        position = None
        if self._accept_word("FIRST"):
            position = "FIRST"
        elif self._accept_word("AFTER"):
            position = "AFTER " + self._parse_identifier()
        return ast.AddColumn(column=column, position=position)

    def _parse_named_constraint_body(self, name: str | None) \
            -> ast.TableConstraint:
        if self._accept_word("PRIMARY"):
            self._expect_word("KEY")
            columns = self._parse_column_name_list()
            return ast.PrimaryKeyConstraint(columns=columns, name=name)
        if self._accept_word("FOREIGN"):
            self._expect_word("KEY")
            if not self._peek().is_punct("("):
                self._parse_identifier()
            columns = self._parse_column_name_list()
            return self._parse_references_tail(columns, name)
        if self._accept_word("UNIQUE"):
            self._accept_word("KEY", "INDEX")
            idx_name = None
            if self._peek().type in (TokenType.WORD, TokenType.QUOTED_IDENT):
                idx_name = self._parse_identifier()
            columns = self._parse_column_name_list()
            return ast.UniqueConstraint(columns=columns, name=name or idx_name)
        if self._accept_word("CHECK"):
            expression = self._capture_balanced()
            return ast.CheckConstraint(expression=expression, name=name)
        raise self._error("expected constraint body")

    def _parse_alter_drop(self) -> ast.AlterAction:
        if self._accept_word("PRIMARY"):
            self._expect_word("KEY")
            return ast.DropConstraint(name=None, kind="primary key")
        if self._accept_word("FOREIGN"):
            self._expect_word("KEY")
            return ast.DropConstraint(name=self._parse_identifier(),
                                      kind="foreign key")
        if self._accept_word("CONSTRAINT"):
            if_exists = self._parse_if_exists()
            del if_exists  # tolerated, not recorded
            return ast.DropConstraint(name=self._parse_identifier(),
                                      kind="constraint")
        if self._accept_word("KEY", "INDEX"):
            return ast.DropConstraint(name=self._parse_identifier(),
                                      kind="index")
        self._accept_word("COLUMN")
        if_exists = self._parse_if_exists()
        name = self._parse_identifier()
        self._accept_word("CASCADE", "RESTRICT")
        return ast.DropColumn(name=name, if_exists=if_exists)

    def _parse_alter_column(self) -> ast.AlterAction:
        self._accept_word("COLUMN")
        name = self._parse_identifier()
        if self._accept_word("TYPE"):
            return ast.AlterColumnType(name=name,
                                       data_type=self._parse_data_type())
        if self._accept_word("SET"):
            if self._accept_word("DATA"):
                self._expect_word("TYPE")
                return ast.AlterColumnType(name=name,
                                           data_type=self._parse_data_type())
            if self._accept_word("DEFAULT"):
                return ast.AlterColumnDefault(
                    name=name, default=self._parse_value_expr())
            if self._accept_word("NOT"):
                self._expect_word("NULL")
                return ast.AlterColumnNullability(name=name, not_null=True)
            raise self._error("expected DEFAULT, NOT NULL or DATA TYPE")
        if self._accept_word("DROP"):
            if self._accept_word("DEFAULT"):
                return ast.AlterColumnDefault(name=name, default=None)
            if self._accept_word("NOT"):
                self._expect_word("NULL")
                return ast.AlterColumnNullability(name=name, not_null=False)
            raise self._error("expected DEFAULT or NOT NULL after DROP")
        raise self._error("expected TYPE, SET or DROP in ALTER COLUMN")

    def _parse_alter_rename(self) -> ast.AlterAction:
        if self._accept_word("TO", "AS"):
            return ast.RenameTable(new_name=self._parse_identifier())
        if self._accept_word("COLUMN"):
            old = self._parse_identifier()
            self._expect_word("TO")
            return ast.RenameColumn(old_name=old,
                                    new_name=self._parse_identifier())
        # Bare "RENAME new_name" (MySQL).
        return ast.RenameTable(new_name=self._parse_identifier())

    # ------------------------------------------------------------------
    # CREATE INDEX

    def _parse_create_index(self, unique: bool) -> ast.CreateIndex:
        if_not_exists = self._parse_if_not_exists()
        name = self._parse_identifier()
        self._expect_word("ON")
        table = self._parse_identifier()
        if self._accept_word("USING"):
            self._advance()  # btree / hash / gin ...
        columns = self._parse_column_name_list()
        return ast.CreateIndex(name=name, table=table, columns=columns,
                               unique=unique, if_not_exists=if_not_exists)


# ----------------------------------------------------------------------
# script-level robust parsing


def _render_token(token: Token) -> str:
    if token.type is TokenType.STRING:
        return "'" + token.value.replace("'", "''") + "'"
    if token.type is TokenType.QUOTED_IDENT:
        return '"' + token.value.replace('"', '""') + '"'
    return token.value


def _join_tokens(parts: list[str]) -> str:
    """Join rendered tokens with single spaces, tightening punctuation."""
    out: list[str] = []
    for part in parts:
        if out and part in (",", ")", ";", "."):
            out[-1] += part
        elif out and out[-1].endswith(("(", ".")):
            out[-1] += part
        else:
            out.append(part)
    return " ".join(out)


_DDL_LEADING = {"CREATE", "DROP", "ALTER"}
_DDL_SECOND = {"TABLE", "INDEX", "UNIQUE", "TEMPORARY", "TEMP",
               "VIEW", "OR"}


def _split_statements(tokens: list[Token]) -> list[list[Token]]:
    """Split a token list into statements at top-level semicolons."""
    statements: list[list[Token]] = []
    current: list[Token] = []
    append = current.append
    eof = TokenType.EOF
    punct = TokenType.PUNCT
    for token in tokens:
        token_type = token.type
        if token_type is punct:
            if token.value == ";":
                if current:
                    statements.append(current)
                    current = []
                    append = current.append
                continue
        elif token_type is eof:
            break
        append(token)
    if current:
        statements.append(current)
    return statements


def _is_ddl_statement(tokens: list[Token]) -> bool:
    if not tokens:
        return False
    first = tokens[0]
    if first.type is not TokenType.WORD or first.upper() not in _DDL_LEADING:
        return False
    if len(tokens) < 2:
        return False
    second = tokens[1]
    return second.type is TokenType.WORD and second.upper() in _DDL_SECOND


def parse_statement(text: str,
                    dialect: Dialect = Dialect.GENERIC) -> ast.Statement:
    """Parse exactly one DDL statement from ``text``.

    Raises:
        ParseError: if the statement cannot be parsed or trailing garbage
            follows it (a single trailing semicolon is allowed).
    """
    tokens = tokenize(text, dialect)
    parser = Parser(tokens, dialect)
    statement = parser.parse_statement()
    while parser._accept_punct(";"):
        pass
    if not parser.at_end():
        raise parser._error("unexpected trailing input after statement")
    return statement


def parse_token_group(
    group: list[Token],
    dialect: Dialect = Dialect.GENERIC,
    on_error: str = "skip",
    table_body: tuple | None = None,
) -> tuple[ast.Statement | None, ast.SkippedStatement | None]:
    """Parse one semicolon-delimited token group of a script.

    Exactly one of the returned pair is non-None: the parsed statement,
    or the :class:`~repro.sqlddl.ast_nodes.SkippedStatement` recording
    why the group was skipped (``non-ddl`` / ``parse-error``).

    ``table_body``, when given, holds the already parsed elements of a
    ``CREATE TABLE`` body whose tokens ``group`` leaves out: the ``(``
    opening the body is directly followed by the ``)`` closing it.

    Raises:
        ParseError: when the group fails to parse and ``on_error`` is
            ``"raise"``.
    """
    if not _is_ddl_statement(group):
        raw = _join_tokens([_render_token(t) for t in group])
        return None, ast.SkippedStatement(text=raw, reason="non-ddl")
    parser = Parser(group + [EOF_TOKEN], dialect, table_body)
    try:
        statement = parser.parse_statement()
        if not parser.at_end():
            raise parser._error("trailing input in statement")
    except ParseError as exc:
        if on_error == "raise":
            raise
        raw = _join_tokens([_render_token(t) for t in group])
        return None, ast.SkippedStatement(
            text=raw, reason="parse-error", detail=str(exc))
    return statement, None


#: Stands in for the ``,`` or ``)`` that ends a body element in its
#: statement, so a parse that would consume it is caught.
_ELEMENT_END = Token(TokenType.PUNCT, ",")


def parse_table_element(text: str, dialect: Dialect = Dialect.GENERIC
                        ) -> ast.ColumnDef | ast.TableConstraint | None:
    """Parse one ``CREATE TABLE`` body element on its own.

    ``text`` is one element as
    :func:`~repro.sqlddl.splitter.cut_create_table` cuts it. The result
    is what the body loop of the whole statement parses there, or None:
    a lex or parse error, or a parse that does not stop exactly on the
    ``,`` or ``)`` ending the element.
    """
    try:
        tokens = tokenize(text, dialect)
        tokens[-1] = _ELEMENT_END
        tokens.append(EOF_TOKEN)
        parser = Parser(tokens, dialect)
        element = parser._parse_table_element()
    except (LexError, ParseError):
        return None
    if parser._pos != len(tokens) - 2:
        return None
    return element


def parse_script(text: str, dialect: Dialect = Dialect.GENERIC,
                 on_error: str = "skip") -> ast.Script:
    """Parse a whole SQL script robustly.

    Args:
        text: the full ``.sql`` file content.
        dialect: SQL dialect traits to apply.
        on_error: ``"skip"`` records unparseable statements in
            :attr:`Script.skipped`; ``"raise"`` re-raises the first
            :class:`ParseError`.

    Returns:
        A :class:`~repro.sqlddl.ast_nodes.Script` with DDL statements and
        the skipped remainder.

    Raises:
        ValueError: for an invalid ``on_error`` mode.
        LexError: when the whole file cannot even be tokenized and
            ``on_error`` is ``"raise"``.
    """
    if on_error not in ("skip", "raise"):
        raise ValueError(f"on_error must be 'skip' or 'raise', "
                         f"not {on_error!r}")
    try:
        tokens = tokenize(text, dialect)
    except LexError:
        if on_error == "raise":
            raise
        return ast.Script(statements=(),
                          skipped=(ast.SkippedStatement(
                              text=text, reason="lex-error"),))

    statements: list[ast.Statement] = []
    skipped: list[ast.SkippedStatement] = []
    for group in _split_statements(tokens):
        statement, skip = parse_token_group(group, dialect, on_error)
        if skip is not None:
            skipped.append(skip)
        else:
            statements.append(statement)
    return ast.Script(statements=tuple(statements), skipped=tuple(skipped))
