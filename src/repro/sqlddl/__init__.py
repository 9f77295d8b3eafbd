"""SQL DDL substrate: lexer, parser, AST, dialects and SQL writer.

This package implements, from scratch, the part of the toolchain that the
paper's dataset extraction relied on: turning the text of ``.sql`` files
found in a project's history into a structured representation of the
*logical* schema (tables, attributes, data types, primary/foreign keys).

Typical usage::

    from repro.sqlddl import parse_script, Dialect

    script = parse_script(open("schema.sql").read(), dialect=Dialect.MYSQL)
    for stmt in script.statements:
        ...

The parser is intentionally *forgiving*: real-world DDL files are full of
INSERTs, SETs, comments and vendor noise. Statements that are not DDL (or
that fail to parse) are skipped and recorded in :attr:`Script.skipped`
rather than aborting the whole file, which mirrors how schema-history
extraction tools (e.g. Hecate) behave.
"""

from repro.sqlddl.dialect import Dialect
from repro.sqlddl.tokens import Token, TokenType
from repro.sqlddl.lexer import Lexer, tokenize
from repro.sqlddl.ast_nodes import (
    AddColumn,
    AlterColumnDefault,
    AlterColumnNullability,
    AlterColumnType,
    AlterTable,
    ChangeColumn,
    CheckConstraint,
    ColumnDef,
    CreateIndex,
    CreateTable,
    DataType,
    DropColumn,
    DropConstraint,
    DropIndex,
    DropTable,
    ForeignKeyConstraint,
    ForeignKeyRef,
    IndexKey,
    ModifyColumn,
    PrimaryKeyConstraint,
    RenameColumn,
    RenameTable,
    Script,
    SkippedStatement,
    Statement,
    UniqueConstraint,
)
from repro.sqlddl.parser import (
    Parser,
    parse_script,
    parse_statement,
    parse_token_group,
)
from repro.sqlddl.splitter import Segment, segment_hash, split_statements
from repro.sqlddl.memo import (
    ParsedSegment,
    StatementMemo,
    parse_counters,
)
from repro.sqlddl.normalize import (
    canonical_type,
    canonical_type_name,
    normalize_identifier,
)
from repro.sqlddl.writer import write_script, write_statement

__all__ = [
    "AddColumn",
    "AlterColumnDefault",
    "AlterColumnNullability",
    "AlterColumnType",
    "AlterTable",
    "ChangeColumn",
    "CheckConstraint",
    "ColumnDef",
    "CreateIndex",
    "CreateTable",
    "DataType",
    "Dialect",
    "DropColumn",
    "DropConstraint",
    "DropIndex",
    "DropTable",
    "ForeignKeyConstraint",
    "ForeignKeyRef",
    "IndexKey",
    "Lexer",
    "ModifyColumn",
    "ParsedSegment",
    "Parser",
    "PrimaryKeyConstraint",
    "RenameColumn",
    "RenameTable",
    "Script",
    "Segment",
    "SkippedStatement",
    "Statement",
    "StatementMemo",
    "Token",
    "TokenType",
    "UniqueConstraint",
    "canonical_type",
    "canonical_type_name",
    "normalize_identifier",
    "parse_counters",
    "parse_script",
    "parse_statement",
    "parse_token_group",
    "segment_hash",
    "split_statements",
    "tokenize",
    "write_script",
    "write_statement",
]
