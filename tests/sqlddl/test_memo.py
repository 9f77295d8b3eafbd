"""Statement memo: caching behaviour, fallbacks and counters."""

from repro import obs
from repro.sqlddl import Dialect
from repro.sqlddl.memo import CutCreate, StatementMemo, parse_counters
from repro.sqlddl.splitter import split_statements


def segments_of(sql, dialect=Dialect.GENERIC):
    return split_statements(sql, dialect)


def test_memo_caches_by_content_hash():
    memo = StatementMemo()
    (segment,) = segments_of("CREATE TABLE a (x INT);")
    before = obs.snapshot()
    first = memo.parse(segment)
    second = memo.parse(segment)
    assert first is second  # identical entry object, not a re-parse
    assert isinstance(first, CutCreate)
    assert first.template.name == "a"
    assert [column.name for column in first.columns] == ["x"]
    assert obs.since(before) == {"parse_hits": 1, "parse_misses": 1}


def test_memo_skip_entries_match_parse_script():
    memo = StatementMemo()
    (segment,) = segments_of("INSERT INTO a VALUES (1);")
    entry = memo.parse(segment)
    assert entry.statement is None
    assert entry.skipped is not None
    assert entry.skipped.reason == "non-ddl"


def test_memo_parse_error_entry():
    memo = StatementMemo()
    (segment,) = segments_of("CREATE TABLE (no name;")
    entry = memo.parse(segment)
    assert entry.skipped is not None
    assert entry.skipped.reason == "parse-error"
    assert not entry.fallback


def test_memo_falls_back_on_lex_failure():
    memo = StatementMemo(Dialect.POSTGRES)
    # '#' is not lexable under PostgreSQL: the span cannot be parsed in
    # isolation and the caller must re-run the classic whole-file path.
    (segment,) = segments_of("# notacomment", Dialect.POSTGRES)
    entry = memo.parse(segment)
    assert entry.fallback


def test_counters_aggregate_process_wide():
    before = obs.snapshot()
    hits_before, misses_before = parse_counters()
    memo_a, memo_b = StatementMemo(), StatementMemo()
    (segment,) = segments_of("CREATE TABLE a (x INT);")
    memo_a.parse(segment)
    memo_a.parse(segment)
    memo_b.parse(segment)  # separate memo: its own miss
    assert obs.since(before) == {"parse_hits": 1, "parse_misses": 2}
    assert parse_counters() == (hits_before + 1, misses_before + 2)
