"""Golden equivalence of the incremental materialization path.

The incremental path (statement memo + table reuse + whole-version
shortcut) must be observably identical to the classic full re-parse:
same schemas, same parse-issue counts, same study records and pattern
assignments — only faster, with the reused ``Table`` objects being
*identical* (``is``) across versions.
"""

from repro import obs
from repro.diff.engine import diff_schemas
from repro.history.repository import (
    NO_INCREMENTAL_ENV,
    SchemaHistory,
    incremental_parse_default,
    incremental_parse_disabled,
    set_incremental_parse_default,
)
from repro.sqlddl.memo import parse_counters
from tests.conftest import make_history


def both_modes(history):
    """(incremental, full) version lists of one history."""
    history._versions = None
    incremental = history.versions()
    history._versions = None
    with incremental_parse_disabled():
        full = history.versions()
    history._versions = None
    return incremental, full


def assert_equivalent(history):
    incremental, full = both_modes(history)
    assert len(incremental) == len(full)
    for inc, ref in zip(incremental, full):
        assert inc.commit is ref.commit
        assert inc.schema == ref.schema
        assert inc.parse_issues == ref.parse_issues


def test_simple_history_equivalent(simple_history):
    assert_equivalent(simple_history)


def test_unchanged_version_reuses_schema_object():
    ddl = "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);"
    history = make_history([ddl, ddl, ddl + "\nCREATE TABLE c (z INT);"])
    versions = history.versions()
    # Identical snapshot: whole-version shortcut hands back the object.
    assert versions[1].schema is versions[0].schema
    assert versions[2].schema is not versions[1].schema


def test_unchanged_tables_are_identical_objects():
    v1 = "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);"
    v2 = v1 + "\nALTER TABLE b ADD COLUMN z INT;"
    history = make_history([v1, v2])
    first, second = history.versions()
    # 'a' is untouched between versions: the exact same frozen Table.
    assert second.schema.table("a") is first.schema.table("a")
    # 'b' changed: rebuilt.
    assert second.schema.table("b") is not first.schema.table("b")
    assert len(second.schema.table("b").attributes) == 2


def test_diff_identical_with_reused_tables():
    """diff_schemas over reused Table objects == diff over re-parsed ones."""
    v1 = ("CREATE TABLE keep (id INT PRIMARY KEY, name VARCHAR(10));\n"
          "CREATE TABLE grow (id INT);\n")
    v2 = ("CREATE TABLE keep (id INT PRIMARY KEY, name VARCHAR(10));\n"
          "CREATE TABLE grow (id INT);\n"
          "ALTER TABLE grow ADD COLUMN extra TEXT;\n"
          "CREATE TABLE born (id INT);\n")
    history = make_history([v1, v2])
    incremental, full = both_modes(history)
    fast = diff_schemas(incremental[0].schema, incremental[1].schema)
    slow = diff_schemas(full[0].schema, full[1].schema)
    assert fast == slow
    assert fast.changes  # the delta itself is visible, not skipped


def test_parse_issue_counts_preserved():
    v1 = ("CREATE TABLE a (x INT);\n"
          "INSERT INTO a VALUES (1);\n"        # non-ddl skip
          "ALTER TABLE missing ADD COLUMN y INT;\n")  # builder issue
    v2 = v1 + "CREATE TABLE !!!;\n"            # parse-error skip
    assert_equivalent(make_history([v1, v2]))


def test_lex_error_version_falls_back():
    good = "CREATE TABLE a (x INT);"
    # NUL is unlexable: the classic path records one whole-file
    # "lex-error" skip and an empty schema. Fallback must reproduce it.
    bad = "CREATE TABLE a (x INT);\nSELECT \x00;"
    history = make_history([good, bad, good])
    assert_equivalent(history)
    history._versions = None
    versions = history.versions()
    assert versions[1].parse_issues == 1
    assert not versions[1].schema.tables


def test_rename_collision_is_not_confused():
    """A table renamed onto another's old name must not reuse its Table."""
    v1 = ("CREATE TABLE first (x INT);\n"
          "CREATE TABLE second (y INT);\n")
    v2 = ("CREATE TABLE second (y INT);\n"
          "ALTER TABLE second RENAME TO first;\n"
          "CREATE TABLE second (z INT);\n")
    assert_equivalent(make_history([v1, v2]))


def test_create_table_like_tracks_source_trace():
    v1 = ("CREATE TABLE proto (x INT, y TEXT);\n"
          "CREATE TABLE copy LIKE proto;\n")
    v2 = ("CREATE TABLE proto (x INT, y TEXT, z INT);\n"
          "CREATE TABLE copy LIKE proto;\n")
    incremental, full = both_modes(make_history([v1, v2]))
    # The clone's content depends on the (changed) source: no stale reuse.
    assert incremental[1].schema == full[1].schema
    assert len(incremental[1].schema.table("copy").attributes) == 3


def test_memo_stats_recorded():
    ddl = "CREATE TABLE a (x INT);\nCREATE TABLE b (y INT);"
    history = make_history([ddl, ddl + "\nCREATE TABLE c (z INT);"])
    before = obs.snapshot()
    history.versions()
    counts = obs.since(before)
    assert counts["parse_hits"] == 2      # a and b re-seen in version 2
    assert counts["parse_misses"] == 3    # a, b, c parsed once each


def test_global_counters_observe_history_parsing():
    hits_before, misses_before = parse_counters()
    ddl = "CREATE TABLE a (x INT);"
    history = make_history([ddl, ddl + "\nCREATE TABLE b (y INT);"])
    history.versions()
    hits, misses = parse_counters()
    assert hits - hits_before == 1 and misses - misses_before == 2


def test_default_flag_environment(monkeypatch):
    monkeypatch.delenv(NO_INCREMENTAL_ENV, raising=False)
    assert incremental_parse_default() is True
    monkeypatch.setenv(NO_INCREMENTAL_ENV, "1")
    assert incremental_parse_default() is False


def test_set_default_round_trip(monkeypatch):
    monkeypatch.delenv(NO_INCREMENTAL_ENV, raising=False)
    set_incremental_parse_default(False)
    assert incremental_parse_default() is False
    set_incremental_parse_default(True)
    assert incremental_parse_default() is True


def test_migration_format_ignores_flag():
    """incremental=True histories (migration commits) use the cumulative
    path regardless of the parse flag."""
    history = SchemaHistory(
        "migrations",
        make_history(["CREATE TABLE a (x INT);",
                      "ALTER TABLE a ADD COLUMN y INT;"]).commits,
        incremental=True)
    versions = history.versions()
    assert len(versions[1].schema.table("a").attributes) == 2


def test_golden_equivalence_full_study(small_corpus):
    """Whole-study golden test: records and pattern assignments of the
    incremental and full-parse paths are identical."""
    from repro.study.pipeline import records_from_corpus, run_study

    def run():
        for project in small_corpus.projects:
            project.history._versions = None
        try:
            records = records_from_corpus(small_corpus)
            return records, run_study(records)
        finally:
            for project in small_corpus.projects:
                project.history._versions = None

    inc_records, inc_study = run()
    with incremental_parse_disabled():
        full_records, full_study = run()
    assert inc_records == full_records
    assert ([r.pattern for r in inc_records]
            == [r.pattern for r in full_records])
    assert inc_study.table1 == full_study.table1
