"""Differential oracle of the fold memos against the classic path.

:class:`~repro.history.repository.SnapshotFold` reads each cut
``CREATE TABLE`` from per-process element folds and head/tail
templates (the caches of :mod:`repro.sqlddl.memo`, one map per
dialect), folds each distinct ``CREATE TABLE`` once per history
(:func:`~repro.schema.builder.fold_create`). All of it must be
invisible: memoized versions equal the classic full re-parse (schemas
and ``parse_issues``), and every span the statement memo parses equals
the whole-span parse. Edge cases run in all four dialects, followed by
a property over generated histories and a seeded run of mixed-dialect
histories sharing one warm element cache; the count tests pin that the
memos really skip the work, and a delta checkpoint taken after
create-only versions resumes like a cold fold.
"""

import pickle
import random
import sys
import threading
from dataclasses import replace
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.ddlgen import realize_history
from repro.corpus.planner import plan_schedule
from repro.engine.delta import capture_checkpoint, extend_checkpoint
from repro.engine.study_plan import history_record
from repro.errors import CorpusError, LexError
from repro.history import repository
from repro.history.commit import Commit
from repro.history.repository import (
    SchemaHistory,
    _fold_classic,
    incremental_parse_disabled,
)
from repro.labels.quantization import LabelScheme
from repro.metrics.profile import ProjectProfile
from repro.schema.builder import SchemaBuilder
from repro.sqlddl import memo as memo_module
from repro.sqlddl import Dialect, tokenize
from repro.sqlddl.ast_nodes import ColumnDef, CreateTable
from repro.sqlddl.memo import (
    _ELEMENT_FOLDS,
    _TEMPLATES,
    CutCreate,
    StatementMemo,
    fold_element,
)
from repro.sqlddl.parser import (
    Parser,
    _split_statements,
    parse_table_element,
    parse_token_group,
)
from repro.sqlddl.splitter import cut_create_table, split_statements


def history_of(texts, dialect):
    start = datetime(2020, 1, 15)
    commits = [Commit(sha=f"v{index}",
                      timestamp=start + timedelta(days=31 * index),
                      ddl_text=text)
               for index, text in enumerate(texts)]
    return SchemaHistory("memos", commits, dialect=dialect)


def whole_span(text, dialect):
    """The statement memo's oracle: the span tokenized and parsed whole
    (``"fallback"`` where the memo must punt to the classic path)."""
    try:
        tokens = tokenize(text, dialect)
    except LexError:
        return "fallback"
    groups = _split_statements(tokens)
    if len(groups) != 1:
        return "fallback"
    return parse_token_group(groups[0], dialect)


def memo_outcome(entry, text, dialect):
    """What the statement memo made of a span, shaped as
    :func:`whole_span`: a cut ``CREATE TABLE`` is re-assembled from its
    template and its elements parsed one by one, whose folds must be
    the entry's."""
    if entry.fallback:
        return "fallback"
    if type(entry) is not CutCreate:
        return entry.statement, entry.skipped
    _, elements, _ = cut_create_table(text, dialect)
    body = [parse_table_element(element, dialect) for element in elements]
    statement = replace(
        entry.template,
        columns=tuple(e for e in body if isinstance(e, ColumnDef)),
        constraints=tuple(e for e in body if not isinstance(e, ColumnDef)))
    assert entry.columns == tuple(map(fold_element, statement.columns))
    assert entry.constraints \
        == tuple(map(fold_element, statement.constraints))
    return statement, None


def assert_folds_like_classic(texts, dialect):
    history = history_of(texts, dialect)
    memoized = history.versions()
    history._versions = None
    with incremental_parse_disabled():
        classic = history.versions()
    assert [(v.schema, v.parse_issues) for v in memoized] \
        == [(v.schema, v.parse_issues) for v in classic]
    memo = StatementMemo(dialect)
    for text in texts:
        for segment in split_statements(text, dialect):
            got = memo_outcome(memo.parse(segment), segment.text, dialect)
            assert got == whole_span(segment.text, dialect), segment.text


#: One ``CREATE TABLE`` per lexical hazard of the element cut.
HAZARDS = {
    "line comment": "CREATE TABLE c1 (\n  a INT -- legacy, y INT\n"
                    "  , b INT\n)",
    "comment parens": "CREATE TABLE c4 (\n  a INT -- note (x\n"
                      "  , b INT /* ) */\n)",
    "hash comment": "CREATE TABLE c2 (\n  a INT # old, y INT\n"
                    "  , b INT\n)",
    "block comment": "CREATE TABLE c3 (a INT /* , y INT ) ( */, b INT)",
    "strings": "CREATE TABLE s1 (a VARCHAR(9) DEFAULT 'x, y INT)',"
               " b VARCHAR(9) DEFAULT 'it''s (', c TEXT DEFAULT"
               " 'back\\'s, z INT')",
    "backticks": "CREATE TABLE `q,1` (`a,b` INT, `c)d` INT)",
    "plain backticks": "CREATE TABLE `b1` (`a` INT, `b` TEXT)",
    "double quotes": 'CREATE TABLE "q,2" ("a,b" INT, "c)""d" INT)',
    "brackets": "CREATE TABLE [q,3] ([a,b] INT, [c(d] INT)",
    "nested parens": "CREATE TABLE n1 (p DECIMAL(10, 2) NOT NULL,"
                     " e ENUM('a', 'b'), d INT DEFAULT ((1 + 2) * 3),"
                     " CHECK ((p > 0) AND (d < 10)))",
    "mysql keys": "CREATE TABLE k1 (id INT, key VARCHAR(10), primary INT,"
                  " unique INT, KEY idx_a (id), UNIQUE KEY uk (id, key),"
                  " INDEX (primary), PRIMARY KEY (id))",
    "key column last": "CREATE TABLE k2 (id INT, key)",
    "options": "CREATE TABLE o1 (a INT) ENGINE=InnoDB DEFAULT"
               " CHARSET=utf8 COMMENT='a,b)'",
    "dollar default": "CREATE TABLE d1 (a TEXT DEFAULT $$x, (y)$$, b INT)",
    "duplicate columns": "CREATE TABLE dup (a INT, a TEXT, b INT)",
    "key prefix": "CREATE TABLE p1 (a TEXT, KEY k (a(10)), b INT)",
    "leading comment": "-- dump (3 tables), v2\nCREATE TABLE l1 (a INT)",
}

#: Statements the statement memo must leave to the whole-span route.
WHOLE = {
    "trailing comma": "CREATE TABLE t1 (a INT,)",
    "empty body": "CREATE TABLE t2 ()",
    "like": "CREATE TABLE t3 LIKE base",
    "or replace": "CREATE OR REPLACE TABLE t4 (a INT)",
    "unique table": "CREATE UNIQUE TABLE t5 (a INT)",
    "as select": "CREATE TABLE t6 AS SELECT (1, 2) FROM x",
    "unbalanced": "CREATE TABLE t7 (a INT",
    "unterminated string": "CREATE TABLE t8 (a TEXT DEFAULT 'x, b INT)",
    # Parses that run past the end of an element in the whole span.
    "collate at element end": "CREATE TABLE t9 (a TEXT COLLATE, b INT)",
    "match at element end": "CREATE TABLE t10 (a INT REFERENCES base"
                            " MATCH, b INT)",
    "nested key prefix": "CREATE TABLE t11 (a TEXT, KEY k (a(10 (x)), b))",
}

BASE = "CREATE TABLE base (id INT PRIMARY KEY, name VARCHAR(10))"
EXTRA = "CREATE TABLE extra (id INT)"


def hazard_versions(statement):
    """Five versions around ``statement``: first seen, repeated beside
    a new table, unchanged, grown by one element, then back again."""
    if statement.endswith(")"):
        bigger = statement[:-1] + ", zz INT)"
    else:
        bigger = statement.replace(" (", " (zz INT, ", 1)
    return [
        f"{BASE};\n{statement};",
        f"{BASE};\n{statement};\n{EXTRA};",
        f"{BASE};\n{statement};\n{EXTRA};",
        f"{BASE};\n{bigger};\n{EXTRA};",
        f"{BASE};\n{statement};",
    ]


DIALECTS = list(Dialect)


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: d.traits.name)
@pytest.mark.parametrize("name", sorted(HAZARDS) + sorted(WHOLE))
def test_hazard_folds_like_classic(name, dialect):
    statement = HAZARDS.get(name) or WHOLE[name]
    assert_folds_like_classic(hazard_versions(statement), dialect)


#: Multi-version scenarios that read through or around lazy states.
SCENARIOS = {
    "temporary": [
        "CREATE TEMPORARY TABLE tmp (a INT);\n" + BASE,
        "CREATE TEMPORARY TABLE tmp (a INT);\n" + BASE + ";\n" + EXTRA,
    ],
    "duplicate issues replayed": [
        "CREATE TABLE dup (a INT, a TEXT);",
        "CREATE TABLE dup (a INT, a TEXT);\n" + EXTRA,
        EXTRA + ";\nCREATE TABLE dup (a INT, a TEXT);",
    ],
    "re-created table": [
        BASE + ";\nCREATE TABLE dup (a INT, a TEXT);",
        BASE + ";\nCREATE TABLE dup (a INT, a TEXT);\n"
               "CREATE TABLE dup (a INT, a TEXT);",
    ],
    "drop then re-create": [
        f"{BASE};\n{EXTRA};",
        f"{BASE};\n{EXTRA};\nDROP TABLE base;",
        f"{EXTRA};",
        f"{BASE};\n{EXTRA};",
    ],
    "alter served table": [
        f"{BASE};",
        f"{BASE};\nALTER TABLE base ADD COLUMN email TEXT;",
        f"{BASE};\nALTER TABLE base DROP COLUMN name;",
        f"{BASE};\nALTER TABLE base RENAME COLUMN name TO title;",
        f"{BASE};",
    ],
    "alter keys of served table": [
        "CREATE TABLE fk (id INT, ref INT REFERENCES base (id),"
        " CONSTRAINT u UNIQUE (ref));",
        "CREATE TABLE fk (id INT, ref INT REFERENCES base (id),"
        " CONSTRAINT u UNIQUE (ref));\nALTER TABLE fk DROP CONSTRAINT u;",
        "CREATE TABLE fk (id INT, ref INT REFERENCES base (id),"
        " CONSTRAINT u UNIQUE (ref));\nALTER TABLE fk ALTER COLUMN id"
        " SET NOT NULL, ADD PRIMARY KEY (id);",
    ],
    "rename served table": [
        f"{BASE};",
        f"{BASE};\nALTER TABLE base RENAME TO renamed;",
        f"{BASE};\nALTER TABLE base RENAME TO renamed;\n{BASE};",
    ],
    "like served table": [
        f"{BASE};",
        f"{BASE};\nCREATE TABLE copy LIKE base;",
        f"{BASE};\nCREATE TABLE copy LIKE base;\n"
        "ALTER TABLE copy ADD COLUMN note TEXT;",
        f"{BASE};\nCREATE TABLE copy LIKE base;\n"
        "ALTER TABLE base ADD COLUMN note TEXT;",
    ],
}


#: Dump shapes around the folded creates: one name created twice,
#: temporary tables, mysqldump's drops, pg_dump's trailing constraints,
#: noise between creates, and create-only versions between altered ones.
DUMP = f"SET NAMES utf8;\n{BASE};\nINSERT INTO base VALUES (1, 'a;b');"
SCENARIOS.update({
    "one name twice": [
        "CREATE TABLE t (a INT);\nCREATE TABLE t (b INT, b TEXT);",
        "CREATE TABLE t (a INT);",
        "CREATE TABLE t (a INT);\nCREATE TABLE t (b INT, b TEXT);",
    ],
    "if not exists twice": [
        "CREATE TABLE IF NOT EXISTS t (a INT);\n"
        "CREATE TABLE IF NOT EXISTS t (b INT);",
        "CREATE TABLE IF NOT EXISTS t (a INT);",
        "CREATE TABLE IF NOT EXISTS t (b INT);\n"
        "CREATE TABLE IF NOT EXISTS t (a INT);",
    ],
    "temporary beside real": [
        f"{EXTRA};",
        f"CREATE TEMPORARY TABLE extra (a INT, a INT);\n{EXTRA};",
        f"{EXTRA};\nCREATE TEMP TABLE scratch (a INT);",
        f"{EXTRA};",
    ],
    "mysqldump drops": [
        f"DROP TABLE IF EXISTS base;\n{BASE};",
        f"DROP TABLE IF EXISTS base;\n{BASE};\n"
        f"DROP TABLE IF EXISTS extra;\n{EXTRA};",
        f"{BASE};\n{EXTRA};",
        f"DROP TABLE IF EXISTS base;\n{BASE};\n{EXTRA};",
    ],
    "pg_dump constraints": [
        "CREATE TABLE a (id INT, b INT);\nCREATE TABLE b (id INT);",
        "CREATE TABLE a (id INT, b INT);\nCREATE TABLE b (id INT);\n"
        "ALTER TABLE ONLY a ADD CONSTRAINT a_pkey PRIMARY KEY (id);\n"
        "ALTER TABLE a ADD CONSTRAINT a_b_fkey FOREIGN KEY (b)"
        " REFERENCES b (id);",
        "CREATE TABLE a (id INT, b INT);\nCREATE TABLE b (id INT);",
    ],
    "noise and indexes": [
        DUMP,
        f"{DUMP}\nCREATE INDEX name_idx ON base (name);\n{EXTRA};",
        f"{EXTRA};\n{DUMP}\nDROP INDEX name_idx;",
        "SET NAMES utf8;\nINSERT INTO base VALUES (2);",
    ],
    "create-only and altered versions alternate": [
        f"{BASE};\n{EXTRA};",
        f"{BASE};\n{EXTRA};\nALTER TABLE extra ADD COLUMN note TEXT;",
        f"{BASE};\n{EXTRA};",
        f"{BASE};\nCREATE VIEW v AS SELECT id FROM base;",
        "CREATE TABLE base (id INT PRIMARY KEY, name VARCHAR(10),"
        " note TEXT);",
        f"{BASE};\nDROP TABLE base;\n{EXTRA};",
        f"{BASE};\n{EXTRA};",
    ],
})


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: d.traits.name)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_folds_like_classic(name, dialect):
    assert_folds_like_classic(SCENARIOS[name], dialect)


def test_hazards_take_the_cut():
    """The oracle above is not vacuous: the hazards are cut and
    assembled (in the generic dialect, which lexes all of them), the
    rest are not."""
    generic = Dialect.GENERIC
    memo = StatementMemo(generic)
    for name, statement in HAZARDS.items():
        pieces = cut_create_table(statement, generic)
        if name == "dollar default":
            assert pieces is None
        else:
            assert memo._cut_create(*pieces) is not None, name
    for name, statement in WHOLE.items():
        pieces = cut_create_table(statement, generic)
        assert pieces is None or memo._cut_create(*pieces) is None, name
    assert cut_create_table(HAZARDS["line comment"], generic)[1] \
        == ["a INT -- legacy, y INT", "b INT"]


def hazard_pieces():
    """The heads, body elements and tails the hazards cut into in any
    dialect, each sorted."""
    heads, elements, tails = set(), set(), set()
    for statement in HAZARDS.values():
        for dialect in DIALECTS:
            pieces = cut_create_table(statement, dialect)
            if pieces is not None:
                heads.add(pieces[0])
                elements.update(pieces[1])
                tails.add(pieces[2])
    return sorted(heads), sorted(elements), sorted(tails)


def mixed_history(rng, heads, elements, tails):
    """Two to five versions of one to three tables drawn from the
    hazard pieces, each version growing, shrinking or re-tailing one
    table of the previous one."""
    separator = rng.choice([", ", ",\n  ", "\n  , "])
    tables = [[rng.choice(heads), rng.sample(elements, rng.randint(1, 4)),
               rng.choice(tails)] for _ in range(rng.randint(1, 3))]
    texts = []
    for _ in range(rng.randint(2, 5)):
        texts.append(";\n".join(head + separator.join(body) + tail
                                for head, body, tail in tables) + ";")
        table = rng.choice(tables)
        move = rng.randrange(3)
        if move == 0:
            table[1] = table[1] + [rng.choice(elements)]
        elif move == 1 and len(table[1]) > 1:
            table[1] = table[1][:-1]
        else:
            table[2] = rng.choice(tails)
    return texts


def classic_mismatches(histories, dialects):
    """``(dialect, text)`` of every memoized version, folded in each
    of ``dialects`` in turn, that differs from :func:`_fold_classic`."""
    found = []
    for dialect in dialects:
        for texts in histories:
            history = history_of(texts, dialect)
            for version in history.versions():
                text = version.commit.ddl_text
                if (version.schema, version.parse_issues) \
                        != _fold_classic(text, dialect):
                    found.append((dialect, text))
    return found


def test_mixed_dialects_share_the_element_cache():
    """Histories of all four dialects, folded in one process, share the
    element and head/tail caches. The same text can lex in one dialect
    and not in another (a backtick name, a ``#`` comment), so a cache
    keyed by text alone would serve one dialect's parse to another."""
    _ELEMENT_FOLDS.clear()
    _TEMPLATES.clear()
    pieces, rng = hazard_pieces(), random.Random(4242)
    histories = [mixed_history(rng, *pieces) for _ in range(200)]
    # Generic first: it lexes every hazard, so its pass caches the
    # parses the stricter dialects must not be served.
    assert classic_mismatches(histories, DIALECTS) == []


def test_threads_share_the_element_cache():
    """Sessions may run one per thread, racing on the shared caches:
    with more threads than cores and a tiny switch interval, every
    fold still equals the classic path."""
    pieces, rng = hazard_pieces(), random.Random(99)
    histories = [mixed_history(rng, *pieces) for _ in range(30)]
    mismatches, errors = [], []

    def fold_all(dialects):
        try:
            mismatches.extend(classic_mismatches(histories, dialects))
        except BaseException as exc:  # noqa: BLE001 - test capture
            errors.append(exc)

    _ELEMENT_FOLDS.clear()
    _TEMPLATES.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # Each thread walks the dialects from another start, so the
        # same texts race in different dialects.
        threads = [threading.Thread(
            target=fold_all, args=(DIALECTS[index:] + DIALECTS[:index],))
            for index in range(len(DIALECTS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mismatches == []


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000),
       dialect=st.sampled_from(DIALECTS),
       bias=st.floats(0.5, 0.95),
       noise=st.booleans())
def test_generated_histories_fold_like_classic(seed, dialect, bias, noise):
    rng = random.Random(seed)
    try:
        plan = plan_schedule(
            rng, pup_months=14 + seed % 30, birth_month=seed % 3,
            top_month=seed % 3 + seed % 7, birth_units=5 + seed % 25,
            agm=min(2, max(seed % 7 - 1, 0)), post_units=seed % 60,
            maintenance_bias=bias)
    except CorpusError:
        return
    history = realize_history(plan, rng, "prop", dialect=dialect,
                              with_noise=noise)
    assert_folds_like_classic([c.ddl_text for c in history.commits],
                              dialect)


# ----------------------------------------------------------------------
# the memos really skip work

USERS = ["id INT PRIMARY KEY", "email VARCHAR(64) NOT NULL", "name TEXT"]
POSTS = ["id INT", "author INT REFERENCES users (id)", "body TEXT",
         "PRIMARY KEY (id)"]
TAGS = ["id INT", "name TEXT"]


def create(name, elements):
    return f"CREATE TABLE {name} (\n  " + ",\n  ".join(elements) + "\n);"


ALTER = "ALTER TABLE tags ADD COLUMN weight INT;"

#: Four versions: ``users`` grows, ``tags`` is born and altered, then
#: ``posts`` loses a column.
VERSIONS = [
    create("users", USERS) + "\n" + create("posts", POSTS),
    create("users", USERS + ["created DATE"]) + "\n"
    + create("posts", POSTS),
    create("users", USERS + ["created DATE"]) + "\n"
    + create("posts", POSTS) + "\n" + create("tags", TAGS) + "\n" + ALTER,
    create("users", USERS + ["created DATE"]) + "\n"
    + create("posts", POSTS[:2] + POSTS[3:]) + "\n"
    + create("tags", TAGS) + "\n" + ALTER,
]

#: The distinct CREATE TABLE statements of VERSIONS, as element lists.
DISTINCT_CREATES = [USERS, POSTS, USERS + ["created DATE"], TAGS,
                    POSTS[:2] + POSTS[3:]]


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def fold_versions(dialect):
    history = history_of(VERSIONS, dialect)
    history.versions()


def test_each_distinct_element_parses_once(monkeypatch):
    """Once per process and dialect: a second history with the same
    elements parses none of them, another dialect parses them again."""
    _ELEMENT_FOLDS.clear()
    _TEMPLATES.clear()
    parses = counting(monkeypatch, Parser, "_parse_table_element")
    fold_versions(Dialect.GENERIC)
    distinct = {element for elements in DISTINCT_CREATES
                for element in elements}
    assert len(parses) == len(distinct) == 8
    fold_versions(Dialect.GENERIC)
    assert len(parses) == 8
    fold_versions(Dialect.POSTGRES)
    assert len(parses) == 2 * 8


#: A ``CREATE TABLE`` the cut rejects (a ``$`` in a default), so the
#: statement memo parses it whole.
UNCUT = "CREATE TABLE notes (body TEXT DEFAULT $$a, b$$, n INT);"


def test_each_distinct_create_table_folds_once(monkeypatch):
    """Cut or parsed whole, a CREATE TABLE folds once per history,
    while the ALTER runs in each version holding it."""
    folds = counting(monkeypatch, repository, "fold_create")
    whole = counting(monkeypatch, repository, "fold_statement")
    adds = counting(monkeypatch, SchemaBuilder, "_add_column_to_state")
    texts = VERSIONS[:1] + [f"{text}\n{UNCUT}" for text in VERSIONS[1:]]
    (segment,) = split_statements(UNCUT, Dialect.GENERIC)
    entry = StatementMemo(Dialect.GENERIC).parse(segment)
    assert isinstance(entry.statement, CreateTable)
    history = history_of(texts, Dialect.GENERIC)
    history.versions()
    assert len(folds) == len(DISTINCT_CREATES) == 5
    assert len(whole) == 1
    assert len(adds) == 2


def test_each_template_parses_once(monkeypatch):
    """Once per process and dialect, like the elements: the three heads
    share one tail."""
    _ELEMENT_FOLDS.clear()
    _TEMPLATES.clear()
    parses = counting(monkeypatch, memo_module, "_parse_template")
    fold_versions(Dialect.GENERIC)
    assert len(parses) == 3
    fold_versions(Dialect.GENERIC)
    assert len(parses) == 3
    fold_versions(Dialect.POSTGRES)
    assert len(parses) == 2 * 3


def test_cut_creates_are_installed_not_applied(monkeypatch):
    """Each changed version runs one builder, which installs the folded
    creates and applies only the ALTER."""
    applies = counting(monkeypatch, SchemaBuilder, "apply")
    installs = counting(monkeypatch, SchemaBuilder, "install")
    snapshots = counting(monkeypatch, SchemaBuilder, "snapshot_reusing")
    fold_versions(Dialect.GENERIC)
    assert (len(applies), len(installs), len(snapshots)) == (2, 10, 4)


@pytest.mark.parametrize("dialect", DIALECTS, ids=lambda d: d.traits.name)
def test_checkpoint_after_create_only_version_resumes(dialect):
    """A delta checkpoint taken after create-only versions, stored and
    loaded, resumes through versions with an ALTER and then a
    create-only one again, exactly as a cold fold of the grown
    history."""
    grown = history_of(VERSIONS + [VERSIONS[1]], dialect)
    prefix = history_of(VERSIONS[:2], dialect)
    scheme = LabelScheme()
    checkpoint = capture_checkpoint(
        "p", "histories", prefix, history_record(prefix, scheme),
        chain=("v0", "v1"))
    assert checkpoint is not None
    checkpoint = pickle.loads(pickle.dumps(checkpoint))
    series, advanced = extend_checkpoint(
        checkpoint, grown.commits[2:], grown.project_end, dialect)
    cold = grown.versions()
    assert advanced.schema == cold[-1].schema
    assert advanced.schema == _fold_classic(VERSIONS[1], dialect)[0]
    assert series == ProjectProfile.from_history(grown).heartbeat
