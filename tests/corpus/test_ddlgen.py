"""Unit tests for the DDL scribe and history realization.

The central invariant: the *measured* heartbeat of a realized history
equals the plan's schedule exactly, for any plan and seed.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.corpus.ddlgen import DdlScribe, realize_history
from repro.corpus.planner import plan_schedule
from repro.history.heartbeat import schema_heartbeat
from repro.schema.builder import build_schema
from repro.sqlddl import ast_nodes as ast
from repro.sqlddl.dialect import Dialect
from repro.sqlddl.parser import parse_script
from repro.sqlddl.writer import write_statement


def measured_schedule(history):
    series = schema_heartbeat(history)
    return {m: v for m, v in enumerate(series.monthly) if v}


class TestScribe:
    def test_snapshot_is_parseable(self):
        rng = random.Random(1)
        scribe = DdlScribe(rng)
        scribe.begin_month()
        scribe.apply_units(12, maintenance_bias=0.0, birth=True)
        script = parse_script(scribe.snapshot_sql())
        assert not script.skipped
        schema = build_schema(script)
        assert schema.attribute_count == 12

    def test_birth_month_expansion_only(self):
        rng = random.Random(2)
        scribe = DdlScribe(rng)
        scribe.begin_month()
        scribe.apply_units(30, maintenance_bias=0.9, birth=True)
        schema = build_schema(parse_script(scribe.snapshot_sql()))
        assert schema.attribute_count == 30

    def test_maintenance_changes_count_exactly(self):
        rng = random.Random(3)
        scribe = DdlScribe(rng)
        scribe.begin_month()
        scribe.apply_units(40, maintenance_bias=0.0, birth=True)
        before = build_schema(parse_script(scribe.snapshot_sql()))
        scribe.begin_month()
        scribe.apply_units(15, maintenance_bias=0.8)
        after = build_schema(parse_script(scribe.snapshot_sql()))
        from repro.diff.engine import diff_schemas
        assert diff_schemas(before, after).total_affected == 15

    def test_table_count_positive(self):
        rng = random.Random(4)
        scribe = DdlScribe(rng)
        scribe.begin_month()
        scribe.apply_units(5, maintenance_bias=0.0, birth=True)
        assert scribe.table_count >= 1


def rendered_from_scratch(scribe):
    """The whole dump with every live table rendered anew (the oracle
    of the scribe's memoised table texts)."""
    lines = [f"-- synthetic schema dump ({scribe.table_count} tables)"]
    lines += [write_statement(scribe._render_table(scribe._tables[name]),
                              scribe._dialect) + ";"
              for name in scribe._order]
    return "\n\n".join(lines) + "\n"


#: What eject, retype, rekey and drop emit.
MAINTENANCE = {ast.DropColumn, ast.AlterColumnType, ast.AddConstraint,
               ast.DropTable}


@pytest.mark.parametrize("seed", range(6))
def test_snapshot_memo_equals_full_render(seed):
    """Across a maintenance-heavy run, the memoised dump equals a
    from-scratch render after every month, and no foreign key ever
    points at a dropped table."""
    rng = random.Random(seed)
    scribe = DdlScribe(rng, list(Dialect)[seed % len(Dialect)])
    fired = set()
    for month in range(60):
        scribe.begin_month()
        scribe.apply_units(40 if month == 0 else rng.randint(1, 12),
                           maintenance_bias=0.8, birth=(month == 0))
        for stmt in scribe._month_statements:
            fired.update(type(node)
                         for node in (stmt, *getattr(stmt, "actions", ())))
        assert scribe.snapshot_sql() == rendered_from_scratch(scribe)
        assert {col.fk_target
                for table in scribe._tables.values()
                for col in table.columns
                if col.fk_target is not None} <= set(scribe._order)
    assert fired >= MAINTENANCE


class TestRealizeHistory:
    def test_history_matches_plan(self):
        rng = random.Random(7)
        plan = plan_schedule(rng, pup_months=36, birth_month=3,
                             top_month=12, birth_units=25, agm=3,
                             post_units=40)
        history = realize_history(plan, rng, "proj")
        assert history.pup_months == 36
        assert measured_schedule(history) == plan.schedule

    def test_flatliner_plan(self):
        rng = random.Random(8)
        plan = plan_schedule(rng, pup_months=20, birth_month=0,
                             top_month=0, birth_units=15, agm=0,
                             post_units=0)
        history = realize_history(plan, rng, "flat")
        assert measured_schedule(history) == {0: 15}
        assert len(history) == 1

    def test_commits_sorted_and_named(self):
        rng = random.Random(9)
        plan = plan_schedule(rng, pup_months=30, birth_month=0,
                             top_month=10, birth_units=30, agm=2,
                             post_units=20)
        history = realize_history(plan, rng, "proj")
        timestamps = [c.timestamp for c in history.commits]
        assert timestamps == sorted(timestamps)
        assert all(c.sha.startswith("proj-m") for c in history.commits)

    def test_dialect_respected(self):
        from repro.sqlddl.dialect import Dialect
        rng = random.Random(10)
        plan = plan_schedule(rng, pup_months=20, birth_month=0,
                             top_month=0, birth_units=30, agm=0,
                             post_units=0)
        history = realize_history(plan, rng, "proj", Dialect.MYSQL)
        assert history.dialect is Dialect.MYSQL


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    pup=st.integers(14, 80),
    birth=st.integers(0, 10),
    interval=st.integers(0, 20),
    agm=st.integers(0, 4),
    birth_units=st.integers(1, 80),
    post_units=st.integers(0, 120),
    bias=st.floats(0.0, 0.6),
)
def test_realized_heartbeat_equals_plan(seed, pup, birth, interval, agm,
                                        birth_units, post_units, bias):
    """THE exactness property: for every feasible plan, the measured
    monthly heartbeat of the generated DDL history equals the plan."""
    from repro.errors import CorpusError
    rng = random.Random(seed)
    top = min(birth + interval, pup - 1)
    try:
        plan = plan_schedule(rng, pup_months=pup, birth_month=birth,
                             top_month=top, birth_units=birth_units,
                             agm=agm, post_units=post_units,
                             maintenance_bias=bias)
    except CorpusError:
        return
    history = realize_history(plan, rng, "prop")
    assert measured_schedule(history) == plan.schedule
