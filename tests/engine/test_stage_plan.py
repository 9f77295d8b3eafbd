"""Unit tests for the stage DAG and the plan executor."""

import pytest

from repro.engine import (
    MapStage,
    Stage,
    StageEvent,
    StudyConfig,
    StudyPlan,
    execute_plan,
)
from repro.errors import EngineError


def _double(x):
    return x * 2


def _add(a, b):
    return a + b


def _total(values):
    return sum(values)


class TestStage:
    def test_empty_name_rejected(self):
        with pytest.raises(EngineError):
            Stage(name="", fn=_double)

    def test_self_reference_rejected(self):
        with pytest.raises(EngineError):
            Stage(name="a", fn=_double, inputs=("a",))

    def test_map_stage_needs_an_input(self):
        with pytest.raises(EngineError):
            MapStage(name="m", fn=_double)


class TestStudyPlan:
    def test_duplicate_names_rejected(self):
        with pytest.raises(EngineError):
            StudyPlan([Stage(name="a", fn=_double, inputs=("x",)),
                       Stage(name="a", fn=_double, inputs=("x",))])

    def test_unknown_input_rejected(self):
        plan = StudyPlan([Stage(name="a", fn=_double,
                                inputs=("nowhere",))])
        with pytest.raises(EngineError, match="nowhere"):
            plan.execution_order(["x"])

    def test_cycle_rejected(self):
        plan = StudyPlan([
            Stage(name="a", fn=_double, inputs=("b",)),
            Stage(name="b", fn=_double, inputs=("a",)),
        ])
        with pytest.raises(EngineError, match="cycle"):
            plan.execution_order([])

    def test_topological_order(self):
        plan = StudyPlan([
            Stage(name="late", fn=_add, inputs=("mid", "early")),
            Stage(name="mid", fn=_double, inputs=("early",)),
            Stage(name="early", fn=_double, inputs=("x",)),
        ])
        order = [s.name for s in plan.execution_order(["x"])]
        assert order.index("early") < order.index("mid")
        assert order.index("mid") < order.index("late")

    def test_lookup_and_describe(self):
        plan = StudyPlan([Stage(name="a", fn=_double, inputs=("x",))])
        assert plan.stage("a").fn is _double
        assert "a" in plan
        assert "a" in plan.describe()
        with pytest.raises(EngineError):
            plan.stage("missing")


class TestStudyConfig:
    def test_defaults_serial_uncached(self):
        config = StudyConfig()
        assert config.jobs == 1
        assert config.cache_dir is None

    def test_zero_jobs_rejected(self):
        with pytest.raises(EngineError):
            StudyConfig(jobs=0)

    def test_zero_chunk_rejected(self):
        with pytest.raises(EngineError):
            StudyConfig(chunk_size=0)

    def test_cache_dir_coerced_to_path(self, tmp_path):
        from pathlib import Path
        config = StudyConfig(cache_dir=str(tmp_path))
        assert isinstance(config.cache_dir, Path)

    def test_replace(self):
        config = StudyConfig().replace(jobs=3)
        assert config.jobs == 3


class TestExecutePlan:
    def test_linear_plan(self):
        plan = StudyPlan([
            Stage(name="doubled", fn=_double, inputs=("x",)),
            Stage(name="sum", fn=_add, inputs=("doubled", "x")),
        ])
        results, report = execute_plan(plan, {"x": 5})
        assert results["doubled"] == 10
        assert results["sum"] == 15
        assert {t.stage for t in report.timings} == {"doubled", "sum"}
        assert report.total_seconds >= 0
        assert "Execution report" in report.format_table()

    def test_map_stage_serial(self):
        plan = StudyPlan([
            MapStage(name="mapped", fn=_add, inputs=("items", "offset")),
            Stage(name="total", fn=_total, inputs=("mapped",)),
        ])
        results, report = execute_plan(plan,
                                       {"items": [1, 2, 3], "offset": 10})
        assert results["mapped"] == [11, 12, 13]
        assert results["total"] == 36
        assert report.timing("mapped").items == 3

    def test_map_stage_parallel_matches_serial(self):
        plan = StudyPlan([MapStage(name="mapped", fn=_double,
                                   inputs=("items",))])
        serial, _ = execute_plan(plan, {"items": list(range(20))})
        parallel, _ = execute_plan(plan, {"items": list(range(20))},
                                   StudyConfig(jobs=2))
        assert parallel["mapped"] == serial["mapped"]

    def test_progress_events_stream(self):
        events: list[StageEvent] = []
        plan = StudyPlan([Stage(name="doubled", fn=_double,
                                inputs=("x",))])
        _, report = execute_plan(plan, {"x": 1},
                                 StudyConfig(progress=events.append))
        phases = [(e.stage, e.phase) for e in events]
        assert phases == [("doubled", "start"), ("doubled", "finish")]
        # The finish event carries the stage's timing; start has none.
        assert events[0].timing is None
        assert events[1].timing is report.timing("doubled")

    def test_missing_timing_raises(self):
        plan = StudyPlan([Stage(name="doubled", fn=_double,
                                inputs=("x",))])
        _, report = execute_plan(plan, {"x": 1})
        with pytest.raises(EngineError):
            report.timing("absent")
