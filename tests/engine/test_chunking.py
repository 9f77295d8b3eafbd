"""Chunk-sizing unit tests: _auto_chunk/_count_hint edges and overrides.

The precedence contract is ``config.chunk_size`` (the CLI ``--chunk-size``
flag) over :func:`_auto_chunk` on the feed's :func:`_count_hint`;
whatever wins is surfaced in the ``chunk`` column of the timing report.
"""

from repro.engine import (
    MapStage,
    StudyConfig,
    StudyPlan,
    execute_plan,
)
from repro.engine.executor import _auto_chunk, _count_hint


def _double(x):
    return x * 2


class TestAutoChunk:
    def test_zero_total(self):
        assert _auto_chunk(0, 4) == 1

    def test_unsized_stream(self):
        assert _auto_chunk(None, 1) == 4
        assert _auto_chunk(None, 4) == 16

    def test_more_jobs_than_items(self):
        assert _auto_chunk(3, 8) == 1

    def test_amortizes_known_totals(self):
        # ~4 chunks per worker
        assert _auto_chunk(160, 4) == 10
        assert _auto_chunk(161, 4) == 11

    def test_never_below_one(self):
        assert _auto_chunk(1, 64) == 1


class _Counted:
    """An unsized iterable advertising a cheap ``count()`` hint."""

    def __init__(self, n, broken=False):
        self.n = n
        self.broken = broken

    def __iter__(self):
        return iter(range(self.n))

    def count(self):
        if self.broken:
            raise RuntimeError("no count today")
        return self.n


class TestCountHint:
    def test_sized(self):
        assert _count_hint([1, 2, 3]) == 3

    def test_count_method(self):
        assert _count_hint(_Counted(7)) == 7

    def test_failing_count_is_unsized(self):
        assert _count_hint(_Counted(7, broken=True)) is None

    def test_plain_generator_is_unsized(self):
        assert _count_hint(x for x in range(5)) is None


class TestChunkOverride:
    def _run(self, config):
        plan = StudyPlan([MapStage(name="m", fn=_double,
                                   inputs=("items",))])
        results, report = execute_plan(plan, {"items": list(range(20))},
                                       config)
        assert results["m"] == [x * 2 for x in range(20)]
        return report.timing("m").chunk_size

    def test_config_wins_over_auto(self):
        # auto would pick 3 (see test_auto_when_nothing_set)
        assert self._run(StudyConfig(jobs=2, chunk_size=5)) == 5

    def test_auto_when_nothing_set(self):
        # 20 items / (2 jobs * 4) -> ceil = 3
        assert self._run(StudyConfig(jobs=2)) == 3

    def test_serial_runs_ignore_chunking(self):
        assert self._run(StudyConfig(jobs=1, chunk_size=5)) == 0
