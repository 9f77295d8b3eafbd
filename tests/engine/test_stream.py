"""Streaming handle enumeration: single-use streams, deterministic
sampling, session replay, and the flat handle-side memory guarantee."""

import tracemalloc

import pytest

from repro.engine import (
    EngineSession,
    HandleStream,
    MapStage,
    StudyConfig,
    StudyPlan,
    compute_records_from_source,
    execute_plan,
    policy_from_name,
    sample_handles,
)
from repro.errors import EngineError
from repro.sources import SyntheticSource
from repro.sources.base import SourceHandle
from tests.conftest import SMALL_POPULATION


class FakeStreamSource:
    """A lightweight source with arbitrarily many weightless projects.

    Fingerprints are padded so a materialized handle list would be
    obviously larger than a streamed one — the memory tests measure
    exactly that difference.
    """

    mode = "corpus"
    lightweight = True

    def __init__(self, n, pad=2048):
        self.n = n
        self.pad = "f" * pad

    def identity(self):
        return ["fake-stream", self.n, len(self.pad)]

    def project_ids(self):
        return tuple(f"p-{i:06d}" for i in range(self.n))

    def iter_handles(self):
        for i in range(self.n):
            pid = f"p-{i:06d}"
            yield SourceHandle(pid=pid,
                               fingerprint=f"{self.pad}:{pid}")

    def count(self):
        return self.n

    def fingerprint(self, pid):
        return f"{self.pad}:{pid}"

    def load(self, pid):  # pragma: no cover - never loaded here
        raise AssertionError("stream tests never realize projects")


def _fingerprint_length(handle):
    return len(handle.fingerprint)


def _length_plan():
    return StudyPlan([MapStage(name="lengths", fn=_fingerprint_length,
                               inputs=("handles",))])


@pytest.fixture(scope="module")
def synthetic():
    return SyntheticSource(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False)


class TestSingleUse:
    def test_second_iteration_raises(self):
        stream = HandleStream(FakeStreamSource(4))
        assert len(list(stream)) == 4
        with pytest.raises(EngineError, match="single-use"):
            iter(stream)

    def test_counts_and_digest_follow_the_stream(self):
        stream = HandleStream(FakeStreamSource(4))
        empty = stream.stream_digest()
        list(stream)
        assert stream.seen == 4
        assert stream.count() == 4
        assert stream.stream_digest() != empty

    def test_digest_is_deterministic(self):
        a = HandleStream(FakeStreamSource(4))
        b = HandleStream(FakeStreamSource(4))
        list(a), list(b)
        assert a.stream_digest() == b.stream_digest()


class TestFailureCapture:
    def test_bad_fingerprint_is_quarantined(self):
        class Flaky(FakeStreamSource):
            def iter_handles(self):
                raise AssertionError("capturing path bridges by pid")

            def fingerprint(self, pid):
                if pid.endswith("2"):
                    raise ValueError("boom")
                return super().fingerprint(pid)

        stream = HandleStream(Flaky(4), policy=policy_from_name("skip"))
        handles = list(stream)
        assert len(handles) == 3
        assert [f.project for f in stream.failures] == ["p-000002"]
        assert stream.failures[0].stage == "handles"

    def test_fail_fast_propagates(self):
        class Flaky(FakeStreamSource):
            def iter_handles(self):
                for pid in self.project_ids():
                    yield SourceHandle(pid=pid,
                                       fingerprint=self.fingerprint(pid))

            def fingerprint(self, pid):
                raise ValueError("boom")

        stream = HandleStream(Flaky(2), policy=policy_from_name("fail"))
        with pytest.raises(ValueError):
            list(stream)


class TestSessionReplay:
    def test_clean_stream_registers_and_replays(self):
        calls = []

        class Spy(FakeStreamSource):
            def iter_handles(self):
                calls.append("enumerate")
                return super().iter_handles()

        source = Spy(8)
        with EngineSession() as session:
            first = list(HandleStream(source, session=session))
            second = list(HandleStream(source, session=session))
        assert calls == ["enumerate"]
        assert second == first

    def test_shard_memo_round_trip(self):
        with EngineSession() as session:
            assert session.replay_shard("k1") is None
            handles = [SourceHandle(pid="a", fingerprint="fa")]
            session.remember_shard("k1", handles)
            assert session.replay_shard("k1") == handles


class TestSampling:
    def test_identity_at_or_above_size(self):
        handles = list(FakeStreamSource(5).iter_handles())
        assert sample_handles(iter(handles), 5, seed=1) == handles
        assert sample_handles(iter(handles), 99, seed=1) == handles

    def test_deterministic_and_order_preserving(self):
        handles = list(FakeStreamSource(40).iter_handles())
        a = sample_handles(iter(handles), 10, seed=7)
        b = sample_handles(iter(handles), 10, seed=7)
        assert a == b
        assert len(a) == 10
        positions = [handles.index(h) for h in a]
        assert positions == sorted(positions)
        assert sample_handles(iter(handles), 10, seed=8) != a

    def test_stratified_spans_patterns(self, synthetic):
        handles = list(synthetic.iter_handles())
        picked = sample_handles(iter(handles), 8, seed=0,
                                stratified=True, source=synthetic)
        assert len(picked) == 8
        patterns = {synthetic.stratum(h.pid) for h in picked}
        assert len(patterns) == 8

    def test_sampled_study_runs_on_the_subset(self, synthetic):
        config = StudyConfig(sample=6, stratified=True)
        records, _ = compute_records_from_source(synthetic, config)
        again, _ = compute_records_from_source(synthetic, config)
        assert len(records) == 6
        assert [r.name for r in records] == [r.name for r in again]

    def test_in_memory_corpus_is_sampled(self, synthetic, small_corpus):
        from repro.study.pipeline import records_from_corpus
        config = StudyConfig(sample=6, seed=3)
        records = records_from_corpus(small_corpus, config=config)
        expected, _ = compute_records_from_source(synthetic, config)
        assert [r.name for r in records] == [r.name for r in expected]
        assert len(records) == 6

    def test_config_validation(self):
        with pytest.raises(EngineError, match="sample"):
            StudyConfig(sample=0)
        with pytest.raises(EngineError, match="stratified"):
            StudyConfig(stratified=True)


class TestFlatMemory:
    def _peak(self, n):
        source = FakeStreamSource(n)
        tracemalloc.start()
        try:
            results, _ = execute_plan(_length_plan(),
                                      {"handles": HandleStream(source)},
                                      StudyConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert results["lengths"] == [len(source.fingerprint(pid))
                                      for pid in source.project_ids()]
        return peak

    def test_handle_memory_stays_flat_1x_to_20x(self):
        """20× the projects must not cost 20× the handle memory.

        Each padded handle is ~2 KiB; materializing 6000 of them would
        hold ~12 MiB, while the stream keeps one in flight at a time.
        The per-item bookkeeping (an int result and its index slot)
        still grows linearly, so "flat" means: well under the
        materialized-handle cost, and only a bookkeeping-sized constant
        per extra project — never a handle-sized one.
        """
        small = self._peak(300)
        big = self._peak(20 * 300)
        materialized = 20 * 300 * 2048
        assert big < materialized / 8
        per_extra_project = (big - small) / (20 * 300 - 300)
        assert per_extra_project < 512
