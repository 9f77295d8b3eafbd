"""Fault layer: policies, failure records, injection, hardened executor.

The acceptance bar of the fault-tolerance layer, exercised end-to-end:

* every :class:`ErrorPolicy` mode against every injected fault kind
  (parse error, transient source error, cache corruption, worker
  crash, chunk timeout);
* the golden survivor property — a skip-run over a corpus with K bad
  projects renders a byte-identical report to a clean run over the
  remaining projects;
* pool-crash recovery (degraded run, complete results) and the
  all-items-failed guard;
* handle-stage protection for lightweight sources whose fingerprinting
  fails in the parent process.
"""

import time

import pytest

from repro.engine import (
    ErrorPolicy,
    FaultPlan,
    FaultSpec,
    MapStage,
    ProjectFailure,
    StudyConfig,
    StudyPlan,
    HandleStream,
    execute_plan,
    execute_study_from_source,
    policy_from_name,
    read_ledger,
)
from repro.errors import (
    EngineError,
    ParseError,
    SourceError,
    TransientSourceError,
)
from repro.report.markdown import markdown_report
from repro.sources import InMemorySource, SyntheticSource
from tests.conftest import SMALL_POPULATION

#: A zero-sleep retry policy so tests never wait on backoff.
FAST_RETRY = ErrorPolicy.retry(max_retries=2, backoff_base=0.0)


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False)


@pytest.fixture(scope="module")
def clean_report(source):
    results, _ = execute_study_from_source(source, StudyConfig())
    return markdown_report(results)


def study(source, **kwargs):
    kwargs.setdefault("error_policy", ErrorPolicy.skip())
    return execute_study_from_source(source, StudyConfig(**kwargs))


class TestProjectFailure:
    def test_from_exception(self):
        try:
            raise ParseError("bad DDL near line 3")
        except ParseError as exc:
            failure = ProjectFailure.from_exception(
                "proj-01", "records", exc, attempts=2)
        assert failure.project == "proj-01"
        assert failure.stage == "records"
        assert failure.error_type == "ParseError"
        assert "bad DDL" in failure.message
        assert "ParseError" in failure.traceback
        assert failure.attempts == 2

    def test_summary_mentions_attempts_only_when_retried(self):
        once = ProjectFailure("p", "records", "ParseError", "boom")
        thrice = ProjectFailure("p", "records", "ParseError", "boom",
                                attempts=3)
        assert "attempts" not in once.summary()
        assert "after 3 attempts" in thrice.summary()
        assert "p [records] ParseError: boom" in once.summary()


class TestErrorPolicy:
    def test_default_is_fail_fast(self):
        policy = ErrorPolicy()
        assert policy.mode == "fail"
        assert not policy.captures
        assert StudyConfig().error_policy == policy

    def test_validation(self):
        with pytest.raises(EngineError):
            ErrorPolicy(mode="explode")
        with pytest.raises(EngineError):
            ErrorPolicy(mode="retry", max_retries=-1)
        with pytest.raises(EngineError):
            ErrorPolicy(backoff_base=-0.1)

    def test_attempts_for(self):
        retry = ErrorPolicy.retry(max_retries=3)
        assert retry.attempts_for(TransientSourceError("x")) == 4
        # Permanent failures never burn the retry budget.
        assert retry.attempts_for(ParseError("x")) == 1
        assert retry.attempts_for(SourceError("x")) == 1
        assert ErrorPolicy.skip().attempts_for(
            TransientSourceError("x")) == 1

    def test_backoff_deterministic_and_bounded(self):
        policy = ErrorPolicy.retry(backoff_base=0.05)
        first = policy.backoff_seconds("proj", 1)
        assert first == policy.backoff_seconds("proj", 1)
        # Exponential envelope with ±25 % jitter.
        assert 0.05 * 0.75 <= first <= 0.05 * 1.25
        second = policy.backoff_seconds("proj", 2)
        assert 0.10 * 0.75 <= second <= 0.10 * 1.25
        # Different projects jitter differently (with high probability
        # for any fixed pair of ids; this pair differs).
        assert policy.backoff_seconds("a", 1) \
            != policy.backoff_seconds("b", 1)
        assert policy.backoff_seconds("proj", 30) <= policy.backoff_cap

    def test_policy_from_name(self):
        assert policy_from_name("fail") == ErrorPolicy.fail_fast()
        assert policy_from_name("skip") == ErrorPolicy.skip()
        assert policy_from_name("retry", max_retries=5).max_retries == 5
        with pytest.raises(EngineError):
            policy_from_name("ignore")


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(EngineError):
            FaultSpec(kind="meteor", target="x")
        with pytest.raises(EngineError):
            FaultSpec(kind="parse", target="")
        with pytest.raises(EngineError):
            FaultSpec(kind="parse", target="x", times=0)

    def test_matching(self):
        spec = FaultSpec(kind="parse", target="siesta-01")
        assert spec.matches("siesta-01", "records", seed=0)
        assert not spec.matches("siesta-02", "records", seed=0)
        assert not spec.matches("siesta-01", "analysis", seed=0)
        glob = FaultSpec(kind="parse", target="siesta-*")
        assert glob.matches("siesta-02", "records", seed=0)
        assert not glob.matches("flatliner-01", "records", seed=0)

    def test_sample_target_deterministic_and_seeded(self):
        spec = FaultSpec(kind="parse", target="~3")
        pids = [f"proj-{i:02d}" for i in range(60)]
        picks = [p for p in pids if spec.matches(p, "records", seed=7)]
        assert picks == [p for p in pids
                         if spec.matches(p, "records", seed=7)]
        # Roughly 1-in-3, and a different seed picks differently.
        assert 5 <= len(picks) <= 35
        assert picks != [p for p in pids
                         if spec.matches(p, "records", seed=8)]
        everything = FaultSpec(kind="parse", target="~1")
        assert all(everything.matches(p, "records", seed=0)
                   for p in pids)

    def test_bad_sample_target(self):
        with pytest.raises(EngineError):
            FaultSpec(kind="parse", target="~x").matches(
                "p", "records", 0)
        with pytest.raises(EngineError):
            FaultSpec(kind="parse", target="~0").matches(
                "p", "records", 0)


class TestFaultPlan:
    def test_spec_roundtrip(self):
        plan = FaultPlan(seed=7, faults=(
            FaultSpec(kind="parse", target="flatliner-01"),
            FaultSpec(kind="source", target="siesta-*", times=2),
            FaultSpec(kind="cache", target="~10", stage="analysis"),
        ))
        assert FaultPlan.parse(plan.to_spec()) == plan
        assert plan.to_spec() == ("seed=7;parse@flatliner-01;"
                                  "source@siesta-**2;cache@~10#analysis")

    def test_parse_rejects_garbage(self):
        for bad in ("seed=x", "parse", "parse@", "parse@p*x",
                    "meteor@p"):
            with pytest.raises(EngineError):
                FaultPlan.parse(bad)

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULT_PLAN": "  "}) is None
        plan = FaultPlan.from_env(
            {"REPRO_FAULT_PLAN": "parse@p-01;seed=3"})
        assert plan.seed == 3
        assert plan.faults[0].target == "p-01"

    def test_check_raises_by_kind(self):
        plan = FaultPlan.parse("parse@a;source@b;crash@c;cache@d")
        with pytest.raises(ParseError):
            plan.check("a", "records", attempt=1)
        with pytest.raises(TransientSourceError):
            plan.check("b", "records", attempt=1)
        # In-parent "crash" raises instead of killing the test run.
        with pytest.raises(EngineError):
            plan.check("c", "records", attempt=1)
        # Cache faults fire at the cache layer, never in check().
        plan.check("d", "records", attempt=1)
        assert plan.wants_cache_corruption("d", "records")
        assert not plan.wants_cache_corruption("a", "records")
        plan.check("unrelated", "records", attempt=1)

    def test_times_bounds_the_attempts(self):
        plan = FaultPlan.parse("source@p*2")
        for attempt in (1, 2):
            with pytest.raises(TransientSourceError):
                plan.check("p", "records", attempt=attempt)
        plan.check("p", "records", attempt=3)  # healed

    def test_bool(self):
        assert not FaultPlan()
        assert FaultPlan.parse("parse@p")


class TestPolicyByFaultMatrix:
    """Every policy mode against every injectable fault kind."""

    def test_fail_parse_propagates(self, source):
        with pytest.raises(ParseError):
            study(source, error_policy=ErrorPolicy.fail_fast(),
                  faults=FaultPlan.parse("parse@flatliner-01"))

    def test_fail_source_propagates(self, source):
        with pytest.raises(TransientSourceError):
            study(source, error_policy=ErrorPolicy.fail_fast(),
                  faults=FaultPlan.parse("source@flatliner-01"))

    def test_skip_quarantines_and_continues(self, source):
        results, report = study(
            source, faults=FaultPlan.parse("parse@flatliner-01"))
        assert len(results.records) == len(source) - 1
        assert [f.project for f in report.failures] == ["flatliner-01"]
        failure = report.failures[0]
        assert failure.error_type == "ParseError"
        assert failure.stage == "records"
        assert failure.attempts == 1
        assert report.timing("records").counters["failures"] == 1
        assert not report.degraded

    def test_skip_does_not_retry_transients(self, source):
        _, report = study(
            source, faults=FaultPlan.parse("source@flatliner-01*3"))
        assert report.failures[0].attempts == 1
        assert report.retries == 0

    def test_retry_heals_transient(self, source, clean_report):
        results, report = study(
            source, error_policy=FAST_RETRY,
            faults=FaultPlan.parse("source@flatliner-01*2"))
        assert not report.failures
        assert report.retries == 2
        assert report.timing("records").counters["retries"] == 2
        assert markdown_report(results) == clean_report

    def test_retry_budget_exhausted(self, source):
        _, report = study(
            source, error_policy=FAST_RETRY,
            faults=FaultPlan.parse("source@flatliner-01*9"))
        assert [f.project for f in report.failures] == ["flatliner-01"]
        assert report.failures[0].attempts == 1 + FAST_RETRY.max_retries
        assert report.failures[0].error_type == "TransientSourceError"

    def test_retry_never_replays_permanent_faults(self, source):
        _, report = study(
            source, error_policy=FAST_RETRY,
            faults=FaultPlan.parse("parse@flatliner-01*9"))
        assert report.failures[0].attempts == 1
        assert report.retries == 0

    def test_cache_corruption_self_heals(self, source, clean_report,
                                         tmp_path):
        config = dict(cache_dir=tmp_path / "cache")
        cold, _ = study(source, **config)
        corrupted, report = study(
            source, faults=FaultPlan.parse("cache@flatliner-01"),
            **config)
        assert report.quarantined == 1
        assert not report.failures
        counters = report.timing("records").counters
        assert counters["cache_hits"] == len(source) - 1
        assert counters["cache_misses"] == 1
        assert markdown_report(corrupted) == clean_report
        assert (tmp_path / "cache" / "corrupt").is_dir()
        # The recompute repopulated the slot: fully warm again.
        warm, warm_report = study(source, **config)
        assert warm_report.timing("records").counters["cache_hits"] \
            == len(source)

    def test_crash_recovery_degrades_but_completes(self, source,
                                                   clean_report):
        results, report = study(
            source, jobs=2,
            faults=FaultPlan.parse("crash@flatliner-01"))
        assert report.degraded
        assert not report.failures
        assert markdown_report(results) == clean_report

    def test_crash_recovery_respects_policy_on_refire(self, source):
        # times=2: the fault fires again during the serial re-run,
        # where it raises EngineError instead of killing the process.
        results, report = study(
            source, jobs=2,
            faults=FaultPlan.parse("crash@flatliner-01*2"))
        assert report.degraded
        assert [f.project for f in report.failures] == ["flatliner-01"]
        assert report.failures[0].error_type == "EngineError"
        assert len(results.records) == len(source) - 1

    def test_all_items_failed_raises(self, source):
        with pytest.raises(EngineError, match="all .* items failed"):
            study(source, faults=FaultPlan.parse("parse@~1"))


class TestGoldenSurvivors:
    def test_skip_run_equals_clean_run_over_survivors(
            self, source, small_corpus):
        """Byte-for-byte: skipping K bad projects == never having them."""
        bad = {"flatliner-02", "siesta-01"}
        skipped, report = study(
            source,
            faults=FaultPlan.parse("parse@flatliner-02;parse@siesta-01"))
        assert sorted(f.project for f in report.failures) == sorted(bad)
        survivors = [p for p in small_corpus.projects
                     if p.name not in bad]
        clean, _ = execute_study_from_source(
            InMemorySource(survivors, mode="corpus"), StudyConfig())
        assert markdown_report(skipped) == markdown_report(clean)

    def test_parallel_skip_same_bytes(self, source):
        plan = FaultPlan.parse("parse@flatliner-02;parse@siesta-01")
        serial, _ = study(source, faults=plan)
        parallel, report = study(source, jobs=4, faults=plan)
        assert len(report.failures) == 2
        assert markdown_report(parallel) == markdown_report(serial)

    def test_faults_table_column(self, source):
        _, report = study(
            source, faults=FaultPlan.parse("parse@flatliner-02"))
        table = report.format_table()
        assert "faults" in table
        assert "1 fail / 0 retry" in table


def _slow_fn(item):
    time.sleep(2.0 if item == "slow" else 0.0)
    return item


def _timeout_plan():
    return StudyPlan(stages=(
        MapStage(name="mapped", fn=_slow_fn, inputs=("items",)),))


class TestStageTimeout:
    def test_timeout_skips_the_chunk(self):
        config = StudyConfig(jobs=2, chunk_size=1, stage_timeout=0.25,
                             error_policy=ErrorPolicy.skip())
        results, report = execute_plan(
            _timeout_plan(), {"items": ["slow", "fast"]}, config)
        assert results["mapped"] == ["fast"]
        assert report.degraded
        assert [f.error_type for f in report.failures] \
            == ["TimeoutError"]

    def test_timeout_fails_fast_by_default(self):
        config = StudyConfig(jobs=2, chunk_size=1, stage_timeout=0.25)
        with pytest.raises(EngineError, match="did not finish"):
            execute_plan(_timeout_plan(),
                         {"items": ["slow", "fast"]}, config)


class FlakySource(SyntheticSource):
    """Fingerprinting fails ``fail_times`` times for chosen projects."""

    def __init__(self, *args, flaky_pids=(), fail_times=1, **kwargs):
        super().__init__(*args, **kwargs)
        self._flaky = dict.fromkeys(flaky_pids, fail_times)

    def fingerprint(self, pid):
        if self._flaky.get(pid, 0) > 0:
            self._flaky[pid] -= 1
            raise TransientSourceError(f"flaky fingerprint for {pid}")
        return super().fingerprint(pid)


class TestHandleStageProtection:
    def make(self, **kwargs):
        return FlakySource(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False, **kwargs)

    def test_no_policy_propagates(self):
        flaky = self.make(flaky_pids=["siesta-01"])
        with pytest.raises(TransientSourceError):
            list(HandleStream(flaky, None))

    def test_fail_policy_propagates(self):
        flaky = self.make(flaky_pids=["siesta-01"])
        with pytest.raises(TransientSourceError):
            execute_study_from_source(flaky, StudyConfig())

    def test_skip_quarantines_handle_failures(self, clean_report):
        flaky = self.make(flaky_pids=["siesta-01"], fail_times=99)
        results, report = study(flaky)
        assert [(f.project, f.stage) for f in report.failures] \
            == [("siesta-01", "handles")]
        assert len(results.records) == len(flaky) - 1

    def test_retry_heals_handle_failures(self, clean_report):
        flaky = self.make(flaky_pids=["siesta-01"], fail_times=2)
        results, report = study(flaky, error_policy=FAST_RETRY)
        assert not report.failures
        assert markdown_report(results) == clean_report

    def test_ledger_records_handle_failures(self, tmp_path):
        # stderr, --timings and the ledger row name the same failures.
        flaky = self.make(flaky_pids=["siesta-01"], fail_times=99)
        _, report = study(flaky, cache_dir=tmp_path)
        summaries = [f.summary() for f in report.failures]
        assert summaries[0].startswith(
            "siesta-01 [handles] TransientSourceError")
        assert read_ledger(tmp_path)[-1]["failures"] == summaries
        total = report.format_table().splitlines()[-1]
        assert total.endswith("| 1 fail / 0 retry")
