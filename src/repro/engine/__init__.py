"""repro.engine — staged execution of the study pipeline.

The engine expresses the study as a declarative DAG of named stages
(:class:`Stage` / :class:`MapStage` in a :class:`StudyPlan`), executes
it serially or with a process pool (:func:`execute_plan`), memoizes the
per-project map in a content-addressed :class:`ResultCache`, and
reports per-stage timings (:class:`ExecutionReport`). A single
:class:`StudyConfig` (seed, scheme, jobs, cache dir, progress hook) is
threaded through the corpus generator, the study pipeline, the CLI and
the benchmarks. Long-lived runtime state — the persistent worker pool,
hot-layer caches, the source-handle registry and the run ledger —
lives in an :class:`EngineSession`; every entry point takes an
optional ``session=`` and opens a throwaway one otherwise.

Typical use::

    from repro.corpus.generator import generate_corpus
    from repro.engine import EngineSession, StudyConfig, execute_study

    config = StudyConfig(jobs=4, cache_dir="~/.cache/repro")
    corpus = generate_corpus(config=config)
    with EngineSession(config) as session:
        results, report = execute_study(corpus.projects, config,
                                        session=session)
        # ... re-run later: warm pool + hot cache, pure hit latency
    print(report.format_table())
"""

from repro.engine.cache import MISS, ResultCache, canonical, fingerprint
from repro.engine.config import ProgressHook, StudyConfig
from repro.engine.delta import (
    DeltaStore,
    StudyCheckpoint,
    delta_store_for,
)
from repro.engine.executor import (
    ExecutionReport,
    StageTiming,
    execute_plan,
    run_stage,
)
from repro.engine.faults import (
    ErrorPolicy,
    FaultPlan,
    FaultSpec,
    ProjectFailure,
    policy_from_name,
)
from repro.engine.interrupt import InterruptGuard, interrupt_guard
from repro.engine.journal import (
    JournalInfo,
    JournalReplay,
    RunJournal,
    list_journals,
    load_replay,
    read_journal,
    resumable_runs,
)
from repro.engine.lock import CacheLock, append_line
from repro.engine.session import (
    EngineSession,
    HotResultCache,
    RunRecord,
    read_ledger,
    read_ledger_report,
    source_session_key,
)
from repro.engine.stage import (
    MapStage,
    PlanSchedule,
    Stage,
    StageEvent,
    StudyPlan,
)
from repro.engine.stream import (
    HandleStream,
    sample_handles,
)
from repro.engine.study_plan import (
    RECORDS_STAGE_VERSION,
    bare_history,
    build_analysis_plan,
    build_records_plan,
    build_source_records_plan,
    build_source_study_plan,
    build_study_plan,
    compute_records,
    compute_records_from_source,
    corpus_record,
    corpus_record_key,
    execute_study,
    execute_study_from_source,
    history_record,
    history_record_key,
    run_analyses,
    safe_source_handles,
    source_handles,
    source_record,
    source_record_delta,
    source_record_key,
    strip_project,
    strip_record,
)

__all__ = [
    "MISS",
    "CacheLock",
    "DeltaStore",
    "EngineSession",
    "ErrorPolicy",
    "ExecutionReport",
    "HotResultCache",
    "InterruptGuard",
    "JournalInfo",
    "JournalReplay",
    "RunJournal",
    "RunRecord",
    "FaultPlan",
    "FaultSpec",
    "HandleStream",
    "MapStage",
    "PlanSchedule",
    "ProjectFailure",
    "ProgressHook",
    "RECORDS_STAGE_VERSION",
    "ResultCache",
    "Stage",
    "StageEvent",
    "StageTiming",
    "StudyCheckpoint",
    "StudyConfig",
    "StudyPlan",
    "append_line",
    "bare_history",
    "build_analysis_plan",
    "build_records_plan",
    "build_source_records_plan",
    "build_source_study_plan",
    "build_study_plan",
    "canonical",
    "compute_records",
    "compute_records_from_source",
    "corpus_record",
    "corpus_record_key",
    "delta_store_for",
    "execute_plan",
    "execute_study",
    "execute_study_from_source",
    "fingerprint",
    "history_record",
    "history_record_key",
    "interrupt_guard",
    "list_journals",
    "load_replay",
    "policy_from_name",
    "read_journal",
    "read_ledger",
    "read_ledger_report",
    "resumable_runs",
    "run_analyses",
    "run_stage",
    "sample_handles",
    "source_session_key",
    "safe_source_handles",
    "source_handles",
    "source_record",
    "source_record_delta",
    "source_record_key",
    "strip_project",
    "strip_record",
]
