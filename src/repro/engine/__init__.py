"""repro.engine — staged execution of the study pipeline.

The engine expresses the study as a declarative DAG of named stages
(:class:`Stage` / :class:`MapStage` in a :class:`StudyPlan`), executes
it serially or with a process pool (:func:`execute_plan`), memoizes the
per-project map in a content-addressed :class:`ResultCache`, and
reports per-stage timings (:class:`ExecutionReport`). A single
:class:`StudyConfig` (seed, scheme, jobs, cache dir, error policy) is
threaded through the corpus generator, the study pipeline, the CLI and
the benchmarks. Long-lived runtime state — the persistent worker pool,
hot-layer caches and the run ledger — lives in an
:class:`EngineSession`; every entry point takes an optional
``session=`` and opens a throwaway one otherwise.

Every source — synthetic, corpus directory, git checkout or
in-memory objects — maps through one handle-driven records plan.

Typical use::

    from repro.corpus.generator import generate_corpus
    from repro.engine import (EngineSession, StudyConfig,
                              execute_study_from_source)
    from repro.sources import InMemorySource

    config = StudyConfig(jobs=4, cache_dir="~/.cache/repro")
    source = InMemorySource(generate_corpus(config=config).projects)
    with EngineSession() as session:
        results, report = execute_study_from_source(source, config,
                                                    session=session)
        # ... re-run later: warm pool + hot cache, pure hit latency
    print(report.format_table())
"""

from repro.engine.cache import MISS, ResultCache, canonical, fingerprint
from repro.engine.config import StudyConfig
from repro.engine.delta import (
    DeltaStore,
    StudyCheckpoint,
    delta_store_for,
)
from repro.engine.executor import (
    ExecutionReport,
    StageTiming,
    execute_plan,
)
from repro.engine.faults import (
    ErrorPolicy,
    FaultPlan,
    FaultSpec,
    ProjectFailure,
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
from repro.engine.session import (
    EngineSession,
    HotResultCache,
    append_line,
    read_ledger,
    read_ledger_report,
    source_session_key,
)
from repro.engine.stage import (
    MapStage,
    Stage,
    StudyPlan,
)
from repro.engine.stream import (
    HandleStream,
    sample_handles,
)
from repro.engine.study_plan import (
    build_analysis_plan,
    build_source_records_plan,
    build_source_study_plan,
    compute_records_from_source,
    corpus_record,
    execute_study_from_source,
    history_record,
    run_analyses,
    source_record,
    source_record_delta,
    source_record_key,
)

__all__ = [
    "MISS",
    "DeltaStore",
    "EngineSession",
    "ErrorPolicy",
    "ExecutionReport",
    "HotResultCache",
    "InterruptGuard",
    "JournalInfo",
    "JournalReplay",
    "RunJournal",
    "FaultPlan",
    "FaultSpec",
    "HandleStream",
    "MapStage",
    "ProjectFailure",
    "ResultCache",
    "Stage",
    "StageTiming",
    "StudyCheckpoint",
    "StudyConfig",
    "StudyPlan",
    "append_line",
    "build_analysis_plan",
    "build_source_records_plan",
    "build_source_study_plan",
    "canonical",
    "compute_records_from_source",
    "corpus_record",
    "delta_store_for",
    "execute_plan",
    "execute_study_from_source",
    "fingerprint",
    "history_record",
    "interrupt_guard",
    "list_journals",
    "load_replay",
    "read_journal",
    "read_ledger",
    "read_ledger_report",
    "resumable_runs",
    "run_analyses",
    "sample_handles",
    "source_session_key",
    "source_record",
    "source_record_delta",
    "source_record_key",
]
