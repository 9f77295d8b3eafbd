"""Command-line interface: ``repro-schema`` / ``python -m repro.cli``.

Subcommands:

* ``study`` — run the full study and print every paper table/figure;
  ``--source synthetic:|dir:PATH|git:PATH`` picks where the histories
  come from.
* ``corpus export`` — write the synthetic corpus as the versioned JSONL
  directory that ``--source dir:`` reads, the one on-disk corpus format.
* ``refresh`` — re-derive the study of a growing source incrementally:
  unchanged projects come from the result cache, append-only history
  growth runs through the O(K) delta suffix kernel, and ``--watch``
  polls the source on an interval. Output is byte-identical to a cold
  ``study`` of the same source.
* ``profile`` — measure, label and classify one schema history
  (directory of .sql files or a JSONL commit log).
* ``chart`` — render a history's heartbeat as ASCII or SVG.
* ``ledger`` — print the run ledger recorded under a ``--cache-dir``
  (one row per past run: its id, wall time, the ``--timings`` TOTAL
  counter cells and its result digest).
* ``resume`` — list interrupted runs whose journal makes them
  resumable via ``study --resume RUN_ID``.

Every failure funnels through the :class:`~repro.errors.ReproError`
hierarchy, so :func:`main` has exactly one error exit path. Exit
codes: 0 success, 1 error, 2 usage (argparse), 3 partial success — the
study completed but quarantined at least one project under
``--on-error skip``/``retry`` (the survivors' results were printed),
130 interrupted (SIGINT/SIGTERM; finished work is journaled and a
resume hint is printed).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import report
from repro.corpus.generator import DEFAULT_SEED
from repro.engine import (
    EngineSession,
    FaultPlan,
    StudyConfig,
    history_record,
    policy_from_name,
    read_ledger,
)
from repro.engine.executor import COLUMNS, total_cells
from repro.errors import CliError, ReproError, RunInterrupted

#: Exit status of a run that completed on survivors only: some
#: projects were quarantined (distinct from 1 = hard error and from
#: argparse's 2 = usage error).
EXIT_PARTIAL = 3

#: Exit status of an interrupted run (the conventional 128 + SIGINT).
#: Comes with a one-line resume hint on stderr; the run's finished
#: work is journaled, so ``study --resume RUN_ID`` picks it back up.
EXIT_INTERRUPTED = 130
from repro.history.heartbeat import schema_heartbeat
from repro.history.repository import (
    incremental_parse_disabled,
    load_history_from_directory,
    load_history_from_jsonl,
)
from repro.labels.quantization import DEFAULT_SCHEME
from repro.sources import source_from_spec
from repro.study.pipeline import run_full_study_from_source
from repro.viz.ascii_chart import ascii_chart
from repro.viz.svg_chart import svg_chart


#: The process-wide engine session: one warm pool + hot cache + ledger
#: shared by every study-like command this process runs. A second
#: in-process invocation (the service's shape) is pure cache-hit
#: latency; the session's atexit guard reaps the pool on interrupt.
_SESSION: EngineSession | None = None


def _process_session() -> EngineSession:
    """This process's engine session, created on first use."""
    global _SESSION
    if _SESSION is None or _SESSION.closed:
        _SESSION = EngineSession()
    return _SESSION


def _load_history(path: str):
    from repro.errors import HistoryError
    target = Path(path)
    try:
        if target.is_dir():
            return load_history_from_directory(target)
        return load_history_from_jsonl(target)
    except OSError as exc:
        raise HistoryError(f"cannot read history {path}: {exc}") from exc


def _study_config(args: argparse.Namespace) -> StudyConfig:
    """Build the run's :class:`StudyConfig` from CLI arguments."""
    faults = FaultPlan.parse(args.fault_plan) if args.fault_plan \
        else FaultPlan.from_env()
    return StudyConfig(
        seed=args.seed,
        jobs=args.jobs,
        chunk_size=args.chunk_size,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        source=args.source,
        error_policy=policy_from_name(args.on_error,
                                      max_retries=args.max_retries),
        stage_timeout=args.stage_timeout,
        faults=faults if faults else None,
        sample=args.sample,
        stratified=args.stratified,
        resume_from=getattr(args, "resume", None),
    )


def _write_text(path: str | Path, text: str, what: str) -> None:
    """Write an output file, wrapping failures as :class:`CliError`."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {what} {path}: {exc}") from exc


def _print_timings(report_obj) -> None:
    print(report_obj.format_table(), file=sys.stderr)


def _run_study_like(args: argparse.Namespace):
    """The shared study-execution block of study/report/export.

    Owns the plumbing every study-like command repeats: build the
    :class:`StudyConfig` from the shared ``--jobs``/``--cache-dir``/
    ``--on-error`` flags, resolve the history source, run through the
    process-wide engine session, and print ``--timings`` when asked.

    Returns:
        ``(results, report)`` from the full study run.
    """
    config = _study_config(args)
    results, timing = run_full_study_from_source(
        source_from_spec(config.source, config), config,
        session=_process_session())
    if getattr(args, "timings", False):
        _print_timings(timing)
    return results, timing


def _fault_exit(report_obj) -> int:
    """Surface a run's quarantined projects; pick its exit status.

    Prints one line per failure (and the degraded-run note) to stderr
    and returns :data:`EXIT_PARTIAL` when anything was skipped, 0 for
    a clean run.
    """
    if report_obj.degraded:
        print("warning: run degraded — worker pool lost, unfinished "
              "work re-executed serially", file=sys.stderr)
    if report_obj.quarantined:
        print(f"warning: {report_obj.quarantined} corrupt cache "
              f"entr{'y' if report_obj.quarantined == 1 else 'ies'} "
              f"quarantined and recomputed", file=sys.stderr)
    if report_obj.pruned:
        print(f"warning: quarantine cap reached — {report_obj.pruned} "
              f"oldest corrupt entr"
              f"{'y' if report_obj.pruned == 1 else 'ies'} pruned",
              file=sys.stderr)
    if report_obj.write_failures or report_obj.journal_degraded:
        print("warning: cache/journal writes failing (disk full or "
              "read-only?) — continuing memory-only; this run is not "
              "resumable", file=sys.stderr)
    if not report_obj.failures:
        return 0
    print(f"warning: {len(report_obj.failures)} project(s) skipped "
          f"(results cover the survivors):", file=sys.stderr)
    for failure in report_obj.failures:
        print(f"  {failure.summary()}", file=sys.stderr)
    return EXIT_PARTIAL


def _print_study_report(results) -> None:
    """Print every paper table/figure to stdout (study and refresh
    share this byte for byte — refresh output stays cmp-identical)."""
    sections = [
        report.render_table1(results),
        report.render_table2(results),
        report.render_correlations(results),
        report.render_fig4_overview(results),
        report.render_tree(results),
        report.render_coverage(results),
        report.render_prediction(results),
        report.render_section34(results),
        report.render_section52(results),
        report.render_section61(results),
        report.render_section63(results),
    ]
    print(("\n\n" + "=" * 72 + "\n\n").join(sections))


def _cmd_study(args: argparse.Namespace) -> int:
    results, timing = _run_study_like(args)
    _print_study_report(results)
    return _fault_exit(timing)


def _cmd_refresh(args: argparse.Namespace) -> int:
    """Incrementally re-derive the study; optionally keep polling.

    Each poll resolves the source afresh (so a grown corpus dir or a
    new git HEAD is seen), skips cheaply when the source's session key
    is unchanged since the last processed poll, and otherwise runs the
    delta-aware refresh through the process session. The report goes
    to stdout exactly as ``study`` prints it; the delta summary (and
    ``--timings``) go to stderr.
    """
    import time

    from repro.engine import source_session_key

    watch = args.watch
    max_polls = args.max_polls
    if watch is not None and watch <= 0:
        raise CliError(f"--watch must be > 0 seconds, got {watch}")
    if max_polls is not None and max_polls < 1:
        raise CliError(f"--max-polls must be >= 1, got {max_polls}")
    config = _study_config(args)
    session = _process_session()
    polls = 0
    last_key: str | None = None
    status = 0
    while True:
        polls += 1
        source = source_from_spec(config.source, config)
        key = source_session_key(source)
        if watch and key is not None and key == last_key:
            print(f"refresh: source unchanged, skipping poll {polls}",
                  file=sys.stderr)
        else:
            results, timing = session.refresh(source, config)
            last_key = key
            print(timing.format_delta_summary(), file=sys.stderr)
            if getattr(args, "timings", False):
                _print_timings(timing)
            _print_study_report(results)
            status = _fault_exit(timing)
        if not watch or (max_polls is not None and polls >= max_polls):
            return status
        time.sleep(watch)


def _cmd_profile(args: argparse.Namespace) -> int:
    record = history_record(_load_history(args.history), DEFAULT_SCHEME)
    marks = record.profile.landmarks
    print(f"project:            {record.name}")
    print(f"PUP (months):       {marks.pup_months}")
    print(f"schema birth:       month {marks.birth_month} "
          f"({marks.birth_pct:.0%} of life)")
    print(f"birth volume:       {marks.birth_volume_fraction:.0%} "
          f"of total activity")
    print(f"top band (90%):     month {marks.top_band_month} "
          f"({marks.top_band_pct:.0%} of life)")
    print(f"active growth mo.:  {marks.active_growth_months}")
    print(f"vault:              {marks.has_vault}")
    print(f"labels:             {record.labeled.feature_dict()}")
    suffix = " (exception)" if record.is_exception else ""
    print(f"pattern:            {record.pattern.value}{suffix}")
    from repro.patterns.describe import describe
    from repro.patterns.taxonomy import Pattern
    if record.pattern is not Pattern.UNCLASSIFIED:
        description = describe(record.pattern)
        print(f"shape:              {description.shape}")
        print(f"meaning:            {description.meaning}")
        print(f"advice:             {description.advice}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    """Classify every history found under a directory."""
    from repro.errors import HistoryError
    from repro.history.filters import filter_study_corpus
    from repro.viz.tables import format_table

    root = Path(args.directory)
    histories = []
    for entry in sorted(root.iterdir()) if root.is_dir() else []:
        try:
            if entry.is_dir():
                histories.append(load_history_from_directory(entry))
            elif entry.suffix == ".jsonl":
                histories.append(load_history_from_jsonl(entry))
        except (HistoryError, OSError) as exc:
            print(f"skipping {entry.name}: {exc}", file=sys.stderr)
    if not histories:
        raise CliError(f"no histories found under {root}")

    if args.apply_protocol:
        result = filter_study_corpus(histories)
        for excluded in result.excluded:
            print(f"excluded {excluded.name}: {excluded.reason}",
                  file=sys.stderr)
        histories = list(result.kept)

    rows = []
    for history in histories:
        record = history_record(history, DEFAULT_SCHEME)
        profile = record.profile
        rows.append([
            record.name, profile.pup_months,
            profile.birth_month, profile.total_activity,
            record.pattern.value
            + (" (exception)" if record.is_exception else ""),
        ])
    print(format_table(
        ["project", "PUP", "birth", "activity", "pattern"], rows,
        title=f"Classified {len(rows)} histories"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report.markdown import markdown_report
    results, timing = _run_study_like(args)
    _write_text(args.output, markdown_report(results), "report")
    print(f"wrote {args.output}")
    return _fault_exit(timing)


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.engine import compute_records_from_source
    from repro.report.export import export_dataset
    config = _study_config(args)
    records, timing = compute_records_from_source(
        source_from_spec(config.source, config), config,
        session=_process_session())
    paths = export_dataset(records, args.output)
    for path in paths:
        print(f"wrote {path}")
    return _fault_exit(timing)


def _cmd_corpus_export(args: argparse.Namespace) -> int:
    from repro.sources import write_corpus_dir
    from repro.sources.base import round_robin
    from repro.sources.synthetic import SyntheticSource
    if args.limit is not None and args.limit < 1:
        raise CliError(f"--limit must be >= 1, got {args.limit}")
    # Realize projects one at a time off the lazy synthetic plan so
    # export memory stays O(shard), not O(corpus); --limit draws ids,
    # so nothing else is realized.
    source = SyntheticSource(seed=args.seed)
    pids = source.project_ids() if args.limit is None \
        else round_robin(source.project_ids(), source.stratum,
                         args.limit)
    written = write_corpus_dir((source.load(pid) for pid in pids),
                               args.output, seed=source.seed,
                               shard_size=args.shard_size)
    layout = f"{written.shards} shards" if written.shards \
        else "per-project files"
    print(f"wrote {written.projects} projects to {written.root} "
          f"({layout}, seed {source.seed})")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.diff.engine import DiffOptions, diff_schemas
    from repro.errors import HistoryError
    from repro.schema.builder import build_schema
    from repro.sqlddl.parser import parse_script

    def load(path: str):
        try:
            return build_schema(parse_script(Path(path).read_text()))
        except OSError as exc:
            raise HistoryError(f"cannot read {path}: {exc}") from exc

    old_schema = load(args.old)
    new_schema = load(args.new)
    options = DiffOptions(detect_renames=args.detect_renames)
    delta = diff_schemas(old_schema, new_schema, options)
    print(f"tables added:   {', '.join(delta.tables_added) or '-'}")
    print(f"tables dropped: {', '.join(delta.tables_dropped) or '-'}")
    if delta.tables_renamed:
        renames = ", ".join(f"{a}->{b}" for a, b in delta.tables_renamed)
        print(f"tables renamed: {renames}")
    print(f"affected attributes: {delta.total_affected} "
          f"({delta.expansion_count} expansion / "
          f"{delta.maintenance_count} maintenance)")
    for change in delta:
        detail = f"  [{change.detail}]" if change.detail else ""
        print(f"  {change.kind.value:20s} {change.table}."
              f"{change.attribute}{detail}")
    if args.migration:
        from repro.diff.migrate import migration_script
        _write_text(args.migration,
                    migration_script(old_schema, new_schema, options),
                    "migration script")
        print(f"wrote migration script: {args.migration}")
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    """Print the run ledger of a cache directory as a table."""
    from repro.viz.tables import format_table
    runs = read_ledger(Path(args.cache_dir))
    if not runs:
        print(f"no ledger entries under {args.cache_dir}")
        return 0
    if getattr(args, "json", False):
        import json as _json
        for run in runs:
            print(_json.dumps(run, sort_keys=True))
        return 0
    headers = ("run", "started", "seconds", "items",
               *(header for header, _, _ in COLUMNS), "degraded",
               "digest")
    rows = []
    for run in runs:
        # A row's failures are summaries; the faults cell counts them.
        counters = {**run, "failures": len(run.get("failures", ()))}
        rows.append((
            run.get("run_uid") or run.get("run_id", "-"),
            str(run.get("started", ""))[:19],
            f"{run.get('seconds', 0.0):.3f}",
            run.get("items", 0),
            *total_cells(counters),
            "yes" if run.get("degraded") else "no",
            str(run.get("result_digest", ""))[:12] or "-",
        ))
    print(format_table(headers, rows,
                       title=f"run ledger — {args.cache_dir}"))
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    """List the resumable (interrupted/aborted) runs of a cache dir."""
    from repro.engine import resumable_runs
    from repro.viz.tables import format_table
    runs = resumable_runs(Path(args.cache_dir))
    if getattr(args, "json", False):
        import json as _json
        for info in runs:
            print(_json.dumps({
                "run_id": info.run_id, "started": info.started,
                "status": info.status, "source": info.source,
                "chunks": len(info.chunks), "items": info.items,
                "resumed_from": info.resumed_from,
            }, sort_keys=True))
        return 0
    if not runs:
        print(f"no resumable runs under {args.cache_dir}")
        return 0
    headers = ("run", "started", "status", "chunks", "items", "source")
    rows = [(info.run_id, str(info.started or "")[:19], info.status,
             len(info.chunks), info.items, (info.source or "-")[:16])
            for info in runs]
    print(format_table(headers, rows,
                       title=f"resumable runs — {args.cache_dir}"))
    print(f"\nresume with: repro-schema study --resume RUN_ID "
          f"--cache-dir {args.cache_dir} ...", file=sys.stderr)
    return 0


def _cmd_chart(args: argparse.Namespace) -> int:
    history = _load_history(args.history)
    series = schema_heartbeat(history)
    if args.svg:
        _write_text(args.svg,
                    svg_chart(series, title=history.project_name),
                    "chart")
        print(f"wrote {args.svg}")
    else:
        print(ascii_chart(series, title=history.project_name))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-schema",
        description="Time-related patterns of schema evolution "
                    "(EDBT 2025 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_execution_flags(p):
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for per-project work "
                            "(default: 1, serial)")
        p.add_argument("--chunk-size", type=int, metavar="N",
                       help="items per pickled work chunk sent to a "
                            "worker; overrides the automatic sizing "
                            "(the chosen size shows in the --timings "
                            "'chunk' column)")
        p.add_argument("--no-incremental", action="store_true",
                       help="disable incremental statement-level "
                            "parsing; re-parse every snapshot in full "
                            "(output is identical, just slower)")
        p.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed result cache; re-runs "
                            "recompute only changed projects (default: "
                            "no cache)")
        p.add_argument("--on-error", choices=["fail", "skip", "retry"],
                       default="fail",
                       help="per-project failure policy: 'fail' aborts "
                            "on the first bad project (default), 'skip' "
                            "quarantines it and computes over the "
                            f"survivors (exit code {EXIT_PARTIAL}), "
                            "'retry' also re-attempts transient source "
                            "failures with backoff first")
        p.add_argument("--max-retries", type=int, default=2, metavar="N",
                       help="extra attempts for transient source "
                            "failures under --on-error retry "
                            "(default: 2)")
        p.add_argument("--stage-timeout", type=float, metavar="SECONDS",
                       help="wall-clock budget per in-flight parallel "
                            "work chunk; overrunning chunks count as "
                            "failures (default: no timeout)")
        p.add_argument("--fault-plan", metavar="SPEC",
                       help="inject deterministic faults for chaos "
                            "testing, e.g. 'parse@proj-01;"
                            "source@proj-02*2;cache@~10' (overrides "
                            "$REPRO_FAULT_PLAN)")

    def add_source_flag(p):
        p.add_argument("--source", default="synthetic:", metavar="SPEC",
                       help="history source: 'synthetic:[SEED]' (the "
                            "generated corpus), 'dir:PATH' (a corpus "
                            "directory from 'corpus export') or "
                            "'git:PATH' (DDL files of a checked-out "
                            "git repository); default: synthetic:")
        p.add_argument("--sample", type=int, metavar="N",
                       help="run over a deterministic N-project "
                            "sample of the source (seeded by --seed) "
                            "instead of the full corpus")
        p.add_argument("--stratified", action="store_true",
                       help="draw --sample round-robin across "
                            "patterns/shards so small samples stay "
                            "pattern-diverse")

    p_study = sub.add_parser("study", help="run the full study")
    p_study.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_source_flag(p_study)
    add_execution_flags(p_study)
    p_study.add_argument("--timings", action="store_true",
                         help="print the per-stage execution report "
                              "to stderr")
    p_study.add_argument("--resume", metavar="RUN_ID",
                         help="resume an interrupted run: replay its "
                              "journaled chunks from the cache and "
                              "compute only the remainder (requires "
                              "the same --cache-dir; output is "
                              "byte-identical to an uninterrupted "
                              "run). See 'repro-schema resume' for "
                              "resumable run ids")
    p_study.set_defaults(func=_cmd_study)

    p_refresh = sub.add_parser(
        "refresh", help="incrementally re-derive the study of a "
                        "growing source (append-only histories run "
                        "through the O(K) delta kernel)")
    p_refresh.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_source_flag(p_refresh)
    add_execution_flags(p_refresh)
    p_refresh.add_argument("--timings", action="store_true",
                           help="print the per-stage execution report "
                                "to stderr")
    p_refresh.add_argument("--watch", type=float, metavar="SECONDS",
                           help="keep polling the source every "
                                "SECONDS, refreshing whenever its "
                                "content identity changes (default: "
                                "refresh once and exit)")
    p_refresh.add_argument("--max-polls", type=int, metavar="N",
                           help="stop a --watch loop after N polls "
                                "(default: poll forever)")
    p_refresh.set_defaults(func=_cmd_refresh)

    p_corpus = sub.add_parser(
        "corpus", help="corpus-directory export")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command",
                                         required=True)
    p_cx = corpus_sub.add_parser(
        "export", help="write the synthetic corpus of --seed as a "
                       "JSONL directory (readable via --source "
                       "dir:PATH)")
    p_cx.add_argument("output", help="target directory")
    p_cx.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_cx.add_argument("--limit", type=int, metavar="N",
                      help="export only N projects, sampled "
                           "round-robin across patterns")
    p_cx.add_argument("--shard-size", type=int, metavar="N",
                      help="write the sharded v2 layout with N "
                           "projects per shards/NNNN.jsonl file "
                           "(default: one file per project)")
    p_cx.set_defaults(func=_cmd_corpus_export)

    p_profile = sub.add_parser("profile",
                               help="profile one schema history")
    p_profile.add_argument("history",
                           help=".sql directory or JSONL commit log")
    p_profile.set_defaults(func=_cmd_profile)

    p_classify = sub.add_parser(
        "classify", help="classify every history in a directory")
    p_classify.add_argument("directory",
                            help="directory of history subdirs/.jsonl")
    p_classify.add_argument("--apply-protocol", action="store_true",
                            help="apply the paper's corpus-selection "
                                 "protocol first (Sec. 3.1)")
    p_classify.set_defaults(func=_cmd_classify)

    p_report = sub.add_parser("report",
                              help="write the full study as Markdown")
    p_report.add_argument("output", help="output .md path")
    p_report.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_source_flag(p_report)
    add_execution_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_export = sub.add_parser("export",
                              help="export the study dataset as CSV")
    p_export.add_argument("output", help="output directory")
    p_export.add_argument("--seed", type=int, default=DEFAULT_SEED)
    add_source_flag(p_export)
    add_execution_flags(p_export)
    p_export.set_defaults(func=_cmd_export)

    p_diff = sub.add_parser("diff",
                            help="logical diff of two .sql files")
    p_diff.add_argument("old", help="earlier DDL file")
    p_diff.add_argument("new", help="later DDL file")
    p_diff.add_argument("--detect-renames", action="store_true",
                        help="match renamed tables by attribute overlap")
    p_diff.add_argument("--migration", metavar="OUT.SQL",
                        help="also write a migration script "
                             "transforming OLD into NEW")
    p_diff.set_defaults(func=_cmd_diff)

    p_resume = sub.add_parser(
        "resume", help="list interrupted runs that can be resumed")
    p_resume.add_argument("cache_dir",
                          help="cache directory holding journal/ "
                               "(the --cache-dir of the interrupted "
                               "run)")
    p_resume.add_argument("--json", action="store_true",
                          help="print one JSON object per run instead "
                               "of the table")
    p_resume.set_defaults(func=_cmd_resume)

    p_ledger = sub.add_parser(
        "ledger", help="print the run ledger of a cache directory")
    p_ledger.add_argument("cache_dir",
                          help="cache directory holding ledger.jsonl "
                               "(the --cache-dir of past runs)")
    p_ledger.add_argument("--json", action="store_true",
                          help="print raw JSONL entries instead of "
                               "the table")
    p_ledger.set_defaults(func=_cmd_ledger)

    p_chart = sub.add_parser("chart", help="chart one schema history")
    p_chart.add_argument("history",
                         help=".sql directory or JSONL commit log")
    p_chart.add_argument("--svg", help="write SVG to this path instead "
                                       "of printing ASCII")
    p_chart.set_defaults(func=_cmd_chart)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    if not getattr(args, "no_incremental", False):
        return _dispatch(args)
    # --no-incremental holds for this call only (and for the workers it
    # spawns); a later in-process run gets the default back.
    with incremental_parse_disabled():
        return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed subcommand, mapping failures to exit codes."""
    try:
        return args.func(args)
    except RunInterrupted as exc:
        # Graceful shutdown already drained in-flight work and flushed
        # the journal; all that is left is the one-line resume hint.
        if exc.run_id:
            print(f"interrupted — resume with: repro-schema study "
                  f"--resume {exc.run_id}", file=sys.stderr)
        else:
            print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        # A second Ctrl-C during the drain, or an interrupt outside a
        # journaled run (e.g. sleeping between --watch polls).
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
