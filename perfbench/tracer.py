"""Layer spans around ``repro``'s public entry points, from outside it.

The program has no spans of its own, so the benchmark wraps the
functions each layer is entered through (the :data:`LAYERS` table) and
records, per layer metric, the *self time* of every call: the call's
duration minus the part covered by nested calls into other wrapped
entry points. A wrapped function is rebound everywhere the program
holds a reference to it (``from x import f`` copies included), so the
wrappers see every call no matter how the caller imported it.

Spans are aggregated in memory as they close (self seconds, call
counts and byte counters per metric); nothing is written until the
benchmark prints its result. Work done by the tracer itself (the byte
counting hooks) is excluded from every layer and from the unattributed
remainder; it shows only in the traced-minus-untraced overhead.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import pickle
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Aggregated span store: self time and counts per layer metric.

    Attributes:
        self_s: seconds of self time per layer metric.
        counts: named counters (calls, statements, bytes) the wrappers
            and hooks increment.
        covered_s: wall time covered by outermost spans (and by hooks
            run outside any span); the traced run's wall time minus
            this is time spent in no layer.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self._open: list[list[float]] = []

    def _close(self, metric: str, elapsed: float) -> None:
        child = self._open.pop()
        self.self_s[metric] += elapsed - child[0]
        self._charge(elapsed)

    def _charge(self, elapsed: float) -> None:
        """Count ``elapsed`` as covered by a child of the open span."""
        if self._open:
            self._open[-1][0] += elapsed
        else:
            self.covered_s += elapsed

    def _run_hook(self, hook, result, args) -> None:
        started = perf_counter()
        hook(self, result, args)
        self._charge(perf_counter() - started)

    def wrap(self, fn, metric: str | None = None, count: str | None = None,
             hook=None):
        """``fn`` with a span under ``metric`` (none when ``None``).

        ``count`` names a counter bumped once per call; ``hook`` is
        called as ``hook(tracer, result, args)`` after the span closed.
        Generator functions get one span per ``next``.
        """
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, metric)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[count] += 1
            if metric is None:
                result = fn(*args, **kwargs)
            else:
                self._open.append([0.0])
                started = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(metric, perf_counter() - started)
            if hook is not None:
                self._run_hook(hook, result, args)
            return result

        return traced

    def _wrap_generator(self, fn, metric: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            generator = fn(*args, **kwargs)
            while True:
                self._open.append([0.0])
                started = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    self._close(metric, perf_counter() - started)
                    return
                except BaseException:
                    self._close(metric, perf_counter() - started)
                    raise
                self._close(metric, perf_counter() - started)
                yield item

        return traced


# ----------------------------------------------------------------------
# byte-counting hooks (run outside every span)


def _count_put_bytes(tracer: Tracer, digest, args) -> None:
    """Pickled payload bytes of a result-cache store that landed."""
    if digest:
        tracer.counts["engine.cache_put_bytes"] += len(
            pickle.dumps(args[2], protocol=pickle.HIGHEST_PROTOCOL))


def _count_checkpoint_bytes(tracer: Tracer, saved, args) -> None:
    """On-disk bytes of a delta checkpoint that was written."""
    if saved:
        store, checkpoint = args[0], args[1]
        path = store.path_for(checkpoint.pid, checkpoint.mode)
        tracer.counts["engine.checkpoint_bytes"] += path.stat().st_size


def _count_ipc_bytes(tracer: Tracer, record, args) -> None:
    """Bytes a worker would pickle home for this computed record."""
    from repro.engine.study_plan import strip_record
    tracer.counts["engine.ipc_bytes"] += len(pickle.dumps(
        strip_record(record), protocol=pickle.HIGHEST_PROTOCOL))


#: ``(module, function or Class.method, layer metric, call counter)``.
#: The per-layer metrics of the README are the self times of these.
LAYERS = (
    ("repro.sources.corpusdir", "CorpusDirSource.load",
     "sources.load_s", "sources.loads"),
    ("repro.sources.corpusdir", "CorpusDirSource.project_ids",
     "sources.handles_s", None),
    ("repro.sources.corpusdir", "CorpusDirSource.fingerprint",
     "sources.handles_s", None),
    ("repro.sources.corpusdir", "CorpusDirSource.iter_handles",
     "sources.handles_s", None),
    ("repro.sources.corpusdir", "CorpusDirSource.iter_handle_shards",
     "sources.handles_s", None),
    ("repro.sources.corpusdir", "CorpusDirSource.count",
     "sources.handles_s", None),
    ("repro.sources.corpusdir", "CorpusDirSource.identity",
     "sources.handles_s", None),
    ("repro.sources.corpusdir", "CorpusDirSource.version_chain",
     "sources.handles_s", None),
    ("repro.sqlddl.splitter", "split_statements", "sqlddl.split_s", None),
    ("repro.sqlddl.lexer", "tokenize", "sqlddl.lex_s", None),
    ("repro.sqlddl.parser", "parse_token_group", "sqlddl.parse_s",
     "sqlddl.statements_parsed"),
    ("repro.sqlddl.parser", "parse_script", "sqlddl.parse_s", None),
    ("repro.sqlddl.parser", "parse_statement", "sqlddl.parse_s", None),
    ("repro.schema.builder", "SchemaBuilder.apply", "schema.build_s",
     "schema.statements_applied"),
    ("repro.schema.builder", "SchemaBuilder.apply_script",
     "schema.build_s", None),
    ("repro.schema.builder", "SchemaBuilder.snapshot", "schema.build_s",
     None),
    ("repro.schema.builder", "SchemaBuilder.snapshot_reusing",
     "schema.build_s", None),
    ("repro.diff.engine", "diff_schemas", "diff.diff_s", "diff.calls"),
    ("repro.history.repository", "SchemaHistory.versions",
     "history.fold_s", None),
    ("repro.history.heartbeat", "schema_heartbeat", "history.heartbeat_s",
     None),
    ("repro.metrics.profile", "ProjectProfile.from_history",
     "metrics.profile_s", None),
    ("repro.metrics.landmarks", "compute_landmarks", "metrics.profile_s",
     None),
    ("repro.labels.quantization", "label_profile", "labels.label_s",
     None),
    ("repro.patterns.classifier", "classify", "patterns.classify_s",
     None),
    ("repro.patterns.classifier", "classify_with_tolerance",
     "patterns.classify_s", None),
    ("repro.engine.cache", "ResultCache.get", "engine.cache_probe_s",
     None),
    ("repro.engine.session", "HotResultCache.get", "engine.cache_probe_s",
     None),
    ("repro.engine.session", "HotResultCache.put", "engine.cache_put_s",
     None),
    ("repro.engine.delta", "serve_corpus_delta", "engine.delta_serve_s",
     None),
    ("repro.engine.delta", "serve_history_delta", "engine.delta_serve_s",
     None),
    ("repro.engine.journal", "RunJournal.begin", "engine.journal_s",
     None),
    ("repro.engine.journal", "RunJournal.chunk", "engine.journal_s",
     None),
    ("repro.engine.journal", "RunJournal.mark", "engine.journal_s", None),
    ("repro.engine.session", "EngineSession.record_run",
     "engine.ledger_s", None),
    ("repro.analysis.table", "pack_record", "analysis.pack_s", None),
    ("repro.analysis.table", "RecordTable.from_rows", "analysis.pack_s",
     None),
)


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module's reference to ``original`` at
    ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def _patch(tracer: Tracer, module_name: str, target: str, metric,
           count=None, hook=None) -> None:
    # A layer the run never enters reports zero, not nothing.
    if metric is not None:
        tracer.self_s.setdefault(metric, 0.0)
    if count is not None:
        tracer.counts.setdefault(count, 0)
    module = importlib.import_module(module_name)
    if "." not in target:
        original = getattr(module, target)
        _rebind(original, tracer.wrap(original, metric, count, hook))
        return
    class_name, attribute = target.split(".")
    owner = getattr(module, class_name)
    raw = owner.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(owner, attribute,
                classmethod(tracer.wrap(raw.__func__, metric, count, hook)))
    else:
        setattr(owner, attribute, tracer.wrap(raw, metric, count, hook))


def install(tracer: Tracer, ipc: bool) -> None:
    """Wrap every layer entry point of :data:`LAYERS`.

    ``ipc`` adds the hook sizing each computed record as a worker
    would ship it (for workloads whose untraced run is parallel).
    """
    from repro.engine import stage as stage_mod
    from repro.engine import study_plan

    for counter in ("engine.cache_put_bytes", "engine.checkpoint_bytes",
                    "engine.ipc_bytes"):
        tracer.counts[counter] = 0
    tracer.self_s["analysis.analyses_s"] = 0.0
    for module_name, target, metric, count in LAYERS:
        _patch(tracer, module_name, target, metric, count)
    from repro.report import render
    for name in [name for name in vars(render) if name.startswith("render_")]:
        _patch(tracer, "repro.report.render", name, "report.render_s")
    _patch(tracer, "repro.engine.cache", "ResultCache.put",
           "engine.cache_put_s", hook=_count_put_bytes)
    _patch(tracer, "repro.engine.delta", "DeltaStore.save",
           "engine.checkpoint_save_s", hook=_count_checkpoint_bytes)
    if ipc:
        for name in ("source_record", "source_record_delta"):
            _patch(tracer, "repro.engine.study_plan", name, None,
                   hook=_count_ipc_bytes)

    # Corpus analyses are the plan's non-map stages: wrap each stage
    # body of every plan the source-driven study builds.
    build_plan = study_plan.build_source_study_plan

    def traced_plan(*args, **kwargs):
        plan = build_plan(*args, **kwargs)
        return stage_mod.StudyPlan([
            stage if isinstance(stage, stage_mod.MapStage)
            else dataclasses.replace(
                stage, fn=tracer.wrap(stage.fn, "analysis.analyses_s"))
            for stage in plan.stages])

    _rebind(build_plan, traced_plan)
