"""PERF — throughput of the pipeline stages.

Not a paper artifact: timings of the substrate (parser, builder, diff,
heartbeat), of the full study, and of the execution engine's three
modes (serial, process-parallel, warm content-addressed cache), so
regressions are visible.
"""

import json
import os
import random
import time
from pathlib import Path

from benchmarks.conftest import STUDY_CONFIG, record
from repro import obs
from repro.corpus.ddlgen import DdlScribe
from repro.corpus.generator import generate_corpus
from repro.diff.engine import diff_schemas
from repro.history.heartbeat import schema_heartbeat
from repro.metrics.profile import ProjectProfile
from repro.patterns.taxonomy import Pattern
from repro.schema.builder import build_schema
from repro.sqlddl.parser import parse_script
from repro.study.pipeline import (
    records_from_corpus,
    run_full_study,
    run_study,
)

#: Worker count of the parallel benchmarks (bounded: CI runners are
#: small, and oversubscription would only measure scheduler noise).
PARALLEL_JOBS = min(4, os.cpu_count() or 1)


def _big_dump(tables: int = 60) -> str:
    rng = random.Random(13)
    scribe = DdlScribe(rng)
    scribe.begin_month()
    scribe.apply_units(tables * 6, maintenance_bias=0.0, birth=True)
    return scribe.snapshot_sql()


DUMP = _big_dump()
SCHEMA_A = build_schema(parse_script(DUMP))
SCHEMA_B = build_schema(parse_script(_big_dump(50)))


def test_perf_parse_large_dump(benchmark):
    script = benchmark(parse_script, DUMP)
    assert len(script.statements) >= 40


def test_perf_build_schema(benchmark):
    script = parse_script(DUMP)
    schema = benchmark(build_schema, script)
    assert schema.attribute_count >= 300


def test_perf_diff_large_schemas(benchmark):
    delta = benchmark(diff_schemas, SCHEMA_A, SCHEMA_B)
    assert delta.total_affected > 0


def test_perf_profile_one_project(benchmark, corpus):
    project = max(corpus.projects, key=lambda p: len(p.history))
    project.history._versions = None  # measure parsing too

    def profile():
        project.history._versions = None
        return ProjectProfile.from_history(project.history)

    result = benchmark(profile)
    assert result.total_activity > 0


def test_perf_heartbeat(benchmark, corpus):
    project = corpus.projects[0]
    series = benchmark(schema_heartbeat, project.history)
    assert series.total > 0


def test_perf_generate_small_corpus(benchmark):
    population = {Pattern.FLATLINER: 2, Pattern.RADICAL_SIGN: 2,
                  Pattern.SIESTA: 1}

    def generate():
        return generate_corpus(seed=8, population=population,
                               with_exceptions=False)

    result = benchmark(generate)
    assert len(result) == 5


def test_perf_full_study(benchmark, records):
    results = benchmark(run_study, records)
    assert results.total == 151


# ----------------------------------------------------------------------
# execution-engine modes: serial vs. parallel map vs. warm cache


def _forget_parsed_versions(corpus):
    """Reset the histories' derived parse caches: every engine-mode
    measurement starts from raw DDL text, not a half-warm corpus."""
    for project in corpus.projects:
        project.history._versions = None


def test_perf_records_serial(benchmark, corpus):
    def run():
        _forget_parsed_versions(corpus)
        return records_from_corpus(corpus, config=STUDY_CONFIG)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == 151


def test_perf_records_parallel(benchmark, corpus):
    config = STUDY_CONFIG.replace(jobs=PARALLEL_JOBS)

    def run():
        _forget_parsed_versions(corpus)
        return records_from_corpus(corpus, config=config)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == 151


def test_perf_records_warm_cache(benchmark, corpus, tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("record-cache")
    config = STUDY_CONFIG.replace(cache_dir=cache_dir)
    records_from_corpus(corpus, config=config)  # prime the cache

    def run():
        _forget_parsed_versions(corpus)
        return records_from_corpus(corpus, config=config)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(results) == 151


def test_perf_engine_mode_report(corpus, tmp_path_factory):
    """One-shot comparison of the three modes, kept as an artifact.

    On a multi-core host the parallel map beats serial roughly by the
    worker count (amortized chunking); the warm cache must beat serial
    everywhere, since it replaces measurement with pickle loads.
    """
    def timed(config):
        _forget_parsed_versions(corpus)
        started = time.perf_counter()
        results, timing = run_full_study(corpus, config)
        return time.perf_counter() - started, results, timing

    cache_dir = tmp_path_factory.mktemp("engine-mode-cache")
    serial_s, serial_res, _ = timed(STUDY_CONFIG)
    parallel_s, parallel_res, _ = timed(
        STUDY_CONFIG.replace(jobs=PARALLEL_JOBS))
    cold_s, _, _ = timed(STUDY_CONFIG.replace(cache_dir=cache_dir))
    warm_s, warm_res, warm_timing = timed(
        STUDY_CONFIG.replace(cache_dir=cache_dir))

    assert parallel_res.records == serial_res.records
    assert warm_res.records == serial_res.records
    hits = warm_timing.timing("records").counters["cache_hits"]
    assert hits == 151
    assert warm_s < serial_s  # cache loads must beat measuring

    lines = [
        f"per-project map over 151 projects "
        f"(host: {os.cpu_count()} cpus)",
        f"  serial (jobs=1):          {serial_s * 1000:9.1f} ms",
        f"  parallel (jobs={PARALLEL_JOBS}):        "
        f"{parallel_s * 1000:9.1f} ms   "
        f"{serial_s / parallel_s:5.2f}x vs serial",
        f"  cold cache (write-through):{cold_s * 1000:8.1f} ms",
        f"  warm cache (151/151 hits): {warm_s * 1000:9.1f} ms   "
        f"{serial_s / warm_s:5.2f}x vs serial",
    ]
    record("perf_engine_modes", "\n".join(lines))
    if (os.cpu_count() or 1) >= 2:
        assert parallel_s < serial_s


def test_perf_incremental_vs_full(corpus):
    """Incremental statement-level parsing vs. the classic full re-parse.

    The incremental path (raw-text splitter + per-history statement
    memo + cross-version Table reuse) must produce *identical* study
    records while cutting the cold serial wall time by the fraction of
    statements unchanged between consecutive snapshots (~73% on this
    corpus). Results land in BENCH_perf_pipeline.json so the perf
    trajectory is machine-readable across PRs.
    """
    from repro.history.repository import set_incremental_parse_default

    def timed(enabled):
        set_incremental_parse_default(enabled)
        try:
            _forget_parsed_versions(corpus)
            started = time.perf_counter()
            results, _ = run_full_study(corpus, STUDY_CONFIG)
            return time.perf_counter() - started, results
        finally:
            set_incremental_parse_default(True)

    full_s, full_res = timed(False)
    before = obs.snapshot()
    inc_s, inc_res = timed(True)
    moved = obs.since(before)
    hits, misses = moved.get("parse_hits", 0), moved.get("parse_misses", 0)

    # Golden equivalence: byte-identical records and pattern assignment.
    assert inc_res.records == full_res.records
    assert ([r.pattern for r in inc_res.records]
            == [r.pattern for r in full_res.records])
    assert hits > 0  # the memo must actually serve repeats
    speedup = full_s / inc_s
    assert speedup > 1.3  # conservative bound; typically 2.5-3.5x

    hit_rate = hits / (hits + misses)
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    json_path = results_dir / "BENCH_perf_pipeline.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload.update({
        "projects": len(corpus.projects),
        "host_cpus": os.cpu_count(),
        "modes_ms": {
            "full_parse_serial": round(full_s * 1000, 1),
            "incremental_serial": round(inc_s * 1000, 1),
        },
        "speedup_incremental_vs_full": round(speedup, 2),
        "parse_memo": {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hit_rate, 4),
        },
        "golden_equivalent": True,
        # Serial full-study baseline recorded by perf_engine_modes.txt
        # before this optimization existed (PR 2).
        "baseline_full_parse_serial_ms": 6699.4,
    })
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    record("perf_incremental_vs_full", "\n".join([
        f"cold full study, 151 projects, serial "
        f"(host: {os.cpu_count()} cpus)",
        f"  full re-parse:            {full_s * 1000:9.1f} ms",
        f"  incremental (memoized):   {inc_s * 1000:9.1f} ms   "
        f"{speedup:5.2f}x vs full",
        f"  statement memo: {hits} hits / {misses} misses "
        f"({hit_rate:.0%} hit rate)",
        "  records + pattern assignments: identical in both modes",
    ]))


def test_perf_records_map(corpus):
    """Records-map mode: cold serial map, kernel counters, golden A/B.

    Times exactly the unit the columnar kernel layer and the regex fast
    lexer optimize — the cold serial records map — and asserts the two
    invariants the layer promises: the heartbeat-kernel counters are
    live (every project builds its prefix table once and serves repeat
    lookups from the memo), and the fast path's records are
    byte-identical to the classic full re-parse. Numbers are merged
    into BENCH_perf_pipeline.json next to the incremental-parse
    trajectory.
    """
    from repro.history.repository import set_incremental_parse_default

    # Reference: classic full re-parse (the slow, trusted path).
    set_incremental_parse_default(False)
    try:
        _forget_parsed_versions(corpus)
        reference = records_from_corpus(corpus, config=STUDY_CONFIG)
    finally:
        set_incremental_parse_default(True)

    _forget_parsed_versions(corpus)
    before = obs.snapshot()
    started = time.perf_counter()
    records = records_from_corpus(corpus, config=STUDY_CONFIG)
    records_map_s = time.perf_counter() - started
    moved = obs.since(before)
    series_built = moved.get("kernel_series", 0)
    reuse_hits = moved.get("kernel_reuse", 0)

    golden_equivalent = (
        records == reference
        and [r.pattern for r in records] == [r.pattern for r in reference])
    assert golden_equivalent
    # Counters must be live: one prefix table per project, and the
    # landmark/totals/progress-vector consumers served from the memo.
    assert series_built >= len(corpus.projects)
    assert reuse_hits > 0

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    json_path = results_dir / "BENCH_perf_pipeline.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload["records_map"] = {
        # Cold serial records map measured on the pre-kernel code
        # (incremental parsing only, PR 3) on the same host class.
        "baseline_pr3_ms": 2250.0,
        "records_map_ms": round(records_map_s * 1000, 1),
        "heartbeat_kernel": {
            "series_built": series_built,
            "reuse_hits": reuse_hits,
        },
        "golden_equivalent": golden_equivalent,
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    record("perf_records_map", "\n".join([
        f"cold serial records map, {len(corpus.projects)} projects "
        f"(host: {os.cpu_count()} cpus)",
        f"  records map:              {records_map_s * 1000:9.1f} ms   "
        f"(pre-kernel baseline ~2250 ms)",
        f"  heartbeat kernel: {series_built} series built / "
        f"{reuse_hits} reuse hits",
        "  records + pattern assignments: identical to full re-parse",
    ]))


def test_perf_incremental_smoke():
    """CI smoke: the fast path must not silently regress to re-parsing.

    Runs the record computation on a tiny corpus and asserts the
    statement memo's hit rate is positive — if a refactor ever makes
    the incremental path fall back to full parsing everywhere, this
    fails fast without timing anything.
    """
    population = {Pattern.FLATLINER: 1, Pattern.RADICAL_SIGN: 2,
                  Pattern.SIESTA: 1}
    small = generate_corpus(seed=7, population=population,
                            with_exceptions=False)
    before = obs.snapshot()
    records = records_from_corpus(small)
    assert len(records) == 4
    moved = obs.since(before)
    hits, misses = moved.get("parse_hits", 0), moved.get("parse_misses", 0)
    assert hits > 0
    assert hits / (hits + misses) > 0.2


def test_perf_analyses_scaling():
    """Columnar analysis backend vs. per-record oracles at 100x scale.

    Replicates a 30-project base record set 100x (3000 records — the
    scale where the per-record passes' attribute-chain walks dominate)
    and times every corpus-level analysis both ways, in the shape the
    full study runs them: the fused kernels consume a RecordTable packed
    beforehand (so the pack is timed separately — in the full study it
    is the ``table`` stage, which runs once after the map and before
    these stages), the per-record oracles consume the raw record list. Acceptance bar of the columnar refactor:
    >= 2x faster with a byte-identical rendered study report. The
    numbers land in BENCH_perf_pipeline.json as ``analyses_scaling``.
    """
    import dataclasses

    from repro import report as paper_report
    from repro.analysis.table import RecordTable
    from repro.engine import StudyPlan, execute_plan
    from repro.engine.study_plan import _analysis_stages
    from tests.analysis.per_record_oracle import oracle_stages

    population = {Pattern.FLATLINER: 4, Pattern.RADICAL_SIGN: 4,
                  Pattern.SIGMOID: 4, Pattern.LATE_RISER: 4,
                  Pattern.QUANTUM_STEPS: 4, Pattern.REGULARLY_CURATED: 4,
                  Pattern.SMOKING_FUNNEL: 3, Pattern.SIESTA: 3}
    base_corpus = generate_corpus(seed=8, population=population,
                                  with_exceptions=False)
    base = records_from_corpus(base_corpus, config=STUDY_CONFIG)
    records = tuple(dataclasses.replace(r, name=f"{r.name}~x{i:03d}")
                    for i in range(100) for r in base)
    assert len(records) == 3000

    pack_started = time.perf_counter()
    table = RecordTable.from_records(records)
    pack_s = time.perf_counter() - pack_started

    def timed(columnar):
        plan = StudyPlan(_analysis_stages() if columnar
                         else oracle_stages())
        inputs = {"records": records}
        if columnar:
            inputs["table"] = table
        best, results = None, None
        for _ in range(3):
            started = time.perf_counter()
            results, _ = execute_plan(plan, inputs, STUDY_CONFIG)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best, results["results"]

    oracle_s, oracle_res = timed(False)
    fused_s, fused_res = timed(True)

    sections = (
        paper_report.render_table1, paper_report.render_table2,
        paper_report.render_correlations, paper_report.render_fig4_overview,
        paper_report.render_tree, paper_report.render_coverage,
        paper_report.render_prediction, paper_report.render_section34,
        paper_report.render_section52, paper_report.render_section61,
        paper_report.render_section63)
    golden_equivalent = all(render(fused_res) == render(oracle_res)
                            for render in sections)
    assert golden_equivalent  # byte-identical rendered study output
    speedup = oracle_s / fused_s
    assert speedup >= 2.0  # the tentpole's acceptance bar

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    json_path = results_dir / "BENCH_perf_pipeline.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload["analyses_scaling"] = {
        "records": len(records),
        "per_record_ms": round(oracle_s * 1000, 1),
        "columnar_ms": round(fused_s * 1000, 1),
        "pack_ms": round(pack_s * 1000, 1),
        "speedup_columnar_vs_per_record": round(speedup, 2),
        "golden_equivalent": golden_equivalent,
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    record("perf_analyses_scaling", "\n".join([
        f"corpus-level analyses over {len(records)} records "
        f"(host: {os.cpu_count()} cpus)",
        f"  per-record oracles:       {oracle_s * 1000:9.1f} ms",
        f"  columnar fused kernels:   {fused_s * 1000:9.1f} ms   "
        f"{speedup:5.2f}x vs per-record",
        f"  (table pack:              {pack_s * 1000:9.1f} ms — "
        f"the full study's table stage, once after the map)",
        "  rendered study report: byte-identical in both backends",
    ]))


def test_perf_warm_session(corpus, tmp_path_factory):
    """Warm engine session vs. cold run vs. fresh-session disk-warm run.

    The session keeps the worker pool and a hot in-memory cache layer
    alive across runs, so a re-study inside one session pays neither
    pool spawns nor disk reads: the records stage is 100% cache hits,
    every hit served from the hot layer, and zero new pools spawn. A
    fresh session over the same cache directory sits in between — disk
    hits, but cold pool and cold hot layer. The ``warm_session_ms``
    series lands in BENCH_perf_pipeline.json.
    """
    from repro.engine import EngineSession, read_ledger

    cache_dir = tmp_path_factory.mktemp("warm-session-cache")
    config = STUDY_CONFIG.replace(jobs=PARALLEL_JOBS,
                                  cache_dir=cache_dir)

    def timed(session):
        _forget_parsed_versions(corpus)
        started = time.perf_counter()
        results, timing = run_full_study(corpus, config,
                                         session=session)
        return time.perf_counter() - started, results, timing

    with EngineSession(config) as session:
        cold_s, cold_res, _ = timed(session)
        spawns_after_cold = session.pool_spawns
        warm_session_s, warm_res, warm_timing = timed(session)

        assert warm_res.records == cold_res.records
        stage = warm_timing.timing("records").counters
        assert stage["cache_hits"] == 151
        assert stage.get("cache_misses", 0) == 0
        # The headline service-shape numbers: no new pool, all hot.
        assert session.pool_spawns == spawns_after_cold
        assert len(session.runs) == 2
        warm_run = session.runs[1]
        assert warm_run.counters["pool_spawns"] == 0
        assert warm_run.cache_hit_rate == 1.0
        assert warm_run.counters["hot_hits"] == 151
        assert session.runs[0].result_digest == warm_run.result_digest
        total_spawns = session.pool_spawns
        warm_hot_hits = warm_run.counters["hot_hits"]

    with EngineSession(config) as fresh:
        warm_fresh_s, fresh_res, _ = timed(fresh)
    assert fresh_res.records == cold_res.records

    ledger = read_ledger(cache_dir)
    assert len(ledger) == 3  # cold + in-session warm + fresh warm
    assert warm_session_s < cold_s  # hot hits must beat measuring

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    json_path = results_dir / "BENCH_perf_pipeline.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload["warm_session"] = {
        "cold_session_ms": round(cold_s * 1000, 1),
        "warm_fresh_ms": round(warm_fresh_s * 1000, 1),
        "warm_session_ms": round(warm_session_s * 1000, 1),
        "hot_hits": warm_hot_hits,
        "pool_spawns": total_spawns,
        "golden_equivalent": True,
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    record("perf_warm_session", "\n".join([
        f"engine session over 151 projects, jobs={PARALLEL_JOBS} "
        f"(host: {os.cpu_count()} cpus)",
        f"  cold run (spawn + compute): {cold_s * 1000:9.1f} ms",
        f"  fresh session, disk-warm:   {warm_fresh_s * 1000:9.1f} ms   "
        f"{cold_s / warm_fresh_s:5.2f}x vs cold",
        f"  same session, hot-warm:     {warm_session_s * 1000:9.1f} ms   "
        f"{cold_s / warm_session_s:5.2f}x vs cold",
        f"  warm run: 151/151 hits ({warm_hot_hits} hot), "
        f"0 new pool spawns, {total_spawns} spawned all session",
    ]))


def test_perf_source_dir_modes(corpus, tmp_path_factory):
    """Engine modes over an on-disk corpus directory (dir: source).

    The handle-based fan-out ships (pid, fingerprint) pairs to workers,
    which read and parse their own project files; the warm run serves
    every record straight from the cache without opening a single
    project file.
    """
    from repro.engine import execute_study_from_source
    from repro.sources import CorpusDirSource, export_corpus_dir

    root = export_corpus_dir(
        corpus, tmp_path_factory.mktemp("source-dir") / "corpus")
    source = CorpusDirSource(root)

    def timed(config):
        started = time.perf_counter()
        results, timing = execute_study_from_source(
            CorpusDirSource(root), config)
        return time.perf_counter() - started, results, timing

    cache_dir = tmp_path_factory.mktemp("source-dir-cache")
    serial_s, serial_res, _ = timed(STUDY_CONFIG)
    parallel_s, parallel_res, _ = timed(
        STUDY_CONFIG.replace(jobs=PARALLEL_JOBS))
    cold_s, _, _ = timed(STUDY_CONFIG.replace(cache_dir=cache_dir))
    warm_s, warm_res, warm_timing = timed(
        STUDY_CONFIG.replace(cache_dir=cache_dir))

    assert parallel_res.records == serial_res.records
    assert warm_res.records == serial_res.records
    assert warm_timing.cache_hits == len(source)
    assert warm_s < serial_s

    lines = [
        f"dir: source over {len(source)} on-disk projects "
        f"(host: {os.cpu_count()} cpus)",
        f"  serial (jobs=1):          {serial_s * 1000:9.1f} ms",
        f"  parallel (jobs={PARALLEL_JOBS}):        "
        f"{parallel_s * 1000:9.1f} ms   "
        f"{serial_s / parallel_s:5.2f}x vs serial",
        f"  cold cache (write-through):{cold_s * 1000:8.1f} ms",
        f"  warm cache ({len(source)}/{len(source)} hits): "
        f"{warm_s * 1000:9.1f} ms   "
        f"{serial_s / warm_s:5.2f}x vs serial",
    ]
    record("perf_source_dir_modes", "\n".join(lines))
    if (os.cpu_count() or 1) >= 2:
        assert parallel_s < serial_s


# ----------------------------------------------------------------------
# streaming scale-out: the 1x/10x/100x projects_scaling curve


#: Small-population base corpus the scaling source replicates.
_SCALE_POPULATION = {Pattern.FLATLINER: 2, Pattern.RADICAL_SIGN: 2,
                     Pattern.SIESTA: 1}

#: Per-process memo of the base source and its realized projects, so
#: replicas realize each base project once per worker instead of once
#: per replica (the replicas exist to scale the *flow*, not the DDL).
_SCALE_BASE: dict = {}


def _scale_base_source():
    source = _SCALE_BASE.get("source")
    if source is None:
        from repro.sources import SyntheticSource
        source = SyntheticSource(seed=8, population=_SCALE_POPULATION,
                                 with_exceptions=False)
        _SCALE_BASE["source"] = source
    return source


class ReplicatedSource:
    """``copies`` lazy replicas of the small base corpus.

    Every replica is a distinct project id with a distinct fingerprint,
    so the executor streams, chunks, ships and caches ``copies * 5``
    independent items — exactly the source→executor→session flow under
    test — while the DDL realization cost stays amortized per process.
    Picklable by construction (workers rebuild the memo themselves).
    """

    mode = "corpus"
    lightweight = True

    def __init__(self, copies: int):
        self.copies = copies

    def identity(self):
        return ["replicated-scale", self.copies, 8]

    def _replica_ids(self):
        base_ids = _scale_base_source().project_ids()
        for i in range(self.copies):
            for pid in base_ids:
                yield f"{pid}~x{i:05d}"

    def project_ids(self):
        return tuple(self._replica_ids())

    def iter_handles(self):
        from repro.sources.base import SourceHandle
        for pid in self._replica_ids():
            yield SourceHandle(pid=pid, fingerprint=self.fingerprint(pid))

    def count(self):
        return self.copies * len(_scale_base_source().project_ids())

    def fingerprint(self, pid):
        from repro.engine import fingerprint
        base_pid = pid.rsplit("~x", 1)[0]
        return fingerprint("replica", pid,
                           _scale_base_source().fingerprint(base_pid))

    def stratum(self, pid):
        return pid.rsplit("~x", 1)[0]

    def load(self, pid):
        base_pid = pid.rsplit("~x", 1)[0]
        memo = _SCALE_BASE.setdefault("projects", {})
        project = memo.get(base_pid)
        if project is None:
            project = _scale_base_source().load(base_pid)
            memo[base_pid] = project
        return project


def _handle_side_peak(source) -> int:
    """Parent-side peak bytes while enumerating every handle."""
    import tracemalloc
    from repro.engine import HandleStream
    tracemalloc.start()
    try:
        for _ in HandleStream(source):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_perf_projects_scaling():
    """Wall-clock must grow ~linearly in project count; handle-side
    memory must not.

    Streams 1x/10x/100x replicas of a 30-project base through the full
    records map (parallel, no cache — every item computed) and asserts
    the acceptance bar of the streaming refactor: per-project cost at
    100x within 1.3x of 10x, and the parent's handle-side peak memory
    bounded instead of linear. The curve lands in
    BENCH_perf_pipeline.json as ``projects_scaling``.
    """
    from repro.engine import compute_records_from_source

    config = STUDY_CONFIG.replace(jobs=PARALLEL_JOBS)
    curve = []
    for label, copies in (("1x", 6), ("10x", 60), ("100x", 600)):
        source = ReplicatedSource(copies)
        total = source.count()
        handle_peak = _handle_side_peak(source)
        started = time.perf_counter()
        records, _ = compute_records_from_source(source, config)
        wall_s = time.perf_counter() - started
        assert len(records) == total
        curve.append({
            "scale": label,
            "projects": total,
            "wall_ms": round(wall_s * 1000, 1),
            "projects_per_sec": round(total / wall_s, 1),
            "handle_peak_kb": round(handle_peak / 1024, 1),
        })

    by_scale = {point["scale"]: point for point in curve}
    per_project_10x = by_scale["10x"]["wall_ms"] / by_scale["10x"]["projects"]
    per_project_100x = \
        by_scale["100x"]["wall_ms"] / by_scale["100x"]["projects"]
    # Near-linear: 100x may not cost more than 1.3x the 10x unit price
    # (it is usually cheaper — pool spawn and base realization amortize).
    assert per_project_100x <= 1.3 * per_project_10x
    # Flat handle-side memory: 10x the projects, not 10x the bytes.
    assert by_scale["100x"]["handle_peak_kb"] \
        <= 2 * by_scale["10x"]["handle_peak_kb"] + 256

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    json_path = results_dir / "BENCH_perf_pipeline.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload["projects_scaling"] = {
        "jobs": PARALLEL_JOBS,
        "curve": curve,
        "per_project_ms_10x": round(per_project_10x, 3),
        "per_project_ms_100x": round(per_project_100x, 3),
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"streaming records map, jobs={PARALLEL_JOBS} "
             f"(host: {os.cpu_count()} cpus)"]
    for point in curve:
        lines.append(
            f"  {point['scale']:>4} = {point['projects']:5d} projects: "
            f"{point['wall_ms']:9.1f} ms   "
            f"{point['projects_per_sec']:7.1f} proj/s   "
            f"handle peak {point['handle_peak_kb']:7.1f} KiB")
    lines.append(
        f"  per-project cost 100x vs 10x: "
        f"{per_project_100x / per_project_10x:.2f}x (bar: <= 1.30x)")
    record("perf_projects_scaling", "\n".join(lines))


# ----------------------------------------------------------------------
# delta re-study: append-only incremental recompute


def test_perf_delta_restudy(corpus, tmp_path_factory):
    """Refresh after appending K versions vs. a cold full re-study.

    The delta layer's acceptance bar: grow K=8 of the 151 projects by
    2 commits each and re-derive the study. The refresh must (a) parse
    only the 16 new versions — pinned by the delta counters — (b)
    produce records byte-identical to a cold full study of the grown
    corpus, and (c) beat the cold re-study by >= 5x wall-clock (serial,
    warm result cache + checkpoints vs. a fresh cache dir). Numbers
    land in BENCH_perf_pipeline.json as ``delta_restudy``.
    """
    import dataclasses
    import shutil
    from datetime import timedelta

    from repro.engine import execute_study_from_source
    from repro.history.commit import Commit
    from repro.history.repository import SchemaHistory
    from repro.sources import (
        CorpusDirSource,
        export_corpus_dir,
        import_corpus_dir,
    )

    root = tmp_path_factory.mktemp("delta-restudy") / "corpus"
    export_corpus_dir(corpus, root)
    warm_cache = tmp_path_factory.mktemp("delta-warm-cache")
    warm_config = STUDY_CONFIG.replace(cache_dir=warm_cache)

    # Prime: one full study writes the result cache + the checkpoints.
    execute_study_from_source(CorpusDirSource(root), warm_config)

    # Grow K projects by 2 appended snapshot commits each.
    grown_projects, appended_commits = 8, 2
    on_disk = import_corpus_dir(root)
    projects = list(on_disk.projects)
    for idx in range(grown_projects):
        history = projects[idx].history
        commits = list(history.commits)
        for i in range(appended_commits):
            ts = commits[-1].timestamp + timedelta(days=30)
            commits.append(Commit(
                sha=f"grow-{i}", timestamp=ts,
                ddl_text=commits[-1].ddl_text
                + f"\nCREATE TABLE delta_extra_{i} (id INT);\n"))
        projects[idx] = dataclasses.replace(
            projects[idx],
            history=SchemaHistory(
                history.project_name, commits,
                project_start=history.project_start,
                project_end=max(history.project_end,
                                commits[-1].timestamp),
                dialect=history.dialect,
                incremental=history.incremental))
    shutil.rmtree(root)
    export_corpus_dir(dataclasses.replace(on_disk, projects=projects),
                      root)

    # Cold re-study of the grown corpus: fresh cache, everything parsed.
    cold_cache = tmp_path_factory.mktemp("delta-cold-cache")
    started = time.perf_counter()
    cold_res, cold_timing = execute_study_from_source(
        CorpusDirSource(root), STUDY_CONFIG.replace(cache_dir=cold_cache))
    cold_s = time.perf_counter() - started

    # Refresh: unchanged projects are cache hits, grown ones ride the
    # suffix kernel.
    started = time.perf_counter()
    refresh_res, refresh_timing = execute_study_from_source(
        CorpusDirSource(root), warm_config)
    refresh_s = time.perf_counter() - started

    assert refresh_res.records == cold_res.records
    assert refresh_timing.delta_appended == grown_projects
    assert refresh_timing.delta_rewritten == 0
    assert refresh_timing.delta_parsed \
        == grown_projects * appended_commits
    assert refresh_timing.cache_hits \
        == len(corpus.projects) - grown_projects
    speedup = cold_s / refresh_s
    assert speedup >= 5.0  # the delta layer's acceptance bar

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    json_path = results_dir / "BENCH_perf_pipeline.json"
    payload = json.loads(json_path.read_text()) if json_path.exists() else {}
    payload["delta_restudy"] = {
        "projects": len(corpus.projects),
        "grown_projects": grown_projects,
        "appended_versions": grown_projects * appended_commits,
        "cold_ms": round(cold_s * 1000, 1),
        "refresh_ms": round(refresh_s * 1000, 1),
        "versions_reused": refresh_timing.delta_reused,
        "versions_parsed": refresh_timing.delta_parsed,
        "speedup_refresh_vs_cold": round(speedup, 2),
        "golden_equivalent": True,
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    record("perf_delta_restudy", "\n".join([
        f"append-only refresh, {len(corpus.projects)} projects, "
        f"{grown_projects} grown by {appended_commits} commits "
        f"(host: {os.cpu_count()} cpus)",
        f"  cold full re-study:       {cold_s * 1000:9.1f} ms",
        f"  incremental refresh:      {refresh_s * 1000:9.1f} ms   "
        f"{speedup:5.2f}x vs cold",
        f"  versions: {refresh_timing.delta_reused} reused / "
        f"{refresh_timing.delta_parsed} parsed "
        f"({refresh_timing.cache_hits} projects untouched, pure "
        f"cache hits)",
        "  records: byte-identical to the cold re-study",
    ]))
