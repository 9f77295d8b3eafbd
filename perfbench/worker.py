"""In-process operations of the benchmark, run in a fresh interpreter.

Two modes, both printing one JSON object as the last stdout line:

``warm``
    Repeats the ``warm_refresh`` iteration for ``--seconds`` (at least
    ``--min-ops`` times): from an empty cache dir, a cache-filling
    study, a disk-warm study in a fresh session, a second study in the
    same session, and ``session.refresh`` of the grown corpus.

``trace``
    Runs the workload's operation twice untraced, then once with
    :mod:`tracer` spans around every layer entry point, and reports
    the per-layer split of the traced run. Serial, in-process.

Every operation renders the report exactly as ``repro-schema study``
prints it and reports its SHA-256, so the harness can hold it to the
``--no-incremental`` oracle. Run with the checkout's ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import shutil
from pathlib import Path
from time import perf_counter

from repro.cli import _print_study_report
from repro.engine import EngineSession, StudyConfig
from repro.sources import source_from_spec
from repro.study.pipeline import run_full_study_from_source

import tracer as tracing
from reference import loop_s, relative


def render(results) -> bytes:
    """The study report, byte for byte as the CLI prints it."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _print_study_report(results)
    return buffer.getvalue().encode()


def study(corpus: Path, cache_dir: Path | None, session: EngineSession,
          refresh: bool = False):
    """One study (or refresh) of a ``dir:`` corpus, rendered."""
    config = StudyConfig(source=f"dir:{corpus}", cache_dir=cache_dir)
    source = source_from_spec(config.source, config)
    if refresh:
        results, run = session.refresh(source, config)
    else:
        results, run = run_full_study_from_source(source, config,
                                                  session=session)
    return render(results), run


def timed(ops: list, step: str, corpus_kind: str, call) -> None:
    """Run ``call``, appending the op's timing, digest and counters."""
    started = perf_counter()
    text, run = call()
    seconds = perf_counter() - started
    ops.append({
        "step": step, "corpus": corpus_kind, "seconds": seconds,
        "digest": hashlib.sha256(text).hexdigest(),
        "cache_hits": run.cache_hits, "cache_misses": run.cache_misses,
        "hot_hits": run.hot_hits, "delta_parsed": run.delta_parsed,
        "delta_reused": run.delta_reused,
    })


def tree_bytes(root: Path) -> int:
    """Bytes of every regular file under ``root``."""
    return sum(path.stat().st_size for path in root.rglob("*")
               if path.is_file())


def warm_iteration(orig: Path, grown: Path, cache: Path) -> tuple:
    """The four ``warm_refresh`` steps from an empty ``cache`` dir.

    Returns ``(ops, cache_bytes)``; the cache dir is removed after.
    """
    ops: list = []
    with EngineSession() as session:
        timed(ops, "cache_fill", "orig",
              lambda: study(orig, cache, session))
    with EngineSession() as session:
        timed(ops, "warm_study", "orig",
              lambda: study(orig, cache, session))
        timed(ops, "session_restudy", "orig",
              lambda: study(orig, cache, session))
        timed(ops, "refresh", "grown",
              lambda: study(grown, cache, session, refresh=True))
    size = tree_bytes(cache)
    shutil.rmtree(cache)
    return ops, size


def cold_iteration(corpus: Path) -> tuple:
    """One serial, uncached study of ``corpus``."""
    ops: list = []
    with EngineSession() as session:
        timed(ops, "study", "orig", lambda: study(corpus, None, session))
    return ops, 0


#: ``warm_refresh`` step -> (metric, scale from seconds).
STEP_METRICS = {
    "cache_fill": ("cache_fill_s", 1),
    "warm_study": ("warm_study_s", 1),
    "session_restudy": ("session_restudy_ms", 1000),
    "refresh": ("refresh_s", 1),
}


def step_samples(ops: list, cache_bytes: list) -> dict[str, list[float]]:
    """Per-step metric samples of ``warm_refresh`` iterations."""
    samples = {"cache_mb": [size / 1e6 for size in cache_bytes]}
    for op in ops:
        metric, scale = STEP_METRICS[op["step"]]
        samples.setdefault(metric, []).append(op["seconds"] * scale)
    return samples


def warm_mode(args) -> dict:
    """Repeat the iteration; ``study_s`` is each iteration's four steps
    together, so the read and delta steps count beside the fill."""
    ops, sizes, iterations = [], [], []
    references = [loop_s()]
    deadline = perf_counter() + args.seconds
    while len(iterations) < args.min_ops or perf_counter() < deadline:
        step_ops, size = warm_iteration(
            args.orig, args.grown, args.work / f"cache-{len(iterations)}")
        references.append(loop_s())
        ops.extend(step_ops)
        sizes.append(size)
        iterations.append(sum(op["seconds"] for op in step_ops))
    samples = step_samples(ops, sizes)
    samples["study_s"] = iterations
    samples["study_rel"] = relative(iterations, references)
    return {"ops": ops, "samples": samples}


def pool_spawn_seconds(jobs: int) -> float:
    """Time to acquire a session's worker pool with every worker up:
    what the first parallel map of a run waits for."""
    with EngineSession() as session:
        started = perf_counter()
        pool = session.pool(jobs)
        futures = [pool.submit(os.getpid) for _ in range(jobs)]
        for future in futures:
            future.result()
        return perf_counter() - started


def trace_mode(args) -> dict:
    from repro.history.kernel import kernel_counters
    from repro.sqlddl.memo import parse_counters

    if args.grown is not None:
        def operation(tag: str):
            return warm_iteration(args.orig, args.grown,
                                  args.work / f"cache-{tag}")
    else:
        def operation(tag: str):
            return cold_iteration(args.orig)

    # Two untraced runs; the faster (usually the second, past one-time
    # set-up) is the baseline of the tracing overhead.
    started = perf_counter()
    warmup_ops, _ = operation("warmup")
    warmup_s = perf_counter() - started
    started = perf_counter()
    plain_ops, plain_size = operation("plain")
    untraced_s = min(warmup_s, perf_counter() - started)

    spans = tracing.Tracer()
    tracing.install(spans, ipc=args.jobs > 1)
    memo_before, kernel_before = parse_counters(), kernel_counters()
    started = perf_counter()
    traced_ops, _ = operation("traced")
    traced_s = perf_counter() - started
    memo_hits, memo_misses = (after - before for after, before
                              in zip(parse_counters(), memo_before))
    series, reuse = (after - before for after, before
                     in zip(kernel_counters(), kernel_before))

    def total(field: str) -> int:
        return sum(op[field] for op in traced_ops)

    layers = dict(spans.self_s)
    layers.update(spans.counts)
    lookups = memo_hits + memo_misses
    cache_probes = total("cache_hits") + total("cache_misses")
    # Step times of the untraced iteration; 0 where there are no steps.
    layers.update({metric: 0.0 for metric, _ in STEP_METRICS.values()})
    layers["cache_mb"] = 0.0
    if args.grown is not None:
        layers.update({metric: values[0] for metric, values
                       in step_samples(plain_ops, [plain_size]).items()})
    layers.update({
        "sqlddl.memo_lookups": lookups,
        "sqlddl.memo_hit_ratio": memo_hits / lookups if lookups else 0.0,
        "history.kernel_series_built": series,
        "history.kernel_reuse_hits": reuse,
        "engine.cache_hits": total("cache_hits"),
        "engine.cache_misses": total("cache_misses"),
        "engine.cache_hit_ratio":
            total("cache_hits") / cache_probes if cache_probes else 0.0,
        "engine.hot_hits": total("hot_hits"),
        "engine.delta_versions_parsed": total("delta_parsed"),
        "engine.delta_versions_reused": total("delta_reused"),
        "engine.pool_spawn_s":
            pool_spawn_seconds(args.jobs) if args.jobs > 1 else 0.0,
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unattributed_s": traced_s - spans.covered_s,
    })
    return {"ops": warmup_ops + plain_ops + traced_ops, "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("warm", "trace"))
    parser.add_argument("--orig", type=Path, required=True)
    parser.add_argument("--grown", type=Path)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    result = warm_mode(args) if args.mode == "warm" else trace_mode(args)
    result["start_method"] = multiprocessing.get_start_method()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
