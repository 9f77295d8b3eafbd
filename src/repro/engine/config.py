"""The single execution configuration threaded through the pipeline.

One :class:`StudyConfig` carries everything that parameterizes a study
run — corpus seed, label scheme, worker count, cache directory, error
policy — so the CLI, the benchmarks and library callers all speak the
same object instead of hand-wiring keyword arguments through every
layer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.corpus.generator import DEFAULT_SEED
from repro.engine.faults import ErrorPolicy, FaultPlan
from repro.errors import EngineError
from repro.labels.quantization import DEFAULT_SCHEME, LabelScheme


@dataclass(frozen=True)
class StudyConfig:
    """Execution parameters of one study run.

    Attributes:
        seed: master corpus seed (same seed, same corpus, any ``jobs``).
        scheme: quantization boundaries applied when labeling profiles.
        jobs: worker processes for the per-project map stages; 1 runs
            everything serially in-process.
        cache_dir: directory of the content-addressed result cache;
            ``None`` disables caching.
        chunk_size: items per pickled work chunk sent to a worker;
            ``None`` picks ``ceil(items / (jobs * 4))`` when the item
            count is cheaply known, else a fixed jobs-scaled default
            (streamed sources of unknown size).
        sample: study only this many projects of the source, drawn
            deterministically from the seed; ``None`` studies all.
            Sampling materializes the (tiny) handle list, never the
            projects.
        stratified: draw the sample round-robin across the source's
            strata (pattern groups) instead of uniformly, so small
            interactive samples still span every pattern. Requires
            ``sample``.
        source: history-source spec (``synthetic:[SEED]``, ``dir:PATH``
            or ``git:PATH``) consumed by
            :func:`repro.sources.source_from_spec`; ``synthetic:``
            resolves its seed from this config.
        error_policy: what happens when computing one project raises —
            fail fast (default; today's behaviour), skip it, or retry
            transient source failures first. See
            :class:`~repro.engine.faults.ErrorPolicy`.
        stage_timeout: wall-clock seconds the executor waits for any
            one in-flight work chunk of a parallel map stage before
            declaring its items failed (``None``: wait forever; serial
            execution cannot be preempted and ignores this).
        faults: optional deterministic fault-injection plan (testing/
            chaos runs); ``None`` injects nothing.
        resume_from: journal run id of an interrupted/killed run to
            resume — its journaled chunks are replayed from the result
            cache and only the remainder executes. Needs ``cache_dir``
            (the journal lives there). Output is byte-identical to a
            cold run either way.
    """

    seed: int = DEFAULT_SEED
    scheme: LabelScheme = DEFAULT_SCHEME
    jobs: int = 1
    cache_dir: Path | None = None
    chunk_size: int | None = None
    sample: int | None = None
    stratified: bool = False
    source: str = "synthetic:"
    error_policy: ErrorPolicy = ErrorPolicy()
    stage_timeout: float | None = None
    faults: FaultPlan | None = None
    resume_from: str | None = None

    def __post_init__(self):
        if self.jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {self.jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise EngineError(
                f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.sample is not None and self.sample < 1:
            raise EngineError(
                f"sample must be >= 1, got {self.sample}")
        if self.stratified and self.sample is None:
            raise EngineError("stratified needs a sample size")
        if self.stage_timeout is not None and self.stage_timeout <= 0:
            raise EngineError(
                f"stage_timeout must be > 0, got {self.stage_timeout}")
        if self.resume_from is not None and self.cache_dir is None:
            raise EngineError(
                "resume needs a cache dir: the run journal lives in "
                "<cache_dir>/journal/")
        if self.cache_dir is not None \
                and not isinstance(self.cache_dir, Path):
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))

    def replace(self, **changes: Any) -> "StudyConfig":
        """A copy of this config with the given fields changed."""
        return dataclasses.replace(self, **changes)
