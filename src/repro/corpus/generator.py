"""Assembly of the full synthetic corpus.

:func:`generate_corpus` reproduces the paper's study population: 151
projects distributed over the 8 patterns per Table 2, with per-pattern
birth-month buckets from Fig. 7 and the documented exception projects
injected. Everything is deterministic under one seed.

Generation is two-phase: a planning pass derives one child seed per
project from the master stream (:func:`plan_corpus`), then each project
is realized from its own ``random.Random(child_seed)``
(:func:`realize_spec`). So one project can be realized without the
rest: :class:`repro.sources.SyntheticSource` realizes each spec in the
engine worker that studies it, while :func:`generate_corpus` realizes
the whole plan serially, in this process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.config import StudyConfig

from repro.corpus.ddlgen import realize_history
from repro.corpus.planner import LandmarkPlan
from repro.corpus.profiles import (
    BIRTH_BUCKETS,
    EXCEPTION_KINDS,
    sampler_for,
)
from repro.errors import CorpusError
from repro.history.heartbeat import ActivitySeries
from repro.history.repository import SchemaHistory
from repro.history.sourcecode import synthetic_source_series
from repro.patterns.taxonomy import PAPER_POPULATION, Pattern
from repro.sqlddl.dialect import Dialect

#: Default corpus seed (arbitrary but fixed: every table/figure in
#: EXPERIMENTS.md was produced under this seed).
DEFAULT_SEED = 20250325


@dataclass(frozen=True)
class GeneratedProject:
    """One synthetic project of the corpus.

    Attributes:
        name: unique project name.
        intended_pattern: ground-truth pattern of the landmark plan.
        is_exception: True for the injected near-miss projects.
        exception_kind: which defining clause the plan violates, if any.
        history: the realized DDL commit history.
        source: the co-generated source-code activity series.
        plan: the landmark plan behind the history.
    """

    name: str
    intended_pattern: Pattern
    is_exception: bool
    exception_kind: str | None
    history: SchemaHistory
    source: ActivitySeries
    plan: LandmarkPlan


@dataclass(frozen=True)
class Corpus:
    """The full synthetic study corpus.

    Attributes:
        projects: all generated projects.
        seed: the seed that produced them.
    """

    projects: tuple[GeneratedProject, ...]
    seed: int

    def __len__(self) -> int:
        return len(self.projects)

    def __iter__(self):
        return iter(self.projects)

    def by_pattern(self) -> dict[Pattern, list[GeneratedProject]]:
        """Projects grouped by intended pattern."""
        groups: dict[Pattern, list[GeneratedProject]] = {}
        for project in self.projects:
            groups.setdefault(project.intended_pattern, []).append(project)
        return groups

    def counts(self) -> dict[Pattern, int]:
        """Population per intended pattern."""
        return {p: len(items) for p, items in self.by_pattern().items()}


def _bucket_sequence(pattern: Pattern, count: int,
                     rng: random.Random) -> list[int]:
    """The Fig-7 birth buckets for ``count`` projects of one pattern."""
    quota = list(BIRTH_BUCKETS.get(pattern, (count, 0, 0, 0)))
    sequence: list[int] = []
    for bucket, amount in enumerate(quota):
        sequence.extend([bucket] * amount)
    # Adjust for non-paper population counts (custom studies).
    while len(sequence) < count:
        sequence.append(max(range(4), key=lambda b: quota[b]))
    rng.shuffle(sequence)
    return sequence[:count]


def _dialect_mix(rng: random.Random) -> Dialect:
    """FOSS corpora skew MySQL-heavy; mirror that flavor mix."""
    roll = rng.random()
    if roll < 0.55:
        return Dialect.MYSQL
    if roll < 0.85:
        return Dialect.POSTGRES
    return Dialect.SQLITE


def generate_project(pattern: Pattern, rng: random.Random, name: str,
                     bucket: int, exception_kind: str | None = None,
                     with_noise: bool = False) -> GeneratedProject:
    """Generate one project of the given pattern.

    Raises:
        CorpusError: when the pattern's landmark region cannot be hit
            (should not happen for the shipped samplers).
    """
    plan = sampler_for(pattern).sample(rng, bucket, exception_kind)
    history = realize_history(plan, rng, name, _dialect_mix(rng),
                              with_noise=with_noise)
    source = synthetic_source_series(plan.pup_months, rng)
    return GeneratedProject(
        name=name,
        intended_pattern=pattern,
        is_exception=exception_kind is not None,
        exception_kind=exception_kind,
        history=history,
        source=source,
        plan=plan,
    )


@dataclass(frozen=True)
class ProjectSpec:
    """The serial planning pass's output: everything one worker needs.

    A spec is tiny and picklable, so lazy sources
    (:class:`repro.sources.SyntheticSource`) can ship it to worker
    processes instead of the realized project.
    """

    pattern: Pattern
    name: str
    bucket: int
    exception_kind: str | None
    with_noise: bool
    seed: int


def realize_spec(spec: ProjectSpec) -> GeneratedProject:
    """Realize one planned project from its own child RNG."""
    return generate_project(
        spec.pattern, random.Random(spec.seed), name=spec.name,
        bucket=spec.bucket, exception_kind=spec.exception_kind,
        with_noise=spec.with_noise)


def plan_corpus(seed: int = DEFAULT_SEED,
                population: dict[Pattern, int] | None = None,
                with_exceptions: bool = True,
                with_noise: bool = False) -> list[ProjectSpec]:
    """The serial planning pass: one realization spec per project.

    Raises:
        CorpusError: for negative per-pattern populations.
    """
    rng = random.Random(seed)
    population = dict(population or PAPER_POPULATION)
    specs: list[ProjectSpec] = []
    for pattern, count in population.items():
        if count < 0:
            raise CorpusError(f"negative population for {pattern.value}")
        exceptions = list(EXCEPTION_KINDS.get(pattern, ())) \
            if with_exceptions else []
        exceptions = exceptions[:count]
        buckets = _bucket_sequence(pattern, count, rng)
        slug = pattern.value.lower().replace(" ", "-")
        for index in range(count):
            kind = exceptions[index] if index < len(exceptions) else None
            specs.append(ProjectSpec(
                pattern=pattern, name=f"{slug}-{index + 1:02d}",
                bucket=buckets[index], exception_kind=kind,
                with_noise=with_noise, seed=rng.getrandbits(64)))
    return specs


def generate_corpus(seed: int | None = None,
                    population: dict[Pattern, int] | None = None,
                    with_exceptions: bool = True,
                    with_noise: bool = False,
                    config: "StudyConfig | None" = None) -> Corpus:
    """Generate the full synthetic corpus, serially.

    Args:
        seed: master seed; the same seed always yields the same corpus.
            Defaults to the config's seed, or :data:`DEFAULT_SEED`.
        population: per-pattern project counts; defaults to the paper's
            Table-2 population (151 projects).
        with_exceptions: inject the paper's documented exception projects
            (Table 2); disable for a perfectly definition-clean corpus.
        with_noise: decorate every commit with realistic non-DDL dump
            noise; measurements are unaffected (the robust parser skips
            it), only ``parse_issues`` counters rise.
        config: a :class:`~repro.engine.config.StudyConfig` supplying
            the default ``seed``.

    Returns:
        The generated :class:`Corpus`.
    """
    if seed is None:
        seed = config.seed if config is not None else DEFAULT_SEED
    specs = plan_corpus(seed, population, with_exceptions, with_noise)
    return Corpus(projects=tuple(realize_spec(spec) for spec in specs),
                  seed=seed)
