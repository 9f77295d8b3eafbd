"""The synthetic corpus as a lazy history source.

:class:`SyntheticSource` is the generator's two-phase design exposed
through the :class:`~repro.sources.base.HistorySource` protocol: the
serial planning pass (one :class:`~repro.corpus.generator.ProjectSpec`
per project, each with its own 64-bit child seed) runs once, cheaply;
realization — DDL synthesis, the expensive part — happens per project
inside ``load``, typically in a worker process. The source itself is a
few hundred bytes of specs, so shipping it to workers costs nothing,
and a project's fingerprint is derived from its spec alone: a warm
cache serves the whole study without generating a single commit.
"""

from __future__ import annotations

from repro.corpus.generator import (
    DEFAULT_SEED,
    GeneratedProject,
    ProjectSpec,
    plan_corpus,
    realize_spec,
)
from repro.engine.cache import fingerprint
from repro.errors import SourceError
from repro.patterns.taxonomy import Pattern

class SyntheticSource:
    """Lazily realized synthetic corpus (one project per child seed).

    Args:
        seed: master corpus seed (default: the paper seed).
        population: per-pattern project counts (default: Table 2).
        with_exceptions: inject the paper's documented exceptions.
        with_noise: decorate commits with non-DDL dump noise.

    The project order and content are identical to
    :func:`repro.corpus.generator.generate_corpus` under the same
    arguments — the golden-equivalence tests pin this. A fingerprint
    sees only the spec, not the generator's code; the result cache's
    key adds the package's code digest for that.
    """

    mode = "corpus"
    lightweight = True

    def __init__(self, seed: int | None = None,
                 population: dict[Pattern, int] | None = None,
                 with_exceptions: bool = True,
                 with_noise: bool = False):
        self.seed = DEFAULT_SEED if seed is None else seed
        self.population = dict(population) if population else None
        self.with_exceptions = with_exceptions
        self.with_noise = with_noise
        self._specs: dict[str, ProjectSpec] | None = None

    def _plan(self) -> dict[str, ProjectSpec]:
        if self._specs is None:
            self._specs = {
                spec.name: spec
                for spec in plan_corpus(self.seed, self.population,
                                        self.with_exceptions,
                                        self.with_noise)
            }
        return self._specs

    def _spec(self, pid: str) -> ProjectSpec:
        try:
            return self._plan()[pid]
        except KeyError:
            raise SourceError(
                f"unknown project id {pid!r} for synthetic corpus "
                f"seed {self.seed}") from None

    def identity(self) -> list:
        """Content identity: a run's source fingerprint.

        Everything that determines the planned corpus — an equal
        identity guarantees equal project ids and fingerprints. The
        plan itself is memoized per instance, so re-studying this
        instance plans once.
        """
        population = None
        if self.population is not None:
            population = sorted(
                (pattern.value, count)
                for pattern, count in self.population.items())
        return ["synthetic", self.seed, population,
                self.with_exceptions, self.with_noise]

    def project_ids(self) -> tuple[str, ...]:
        return tuple(self._plan())

    def fingerprint(self, pid: str) -> str:
        spec = self._spec(pid)
        return fingerprint("synthetic-project", spec.seed, spec.pattern,
                           spec.name, spec.bucket, spec.exception_kind,
                           spec.with_noise)

    def load(self, pid: str) -> GeneratedProject:
        return realize_spec(self._spec(pid))

    def iter_handles(self):
        """One handle per planned project, without an id list.

        Routes through :meth:`fingerprint` so subclasses that override
        it (fault-injecting test sources) keep their behavior on the
        streaming path too.
        """
        from repro.sources.base import SourceHandle
        for pid in self._plan():
            yield SourceHandle(pid=pid,
                               fingerprint=self.fingerprint(pid))

    def count(self) -> int:
        """Planned project total (plans; realizes nothing)."""
        return len(self._plan())

    def stratum(self, pid: str) -> str:
        """The intended pattern — the stratified-sampling stratum."""
        return self._spec(pid).pattern.value

    def __len__(self) -> int:
        return len(self._plan())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SyntheticSource(seed={self.seed}, "
                f"projects={len(self)})")
