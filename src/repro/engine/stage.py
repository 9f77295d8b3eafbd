"""Declarative stages and the study plan DAG.

A :class:`Stage` is a named pure function with declared inputs; a
:class:`StudyPlan` wires stages into a directed acyclic graph and
computes a deterministic execution order. :class:`MapStage` marks the
embarrassingly parallel per-item stages (one call per element of the
first input) that the executor may fan out over worker processes and
memoize in the content-addressed result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import EngineError

if TYPE_CHECKING:
    from repro.engine.executor import StageTiming


@dataclass(frozen=True)
class StageEvent:
    """One progress notification emitted while a plan executes.

    Attributes:
        stage: name of the stage the event concerns.
        phase: ``"start"`` or ``"finish"``.
        timing: the stage's :class:`~repro.engine.executor.StageTiming`
            — seconds, items, chunk size and counters (finish events
            only).
    """

    stage: str
    phase: str
    timing: StageTiming | None = None


@dataclass(frozen=True)
class Stage:
    """One node of a study plan.

    Attributes:
        name: unique stage name; other stages reference it as an input.
        fn: the stage body, called as ``fn(*input_values)`` in declared
            input order. Must be a module-level callable so map stages
            stay picklable for the process backend.
        inputs: names of the values the stage consumes — either other
            stage names or keys of the initial input dict.
        version: code-version tag mixed into cache keys; bump it when
            the stage's logic changes so stale cache entries die.
    """

    name: str
    fn: Callable[..., Any]
    inputs: tuple[str, ...] = ()
    version: str = "1"

    def __post_init__(self):
        if not self.name:
            raise EngineError("a stage needs a non-empty name")
        if self.name in self.inputs:
            raise EngineError(f"stage {self.name!r} cannot consume itself")

    @property
    def provides(self) -> tuple[str, ...]:
        """Names this stage publishes into the result namespace."""
        return (self.name,)


@dataclass(frozen=True)
class MapStage(Stage):
    """A stage applied independently to every element of its first input.

    ``fn(item, *extras)`` is called once per element of the sequence
    named by ``inputs[0]``; the remaining inputs are broadcast to every
    call. The stage's result is the list of per-item results in input
    order — so serial, process-parallel and cache-served executions are
    indistinguishable to downstream stages.

    Attributes:
        cache_key_fn: optional ``fn(item, extras, version) -> str``
            producing the content hash under which one item's result is
            cached; ``None`` disables caching for the stage.
        item_transport_fn: optional ``fn(item) -> item`` applied to each
            input item before it is pickled to a worker process. Used
            to shed derived caches that are cheap to rebuild but
            expensive to serialize.
        chunk_size: per-stage override for items per pickled work
            chunk. Precedence is ``config.chunk_size`` (the global /
            CLI knob), then this, then the executor's auto heuristic;
            ``None`` defers to the next level.
        pack_fn: optional ``fn(result) -> row`` flattening one mapped
            result into a columnar row. Workers pack alongside the map,
            shipping rows back with results so the pack overlaps the
            map itself.
        pack_finish_fn: ``fn(rows) -> pack`` assembling the harvested
            rows (item order, survivors only) into the stage's
            secondary output.
        pack_output: result-namespace name the assembled pack is
            published under. All three pack fields come together.
    """

    cache_key_fn: Callable[[Any, tuple, str], str] | None = field(
        default=None, compare=False)
    item_transport_fn: Callable[[Any], Any] | None = field(
        default=None, compare=False)
    chunk_size: int | None = None
    pack_fn: Callable[[Any], Any] | None = field(
        default=None, compare=False)
    pack_finish_fn: Callable[[list], Any] | None = field(
        default=None, compare=False)
    pack_output: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if not self.inputs:
            raise EngineError(
                f"map stage {self.name!r} needs at least the input "
                f"sequence it maps over")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise EngineError(
                f"map stage {self.name!r} chunk_size must be >= 1, "
                f"got {self.chunk_size}")
        pack_bits = (self.pack_fn, self.pack_finish_fn, self.pack_output)
        if any(b is not None for b in pack_bits):
            if any(b is None for b in pack_bits):
                raise EngineError(
                    f"map stage {self.name!r} needs pack_fn, "
                    f"pack_finish_fn and pack_output together")
            if self.pack_output == self.name or self.pack_output in self.inputs:
                raise EngineError(
                    f"map stage {self.name!r} pack_output "
                    f"{self.pack_output!r} collides with its own "
                    f"name or inputs")

    @property
    def provides(self) -> tuple[str, ...]:
        if self.pack_output is None:
            return (self.name,)
        return (self.name, self.pack_output)


class StudyPlan:
    """A validated DAG of stages.

    Args:
        stages: the plan's stages; names (and any secondary pack
            outputs) must be unique across the plan.

    Raises:
        EngineError: on duplicate stage names or produced-value names.
    """

    def __init__(self, stages: Iterable[Stage]):
        self._stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise EngineError(f"duplicate stage name {stage.name!r}")
            self._stages[stage.name] = stage
        self._producers: dict[str, str] = {}
        for name, stage in self._stages.items():
            for output in stage.provides:
                owner = self._producers.get(output)
                if owner is not None:
                    raise EngineError(
                        f"stages {owner!r} and {name!r} both produce "
                        f"{output!r}")
                self._producers[output] = name

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The plan's stages in declaration order."""
        return tuple(self._stages.values())

    @property
    def names(self) -> tuple[str, ...]:
        """All stage names in declaration order."""
        return tuple(self._stages)

    def stage(self, name: str) -> Stage:
        """Look one stage up by name.

        Raises:
            EngineError: for an unknown name.
        """
        try:
            return self._stages[name]
        except KeyError:
            raise EngineError(f"no stage named {name!r}") from None

    @property
    def producers(self) -> dict[str, str]:
        """Produced value name -> producing stage name (primary stage
        names plus any map-stage pack outputs)."""
        return dict(self._producers)

    def schedule(self, available: Sequence[str] = ()) -> "PlanSchedule":
        """A live ready-set view of the DAG for one execution.

        Args:
            available: names of externally provided initial inputs.

        Raises:
            EngineError: when a stage consumes a name that neither a
                stage nor ``available`` provides.
        """
        return PlanSchedule(self, available)

    def execution_order(self, available: Sequence[str] = ()) -> list[Stage]:
        """Topologically order the stages (Kahn's algorithm).

        Args:
            available: names of externally provided initial inputs.

        Raises:
            EngineError: when a stage consumes a name that neither a
                stage nor ``available`` provides, or the graph cycles.
        """
        schedule = self.schedule(available)
        order: list[Stage] = []
        while not schedule.done:
            for stage in schedule.take_ready():
                order.append(stage)
                schedule.complete(stage.name)
        return order

    def describe(self) -> str:
        """A one-line-per-stage listing of the DAG (docs/debugging)."""
        lines = []
        for stage in self._stages.values():
            kind = "map " if isinstance(stage, MapStage) else "    "
            deps = ", ".join(stage.inputs) or "-"
            extra = ""
            if isinstance(stage, MapStage) and stage.pack_output:
                extra = f"  [+{stage.pack_output}]"
            lines.append(f"{kind}{stage.name}  <-  {deps}{extra}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._stages)

    def __contains__(self, name: str) -> bool:
        return name in self._stages


class PlanSchedule:
    """The live ready-set of one plan execution.

    The executor repeatedly pops :meth:`take_ready` — every stage whose
    producers have all completed — runs those stages (publishing any
    secondary pack outputs), and calls :meth:`complete` to unblock
    their consumers. Dependencies resolve through the plan's producers
    map, so a stage consuming a map stage's pack output waits on the
    map stage itself.

    Args:
        plan: the validated plan to schedule.
        available: names of externally provided initial inputs.

    Raises:
        EngineError: when a stage consumes a name that neither a stage
            nor ``available`` provides.
    """

    def __init__(self, plan: StudyPlan, available: Sequence[str] = ()):
        producers = plan.producers
        provided = set(available)
        for stage in plan.stages:
            for needed in stage.inputs:
                if needed not in provided and needed not in producers:
                    raise EngineError(
                        f"stage {stage.name!r} consumes {needed!r}, which "
                        f"no stage produces and no initial input provides")
        self._stages = {stage.name: stage for stage in plan.stages}
        self._pending = {
            stage.name: {
                producers[i] for i in stage.inputs if i in producers}
            for stage in plan.stages
        }

    @property
    def done(self) -> bool:
        """True once every stage has been handed out."""
        return not self._pending

    def take_ready(self) -> list[Stage]:
        """Pop the stages whose dependencies have all completed.

        Declaration order breaks ties, keeping execution deterministic.

        Raises:
            EngineError: when stages remain but none are ready (cycle).
        """
        ready = [name for name, deps in self._pending.items() if not deps]
        if not ready and self._pending:
            cyclic = ", ".join(sorted(self._pending))
            raise EngineError(f"study plan has a cycle among: {cyclic}")
        for name in ready:
            del self._pending[name]
        return [self._stages[name] for name in ready]

    def complete(self, name: str) -> None:
        """Mark a stage finished, unblocking stages that consume it."""
        for deps in self._pending.values():
            deps.discard(name)
