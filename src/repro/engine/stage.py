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
from typing import Any, Callable, Iterable, Sequence

from repro.errors import EngineError


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
    """

    name: str
    fn: Callable[..., Any]
    inputs: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise EngineError("a stage needs a non-empty name")
        if self.name in self.inputs:
            raise EngineError(f"stage {self.name!r} cannot consume itself")


@dataclass(frozen=True)
class MapStage(Stage):
    """A stage applied independently to every element of its first input.

    ``fn(item, *extras)`` is called once per element of the sequence
    named by ``inputs[0]``; the remaining inputs are broadcast to every
    call. The stage's result is the list of per-item results in input
    order — so serial, process-parallel and cache-served executions are
    indistinguishable to downstream stages.

    Attributes:
        cache_key_fn: optional ``fn(item, extras) -> str`` producing the
            content hash under which one item's result is cached — the
            key names the code that computes it too; ``None`` disables
            caching for the stage.
    """

    cache_key_fn: Callable[[Any, tuple], str] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        super().__post_init__()
        if not self.inputs:
            raise EngineError(
                f"map stage {self.name!r} needs at least the input "
                f"sequence it maps over")


class StudyPlan:
    """A validated DAG of stages.

    Args:
        stages: the plan's stages; names must be unique across the plan.

    Raises:
        EngineError: on duplicate stage names.
    """

    def __init__(self, stages: Iterable[Stage]):
        self._stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise EngineError(f"duplicate stage name {stage.name!r}")
            self._stages[stage.name] = stage

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

    def execution_order(self, available: Sequence[str] = ()) -> list[Stage]:
        """Topologically order the stages (Kahn's algorithm).

        Args:
            available: names of externally provided initial inputs.

        Raises:
            EngineError: when a stage consumes a name that neither a
                stage nor ``available`` provides, or the graph cycles.
        """
        provided = set(available)
        for stage in self._stages.values():
            for needed in stage.inputs:
                if needed not in provided and needed not in self._stages:
                    raise EngineError(
                        f"stage {stage.name!r} consumes {needed!r}, which "
                        f"no stage produces and no initial input provides")
        pending = {
            name: {i for i in stage.inputs if i in self._stages}
            for name, stage in self._stages.items()
        }
        order: list[Stage] = []
        # Declaration order breaks ties, keeping execution deterministic.
        while pending:
            ready = [name for name, deps in pending.items() if not deps]
            if not ready:
                cyclic = ", ".join(sorted(pending))
                raise EngineError(f"study plan has a cycle among: {cyclic}")
            for name in ready:
                order.append(self._stages[name])
                del pending[name]
            for deps in pending.values():
                deps.difference_update(ready)
        return order

    def describe(self) -> str:
        """A one-line-per-stage listing of the DAG (docs/debugging)."""
        lines = []
        for stage in self._stages.values():
            kind = "map " if isinstance(stage, MapStage) else "    "
            deps = ", ".join(stage.inputs) or "-"
            lines.append(f"{kind}{stage.name}  <-  {deps}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._stages)

    def __contains__(self, name: str) -> bool:
        return name in self._stages
