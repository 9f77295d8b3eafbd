"""Project profiles: one record per studied project.

A :class:`ProjectProfile` is "one row" of the paper's study — everything
the labeling, classification and analysis layers need about a project,
computed once from its history.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.diff.engine import DiffOptions
from repro.history.heartbeat import ActivitySeries, schema_heartbeat
from repro.history.repository import SchemaHistory
from repro.metrics.activity import ActivityTotals, compute_activity_totals
from repro.metrics.landmarks import Landmarks, compute_landmarks
from repro.metrics.timeseries import DEFAULT_POINTS, heartbeat_vector


@dataclass(frozen=True)
class ProjectProfile:
    """All measured facts about one project's schema evolution.

    Attributes:
        name: project identifier.
        landmarks: time-related landmarks (§3.2).
        totals: change-volume aggregates (§6.1, §6.3).
        vector: the 20-point cumulative-progress vector (§5.2).
        heartbeat: the underlying monthly series (kept for charts).

    A profile holds measured facts only, never the history behind them,
    so it compares and pickles the same whichever process, cache or
    delta checkpoint produced it.
    """

    name: str
    landmarks: Landmarks
    totals: ActivityTotals
    vector: tuple[float, ...]
    heartbeat: ActivitySeries

    # Convenience passthroughs used across the analysis layer -----------

    @property
    def pup_months(self) -> int:
        """Project update period in months."""
        return self.landmarks.pup_months

    @property
    def birth_month(self) -> int:
        """Month of schema birth."""
        return self.landmarks.birth_month

    @property
    def total_activity(self) -> int:
        """Total affected attributes over the project's whole life."""
        return self.totals.total_activity

    @classmethod
    def from_history(cls, history: SchemaHistory,
                     diff_options: DiffOptions | None = None,
                     vector_points: int = DEFAULT_POINTS
                     ) -> "ProjectProfile":
        """Measure a schema history into a profile.

        Args:
            history: the project's DDL history.
            diff_options: options for the logical diff engine.
            vector_points: grid size of the cumulative-progress vector.
        """
        return cls.from_series(
            history.project_name, schema_heartbeat(history, diff_options),
            history.commit_month(history.commits[0]), vector_points)

    @classmethod
    def from_series(cls, name: str, series: ActivitySeries,
                    birth_month: int, vector_points: int = DEFAULT_POINTS
                    ) -> "ProjectProfile":
        """Measure a project's monthly heartbeat into a profile.

        Args:
            name: project identifier.
            series: the project's monthly activity series.
            birth_month: month index of the project's first commit.
            vector_points: grid size of the cumulative-progress vector.
        """
        landmarks = compute_landmarks(series, birth_month=birth_month)
        totals = compute_activity_totals(series, landmarks.birth_month)
        return cls(
            name=name,
            landmarks=landmarks,
            totals=totals,
            vector=heartbeat_vector(series, vector_points),
            heartbeat=series,
        )
