"""Unit tests for ProjectProfile."""

from datetime import datetime

from repro.metrics.profile import ProjectProfile
from tests.conftest import make_history


class TestFromHistory:
    def test_bundles_everything(self, simple_history):
        profile = ProjectProfile.from_history(simple_history)
        assert profile.name == "test-project"
        assert profile.pup_months == 24
        assert profile.birth_month == 0
        assert profile.total_activity == 6
        assert len(profile.vector) == 20
        assert profile.heartbeat.total == 6

    def test_birth_is_first_commit_month_even_if_empty_ddl(self):
        # First commit holds comments only: schema file exists but no
        # attributes — birth is still the file's appearance.
        history = make_history(["-- just a comment",
                                "CREATE TABLE t (a INT);"])
        profile = ProjectProfile.from_history(history)
        assert profile.birth_month == 0
        assert profile.landmarks.birth_volume_fraction == 0.0

    def test_late_schema_birth_vs_project_start(self):
        history = make_history(
            ["CREATE TABLE t (a INT);"],
            project_start=datetime(2019, 1, 1),
            project_end=datetime(2021, 12, 31))
        profile = ProjectProfile.from_history(history)
        assert profile.birth_month == 12  # commits start in 2020-01
        assert profile.pup_months == 36

    def test_custom_vector_points(self, simple_history):
        profile = ProjectProfile.from_history(simple_history,
                                              vector_points=10)
        assert len(profile.vector) == 10
