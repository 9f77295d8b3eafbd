"""F3 — Fig. 3: example cumulative-progress charts, one per pattern."""

from repro.metrics.profile import ProjectProfile
from repro.patterns.taxonomy import REAL_PATTERNS
from repro.viz.ascii_chart import ascii_chart

from benchmarks.conftest import record


def _gallery(corpus):
    by_pattern = corpus.by_pattern()
    charts = []
    for pattern in REAL_PATTERNS:
        exemplar = next(p for p in by_pattern[pattern]
                        if not p.is_exception)
        profile = ProjectProfile.from_history(exemplar.history)
        charts.append(ascii_chart(
            profile.heartbeat, source=exemplar.source,
            width=56, height=10,
            title=f"{pattern.value} — {exemplar.name} "
                  f"({profile.pup_months} months)"))
    return "\n\n".join(charts)


def test_fig3_examples(benchmark, corpus):
    gallery = benchmark(_gallery, corpus)
    for pattern in REAL_PATTERNS:
        assert pattern.value in gallery
    record("fig3_examples", gallery)
