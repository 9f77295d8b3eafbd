"""COEV — joint schema/source evolution measures (extension, cf. [45]).

The paper's companion study ([45], EDBT 2023) examines the lag between
schema and source-code evolution. The measures are computed here over
the paired series of the corpus; the schema side is fully real (it is
the measured heartbeat), the source side is the generator's plausible
filler — so only schema-derived shapes are asserted.
"""

from repro.analysis.coevolution import compute_coevolution
from repro.viz.tables import format_table

from benchmarks.conftest import record


def test_coevolution(benchmark, corpus, records):
    sources = {project.name: project.source for project in corpus}
    result = benchmark(compute_coevolution, records, sources)

    assert len(result.rows) == 151
    # Schema birth lags the project start for the late-born patterns;
    # about a third of the corpus is born with the project (Fig. 7).
    assert 0.25 <= result.share_born_with_project <= 0.45
    assert result.median_birth_lag >= 0
    # The defining asymmetry: the source side is active most months,
    # the schema side only rarely (aversion to change).
    schema_shares = [r.schema_active_share for r in result.rows]
    source_shares = [r.source_active_share for r in result.rows]
    assert (sum(schema_shares) / len(schema_shares)
            < 0.5 * sum(source_shares) / len(source_shares))

    rows = [
        ["projects with paired series", len(result.rows)],
        ["median schema-birth lag (months)", result.median_birth_lag],
        ["share born with the project",
         f"{result.share_born_with_project:.0%}"],
        ["median schema/source overlap",
         f"{result.median_overlap:.0%}"],
        ["mean schema-active share of months",
         f"{sum(schema_shares) / len(schema_shares):.0%}"],
        ["mean source-active share of months",
         f"{sum(source_shares) / len(source_shares):.0%}"],
    ]
    record("coevolution", format_table(
        ["measure", "value"], rows,
        title="Extension — joint schema/source evolution measures "
              "(source side synthetic; see DESIGN.md)"))
