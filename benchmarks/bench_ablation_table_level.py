"""ABL-4 — table-level rigidity (cross-check with companion studies).

The paper's schema-level "aversion to change" has a table-level
counterpart in the authors' companion work (gravitation to rigidity of
tables). Because the corpus carries real DDL histories, the table-level
aggregates can be measured directly and cross-checked: most table lives
never change after birth, and most survive to the end of the project.
"""

from repro.analysis.table_level import compute_table_level
from repro.viz.tables import format_table

from benchmarks.conftest import record


def test_ablation_table_level(benchmark, corpus):
    histories = [project.history for project in corpus]
    result = benchmark(compute_table_level, histories)

    assert result.total_lives > 400
    # The table-level aversion-to-change trait.
    assert result.rigid_share > 0.5
    assert result.alive_share > 0.6

    quarter_rows = [
        [f"Q{i + 1}", f"{share:.0%}"]
        for i, share in enumerate(result.rigidity_by_birth_quarter)]
    rows = [
        ["table lives", result.total_lives],
        ["rigid (no post-birth change)", f"{result.rigid_share:.0%}"],
        ["alive at project end", f"{result.alive_share:.0%}"],
        ["median updates (changed tables)",
         result.median_updates_active],
        ["median birth size (attributes)", result.median_birth_size],
    ] + [[f"rigidity, born in {q}", v] for q, v in quarter_rows]
    record("ablation_table_level", format_table(
        ["statistic", "value"], rows,
        title="Extension — table-level rigidity across the corpus"))
