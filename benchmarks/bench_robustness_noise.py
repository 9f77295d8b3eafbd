"""ROB-2 — robustness of the study under realistic dump noise.

Real FOSS ``.sql`` files carry headers, SETs, INSERTs and transaction
chatter around the DDL. This benchmark re-runs the full study on a
noise-decorated twin of the corpus and asserts that every classification
and every headline statistic is identical — i.e. the robust parser
isolates the logical schema perfectly.
"""

from repro.corpus.generator import generate_corpus
from repro.study.compare import compare_studies
from repro.study.pipeline import records_from_corpus, run_study
from repro.viz.tables import format_table

from benchmarks.conftest import record


def test_robustness_under_dump_noise(benchmark, study):
    def noisy_study():
        noisy_corpus = generate_corpus(with_noise=True)
        return noisy_corpus, run_study(records_from_corpus(noisy_corpus))

    noisy_corpus, noisy = benchmark.pedantic(noisy_study, rounds=1,
                                             iterations=1)

    delta = compare_studies(study, noisy)
    assert delta.zero_agm_share_delta == 0.0
    assert delta.vault_share_delta == 0.0
    assert delta.median_activity_delta == 0.0
    assert delta.tree_errors_delta == 0
    assert all(v == 0.0 for v in delta.family_share_delta.values())

    clean_patterns = [r.pattern for r in study.records]
    noisy_patterns = [r.pattern for r in noisy.records]
    assert clean_patterns == noisy_patterns

    skipped_statements = sum(
        v.parse_issues
        for project in noisy_corpus
        for v in project.history.versions())
    assert skipped_statements > 500  # the noise really was there

    record("robustness_noise", format_table(
        ["check", "result"],
        [["projects", noisy.total],
         ["noise statements skipped by the parser",
          skipped_statements],
         ["classification changes vs clean corpus", 0],
         ["headline-statistic changes vs clean corpus", 0]],
        title="Robustness — full study on a noise-decorated corpus"))
