"""Unit tests for the Markdown study report."""

import pytest

from repro.report.markdown import markdown_report
from repro.study.pipeline import records_from_corpus, run_study


@pytest.fixture(scope="module")
def results(small_corpus):
    return run_study(records_from_corpus(small_corpus))


class TestMarkdownReport:
    def test_all_sections_present(self, results):
        report = markdown_report(results)
        for heading in ("Table 1", "Table 2", "Figure 2", "Figure 4",
                        "Figure 5", "Figure 6", "Figure 7",
                        "Section 3.4", "Section 5.2", "Section 6.1",
                        "Section 6.3", "Summary"):
            assert heading in report, heading

    def test_custom_title(self, results):
        report = markdown_report(results, title="My Study")
        assert report.startswith("# My Study")

    def test_summary_mentions_counts(self, results):
        report = markdown_report(results)
        assert f"**{results.total} projects**" in report

    def test_code_fences_balanced(self, results):
        report = markdown_report(results)
        assert report.count("```") % 2 == 0
        assert report.count("```text") == 11

    def test_cli_report_command(self, small_corpus, tmp_path, capsys):
        from repro.cli import main
        from repro.sources import export_corpus_dir
        corpus_path = export_corpus_dir(small_corpus, tmp_path / "c")
        out = tmp_path / "study.md"
        code = main(["report", str(out),
                     "--source", f"dir:{corpus_path}"])
        assert code == 0
        assert out.read_text().startswith("# Schema-evolution")
