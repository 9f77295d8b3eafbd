"""Pinned SHA-256 digests of ``repro-schema study`` stdout and records.

``tests/fixtures/study_digests.json`` pins the whole rendered study,
parser to Shapiro–Wilk kernel to report, for the default seed (also
replayed from a ``generate`` corpus file, serially and in parallel),
another synthetic seed, a corpus directory written by ``corpus
export --limit 24`` and a git repository committing those 24 projects
version by version. It also pins the record list, as the three CSVs
``export`` writes for that directory, studied both as ``dir:`` and as
an in-memory ``--corpus`` file, the ``classify`` and ``profile``
stdout over those 24 projects saved as JSONL history logs, and the
study of a 40-project dump-shaped corpus (``dump_corpus.py``: noise
between statements, ``DROP TABLE IF EXISTS`` before each create). Every
other golden check compares two execution paths of the same checkout,
so a numerical drift shared by both paths shows only here. A change
meant to move the report updates the digests deliberately. CI's
runtime-only job checks the default-seed digest too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.history.repository import save_history_to_jsonl
from repro.sources import import_corpus_dir
from tests.engine.test_delta import _git as git, needs_git
from tests.integration.dump_corpus import write_dump_corpus

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "fixtures"
     / "study_digests.json").read_text())


def cli_stdout(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def study_digest(capsys, *argv):
    return hashlib.sha256(
        cli_stdout(capsys, "study", *argv).encode()).hexdigest()


@pytest.mark.parametrize("name, argv", [
    ("default-seed", ()),
    ("synthetic-7", ("--source", "synthetic:7")),
])
def test_synthetic_study(capsys, name, argv):
    assert study_digest(capsys, *argv) == DIGESTS[name]


def test_exported_corpus_dir_study(capsys, tmp_path):
    target = tmp_path / "corpus"
    assert main(["corpus", "export", "--limit", "24", str(target)]) == 0
    assert study_digest(capsys, "--source", f"dir:{target}") \
        == DIGESTS["dir-export-24"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_corpus_file_study(capsys, default_corpus_json, jobs):
    assert study_digest(capsys, "--corpus", str(default_corpus_json),
                        "--jobs", jobs) == DIGESTS["default-seed"]


def test_dump_shaped_corpus_study(capsys, tmp_path):
    write_dump_corpus(tmp_path / "corpus")
    assert study_digest(capsys, "--source", f"dir:{tmp_path / 'corpus'}") \
        == DIGESTS["dump-40"]


@pytest.fixture(scope="module")
def export_24(tmp_path_factory):
    target = tmp_path_factory.mktemp("export") / "corpus"
    assert main(["corpus", "export", "--limit", "24", str(target)]) == 0
    return target


def export_digests(*argv, output):
    assert main(["export", str(output), *argv]) == 0
    return {name: hashlib.sha256((output / name).read_bytes()).hexdigest()
            for name in DIGESTS["export-24-csv"]}


def test_exported_corpus_dir_records(export_24, tmp_path):
    assert export_digests("--source", f"dir:{export_24}",
                          output=tmp_path / "out") \
        == DIGESTS["export-24-csv"]


def test_imported_corpus_file_records(export_24, tmp_path):
    corpus_file = tmp_path / "corpus.json"
    assert main(["corpus", "import", str(export_24), str(corpus_file)]) == 0
    assert export_digests("--corpus", str(corpus_file),
                          output=tmp_path / "out") \
        == DIGESTS["export-24-csv"]


@pytest.fixture(scope="module")
def git_24(export_24, tmp_path_factory):
    """A git repository of the 24 exported projects: one ``<name>.sql``
    per project and one commit per version, in (timestamp, name) order,
    dated at the version's timestamp."""
    root = tmp_path_factory.mktemp("git")
    git(root, "init", "-q", ".")
    versions = sorted(
        ((commit.timestamp, project.name, commit.ddl_text)
         for project in import_corpus_dir(export_24).projects
         for commit in project.history.commits),
        key=lambda version: version[:2])
    for stamp, name, ddl_text in versions:
        (root / f"{name}.sql").write_text(ddl_text)
        git(root, "add", f"{name}.sql")
        date = f"{stamp:%Y-%m-%dT%H:%M:%S}Z"
        git(root, "commit", "-q", "-m", f"{name} {date}", env_date=date)
    return root


@needs_git
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_git_repository_study(capsys, git_24, jobs):
    assert study_digest(capsys, "--source", f"git:{git_24}",
                        "--jobs", jobs) == DIGESTS["git-24"]


@pytest.fixture(scope="module")
def histories_24(export_24, tmp_path_factory):
    """The 24 exported projects' histories, one JSONL log each."""
    root = tmp_path_factory.mktemp("histories")
    for project in import_corpus_dir(export_24).projects:
        save_history_to_jsonl(project.history,
                              root / f"{project.name}.jsonl")
    return root


# Every exported project passes the corpus-selection protocol, so both
# classify pins are the same bytes; the second still runs the filter.
@pytest.mark.parametrize("name, argv", [
    ("classify-24", ()),
    ("classify-24-protocol", ("--apply-protocol",)),
])
def test_classify_histories(capsys, histories_24, name, argv):
    out = cli_stdout(capsys, "classify", str(histories_24), *argv)
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[name]


def test_profile_histories(capsys, histories_24):
    out = "".join(cli_stdout(capsys, "profile", str(path))
                  for path in sorted(histories_24.iterdir()))
    assert hashlib.sha256(out.encode()).hexdigest() \
        == DIGESTS["profile-24"]
