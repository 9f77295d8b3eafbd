"""Pinned SHA-256 digests of ``repro-schema study`` stdout and records.

``tests/fixtures/study_digests.json`` pins the whole rendered study,
parser to Shapiro–Wilk kernel to report, for the default seed (also
replayed from a ``generate`` corpus file, serially and in parallel),
another synthetic seed and a corpus directory written by ``corpus
export --limit 24``. It also pins the record list, as the three CSVs
``export`` writes for that directory, studied both as ``dir:`` and as
an in-memory ``--corpus`` file. Every other golden check compares two
execution paths of the same checkout, so a numerical drift shared by
both paths shows only here. A change meant to move the report updates
the digests deliberately. CI's runtime-only job checks the
default-seed digest too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "fixtures"
     / "study_digests.json").read_text())


def study_digest(capsys, *argv):
    capsys.readouterr()
    assert main(["study", *argv]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


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
