"""Pinned SHA-256 digests of ``repro-schema study`` stdout.

``tests/fixtures/study_digests.json`` pins the whole rendered study,
parser to Shapiro–Wilk kernel to report, for the default seed, another
synthetic seed and a corpus directory written by ``corpus export
--limit 24``. Every other golden check compares two execution paths of
the same checkout, so a numerical drift shared by both paths shows only
here. A change meant to move the report updates the digests
deliberately. CI's runtime-only job checks the default-seed digest too.
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
