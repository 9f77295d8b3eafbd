"""Pinned SHA-256 digests of the synthetic generator's output.

``tests/fixtures/corpus_digests.json`` pins the bytes the generator
writes, independently of any study:

* the ``manifest.json`` of ``corpus export`` at the default seed (v1,
  one file per project) and at seed 7 with ``--shard-size 16`` (v2);
  a manifest indexes every project's SHA-256, so it covers every DDL
  byte, plan and source series;
* a small-population corpus written with ``with_noise=True``;
* the joined commit texts of one incremental-style history, which
  renders each month's statements instead of whole-schema dumps.

A synthetic project's fingerprint is derived from its spec, never
from its bytes; a warm cache still drops records measured on the old
bytes after a generator change, because cache keys carry the digest
of the package's code. These pins say whether the bytes moved.
"""

import hashlib
import json
import random
from pathlib import Path

from repro.cli import main
from repro.corpus.ddlgen import realize_history
from repro.corpus.planner import plan_schedule
from repro.sources import SyntheticSource, write_corpus_dir
from repro.sqlddl.dialect import Dialect
from tests.conftest import SMALL_POPULATION

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "fixtures"
     / "corpus_digests.json").read_text())

REPIN = ("the synthetic generator's output changed: if the change is "
         "meant, re-pin tests/fixtures/corpus_digests.json deliberately")


def manifest_digest(root: Path) -> str:
    return hashlib.sha256((root / "manifest.json").read_bytes()).hexdigest()


def export_digest(root: Path, *argv: str) -> str:
    assert main(["corpus", "export", str(root), *argv]) == 0
    return manifest_digest(root)


def noisy_digest(root: Path) -> str:
    source = SyntheticSource(seed=3, population=SMALL_POPULATION,
                             with_noise=True)
    write_corpus_dir((source.load(pid) for pid in source.project_ids()),
                     root, seed=source.seed)
    return manifest_digest(root)


def incremental_digest() -> str:
    rng = random.Random(17)
    plan = plan_schedule(rng, pup_months=60, birth_month=2, top_month=30,
                         birth_units=40, agm=4, post_units=160,
                         tail_months=3, maintenance_bias=0.6)
    history = realize_history(plan, rng, "incremental", Dialect.POSTGRES,
                              commit_style="incremental")
    text = "\n".join(commit.ddl_text for commit in history.commits)
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_seed_export(tmp_path):
    assert export_digest(tmp_path / "corpus") \
        == DIGESTS["export-default-seed"], REPIN


def test_sharded_seed_7_export(tmp_path):
    assert export_digest(tmp_path / "corpus", "--seed", "7",
                         "--shard-size", "16") \
        == DIGESTS["export-seed-7-shard-16"], REPIN


def test_noisy_small_corpus(tmp_path):
    assert noisy_digest(tmp_path / "corpus") \
        == DIGESTS["noisy-small-seed-3"], REPIN


def test_incremental_history_texts():
    assert incremental_digest() == DIGESTS["incremental-history"], REPIN
