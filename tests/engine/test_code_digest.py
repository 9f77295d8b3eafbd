"""Stored results follow the code that computed them.

Result-cache keys and delta-checkpoint paths mix in
:func:`~repro.engine.cache.code_digest`, a hash of the ``repro``
package's source. The end-to-end tests run the CLI in fresh processes,
over the checkout and over a copy of the package whose top band is
80 % instead of 90 %, sharing one ``--cache-dir``: the copy must
neither be served a record nor resume from a checkpoint that the
checkout stored, and it must print what it prints without a cache.
Opening the cache dir also deletes what the checkout stored, so the
directory holds only entries the running code can read.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.engine import EngineSession
from repro.engine.cache import code_digest
from repro.engine.session import CODE_TAG_NAME, LEDGER_NAME
from tests.engine.test_delta import grow_corpus_dir

CHECKOUT_SRC = Path(__file__).resolve().parents[2] / "src"

#: Reports, on stderr, how often the study computed the code digest.
DIGEST_PROBE = (
    "import sys\n"
    "import repro.cli\n"
    "from repro.engine.cache import code_digest\n"
    "status = repro.cli.main(sys.argv[1:])\n"
    "print('digests', code_digest.cache_info().misses, file=sys.stderr)\n"
    "sys.exit(status)\n")


def run_python(src: Path, *argv: str,
               cwd: Path) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh process importing ``repro`` from
    ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result


def run_cli(src: Path, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    return run_python(src, "-m", "repro.cli", *argv, cwd=cwd)


def stored(cache: Path) -> tuple[int, int]:
    """``(entries, checkpoints)`` under a cache dir."""
    return (len(list(cache.glob("objects/*/*.pkl"))),
            len(list(cache.glob("delta/*/*.ckpt"))))


def cache_cell(stderr: str) -> tuple[int, int]:
    """``(hits, misses)`` of the records row of a ``--timings`` table."""
    match = re.search(r"^records .*?\| (\d+) hit / (\d+) miss", stderr,
                      re.M)
    assert match, stderr
    return int(match[1]), int(match[2])


@pytest.fixture(scope="module")
def edited_src(tmp_path_factory) -> Path:
    """A copy of the package with ``TOP_BAND_FRACTION = 0.8``."""
    src = tmp_path_factory.mktemp("edited") / "src"
    shutil.copytree(CHECKOUT_SRC / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    landmarks = src / "repro" / "metrics" / "landmarks.py"
    text = landmarks.read_text()
    assert text.count("TOP_BAND_FRACTION = 0.9\n") == 1
    landmarks.write_text(text.replace("TOP_BAND_FRACTION = 0.9\n",
                                      "TOP_BAND_FRACTION = 0.8\n"))
    return src


@pytest.fixture
def corpus(tmp_path) -> Path:
    """8 projects of the default corpus, one per pattern, as a
    ``dir:``."""
    root = tmp_path / "corpus"
    assert main(["corpus", "export", str(root), "--limit", "8"]) == 0
    return root


class TestCodeDigest:
    def test_equal_across_processes(self, tmp_path):
        script = ("from repro.engine.cache import code_digest; "
                  "print(code_digest())")
        printed = {run_python(CHECKOUT_SRC, "-c", script,
                              cwd=tmp_path).stdout.strip()
                   for _ in range(2)}
        assert printed == {code_digest()}

    def test_one_byte_edit_of_any_module_moves_it(self, tmp_path,
                                                  monkeypatch):
        root = tmp_path / "repro"
        shutil.copytree(CHECKOUT_SRC / "repro", root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(repro, "__file__", str(root / "__init__.py"))
        digest = code_digest.__wrapped__  # uncached: re-reads the files
        base = digest()
        assert base == code_digest()
        modules = sorted(root.rglob("*.py"))
        seen = {base}
        for module in modules:
            data = module.read_bytes()
            module.write_bytes(data + b" ")
            seen.add(digest())
            module.write_bytes(data)
        assert len(seen) == len(modules) + 1
        assert digest() == base

    def test_computed_only_for_a_cache_dir(self, corpus, tmp_path):
        """A cache-less study never computes the digest; a cached one
        computes it once per process, for every key and checkpoint."""
        spec = f"dir:{corpus}"
        plain = run_python(CHECKOUT_SRC, "-c", DIGEST_PROBE, "study",
                           "--source", spec, cwd=tmp_path)
        assert plain.stderr.splitlines()[-1] == "digests 0"
        cached = run_python(CHECKOUT_SRC, "-c", DIGEST_PROBE, "study",
                            "--source", spec, "--cache-dir",
                            str(tmp_path / "cache"), cwd=tmp_path)
        assert cached.stderr.splitlines()[-1] == "digests 1"
        assert cached.stdout == plain.stdout


class TestStoredResultsFollowTheCode:
    def test_edited_tree_misses_every_record(self, edited_src, corpus,
                                             tmp_path):
        spec = f"dir:{corpus}"
        cache = str(tmp_path / "cache")
        study = ("study", "--source", spec, "--cache-dir", cache,
                 "--timings")
        first = run_cli(CHECKOUT_SRC, *study, cwd=tmp_path)
        again = run_cli(CHECKOUT_SRC, *study, cwd=tmp_path)
        assert (cache_cell(first.stderr), cache_cell(again.stderr)) \
            == ((0, 8), (8, 0))
        edited = run_cli(edited_src, *study, cwd=tmp_path)
        assert cache_cell(edited.stderr) == (0, 8)
        cold = run_cli(edited_src, "study", "--source", spec,
                       cwd=tmp_path)
        assert cold.stdout != first.stdout  # the edit moves the report
        assert edited.stdout == cold.stdout

    def test_edited_tree_resumes_no_checkpoint(self, edited_src, corpus,
                                               tmp_path):
        spec = f"dir:{corpus}"
        cache = tmp_path / "cache"
        run_cli(CHECKOUT_SRC, "study", "--source", spec, "--cache-dir",
                str(cache), cwd=tmp_path)
        assert stored(cache) == (8, 8)
        grow_corpus_dir(corpus, [0, 1], 2)
        refreshed = run_cli(edited_src, "refresh", "--source", spec,
                            "--cache-dir", str(cache), "--timings",
                            cwd=tmp_path)
        assert "delta: 0 unchanged / 0 appended / 0 rewritten; " \
               "versions: 0 reused / 0 parsed" in refreshed.stderr
        # Only what the edited tree stored remains.
        assert stored(cache) == (8, 8)
        edited_digest = run_python(
            edited_src, "-c", "from repro.engine.cache import "
            "code_digest; print(code_digest())", cwd=tmp_path).stdout
        assert (cache / CODE_TAG_NAME).read_text() \
            == edited_digest.strip() != code_digest()
        cold = run_cli(edited_src, "study", "--source", spec,
                       cwd=tmp_path)
        assert refreshed.stdout == cold.stdout

    def test_a_digest_change_deletes_only_store_files(self, tmp_path):
        cache = tmp_path / "cache"
        keep = [cache / LEDGER_NAME, cache / "objects" / "ab" / "notes.txt",
                cache / "objects" / "README", cache / "corrupt" / "x.pkl",
                cache / "journal" / "r1.jsonl"]
        drop = [cache / "objects" / "ab" / f"{'ab' * 32}.pkl",
                cache / "delta" / "cd" / f"{'cd' * 32}.ckpt"]
        for path in keep + drop:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"stored by other code")
        (cache / CODE_TAG_NAME).write_text("0" * 64)
        with EngineSession() as session:
            session.cache_for(cache)
        assert [path.exists() for path in keep + drop] \
            == [True] * len(keep) + [False] * len(drop)
        assert (cache / CODE_TAG_NAME).read_text() == code_digest()
        # The tag now matches: reopening keeps what the code stored.
        for path in drop:
            path.write_bytes(b"stored by this code")
        with EngineSession() as session:
            session.cache_for(cache)
        assert all(path.exists() for path in keep + drop)
