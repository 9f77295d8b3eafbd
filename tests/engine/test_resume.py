"""Crash-safe runs: kill/interrupt/enospc faults, resume, shared dirs.

The acceptance bar of the crash-safety layer:

* graceful interrupt — an injected SIGINT-equivalent stops dispatch,
  drains in-flight work into cache + journal, flushes the ledger and
  surfaces :class:`RunInterrupted` with the resumable run id;
* byte-identical resume — a run SIGKILLed mid-map (a real ``kill -9``
  of a ``--jobs 2`` subprocess) resumes to output byte-identical to an
  uninterrupted cold run, with at least one chunk replayed from the
  journal rather than recomputed;
* ENOSPC degradation — when cache and journal writes start failing the
  run completes memory-only with identical output and the failure
  surfaced in counters, never an abort;
* shared cache dirs — two concurrent sessions pointing at one
  ``--cache-dir`` interleave safely without a lock: every ledger row
  lands whole.
"""

import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import (
    EngineSession,
    FaultPlan,
    StudyConfig,
    append_line,
    execute_study_from_source,
    read_journal,
    read_ledger,
    read_ledger_report,
    resumable_runs,
)
from repro.engine.session import LEDGER_NAME
from repro.errors import RunInterrupted
from repro.report.markdown import markdown_report
from repro.sources import CorpusDirSource, SyntheticSource, export_corpus_dir
from tests.conftest import SMALL_POPULATION

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

#: Dispatched mid-corpus (10th of 16, see SMALL_POPULATION): a fault
#: fired at its dispatch point leaves earlier work journaled and later
#: work genuinely undone.
MID_SYNTHETIC = "quantum-steps-01"


@pytest.fixture(scope="module")
def source():
    return SyntheticSource(seed=99, population=SMALL_POPULATION,
                           with_exceptions=False)


def study(source, session=None, **kwargs):
    return execute_study_from_source(source, StudyConfig(**kwargs),
                                     session=session)


class TestGracefulInterrupt:
    def test_interrupt_drains_journals_and_resumes(self, source,
                                                   tmp_path):
        cache_dir = tmp_path / "cache"
        config = StudyConfig(
            cache_dir=cache_dir,
            faults=FaultPlan.parse(f"interrupt@{MID_SYNTHETIC}"))
        with pytest.raises(RunInterrupted) as err:
            execute_study_from_source(source, config)
        run_id = err.value.run_id
        assert run_id and run_id.startswith("r")
        assert str(run_id) in str(err.value)

        # The journal holds the drained chunks, marked interrupted.
        info = read_journal(cache_dir, run_id)
        assert info.status == "interrupted"
        assert 0 < info.items < len(source)
        assert [i.run_id for i in resumable_runs(cache_dir)] == [run_id]

        # The interrupted run still landed a ledger row.
        rows = read_ledger(cache_dir)
        assert rows[-1]["interrupted"] is True
        assert rows[-1]["run_uid"] == run_id

        # Resume (without the fault plan!) completes byte-identically.
        resumed, report = execute_study_from_source(
            source, dataclasses.replace(config, faults=None,
                                        resume_from=run_id))
        cold, _ = study(source)
        assert markdown_report(resumed) == markdown_report(cold)
        assert report.resumed_from == run_id
        assert report.journal_replayed >= 1
        assert report.journal_replayed_items == info.items
        assert read_journal(cache_dir, report.run_uid).status \
            == "complete"

    def test_interrupt_with_jobs_drains_in_flight(self, source,
                                                  tmp_path):
        cache_dir = tmp_path / "cache"
        config = StudyConfig(
            cache_dir=cache_dir, jobs=2,
            faults=FaultPlan.parse(f"interrupt@{MID_SYNTHETIC}"))
        with pytest.raises(RunInterrupted) as err:
            execute_study_from_source(source, config)
        info = read_journal(cache_dir, err.value.run_id)
        assert info.status == "interrupted"
        assert info.items > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_row_lists_the_stage_it_stopped_in(
            self, source, tmp_path, jobs):
        cache_dir = tmp_path / "cache"
        config = StudyConfig(
            cache_dir=cache_dir, jobs=jobs,
            faults=FaultPlan.parse(f"interrupt@{MID_SYNTHETIC}"))
        with pytest.raises(RunInterrupted) as err:
            execute_study_from_source(source, config)
        info = read_journal(cache_dir, err.value.run_id)
        row = read_ledger(cache_dir)[-1]
        assert row["interrupted"] is True
        assert [stage["stage"] for stage in row["stages"]] == ["records"]
        # The fault fires as its item is taken; the stop is noticed
        # before the next one. Each item taken is one miss of the cold
        # cache, and every harvested one was journaled.
        taken = list(source.project_ids()).index(MID_SYNTHETIC) + 1
        assert row["stages"][0]["items"] == row["items"] == taken
        assert row["cache_misses"] == row["hot_misses"] == taken
        assert 1 <= info.items <= taken
        assert row["journal_chunks"] == len(info.chunks)
        if jobs == 1:
            # Serially, the item the stop landed on still completes.
            assert info.items == taken

    def test_resume_against_changed_source_refused(self, source,
                                                   tmp_path):
        from repro.errors import EngineError
        cache_dir = tmp_path / "cache"
        config = StudyConfig(
            cache_dir=cache_dir,
            faults=FaultPlan.parse(f"interrupt@{MID_SYNTHETIC}"))
        with pytest.raises(RunInterrupted) as err:
            execute_study_from_source(source, config)
        other = SyntheticSource(seed=7, population=SMALL_POPULATION,
                                with_exceptions=False)
        with pytest.raises(EngineError, match="cannot resume"):
            execute_study_from_source(
                other, dataclasses.replace(config, faults=None,
                                           resume_from=err.value.run_id))

    def test_resume_without_cache_dir_refused(self):
        from repro.errors import EngineError
        with pytest.raises(EngineError, match="resume needs a cache"):
            StudyConfig(resume_from="rdeadbeef0000")


class TestEnospcDegradation:
    def test_run_completes_memory_only_with_identical_output(
            self, source, tmp_path):
        clean, _ = study(source)
        degraded, report = study(
            source, cache_dir=tmp_path / "cache",
            faults=FaultPlan.parse("enospc@flatliner-01"))
        assert markdown_report(degraded) == markdown_report(clean)
        assert report.write_failures > 0
        assert report.journal_degraded

    def test_no_fault_run_has_no_write_failures(self, source, tmp_path):
        _, report = study(source, cache_dir=tmp_path / "cache")
        assert report.write_failures == 0
        assert not report.journal_degraded
        assert report.journal_chunks > 0


class TestKillMinusNine:
    """The full differential: SIGKILL a real subprocess mid-map."""

    def run_cli(self, tmp_path, *argv, tag="run"):
        """Run the CLI with stdout/stderr captured into files.

        A hard-killed parent (the ``kill`` fault is a real in-process
        ``kill -9``) orphans its forked pool workers, which inherit
        any stdout pipe and would keep ``communicate()``-style capture
        waiting for an EOF that never comes. Files sidestep that, and
        the subprocess runs in its own session so the orphans can be
        reaped as a group afterwards — exactly the cleanup a crashed
        real-world run needs too.
        """
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep \
            + env.get("PYTHONPATH", "")
        out_path = tmp_path / f"{tag}.out"
        err_path = tmp_path / f"{tag}.err"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv],
                stdout=out, stderr=err, env=env, cwd=tmp_path,
                start_new_session=True)
            try:
                returncode = process.wait(timeout=120)
            finally:
                try:  # reap orphaned pool workers of a killed parent
                    os.killpg(process.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        return subprocess.CompletedProcess(
            process.args, returncode,
            out_path.read_text(), err_path.read_text())

    def test_kill_then_resume_is_byte_identical(self, small_corpus,
                                                tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "corpus")
        target = list(CorpusDirSource(root).project_ids())[-1]
        cache = tmp_path / "cache"
        spec = f"dir:{root}"

        killed = self.run_cli(tmp_path, "study", "--source", spec,
                              "--jobs", "2", "--cache-dir", str(cache),
                              "--fault-plan", f"kill@{target}",
                              tag="killed")
        assert killed.returncode == 137, killed.stderr

        # The SIGKILLed run left a journal with completed chunks.
        runs = resumable_runs(cache)
        assert len(runs) == 1
        info = runs[0]
        assert info.status == "aborted"  # no end record: hard death
        assert info.items > 0

        resumed = self.run_cli(tmp_path, "study", "--source", spec,
                               "--jobs", "2", "--cache-dir", str(cache),
                               "--resume", info.run_id, tag="resumed")
        assert resumed.returncode == 0, resumed.stderr

        cold = self.run_cli(tmp_path, "study", "--source", spec,
                            tag="cold")
        assert cold.returncode == 0, cold.stderr
        assert resumed.stdout == cold.stdout

        # The resumed run's ledger row proves journal replay happened.
        row = read_ledger(cache)[-1]
        assert row["resumed_from"] == info.run_id
        assert row["journal_replayed"] >= 1
        assert row["interrupted"] is False

    def test_sigterm_mid_run_exits_130_with_hint(self, small_corpus,
                                                 tmp_path):
        root = export_corpus_dir(small_corpus, tmp_path / "corpus")
        cache = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep \
            + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "study",
             "--source", f"dir:{root}", "--jobs", "2",
             "--cache-dir", str(cache)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=tmp_path)
        # Wait until at least one chunk is journaled, then SIGTERM.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            journals = list(resumable_runs(cache))
            if journals and journals[0].items > 0:
                break
            if process.poll() is not None:
                break
            time.sleep(0.05)
        process.send_signal(signal.SIGTERM)
        _, stderr = process.communicate(timeout=60.0)
        if process.returncode == 0:
            pytest.skip("run finished before SIGTERM landed")
        assert process.returncode == 130, stderr
        match = re.search(r"resume with: repro-schema study --resume "
                          r"(r[0-9a-f]{12})", stderr)
        assert match, stderr
        assert read_journal(cache, match.group(1)).status \
            == "interrupted"


class TestSharedCacheDir:
    def test_two_concurrent_sessions_ledger_safely(self, source,
                                                   tmp_path):
        cache_dir = tmp_path / "cache"
        errors = []

        def run():
            try:
                with EngineSession() as session:
                    study(source, session, cache_dir=cache_dir)
            except BaseException as exc:  # noqa: BLE001 - test capture
                errors.append(exc)

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        records, torn = read_ledger_report(cache_dir)
        assert len(records) == 2
        assert torn == []
        digests = {row["result_digest"] for row in records}
        assert len(digests) == 1  # same study, same bytes

    def test_unterminated_last_line_is_an_append_in_flight(self,
                                                           tmp_path):
        ledger = tmp_path / LEDGER_NAME
        row = json.dumps({"run_id": 1}) + "\n"
        # A row whose first bytes are visible but whose newline is not
        # yet: neither a record nor torn.
        ledger.write_text(row + row[:7], encoding="utf-8")
        assert read_ledger_report(tmp_path) == ([{"run_id": 1}], [])
        # A newline-terminated garbage line is still reported.
        ledger.write_text(row + "{not json\n" + row, encoding="utf-8")
        assert read_ledger_report(tmp_path) \
            == ([{"run_id": 1}, {"run_id": 1}], [2])

    def test_reader_never_sees_torn_rows_during_writes(self, tmp_path):
        ledger = tmp_path / LEDGER_NAME
        row = (json.dumps({"run_id": 1, "payload": "x" * 256})
               + "\n").encode("utf-8")
        # Each read parses the whole file, so the writer is bounded: an
        # unbounded one grows the file (and every read) as fast as the
        # scheduler lets it.
        max_rows = 20_000
        reading = threading.Event()
        stop = threading.Event()

        def write():
            reading.wait()
            for _ in range(max_rows):
                if stop.is_set():
                    return
                append_line(ledger, row)

        append_line(ledger, row)
        writer = threading.Thread(target=write)
        writer.start()
        during = []  # row counts of reads made while the writer ran
        try:
            for _ in range(200):
                records, torn = read_ledger_report(tmp_path)
                reading.set()
                assert torn == []
                if not writer.is_alive():
                    break
                during.append(len(records))
        finally:
            reading.set()
            stop.set()
            writer.join()
        assert during == sorted(during)  # append-only, whole rows
        assert len(set(during)) > 1  # the reads overlapped the appends
        assert len(read_ledger_report(tmp_path)[0]) <= max_rows + 1
