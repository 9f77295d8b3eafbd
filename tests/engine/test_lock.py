"""Atomic line appends: the one coordination shared cache dirs need.

A cache dir's only file with several writers is the run ledger, and
each of its rows is one :func:`append_line` — one ``write`` on an
``O_APPEND`` descriptor — so concurrent sessions need no lock.
"""

import json
import random
import threading
from pathlib import Path

import pytest

from repro.engine.session import append_line
from repro.pools import pool_context

#: The multi-process test's writers and rows per writer.
WRITERS, ROWS = 4, 300


def _append_rows(path: str, writer: int, start) -> None:
    """One writer process: ``ROWS`` JSON rows of 2–8 KB, one append
    each, every 10th fsynced (as ledger rows are)."""
    start.wait(timeout=30)
    rng = random.Random(writer)
    for index in range(ROWS):
        row = {"writer": writer, "index": index,
               "pad": "x" * rng.randint(2000, 8000)}
        append_line(Path(path), (json.dumps(row) + "\n").encode(),
                    fsync=index % 10 == 0)


class TestAppendLine:
    def test_appends_whole_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        append_line(path, b"one\n")
        append_line(path, b"two\n", fsync=True)
        assert path.read_bytes() == b"one\ntwo\n"

    def test_concurrent_appends_never_tear(self, tmp_path):
        path = tmp_path / "log.jsonl"
        line_count, writers = 200, 4

        def write(tag):
            for index in range(line_count):
                append_line(path, f"{tag}:{index:04d}\n".encode())

        threads = [threading.Thread(target=write, args=(t,))
                   for t in range(writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = path.read_bytes().splitlines()
        assert len(lines) == line_count * writers
        # Every line is exactly one writer's record — no interleaving.
        assert all(line.count(b":") == 1 and len(line) == 6
                   for line in lines)

    def test_concurrent_processes_leave_whole_rows(self, tmp_path):
        # Rows of several KB cross page boundaries, as ledger rows that
        # carry failure summaries do.
        path = tmp_path / "ledger.jsonl"
        context = pool_context()
        start = context.Event()
        writers = [context.Process(target=_append_rows,
                                   args=(str(path), writer, start))
                   for writer in range(WRITERS)]
        try:
            for process in writers:
                process.start()
            start.set()
            for process in writers:
                process.join(timeout=120)
            assert [process.exitcode for process in writers] \
                == [0] * WRITERS
        finally:
            for process in writers:
                if process.is_alive():
                    process.kill()
                    process.join()
        lines = path.read_bytes().split(b"\n")
        assert lines.pop() == b""
        rows = [json.loads(line) for line in lines]
        assert len(rows) == WRITERS * ROWS
        assert sorted((row["writer"], row["index"]) for row in rows) \
            == [(writer, index) for writer in range(WRITERS)
                for index in range(ROWS)]

    def test_missing_parent_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            append_line(tmp_path / "nowhere" / "log.jsonl", b"x\n")
