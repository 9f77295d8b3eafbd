"""Unit tests for the content-addressed result cache and its keys."""

import dataclasses
from datetime import datetime

import pytest

from repro import obs
from repro.corpus.generator import generate_corpus
from repro.engine import (
    MISS,
    ResultCache,
    canonical,
    fingerprint,
    source_record_key,
)
from repro.engine.cache import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    decode_entry,
    encode_entry,
)
from repro.errors import EngineError
from repro.history.commit import Commit
from repro.history.repository import SchemaHistory
from repro.labels.quantization import DEFAULT_SCHEME, LabelScheme
from repro.patterns.taxonomy import Pattern
from repro.sources import InMemorySource
from repro.sources.base import SourceHandle

POPULATION = {Pattern.FLATLINER: 1, Pattern.SIESTA: 1}


def record_key(item, scheme=DEFAULT_SCHEME, mode="corpus"):
    """The records-stage cache key of one in-memory project or history."""
    source = InMemorySource([item], mode=mode)
    (pid,) = source.project_ids()
    handle = SourceHandle(pid=pid, fingerprint=source.fingerprint(pid))
    return source_record_key(handle, (source, scheme))


@pytest.fixture(scope="module")
def project():
    return generate_corpus(seed=11, population=POPULATION,
                           with_exceptions=False).projects[0]


class TestFingerprint:
    def test_stable_across_calls(self):
        assert fingerprint("a", 1, [2.5, None]) \
            == fingerprint("a", 1, [2.5, None])

    def test_order_sensitive(self):
        assert fingerprint("a", "b") != fingerprint("b", "a")

    def test_dict_key_order_irrelevant(self):
        assert fingerprint({"x": 1, "y": 2}) \
            == fingerprint({"y": 2, "x": 1})

    def test_type_distinction(self):
        assert fingerprint("1") != fingerprint(1)

    def test_datetime_and_enum_supported(self):
        key = fingerprint(datetime(2020, 1, 1), Pattern.FLATLINER)
        assert key == fingerprint(datetime(2020, 1, 1),
                                  Pattern.FLATLINER)

    def test_unhashable_type_rejected(self):
        with pytest.raises(EngineError):
            canonical(object())

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(EngineError):
            canonical({1: "x"})


class TestRecordCacheKey:
    def test_stable_across_regeneration(self):
        """The same seed yields the same keys in a fresh process/run."""
        a = generate_corpus(seed=11, population=POPULATION,
                            with_exceptions=False)
        b = generate_corpus(seed=11, population=POPULATION,
                            with_exceptions=False)
        keys_a = [record_key(p) for p in a.projects]
        keys_b = [record_key(p) for p in b.projects]
        assert keys_a == keys_b

    def test_ddl_text_change_invalidates(self, project):
        old = project.history
        commits = list(old.commits)
        commits[0] = Commit(sha=commits[0].sha,
                            timestamp=commits[0].timestamp,
                            ddl_text=commits[0].ddl_text
                            + "\nCREATE TABLE sneaky (id INT);")
        touched = SchemaHistory(old.project_name, commits,
                                project_start=old.project_start,
                                project_end=old.project_end,
                                dialect=old.dialect)
        modified = dataclasses.replace(project, history=touched)
        assert record_key(project) != record_key(modified)

    def test_scheme_boundary_change_invalidates(self, project):
        shifted = LabelScheme(timing_bounds=(0.30, 0.75))
        assert record_key(project) != record_key(project, scheme=shifted)

    def test_code_digest_change_invalidates(self, project, monkeypatch):
        from repro.engine import study_plan
        key = record_key(project)
        monkeypatch.setattr(study_plan, "code_digest", lambda: "0" * 64)
        assert record_key(project) != key

    def test_history_key_tracks_window(self, project):
        history = project.history
        widened = SchemaHistory(
            history.project_name, list(history.commits),
            project_start=history.project_start,
            project_end=history.project_end.replace(
                year=history.project_end.year + 1),
            dialect=history.dialect)
        assert record_key(history, mode="histories") \
            != record_key(widened, mode="histories")


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = fingerprint("roundtrip")
        assert cache.get(key) is MISS
        assert cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert key in cache
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = fingerprint("corrupt")
        cache.put(key, [1, 2, 3])
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is MISS

    def test_unwritable_root_degrades_gracefully(self, tmp_path):
        # A *file* where the cache dir should be: every mkdir fails.
        blocker = tmp_path / "blocked"
        blocker.write_text("in the way")
        cache = ResultCache(blocker)
        before = obs.snapshot()
        assert cache.put(fingerprint("x"), 1) is None
        assert cache.get(fingerprint("x")) is MISS
        assert len(cache) == 0
        assert obs.since(before) == {"write_failures": 1}


class TestEnvelope:
    def test_roundtrip(self):
        value = {"records": [1, 2, 3], "when": datetime(2024, 1, 1)}
        assert decode_entry(encode_entry(value)) == value

    def test_header_names_version_and_checksum(self):
        header = encode_entry("x").split(b"\n", 1)[0]
        magic, version, digest = header.split(b" ")
        assert magic == ENVELOPE_MAGIC
        assert int(version) == ENVELOPE_VERSION
        assert len(digest) == 64  # sha256 hex

    @pytest.mark.parametrize("data", [
        b"",
        b"\x00garbage\x00",
        b"%repro-cache%",                      # no header newline
        b"%repro-cache% 1\npayload",           # too few header fields
        b"%repro-cache% x y\npayload",         # non-numeric version
    ])
    def test_garbled_envelopes_rejected(self, data):
        with pytest.raises(EngineError):
            decode_entry(data)

    def test_wrong_version_rejected(self):
        entry = encode_entry(42)
        header, payload = entry.split(b"\n", 1)
        fields = header.split(b" ")
        bumped = b" ".join([fields[0], b"99", fields[2]])
        with pytest.raises(EngineError):
            decode_entry(bumped + b"\n" + payload)

    def test_checksum_mismatch_rejected(self):
        entry = bytearray(encode_entry([1, 2, 3]))
        entry[-1] ^= 0xFF  # flip one payload byte
        with pytest.raises(EngineError):
            decode_entry(bytes(entry))

    def test_unpicklable_payload_rejected(self):
        # Valid checksum over bytes that are not a pickle at all.
        import hashlib
        payload = b"this is not a pickle"
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        entry = ENVELOPE_MAGIC + b" 1 " + digest + b"\n" + payload
        with pytest.raises(EngineError):
            decode_entry(entry)


class TestCacheSelfHealing:
    """Every corruption class yields miss + quarantine, never a crash."""

    def corrupted(self, tmp_path, mangle):
        cache = ResultCache(tmp_path)
        key = fingerprint("self-healing")
        cache.put(key, {"payload": list(range(10))})
        path = cache._path(key)
        mangle(path)
        return cache, key, path

    @pytest.mark.parametrize("mangle", [
        lambda p: p.write_bytes(b""),                       # zero-byte
        lambda p: p.write_bytes(p.read_bytes()[:-7]),       # truncated
        lambda p: p.write_bytes(
            p.read_bytes()[:-1] + b"\xff"),                 # bad checksum
        lambda p: p.write_bytes(
            p.read_bytes().replace(b"% 1 ", b"% 9 ", 1)),   # wrong version
        lambda p: p.write_bytes(b"\x00scribble\x00"),       # no envelope
    ], ids=["zero-byte", "truncated", "bad-checksum",
            "wrong-version", "scribbled"])
    def test_corruption_is_miss_plus_quarantine(self, tmp_path, mangle):
        cache, key, path = self.corrupted(tmp_path, mangle)
        before = obs.snapshot()
        assert cache.get(key) is MISS
        assert obs.since(before) == {"quarantined": 1}
        assert not path.exists()
        assert (cache.corrupt_dir / path.name).exists()

    def test_repopulation_after_quarantine(self, tmp_path):
        cache, key, _ = self.corrupted(
            tmp_path, lambda p: p.write_bytes(b""))
        before = obs.snapshot()
        assert cache.get(key) is MISS
        # The warm re-run recomputes and rewrites the slot.
        assert cache.put(key, "recomputed")
        assert cache.get(key) == "recomputed"
        assert obs.since(before) == {"quarantined": 1}

    def test_corrupt_entry_helper(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = fingerprint("inject")
        before = obs.snapshot()
        assert cache.corrupt_entry(key) is False  # nothing stored yet
        cache.put(key, 7)
        assert cache.corrupt_entry(key) is True
        assert cache.get(key) is MISS
        assert obs.since(before) == {"quarantined": 1}


class TestQuarantineCap:
    """The corrupt/ directory is bounded: oldest entries are pruned."""

    def test_prune_oldest_caps_directory(self, tmp_path):
        import os
        from repro.engine.cache import prune_oldest
        for index in range(6):
            path = tmp_path / f"f{index}.bin"
            path.write_bytes(b"x")
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
        assert prune_oldest(tmp_path, 4) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["f2.bin", "f3.bin", "f4.bin", "f5.bin"]
        assert prune_oldest(tmp_path, 4) == 0

    def test_prune_missing_directory_is_zero(self, tmp_path):
        from repro.engine.cache import prune_oldest
        assert prune_oldest(tmp_path / "nowhere", 4) == 0

    def test_quarantine_respects_cap(self, tmp_path):
        import os
        cache = ResultCache(tmp_path, quarantine_limit=2)
        before = obs.snapshot()
        for index in range(4):
            key = fingerprint("capped", index)
            cache.put(key, index)
            path = cache._path(key)
            path.write_bytes(b"scribbled")
            stamp = 1_000_000 + index
            os.utime(path, (stamp, stamp))
            assert cache.get(key) is MISS
        assert obs.since(before) == {"quarantined": 4, "pruned": 2}
        assert len(list(cache.corrupt_dir.iterdir())) == 2
