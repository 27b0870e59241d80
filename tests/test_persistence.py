"""Tests for the shared cache-file machinery (``repro.persistence``)."""

import json
import threading
import time

import pytest

from repro import persistence


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.json"
        persistence.atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        persistence.atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_leaves_no_temporary_files(self, tmp_path):
        path = tmp_path / "out.json"
        persistence.atomic_write_text(path, "x" * 4096)
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.json"
        persistence.atomic_write_text(path, "ok")
        assert path.read_text() == "ok"


class TestCacheFileEnvelope:
    FMT = "repro-test-cache"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        entries = [{"key": [1, 2], "value": 3.5}]
        assert persistence.write_cache_file(path, self.FMT, 1, entries) == 1
        assert persistence.read_cache_entries(path, self.FMT, 1) == entries

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert persistence.read_cache_entries(
            missing, self.FMT, 1, missing_ok=True
        ) is None
        with pytest.raises(FileNotFoundError):
            persistence.read_cache_entries(missing, self.FMT, 1)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1, "entries": []}')
        with pytest.raises(ValueError, match="not a repro-test-cache"):
            persistence.read_cache_entries(path, self.FMT, 1)

    def test_unknown_version_rejected(self, tmp_path):
        """A future version-2 file must fail loudly, never be half-parsed."""
        path = tmp_path / "future.json"
        persistence.write_cache_file(path, self.FMT, 2, [{"new-schema": True}])
        with pytest.raises(ValueError, match="unsupported .* version 2"):
            persistence.read_cache_entries(path, self.FMT, 1)

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "unversioned.json"
        path.write_text(json.dumps({"format": self.FMT, "entries": []}))
        with pytest.raises(ValueError, match="unsupported"):
            persistence.read_cache_entries(path, self.FMT, 1)

    def test_kind_names_error_messages(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "x", "version": 1, "entries": []}')
        with pytest.raises(ValueError, match="not a widget cache file"):
            persistence.read_cache_entries(path, self.FMT, 1, kind="widget cache")


class TestKeyCodecs:
    def test_round_trip_nested_tuples(self):
        key = ((1, 2), ((3, 4), (5, 6)), "name", 7.5)
        encoded = persistence.listify(key)
        assert encoded == [[1, 2], [[3, 4], [5, 6]], "name", 7.5]
        assert persistence.tuplify(json.loads(json.dumps(encoded))) == key

    def test_scalars_pass_through(self):
        assert persistence.listify(3) == 3
        assert persistence.tuplify("abc") == "abc"


class TestMergeKeyIdentity:
    """Keys equal under Python ``==`` but distinct as JSON stay distinct.

    ``0 == 0.0 == False`` and ``1 == 1.0 == True``, so a merge indexed by
    raw key values would collapse them into one record; every backend
    must keep one record per canonical key text, as SQLite always did.
    """

    @pytest.mark.parametrize("backend", persistence.BACKENDS)
    @pytest.mark.parametrize("spellings", [(0, 0.0, False), (1, 1.0, True)])
    def test_equal_but_distinct_keys_survive_merge(self, tmp_path, backend, spellings):
        path = f"{backend}:{tmp_path / 'store'}"
        records = [{"key": [value], "value": repr(value)} for value in spellings]
        for record in records:
            persistence.union_merge_save(
                path, "repro-test-cache", 1, [record], lambda r: tuple(r["key"])
            )
        # Re-merging the whole batch at once must not collapse them either.
        count = persistence.union_merge_save(
            path, "repro-test-cache", 1, records, lambda r: tuple(r["key"])
        )
        loaded = persistence.read_cache_entries(path, "repro-test-cache", 1)
        assert count == len(spellings)
        assert sorted(json.dumps(r["key"]) for r in loaded) == sorted(
            json.dumps([value]) for value in spellings
        )


class _DictCache:
    """Minimal cache speaking the save/merge protocol, for merge tests."""

    FMT = "repro-test-cache"

    def __init__(self, entries=None):
        self.entries = dict(entries or {})

    def _records(self):
        return [{"key": k, "value": v} for k, v in self.entries.items()]

    def save(self, path):
        return persistence.write_cache_file(path, self.FMT, 1, self._records())

    def merge_save(self, path):
        return persistence.union_merge_save(
            path, self.FMT, 1, self._records(), lambda record: record["key"]
        )

    def load(self, path, missing_ok=False):
        records = persistence.read_cache_entries(
            path, self.FMT, 1, missing_ok=missing_ok
        )
        if records is None:
            return 0
        loaded = 0
        for record in records:
            if record["key"] not in self.entries:
                self.entries[record["key"]] = record["value"]
                loaded += 1
        return loaded


class TestMergeLocking:
    def test_merge_save_extends_existing_file(self, tmp_path):
        path = tmp_path / "cache.json"
        _DictCache({"a": 1}).save(path)
        assert _DictCache({"b": 2}).merge_save(path) == 2
        merged = _DictCache()
        merged.load(path)
        assert merged.entries == {"a": 1, "b": 2}

    def test_merge_save_prefers_new_records_under_equal_keys(self, tmp_path):
        path = tmp_path / "cache.json"
        _DictCache({"a": 1, "b": 2}).save(path)
        _DictCache({"b": 20, "c": 30}).merge_save(path)
        merged = _DictCache()
        merged.load(path)
        assert merged.entries == {"a": 1, "b": 20, "c": 30}

    def test_merge_save_never_shrinks_to_the_producer(self, tmp_path):
        """The union happens at the file level: a producer holding only a
        few entries must not truncate a file holding many."""
        path = tmp_path / "cache.json"
        _DictCache({f"old-{i}": i for i in range(50)}).save(path)
        _DictCache({"new": 1}).merge_save(path)
        merged = _DictCache()
        assert merged.load(path) == 51

    def test_concurrent_merges_lose_no_entries(self, tmp_path):
        """The satellite regression: unlocked load-then-save merges let
        concurrent writers sharing one path silently drop each other's
        entries; the locked cycle must keep the union."""
        path = tmp_path / "cache.json"
        workers = 8
        barrier = threading.Barrier(workers)
        errors = []

        def merge(index):
            try:
                barrier.wait(timeout=10)
                _DictCache({f"worker-{index}": index}).merge_save(path)
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [
            threading.Thread(target=merge, args=(index,)) for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        final = _DictCache()
        final.load(path)
        assert final.entries == {f"worker-{i}": i for i in range(workers)}

    def test_lock_key_resolves_path_spellings(self, tmp_path, monkeypatch):
        """The regression: lock identity must be the *resolved* path, so
        ``./cache.json``, ``cache.json``, an absolute spelling, and a
        symlinked alias all contend on one lock instead of racing."""
        from repro.persistence.store import _lock_key

        monkeypatch.chdir(tmp_path)
        target = tmp_path / "cache.json"
        target.write_text("{}")
        link = tmp_path / "alias.json"
        link.symlink_to(target)
        spellings = ["cache.json", "./cache.json", str(target), link]
        assert {_lock_key(spelling) for spelling in spellings} == {str(target)}

    def test_lock_serializes_symlinked_aliases(self, tmp_path):
        """Behavioral version of the lock-key fix: writers locking the real
        path and a symlinked alias must never hold the lock together."""
        target = tmp_path / "cache.json"
        target.write_text("{}")
        link = tmp_path / "alias.json"
        link.symlink_to(target)
        active = []
        overlaps = []

        def critical(path, index):
            with persistence.cache_file_lock(path):
                active.append(index)
                time.sleep(0.002)  # widen the window a broken lock would race in
                if len(active) > 1:
                    overlaps.append(tuple(active))
                active.remove(index)

        threads = [
            threading.Thread(target=critical, args=(path, index))
            for index, path in enumerate([target, link] * 4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not overlaps

    def test_lock_serializes_threads(self, tmp_path):
        path = tmp_path / "cache.json"
        active = []
        overlaps = []

        def critical(index):
            with persistence.cache_file_lock(path):
                active.append(index)
                if len(active) > 1:
                    overlaps.append(tuple(active))
                active.remove(index)

        threads = [threading.Thread(target=critical, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not overlaps
