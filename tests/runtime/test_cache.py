"""Tests for the content-addressed on-disk result cache."""

from __future__ import annotations

import json

from repro.runtime import cache as cache_module
from repro.runtime.cache import NullCache, ResultCache, code_hash, open_cache


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        payload = {"tpr": 0.5, "runs": [1, 2, 3]}
        cache.put("ab" * 16, payload)
        assert cache.get("ab" * 16) == payload
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_on_absent_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" * 16) is None
        assert cache.misses == 1

    def test_empty_fingerprint_is_uncacheable(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("", {"x": 1})
        assert cache.get("") is None
        assert not any(tmp_path.iterdir())

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "ef" * 16
        cache.put(fp, {"x": 1})
        path = cache._path(fp)
        path.write_text("{truncated")
        assert cache.get(fp) is None
        assert cache.misses == 1

    def test_foreign_fingerprint_reads_as_miss(self, tmp_path):
        """An entry whose recorded fingerprint disagrees is rejected."""
        cache = ResultCache(tmp_path)
        fp_a, fp_b = "aa" * 16, "bb" * 16
        cache.put(fp_a, {"x": 1})
        target = cache._path(fp_b)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(cache._path(fp_a).read_text())
        assert cache.get(fp_b) is None

    def test_entry_from_other_code_reads_as_miss(self, tmp_path):
        """An entry stamped with another code hash — written by an older
        or an edited package — is recomputed, never served."""
        cache = ResultCache(tmp_path)
        fp = "cd" * 16
        cache.put(fp, {"x": 1})
        path = cache._path(fp)
        entry = json.loads(path.read_text())
        assert entry["code"] == code_hash()
        assert cache.get(fp) == {"x": 1}
        entry["code"] = "0" * 32
        path.write_text(json.dumps(entry))
        assert cache.get(fp) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_code_hash_follows_every_source_file(self, tmp_path, monkeypatch):
        package = tmp_path / "pkg"
        (package / "sub").mkdir(parents=True)
        (package / "a.py").write_text("A = 1\n")
        (package / "sub" / "b.py").write_text("B = 2\n")
        (package / "notes.txt").write_text("not source\n")
        monkeypatch.setattr(cache_module, "_PACKAGE_ROOT", package)
        digest = code_hash.__wrapped__
        before = digest()
        (package / "notes.txt").write_text("edited\n")
        assert digest() == before
        (package / "sub" / "b.py").write_text("B = 3\n")
        edited = digest()
        assert edited != before
        (package / "sub" / "b.py").rename(package / "b.py")
        assert digest() not in (before, edited)

    def test_write_is_atomic_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        fp = "12" * 16
        cache.put(fp, {"x": 1})
        entry = json.loads(cache._path(fp).read_text())
        assert entry["fingerprint"] == fp
        assert entry["payload"] == {"x": 1}
        # no stray tmp files left behind
        assert not list(tmp_path.glob("**/.tmp-*"))

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put("ab" * 16, {})
        cache.put("cd" * 16, {})
        assert len(cache) == 2


class TestOpenCache:
    def test_none_gives_null_cache(self):
        cache = open_cache(None)
        assert isinstance(cache, NullCache)
        assert cache.get("ab" * 16) is None

    def test_path_gives_result_cache(self, tmp_path):
        cache = open_cache(tmp_path)
        assert isinstance(cache, ResultCache)
