"""KeyedStore: the LRU, drift index, pins and JSON helpers every cache uses."""

import json
import sys
import threading

import pytest

from repro.errors import ConfigError
from repro.runtime.store import DRIFT_RTOL, KeyedStore, read_json, write_json


def pair_key(nnz_l, nnz_r):
    return f"L4x4|R4x4|P1:0|n{nnz_l},{nnz_r}|Mdesk|Aauto|T0"


def net_key(*nnz):
    return f"Eij,jk,kl->il|S4x4;4x4;4x4|n{','.join(map(str, nnz))}|Mdesk|Oauto"


class TestLRU:
    def test_least_recently_used_goes_first(self):
        store = KeyedStore(2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # "b" is now the coldest
        store.put("c", 3)
        assert [k for k, _ in store.items()] == ["a", "c"]
        assert store.peek("b") is None
        stats = store.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (1, 0, 1)

    def test_peek_changes_neither_recency_nor_tallies(self):
        store = KeyedStore(2)
        store.put("a", 1)
        store.put("b", 2)
        assert store.peek("a") == 1
        store.put("c", 3)
        assert store.peek("a") is None
        assert store.hits == store.misses == 0

    def test_get_or_put_inserts_once(self):
        store = KeyedStore(2)
        assert store.get_or_put("a", lambda: [1]) == [1]
        live = store.peek("a")
        assert store.get_or_put("a", lambda: [2]) is live
        assert (store.hits, store.misses) == (1, 1)

    def test_bad_size_is_a_config_error(self):
        with pytest.raises(ConfigError):
            KeyedStore(0)


class TestDrift:
    @pytest.mark.parametrize("key", [pair_key, net_key])
    def test_reuse_within_tolerance_and_reprice_beyond(self, key):
        n = 3 if key is net_key else 2
        store = KeyedStore(8, rekey=lambda k, v: (k, v[1]))
        store.put(key(*[100] * n), (key(*[100] * n), "plan"))
        far = [100] * (n - 1) + [101 + int(100 * DRIFT_RTOL)]
        assert store.get(key(*far)) is None
        assert store.drift_repriced == 1
        near = [100] * (n - 1) + [100 + int(100 * DRIFT_RTOL)]
        assert store.get(key(*near)) == (key(*near), "plan")
        assert store.drift_hits == 1
        assert store.get(key(*near)) is not None  # re-keyed: exact hit
        assert store.drift_hits == 1

    def test_keys_without_nnz_never_drift(self):
        store = KeyedStore(8)
        store.put("plain", 1)
        assert store.get("plain2") is None
        assert store.stats()["structures"] == 0


class TestPins:
    def test_pinned_entry_survives_eviction_then_rejoins(self):
        store = KeyedStore(2)
        store.put("a", 1)
        store.pin("a")
        store.put("b", 2)
        store.put("c", 3)  # "a" is coldest but pinned: "b" goes
        assert [k for k, _ in store.items()] == ["a", "c"]
        assert store.pinned_count() == 1
        store.unpin("a")  # back in the LRU, still the coldest
        assert store.pinned_count() == 0
        store.put("d", 4)
        assert [k for k, _ in store.items()] == ["c", "d"]

    def test_pin_before_insert_holds_from_the_insert(self):
        store = KeyedStore(1)
        store.pin("a")
        store.put("a", 1)
        store.put("b", 2)
        assert [k for k, _ in store.items()] == ["a"]

    def test_pins_are_refcounted_and_may_exceed_maxsize(self):
        store = KeyedStore(1)
        store.put("a", 1)
        store.pin("a")
        store.pin("a")
        store.pin("b")
        store.put("b", 2)  # both pinned: the store runs over maxsize
        assert len(store) == 2
        store.unpin("b")  # "b" rejoins the LRU as the only evictable entry
        assert [k for k, _ in store.items()] == ["a"]
        store.unpin("a")
        assert store.pinned_count() == 1  # "a" was pinned twice


class TestPersistence:
    @pytest.mark.parametrize("text", ["{ not json", json.dumps({"version": 9})])
    def test_corrupt_or_skewed_file_loads_cold(self, tmp_path, text):
        path = tmp_path / "cache.json"
        path.write_text(text)
        value, error = read_json(path, 1, lambda payload: payload["entries"])
        assert value is None and error

    def test_failed_write_keeps_the_old_file_and_no_scratch(self, tmp_path):
        path = write_json(tmp_path / "cache.json", {"version": 1})
        with pytest.raises(TypeError):
            write_json(path, {"version": 1, "entries": object()})
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        assert read_json(path, 1, lambda payload: payload) == ({"version": 1}, None)

    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path / "cache.json", {"version": 1, "entries": [1]})
        assert read_json(path, 1, lambda payload: payload["entries"]) == ([1], None)


def test_threads_keep_maxsize_and_exact_tallies():
    store = KeyedStore(16)
    oversize = []

    def worker(k):
        for i in range(200):
            store.put((k, i), i)
            store.get((k, i))
            store.get((k, i - 20))
            if len(store) > 16:
                oversize.append(len(store))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not oversize
    stats = store.stats()
    assert stats["entries"] == 16
    assert stats["evictions"] == 8 * 200 - 16
    assert stats["hits"] + stats["misses"] == 2 * 8 * 200


def test_threads_missing_together_share_one_inserted_value():
    store = KeyedStore(4)
    start = threading.Barrier(8)
    got = []

    def worker():
        start.wait()
        got.append(store.get_or_put("k", object))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(got) == 8 and all(value is got[0] for value in got)
    assert (store.hits, store.misses) == (7, 1)
