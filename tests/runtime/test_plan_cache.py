"""Unit tests for the plan cache and its structural signatures."""

import json

import numpy as np
import pytest

from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.data.random_tensors import random_coo
from repro.machine.specs import DESKTOP, SERVER
from repro.runtime.plan_cache import CachedPlan, PlanCache
from repro.runtime.signature import ProblemSignature, signature_for
from repro.tensors.coo import COOTensor


def make_plan(L=64, R=64, C=32, nnz=200):
    spec = ContractionSpec((L, C), (C, R), [(1, 0)])
    return spec, choose_plan(spec, nnz, nnz, DESKTOP)


def sig(n=0, machine=DESKTOP, nnz=50):
    """A distinct signature per n (varying an extent)."""
    return ProblemSignature(
        left_shape=(16 + n, 8),
        right_shape=(8, 12),
        pairs=((1, 0),),
        nnz_l=nnz,
        nnz_r=nnz,
        machine=(machine.name, machine.n_cores, machine.l3_bytes,
                 machine.l2_bytes_per_core, machine.word_bytes),
    )


class TestSignature:
    def test_same_problem_same_key(self):
        a = random_coo((10, 6, 8), nnz=40, seed=1)
        b = random_coo((8, 5), nnz=20, seed=2)
        s1 = signature_for(a, b, [(2, 0)], DESKTOP)
        s2 = signature_for(a, b, [(2, 0)], DESKTOP)
        assert s1 == s2
        assert s1.key == s2.key

    def test_permuted_coordinates_same_key(self):
        a = random_coo((10, 6, 8), nnz=40, seed=1)
        rng = np.random.default_rng(0)
        perm = rng.permutation(a.nnz)
        a_perm = COOTensor(a.coords[:, perm], a.values[perm], a.shape)
        b = random_coo((8, 5), nnz=20, seed=2)
        assert (signature_for(a, b, [(2, 0)], DESKTOP).key
                == signature_for(a_perm, b, [(2, 0)], DESKTOP).key)

    def test_changed_density_different_key(self):
        a_sparse = random_coo((10, 6, 8), nnz=20, seed=1)
        a_dense = random_coo((10, 6, 8), nnz=200, seed=1)
        b = random_coo((8, 5), nnz=20, seed=2)
        assert (signature_for(a_sparse, b, [(2, 0)], DESKTOP).key
                != signature_for(a_dense, b, [(2, 0)], DESKTOP).key)

    def test_machine_and_pairs_distinguish(self):
        a = random_coo((8, 8), nnz=30, seed=3)
        base = signature_for(a, a, [(0, 0)], DESKTOP)
        assert base.key != signature_for(a, a, [(0, 0)], SERVER).key
        assert base.key != signature_for(a, a, [(1, 1)], DESKTOP).key

    def test_overrides_distinguish(self):
        a = random_coo((8, 8), nnz=30, seed=3)
        auto = signature_for(a, a, [(0, 0)], DESKTOP)
        forced = signature_for(a, a, [(0, 0)], DESKTOP, accumulator="dense")
        tiled = signature_for(a, a, [(0, 0)], DESKTOP, tile_size=32)
        assert len({auto.key, forced.key, tiled.key}) == 3


class TestCachedPlan:
    def test_roundtrip_through_materialize(self):
        spec, plan = make_plan()
        cached = CachedPlan.from_plan(plan)
        revived = cached.materialize(spec)
        assert revived.accumulator == plan.accumulator
        assert (revived.tile_l, revived.tile_r) == (plan.tile_l, plan.tile_r)
        assert revived.machine_name == plan.machine_name
        assert revived.notes["source"] == "plan_cache"


class TestLRU:
    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(maxsize=2)
        _, plan = make_plan()
        cache.put(sig(0), plan)
        cache.put(sig(1), plan)
        # Touch sig(0) so sig(1) becomes the LRU entry.
        assert cache.get(sig(0)) is not None
        cache.put(sig(2), plan)
        assert sig(1) not in cache
        assert sig(0) in cache and sig(2) in cache
        assert cache.evictions == 1

    def test_reinsert_refreshes_recency(self):
        cache = PlanCache(maxsize=2)
        _, plan = make_plan()
        cache.put(sig(0), plan)
        cache.put(sig(1), plan)
        cache.put(sig(0), plan)  # refresh, no growth
        assert len(cache) == 2
        cache.put(sig(2), plan)
        assert sig(1) not in cache

    def test_hit_and_miss_accounting(self):
        cache = PlanCache(maxsize=4)
        _, plan = make_plan()
        assert cache.get(sig(0)) is None
        cache.put(sig(0), plan)
        assert cache.get(sig(0)) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "plans.json"
        cache = PlanCache(maxsize=8, path=path)
        _, plan = make_plan()
        cache.put(sig(0), plan)
        cache.put(sig(1), plan)
        cache.flush()

        revived = PlanCache(maxsize=8, path=path)
        assert len(revived) == 2
        assert revived.load_error is None
        entry = revived.get(sig(0))
        assert entry is not None
        assert entry == CachedPlan.from_plan(plan)

    def test_save_to_explicit_path(self, tmp_path):
        cache = PlanCache(maxsize=4)
        _, plan = make_plan()
        cache.put(sig(0), plan)
        target = cache.save(tmp_path / "explicit.json")
        assert json.loads(open(target).read())["version"] == 1

    def test_no_path_save_raises(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=4).save()

    def test_missing_file_starts_cold(self, tmp_path):
        cache = PlanCache(maxsize=4, path=tmp_path / "absent.json")
        assert len(cache) == 0
        assert cache.load_error is None

    def test_corrupted_file_recovers_cold(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text("{ this is not json")
        cache = PlanCache(maxsize=4, path=path)
        assert len(cache) == 0
        assert cache.load_error is not None
        # The cache must stay fully usable after the failed load.
        _, plan = make_plan()
        cache.put(sig(0), plan)
        assert cache.get(sig(0)) is not None
        cache.flush()
        assert PlanCache(maxsize=4, path=path).load_error is None

    def test_wrong_version_recovers_cold(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        cache = PlanCache(maxsize=4, path=path)
        assert len(cache) == 0
        assert "version" in cache.load_error

    def test_bad_entry_fields_recover_cold(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps(
            {"version": 1, "entries": [["k", {"bogus_field": 1}]]}
        ))
        cache = PlanCache(maxsize=4, path=path)
        assert len(cache) == 0
        assert cache.load_error is not None

    def test_load_respects_maxsize(self, tmp_path):
        path = tmp_path / "plans.json"
        big = PlanCache(maxsize=16, path=path)
        _, plan = make_plan()
        for n in range(6):
            big.put(sig(n), plan)
        big.flush()
        small = PlanCache(maxsize=3, path=path)
        assert len(small) == 3
        # The *most* recent entries survive the truncation.
        assert sig(5) in small and sig(3) in small
        assert sig(0) not in small


class TestWarmStart:
    """Cross-process plan reuse: one cache exports, another load()s."""

    def test_load_merges_under_live_entries(self, tmp_path):
        path = tmp_path / "shard_a.json"
        _, plan = make_plan()
        donor = PlanCache(maxsize=8)
        donor.put(sig(0), plan)
        donor.put(sig(1), plan)
        donor.save(path)

        fresh = PlanCache(maxsize=8)
        fresh.put(sig(1), plan)  # live entry must win over the file's
        live = fresh.get(sig(1))
        assert fresh.load(path) == 2
        assert len(fresh) == 2
        assert fresh.get(sig(0)) is not None
        assert fresh.get(sig(1)) == live

    def test_load_at_capacity_evicts_loaded_entries_first(self, tmp_path):
        path = tmp_path / "shard_a.json"
        _, plan = make_plan()
        donor = PlanCache(maxsize=8)
        donor.put(sig(2), plan)
        donor.put(sig(3), plan)
        donor.save(path)

        cache = PlanCache(maxsize=3)
        cache.put(sig(0), plan)
        cache.put(sig(1), plan)
        assert cache.load(path) == 2
        # Live decisions stay; the file's coldest entry is the overflow.
        assert sig(0) in cache and sig(1) in cache and sig(3) in cache
        assert sig(2) not in cache
        assert cache.evictions == 1

    def test_load_replace_drops_live_entries(self, tmp_path):
        path = tmp_path / "shard_a.json"
        _, plan = make_plan()
        donor = PlanCache(maxsize=8)
        donor.put(sig(0), plan)
        donor.save(path)

        fresh = PlanCache(maxsize=8)
        fresh.put(sig(5), plan)
        assert fresh.load(path, replace=True) == 1
        assert sig(0) in fresh and sig(5) not in fresh

    def test_load_corrupt_file_is_recorded_noop(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope")
        _, plan = make_plan()
        cache = PlanCache(maxsize=4)
        cache.put(sig(0), plan)
        assert cache.load(path) == 0
        assert cache.load_error is not None
        assert sig(0) in cache

    def test_load_missing_file_is_recorded_noop(self, tmp_path):
        """load() of a path that does not exist must not raise: it
        returns 0, records the problem, and leaves the cache usable."""
        _, plan = make_plan()
        cache = PlanCache(maxsize=4)
        cache.put(sig(0), plan)
        assert cache.load(tmp_path / "never_written.json") == 0
        assert "FileNotFoundError" in cache.load_error
        assert sig(0) in cache
        cache.put(sig(1), plan)
        assert cache.get(sig(1)) is not None

    def test_load_version_mismatch_falls_back_cold(self, tmp_path):
        """A cache file from a future format version merges nothing —
        the running process keeps its live entries and keeps working."""
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 2, "entries": []}))
        _, plan = make_plan()
        cache = PlanCache(maxsize=4)
        cache.put(sig(0), plan)
        assert cache.load(path) == 0
        assert "version" in cache.load_error
        assert sig(0) in cache

    def test_load_failure_never_poisons_later_loads(self, tmp_path):
        """A failed load must not wedge the cache: a subsequent load of
        a good file still warms it."""
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2")
        good = tmp_path / "good.json"
        _, plan = make_plan()
        donor = PlanCache(maxsize=8)
        donor.put(sig(3), plan)
        donor.save(good)

        cache = PlanCache(maxsize=4)
        assert cache.load(bad) == 0
        assert cache.load_error is not None
        assert cache.load(good) == 1
        assert sig(3) in cache

    def test_load_respects_maxsize(self, tmp_path):
        path = tmp_path / "big.json"
        _, plan = make_plan()
        donor = PlanCache(maxsize=16)
        for n in range(6):
            donor.put(sig(n), plan)
        donor.save(path)
        small = PlanCache(maxsize=3)
        small.load(path)
        assert len(small) == 3

    def test_runtime_warm_start_and_export(self, tmp_path):
        from repro.data.random_tensors import random_coo
        from repro.runtime import ContractionRuntime

        path = tmp_path / "plans.json"
        a = random_coo((24, 16), nnz=80, seed=41)
        b = random_coo((16, 20), nnz=80, seed=42)

        donor = ContractionRuntime(DESKTOP)
        donor.contract(a, b, [(1, 0)])
        assert donor.export_plans(path) == str(path)

        warmed = ContractionRuntime(DESKTOP)
        assert warmed.warm_start(path) == 1
        warmed.contract(a, b, [(1, 0)])
        assert warmed.counters.plan_cache_hits == 1
        assert warmed.counters.plan_cache_misses == 0


class TestPromotionEvictionInteraction:
    """Autotune promotions go through put_key; they must obey — not
    distort — the LRU contract."""

    def test_promotion_does_not_evict_hot_champion(self):
        # A full cache holds a hot champion (signature 0, freshly read)
        # and colder entries.  Promoting a challenger for a *different*
        # signature must displace the coldest entry, never the hot one.
        cache = PlanCache(maxsize=3)
        _, plan = make_plan()
        for n in range(3):
            cache.put(sig(n), plan)
        hot = sig(0)
        assert cache.get(hot) is not None  # refresh recency

        promoted = CachedPlan(
            accumulator="sparse", tile_l=16, tile_r=16,
            machine_name=DESKTOP.name)
        cache.put_key(sig(3).key, promoted)

        assert cache.peek_key(hot.key) is not None
        assert cache.peek_key(sig(1).key) is None  # coldest went
        assert cache.peek_key(sig(3).key) is promoted
        assert cache.evictions == 1

    def test_promotion_of_existing_key_refreshes_not_grows(self):
        cache = PlanCache(maxsize=2)
        _, plan = make_plan()
        cache.put(sig(0), plan)
        cache.put(sig(1), plan)
        promoted = CachedPlan(
            accumulator="dense", tile_l=32, tile_r=32,
            machine_name=DESKTOP.name)
        cache.put_key(sig(0).key, promoted)  # in-place champion swap
        assert cache.evictions == 0
        assert cache.peek_key(sig(0).key) is promoted
        # The swap refreshed sig(0): inserting a third entry now evicts
        # sig(1), the least recently touched.
        cache.put(sig(2), plan)
        assert cache.peek_key(sig(0).key) is promoted
        assert cache.peek_key(sig(1).key) is None

    def test_peek_key_does_not_refresh_recency(self):
        cache = PlanCache(maxsize=2)
        _, plan = make_plan()
        cache.put(sig(0), plan)
        cache.put(sig(1), plan)
        hits_before = cache.hits
        cache.peek_key(sig(0).key)  # a tuner snapshot, not a use
        assert cache.hits == hits_before
        cache.put(sig(2), plan)  # evicts sig(0): peek kept it cold
        assert cache.peek_key(sig(0).key) is None
        assert cache.peek_key(sig(1).key) is not None
