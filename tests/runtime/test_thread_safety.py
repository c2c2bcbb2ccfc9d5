"""Thread-safety regression tests for the state the serve pool shares.

The serving layer points many worker threads at ONE ContractionRuntime,
so the plan cache, the operand/table cache, counter aggregation and the
per-call record path must hold up under concurrent mutation.  These
tests hammer each from a thread pool and assert exact, loss-free
outcomes — before the internal locks existed they failed with lost
updates, corrupted LRU state, or interleaved JSON writes.
"""

import json
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import contract
from repro.analysis.counters import Counters
from repro.data.random_tensors import random_coo
from repro.machine.specs import DESKTOP
from repro.runtime import ContractionRuntime, PlanCache
from repro.runtime.plan_cache import CachedPlan

N_THREADS = 8


def run_threads(target, n=N_THREADS):
    threads = [threading.Thread(target=target, args=(k,)) for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def sig(key: str) -> SimpleNamespace:
    # PlanCache only reads `.key` off the signature object.
    return SimpleNamespace(key=key)


def make_plan() -> CachedPlan:
    return CachedPlan(
        accumulator="sparse", tile_l=64, tile_r=64,
        machine_name=DESKTOP.name,
    )


class TestPlanCacheConcurrency:
    def test_put_get_hammer_keeps_exact_tallies(self):
        cache = PlanCache(maxsize=1024)
        per_thread = 50

        def worker(k):
            for i in range(per_thread):
                s = sig(f"t{k}/p{i}")
                cache.put(s, make_plan())
                assert cache.get(s) is not None

        run_threads(worker)
        stats = cache.stats()
        assert stats["entries"] == N_THREADS * per_thread
        assert stats["hits"] == N_THREADS * per_thread
        assert stats["misses"] == 0

    def test_concurrent_eviction_respects_maxsize(self):
        cache = PlanCache(maxsize=16)

        def worker(k):
            for i in range(100):
                s = sig(f"t{k}/p{i}")
                cache.put(s, make_plan())
                cache.get(s)
                assert len(cache) <= 16

        run_threads(worker)
        assert len(cache) <= 16

    def test_concurrent_saves_produce_valid_json(self, tmp_path):
        """Interleaved save() calls must never corrupt the file — the
        whole tmp-write + rename is one critical section."""
        path = tmp_path / "plans.json"
        cache = PlanCache(maxsize=64, path=str(path))
        for i in range(20):
            cache.put(sig(f"seed/{i}"), make_plan())

        def worker(k):
            for i in range(10):
                cache.put(sig(f"t{k}/p{i}"), make_plan())
                cache.save()

        run_threads(worker)
        payload = json.loads(path.read_text())
        reloaded = PlanCache(maxsize=64, path=str(path))
        assert reloaded.load_error is None
        assert len(reloaded) > 0
        assert payload["entries"]


class TestCountersConcurrency:
    def test_merge_from_threads_loses_nothing(self):
        total = Counters()
        per_thread = 200

        def worker(k):
            for _ in range(per_thread):
                local = Counters()
                local.hash_queries += 3
                local.data_volume += 2
                total.merge(local)

        run_threads(worker)
        assert total.hash_queries == 3 * N_THREADS * per_thread
        assert total.data_volume == 2 * N_THREADS * per_thread

    def test_snapshot_during_merges_is_consistent(self):
        total = Counters()
        stop = threading.Event()
        seen_bad = []

        def merger(_):
            while not stop.is_set():
                local = Counters()
                # Equal bumps: every consistent snapshot has equal tallies.
                local.hash_queries += 1
                local.data_volume += 1
                total.merge(local)

        readers = [threading.Thread(target=merger, args=(k,))
                   for k in range(4)]
        for t in readers:
            t.start()
        for _ in range(200):
            snap = total.snapshot()
            if snap["hash_queries"] != snap["data_volume"]:
                seen_bad.append(snap)
        stop.set()
        for t in readers:
            t.join()
        assert not seen_bad


class TestSharedRuntimeConcurrency:
    @pytest.fixture
    def problems(self):
        out = []
        for k in range(3):
            a = random_coo((20, 16 + 2 * k), nnz=60, seed=10 + 2 * k)
            b = random_coo((16 + 2 * k, 12), nnz=50, seed=11 + 2 * k)
            out.append((a, b, ((1, 0),)))
        return out

    def test_concurrent_contracts_are_correct_and_recorded(self, problems):
        runtime = ContractionRuntime(machine=DESKTOP, calibrate=False)
        expected = [contract(a, b, list(p)) for a, b, p in problems]
        repeats = 6
        failures = []

        def worker(k):
            a, b, p = problems[k % len(problems)]
            want = expected[k % len(problems)]
            for _ in range(repeats):
                out, record = runtime.contract(a, b, p, return_record=True)
                # return_record hands back THIS call's record, so the
                # check holds under concurrency.
                if record.output_nnz != want.nnz:
                    failures.append("wrong record")
                if not (
                    np.array_equal(out.coords, want.coords)
                    and np.array_equal(out.values, want.values)
                ):
                    failures.append("wrong result")

        run_threads(worker, n=6)
        assert not failures
        assert runtime.metrics()["calls"] == 6 * repeats
