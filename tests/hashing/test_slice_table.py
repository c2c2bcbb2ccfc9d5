"""Unit and property tests for the SliceTable grouped map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.counters import Counters
from repro.hashing.slice_table import SliceTable


def build(keys, idx, values, **kw):
    return SliceTable(
        np.array(keys, dtype=np.int64),
        np.array(idx, dtype=np.int64),
        np.array(values, dtype=np.float64),
        **kw,
    )


class TestBasics:
    def test_grouping(self):
        t = build([2, 1, 2, 1, 3], [0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
        assert t.num_keys == 3
        np.testing.assert_array_equal(t.keys(), [1, 2, 3])
        idx, vals = t.get(2)
        assert sorted(idx.tolist()) == [0, 2]
        assert sorted(vals.tolist()) == [1.0, 3.0]

    def test_missing_key_empty(self):
        t = build([1], [0], [1.0])
        idx, vals = t.get(99)
        assert idx.size == 0 and vals.size == 0

    def test_empty_table(self):
        t = build([], [], [])
        assert t.num_keys == 0
        assert t.nnz == 0
        found, starts, counts = t.query_batch(np.array([1, 2], dtype=np.int64))
        assert not found.any()

    def test_group_sizes(self):
        t = build([5, 5, 5, 7], [0, 1, 2, 3], [1, 1, 1, 1])
        np.testing.assert_array_equal(t.group_sizes(), [3, 1])

    def test_contains(self):
        t = build([4], [0], [1.0])
        assert 4 in t
        assert 5 not in t

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            build([1, 2], [0], [1.0, 2.0])


class TestQueryBatch:
    def test_spans_slice_payload(self):
        t = build([1, 2, 2, 3], [10, 20, 21, 30], [1, 2, 3, 4])
        found, starts, counts = t.query_batch(np.array([2, 9], dtype=np.int64))
        assert found.tolist() == [True, False]
        idx, vals = t.payload
        s, c = int(starts[0]), int(counts[0])
        assert sorted(idx[s : s + c].tolist()) == [20, 21]
        assert counts[1] == 0

    def test_spans_for_all_keys_cover_payload(self):
        t = build([3, 1, 3, 1, 1], [0, 1, 2, 3, 4], [1, 1, 1, 1, 1])
        starts, counts = t.spans_for_all_keys()
        assert counts.sum() == t.nnz
        assert starts[0] == 0

    def test_queries_counted(self):
        c = Counters()
        t = build([1, 2], [0, 1], [1.0, 2.0], counters=c)
        base = c.hash_queries
        t.query_batch(np.array([1, 2, 3], dtype=np.int64))
        assert c.hash_queries == base + 3


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 30), st.floats(-5, 5)),
        max_size=60,
    )
)
def test_matches_grouped_dict_model(entries):
    """Property: each key's slice equals the inserted group (as multisets)."""
    keys = [k for k, _, _ in entries]
    idx = [i for _, i, _ in entries]
    vals = [v for _, _, v in entries]
    t = build(keys, idx, vals)

    model: dict[int, list[tuple[int, float]]] = {}
    for k, i, v in entries:
        model.setdefault(k, []).append((i, v))

    assert t.num_keys == len(model)
    assert t.nnz == len(entries)
    for k in range(16):
        got_idx, got_vals = t.get(k)
        got = sorted(zip(got_idx.tolist(), got_vals.tolist()))
        expected = sorted(model.get(k, []))
        assert got == pytest.approx(expected)


class TestCountersIntegration:
    def test_map_probes_charged_on_first_query(self):
        """Construction probes nothing; the first query pays the map's
        inserts plus its lookups, a later query its lookups only."""
        c = Counters()
        t = build(list(range(200)), list(range(200)), [1.0] * 200, counters=c)
        assert c.probes == 0
        queries = np.arange(0, 400, 3, dtype=np.int64)
        lookups = Counters()
        t.query_batch(queries, counters=lookups)
        inserts = c.probes
        assert inserts >= t.num_keys  # every group key probed at least once
        assert lookups.probes >= queries.shape[0]
        first = c.probes
        t.query_batch(queries)
        assert c.probes - first == lookups.probes
        assert c.hash_queries == queries.shape[0]

    def test_get_and_contains_build_the_map_once(self):
        c = Counters()
        t = build([3, 1, 3], [0, 1, 2], [1.0, 2.0, 3.0], counters=c)
        assert t._lookup is None
        assert 3 in t
        lookup = t._lookup
        assert lookup is not None
        t.get(1)
        assert t._lookup is lookup

    def test_concurrent_first_queries_build_one_map(self, monkeypatch):
        """Eight threads racing the first probe: one map, its inserts
        counted once, identical spans for every thread."""
        import sys
        import threading

        from repro.hashing import slice_table

        maps = []

        class CountingMap(slice_table.OpenAddressingMap):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                maps.append(self)

        rng = np.random.default_rng(5)
        keys = rng.integers(0, 5000, 3000)
        queries = rng.integers(0, 6000, 2000)
        ref = build(keys, np.arange(3000), np.ones(3000))
        ref_lookups = Counters()
        want = ref.query_batch(queries, counters=ref_lookups)

        monkeypatch.setattr(slice_table, "OpenAddressingMap", CountingMap)
        c = Counters()
        t = build(keys, np.arange(3000), np.ones(3000), counters=c)
        barrier = threading.Barrier(8)
        results = [None] * 8
        lookups = [Counters() for _ in range(8)]

        def probe(k):
            barrier.wait()
            results[k] = t.query_batch(queries, counters=lookups[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=probe, args=(k,)) for k in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(maps) == 1
        assert c.probes == ref.counters.probes > 0
        for got, seen in zip(results, lookups):
            assert seen.probes == ref_lookups.probes
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_payload_views_not_copies(self):
        t = build([1, 1, 2], [10, 11, 20], [1.0, 2.0, 3.0])
        idx, vals = t.payload
        idx2, vals2 = t.payload
        assert idx is idx2 and vals is vals2
