"""PlanCache structural drift: reuse within tolerance, re-price beyond.

A streaming workload mutates operands between calls, so the exact
signature key (which embeds nnz) almost never repeats.  The cache keeps
a masked structure index so a lookup at a drifted nnz can reuse the
same structure's plan within ``DRIFT_RTOL`` — and deliberately miss
beyond it, forcing a re-price through Algorithm 7.
"""

from repro.core.model import choose_plan
from repro.core.plan import ContractionSpec
from repro.machine.specs import DESKTOP
from repro.runtime.plan_cache import PlanCache
from repro.runtime.signature import ProblemSignature, _machine_token

SPEC = ContractionSpec((64, 16), (16, 32), [(1, 0)])


def sig(nnz_l, nnz_r=100):
    return ProblemSignature(
        left_shape=(64, 16), right_shape=(16, 32), pairs=((1, 0),),
        nnz_l=nnz_l, nnz_r=nnz_r, machine=_machine_token(DESKTOP),
    )


def plan_for(nnz_l, nnz_r=100):
    return choose_plan(SPEC, nnz_l, nnz_r, DESKTOP)


class TestDriftReuse:
    def test_exact_hit_unaffected(self):
        cache = PlanCache()
        cache.put(sig(500), plan_for(500))
        assert cache.get(sig(500)) is not None
        assert cache.drift_hits == 0

    def test_reuse_within_tolerance(self):
        cache = PlanCache()
        cache.put(sig(500), plan_for(500))
        hit = cache.get(sig(550))  # 10% drift
        assert hit is not None
        assert cache.drift_hits == 1
        # The entry is re-keyed under the live signature: the next
        # lookup at the same nnz is an exact hit.
        before = cache.drift_hits
        assert cache.get(sig(550)) is not None
        assert cache.drift_hits == before

    def test_reprice_beyond_tolerance(self):
        cache = PlanCache()
        cache.put(sig(500), plan_for(500))
        assert cache.get(sig(900)) is None  # 80% drift: miss
        assert cache.drift_repriced == 1
        assert cache.drift_hits == 0

    def test_both_operands_checked(self):
        cache = PlanCache()
        cache.put(sig(500, 100), plan_for(500, 100))
        # Left within tolerance, right far out: must miss.
        assert cache.get(sig(510, 400)) is None
        assert cache.drift_repriced == 1

    def test_different_structure_never_reused(self):
        cache = PlanCache()
        cache.put(sig(500), plan_for(500))
        other = ProblemSignature(
            left_shape=(64, 16), right_shape=(16, 32), pairs=((1, 0),),
            nnz_l=500, nnz_r=100, machine=_machine_token(DESKTOP),
            accumulator="dense",
        )
        assert cache.get(other) is None


class TestDriftAfterPersistence:
    def test_warm_started_entries_drift_reuse(self, tmp_path):
        path = tmp_path / "plans.json"
        hot = PlanCache(path=path)
        hot.put(sig(500), plan_for(500))
        hot.flush()

        cold = PlanCache(path=path)
        assert len(cold) == 1
        assert cold.get(sig(560)) is not None  # 12% drift on warm entry
        assert cold.drift_hits == 1


class TestInvalidationInteraction:
    def test_invalidated_entry_not_drift_reusable(self):
        cache = PlanCache()
        cache.put(sig(500), plan_for(500))
        assert cache.invalidate(sig(500)) is True
        assert cache.get(sig(510)) is None
        assert cache.drift_hits == 0

    def test_invalidate_where_drops_structure_index(self):
        cache = PlanCache()
        cache.put(sig(500), plan_for(500))
        assert cache.invalidate_where(lambda key: "L64x16" in key) == 1
        assert cache.get(sig(505)) is None
        assert cache.stats()["invalidated"] == 1

    def test_eviction_drops_structure_index(self):
        cache = PlanCache(maxsize=1)
        cache.put(sig(500), plan_for(500))
        other = ProblemSignature(
            left_shape=(128, 16), right_shape=(16, 32), pairs=((1, 0),),
            nnz_l=700, nnz_r=100, machine=_machine_token(DESKTOP),
        )
        spec = ContractionSpec((128, 16), (16, 32), [(1, 0)])
        cache.put(other, choose_plan(spec, 700, 100, DESKTOP))
        assert cache.evictions == 1
        assert cache.get(sig(510)) is None  # evicted entry can't drift-hit
