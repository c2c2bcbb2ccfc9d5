"""IncrementalEngine: patching, pricing, fallback, invalidation, atomicity."""

import threading

import numpy as np
import pytest

import repro
from repro.data.random_tensors import random_coo
from repro.errors import ConfigError, StreamError, WorkspaceLimitError
from repro.machine.specs import DESKTOP
from repro.runtime.executor import ContractionRuntime
from repro.streaming import DeltaBatch, IncrementalEngine

PAIRS = [(1, 0)]
LEFT_SHAPE = (256, 16)
RIGHT_SHAPE = (16, 32)


def make_engine(**kw):
    return IncrementalEngine(DESKTOP, **kw)


def register(engine, name="s", *, nnz_l=600, nnz_r=200, tile_size=64, **kw):
    left = random_coo(LEFT_SHAPE, nnz=nnz_l, seed=10)
    right = random_coo(RIGHT_SHAPE, nnz=nnz_r, seed=11)
    out = engine.register(name, left, right, PAIRS, tile_size=tile_size, **kw)
    return left, right, out


def one_tile_delta(left, n=4, seed=0):
    """A batch confined to the row block of left's smallest row index."""
    rng = np.random.default_rng(seed)
    victim = left.coords[:, int(np.argmin(left.coords[0]))]
    row = int(victim[0]) - int(victim[0]) % 64  # tile-aligned base
    ops = [
        ("insert", (row + int(rng.integers(0, 64)),
                    int(rng.integers(0, LEFT_SHAPE[1]))), float(i + 1))
        for i in range(n)
    ]
    return DeltaBatch.from_ops(ops, LEFT_SHAPE)


class TestRegister:
    def test_initial_output_matches_einsum(self):
        engine = make_engine()
        left, right, out = register(engine)
        expected = repro.einsum("ij,jk->ik", left, right).to_dense()
        np.testing.assert_allclose(out.to_dense(), expected, rtol=1e-12)

    def test_double_register_refused(self):
        engine = make_engine()
        register(engine)
        with pytest.raises(StreamError):
            register(engine)

    def test_unknown_stream_rejected(self):
        engine = make_engine()
        with pytest.raises(StreamError):
            engine.result("ghost")

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            make_engine(staleness_threshold=0.0)
        with pytest.raises(ConfigError):
            make_engine(staleness_threshold=1.5)


class TestApplyDelta:
    def test_incremental_matches_fresh_register(self):
        engine = make_engine()
        left, right, _ = register(engine)
        delta = one_tile_delta(left)
        stats = engine.apply_delta("s", delta, force="incremental")
        assert stats.mode == "incremental"

        reference = make_engine()
        ref_out = reference.register(
            "ref", delta.apply(left), right, PAIRS,
            plan=engine._state("s").plan,
        )
        out = engine.result("s")
        assert np.array_equal(out.coords, ref_out.coords)
        assert np.array_equal(out.values, ref_out.values)

    def test_small_delta_prices_incremental(self):
        engine = make_engine()
        left, _, _ = register(engine)
        stats = engine.apply_delta("s", one_tile_delta(left))
        assert stats.mode == "incremental"
        assert stats.tiles_touched == 1
        assert 0.0 < stats.modeled_fraction <= engine.staleness_threshold

    def test_sweeping_delta_falls_back_to_full(self):
        engine = make_engine()
        left, right, _ = register(engine)
        rng = np.random.default_rng(2)
        ops = [
            ("insert", (int(r), int(c)), 1.0)
            for r, c in zip(rng.integers(0, LEFT_SHAPE[0], 200),
                            rng.integers(0, LEFT_SHAPE[1], 200))
        ]
        delta = DeltaBatch.from_ops(ops, LEFT_SHAPE)
        stats = engine.apply_delta("s", delta)
        assert stats.mode == "full"
        expected = repro.einsum("ij,jk->ik", delta.apply(left), right).to_dense()
        np.testing.assert_allclose(engine.result("s").to_dense(), expected,
                                   rtol=1e-12)

    def test_right_side_delta(self):
        engine = make_engine()
        left, right, _ = register(engine)
        delta = DeltaBatch.from_ops(
            [("insert", (0, 0), 2.0), ("update", (3, 1), -1.0)], RIGHT_SHAPE
        )
        stats = engine.apply_delta("s", delta, side="right")
        assert stats.side == "right"
        expected = repro.einsum("ij,jk->ik", left, delta.apply(right)).to_dense()
        np.testing.assert_allclose(engine.result("s").to_dense(), expected,
                                   rtol=1e-12)

    def test_incremental_right_side_bit_identical(self):
        engine = make_engine()
        left, right, _ = register(engine)
        delta = DeltaBatch.from_ops([("insert", (5, 7), 1.25)], RIGHT_SHAPE)
        engine.apply_delta("s", delta, side="right", force="incremental")
        reference = make_engine()
        ref_out = reference.register(
            "ref", left, delta.apply(right), PAIRS,
            plan=engine._state("s").plan,
        )
        out = engine.result("s")
        assert np.array_equal(out.coords, ref_out.coords)
        assert np.array_equal(out.values, ref_out.values)

    def test_delta_chain_stays_correct(self):
        engine = make_engine()
        left, right, _ = register(engine)
        current = left
        for seed in range(5):
            delta = one_tile_delta(current, seed=seed)
            engine.apply_delta("s", delta)
            current = delta.apply(current)
        expected = repro.einsum("ij,jk->ik", current, right).to_dense()
        np.testing.assert_allclose(engine.result("s").to_dense(), expected,
                                   rtol=1e-12)

    def test_noop_delta(self):
        engine = make_engine()
        register(engine)
        stats = engine.apply_delta("s", DeltaBatch.empty(LEFT_SHAPE))
        assert stats.mode == "noop"
        assert stats.tiles_touched == 0

    def test_force_and_side_validated(self):
        engine = make_engine()
        left, _, _ = register(engine)
        with pytest.raises(ConfigError):
            engine.apply_delta("s", one_tile_delta(left), side="middle")
        with pytest.raises(ConfigError):
            engine.apply_delta("s", one_tile_delta(left), force="maybe")

    def test_seq_counts_per_side(self):
        engine = make_engine()
        left, _, _ = register(engine)
        s0 = engine.apply_delta("s", one_tile_delta(left, seed=0))
        s1 = engine.apply_delta("s", one_tile_delta(left, seed=1))
        r0 = engine.apply_delta(
            "s", DeltaBatch.from_ops([("insert", (0, 0), 1.0)], RIGHT_SHAPE),
            side="right",
        )
        assert (s0.seq, s1.seq, r0.seq) == (0, 1, 0)
        assert engine._state("s").seq == {"left": 2, "right": 1}


class TestInvalidation:
    def test_invalidate_releases_artifacts(self):
        engine = make_engine()
        register(engine)
        assert engine.invalidate("s") == 1  # one stream dropped
        assert engine.invalidate("s") == 0  # idempotent
        with pytest.raises(StreamError):
            engine.result("s")

    def test_runtime_operand_caches_invalidated(self):
        runtime = ContractionRuntime(machine=DESKTOP)
        engine = make_engine(runtime=runtime)
        left, right, _ = register(engine)
        # Warm the runtime's operand caches for the *registered* operand
        # object, then check the delta's hook actually dropped it.
        registered = engine._state("s").left
        runtime.contract(registered, right, PAIRS)
        assert runtime.invalidate_operand(registered) is True
        runtime.contract(registered, right, PAIRS)  # re-warm
        engine.apply_delta("s", one_tile_delta(left))
        assert runtime.invalidate_operand(registered) is False  # dropped


class TestMetrics:
    def test_metrics_shape(self):
        engine = make_engine()
        left, _, _ = register(engine)
        engine.apply_delta("s", one_tile_delta(left))
        m = engine.metrics()
        assert m["streams"] == ["s"]
        assert m["deltas_applied"] == 1
        assert m["incremental"] + m["full"] == 1
        assert 0.0 <= m["mean_modeled_fraction"] <= 1.0

    def test_totals_count_exactly_over_300_deltas(self):
        # Running totals, not a per-delta history: 300 deltas leave
        # exact counts and sums and no list growing with them.
        engine = make_engine()
        left, _, _ = register(engine)
        rng = np.random.default_rng(7)
        stats = [
            engine.apply_delta("s", DeltaBatch.from_ops(
                [("insert", (int(rng.integers(0, LEFT_SHAPE[0])),
                             int(rng.integers(0, LEFT_SHAPE[1]))), 1.0)],
                LEFT_SHAPE,
            ))
            for _ in range(300)
        ]
        assert not hasattr(engine, "records")
        m = engine.metrics()
        inc = [st for st in stats if st.mode == "incremental"]
        full = [st for st in stats if st.mode == "full"]
        assert m["deltas_applied"] == 300
        assert (m["incremental"], m["full"]) == (len(inc), len(full))
        assert len(inc) + len(full) == 300
        assert m["incremental_seconds"] == pytest.approx(
            sum(st.seconds for st in inc))
        assert m["full_seconds"] == pytest.approx(
            sum(st.seconds for st in full))
        assert m["mean_modeled_fraction"] == pytest.approx(
            sum(st.modeled_fraction for st in stats) / 300)
        assert engine._state("s").seq["left"] == 300


def output_bytes(out):
    return (out.shape, out.coords.dtype, out.coords.tobytes(),
            out.values.dtype, out.values.tobytes())


def fail(*args, **kwargs):
    raise WorkspaceLimitError("injected fault")


FAULT_TILE = 16  # 16 left tiles, 2 right tiles


class TestFaultInjection:
    """A delta that raises leaves the stream exactly as it was."""

    def delta_for(self, side, col):
        if side == "left":
            return DeltaBatch.from_ops(
                [("insert", (col, 3), 2.5), ("update", (col + 1, 0), -1.0)],
                LEFT_SHAPE,
            )
        return DeltaBatch.from_ops(
            [("insert", (2, col), 2.5), ("update", (5, col + 1), -1.0)],
            RIGHT_SHAPE,
        )

    @pytest.mark.parametrize("side,force,target", [
        ("left", "incremental", "tiled_co_contract"),   # restricted tables
        ("right", "incremental", "tiled_co_contract"),  # restricted tables
        ("left", "incremental", "_replace_tile_rows"),  # left splice
        ("right", "incremental", "_replace_tile_rows"),  # right merge
        ("left", "full", "tiled_co_contract"),          # _rebuild kernel
        ("right", "full", "tiled_co_contract"),         # _rebuild kernel
    ])
    def test_raised_delta_leaves_state_then_next_delta_is_exact(
        self, monkeypatch, side, force, target,
    ):
        engine = make_engine()
        left, right, _ = register(engine, tile_size=FAULT_TILE)
        state = engine._state("s")
        kept = (state.left, state.right, state.hl, state.hr)
        before = output_bytes(engine.result("s"))
        delta = self.delta_for(side, 17)
        with monkeypatch.context() as m:
            if target == "tiled_co_contract":
                m.setattr("repro.streaming.engine.tiled_co_contract", fail)
            else:
                m.setattr(engine, target, fail)
            with pytest.raises(WorkspaceLimitError):
                engine.apply_delta("s", delta, side=side, force=force)
        assert all(a is b for a, b in zip(
            (state.left, state.right, state.hl, state.hr), kept))
        assert output_bytes(engine.result("s")) == before
        assert state.seq == {"left": 0, "right": 0}
        assert engine.metrics()["deltas_applied"] == 0

        assert engine.apply_delta("s", delta, side=side, force=force).mode == force
        if side == "left":
            left = delta.apply(left)
        else:
            right = delta.apply(right)
        ref = repro.contract(left, right, PAIRS, plan=state.plan)
        assert output_bytes(engine.result("s")) == output_bytes(ref)

    def test_failed_delta_then_other_tile_reads_consistently(self, monkeypatch):
        # Delta A (tile 0) fails in the left splice; delta B (tile 2)
        # then succeeds.  The stream must hold left + B and output
        # contract(left + B), not an operand carrying A beside an output
        # without it.
        engine = make_engine()
        left, right, _ = register(engine, tile_size=FAULT_TILE)
        delta_a = self.delta_for("left", 1)
        delta_b = self.delta_for("left", 2 * FAULT_TILE + 1)
        with monkeypatch.context() as m:
            m.setattr(engine, "_replace_tile_rows", fail)
            with pytest.raises(WorkspaceLimitError):
                engine.apply_delta("s", delta_a, force="incremental")
        engine.apply_delta("s", delta_b, force="incremental")
        state = engine._state("s")
        mutated = delta_b.apply(left)
        assert output_bytes(state.left) == output_bytes(mutated)
        ref = repro.contract(mutated, right, PAIRS, plan=state.plan)
        assert output_bytes(engine.result("s")) == output_bytes(ref)


class TestConcurrentDeltas:
    def test_two_threads_on_one_stream_both_land(self, monkeypatch):
        # Both threads are held at a barrier right after _patch: were
        # they to compute from the same old state, the second commit
        # would drop the first delta.  Serialized, the first waits out
        # the barrier timeout alone and commits before the second reads.
        engine = make_engine()
        left, right, _ = register(engine, tile_size=FAULT_TILE)
        barrier = threading.Barrier(2)
        patch = engine._patch

        def held_patch(*args, **kwargs):
            out = patch(*args, **kwargs)
            try:
                barrier.wait(timeout=0.5)
            except threading.BrokenBarrierError:
                pass
            return out

        monkeypatch.setattr(engine, "_patch", held_patch)
        deltas = [
            TestFaultInjection().delta_for("left", col)
            for col in (1, 2 * FAULT_TILE + 1)  # tiles 0 and 2
        ]
        errors = []

        def apply(delta):
            try:
                engine.apply_delta("s", delta, force="incremental")
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=apply, args=(d,)) for d in deltas]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        state = engine._state("s")
        assert state.seq["left"] == 2
        mutated = deltas[1].apply(deltas[0].apply(left))
        assert output_bytes(state.left) == output_bytes(mutated)
        ref = repro.contract(mutated, right, PAIRS, plan=state.plan)
        assert output_bytes(engine.result("s")) == output_bytes(ref)


def tile_rows(flat, cuts):
    """Each tile's rows of a tile-sorted store, as bytes."""
    return [flat[..., a:b].tobytes() for a, b in zip(cuts[:-1], cuts[1:])]


class TestTileRows:
    """The stream keeps per-tile offsets: a delta replaces only its tiles' rows."""

    def setup_stream(self):
        engine = make_engine()
        left, right, _ = register(engine, tile_size=FAULT_TILE)
        return engine, engine._state("s"), left, right

    def assert_cuts_mark_tiles(self, state):
        out, cuts = state.output, state.cuts["out"]
        assert cuts[0] == 0 and cuts[-1] == out.nnz
        for t, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
            assert (out.coords[0, a:b] // state.plan.tile_l == t).all(), t
        for side, tile in (("left", state.plan.tile_l), ("right", state.plan.tile_r)):
            op, cuts = state.ops[side], state.cuts[side]
            assert cuts[0] == 0 and cuts[-1] == op.nnz
            for t, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
                assert (op.ext[a:b] // tile == t).all(), (side, t)

    def test_one_tile_left_delta_keeps_untouched_tile_rows(self):
        engine, state, left, right = self.setup_stream()
        out_rows = tile_rows(state.output.coords, state.cuts["out"])
        op_rows = tile_rows(state.ops["left"].ext, state.cuts["left"])
        partner = (state.ops["right"], state.hr, state.cuts["right"], state.right)
        delta = TestFaultInjection().delta_for("left", 2 * FAULT_TILE + 1)
        stats = engine.apply_delta("s", delta, force="incremental")
        assert (stats.mode, stats.tiles_touched) == ("incremental", 1)
        new_out = tile_rows(state.output.coords, state.cuts["out"])
        new_op = tile_rows(state.ops["left"].ext, state.cuts["left"])
        for t in range(state.hl.num_tiles):
            assert (new_out[t] == out_rows[t]) == (t != 2), t
            assert (new_op[t] == op_rows[t]) == (t != 2), t
        assert all(a is b for a, b in zip(
            (state.ops["right"], state.hr, state.cuts["right"], state.right),
            partner))
        self.assert_cuts_mark_tiles(state)
        ref = repro.contract(delta.apply(left), right, PAIRS, plan=state.plan)
        assert output_bytes(engine.result("s")) == output_bytes(ref)

    def test_result_is_the_committed_output(self):
        engine, state, left, right = self.setup_stream()
        first = engine.result("s")
        assert engine.result("s") is first
        for col in (1, 5 * FAULT_TILE + 2):
            delta = TestFaultInjection().delta_for("left", col)
            stats = engine.apply_delta("s", delta, force="incremental")
            left = delta.apply(left)
            out = engine.result("s")
            assert out is not first and engine.result("s") is out
            assert stats.output_nnz == out.nnz
            ref = repro.contract(left, right, PAIRS, plan=state.plan)
            assert output_bytes(out) == output_bytes(ref)
            first = out

    @pytest.mark.parametrize("side,force", [
        ("left", "incremental"), ("right", "incremental"),
        ("left", "full"), ("right", "full"),
    ])
    def test_cuts_follow_every_path(self, side, force):
        engine, state, left, right = self.setup_stream()
        delta = TestFaultInjection().delta_for(side, 17)
        stats = engine.apply_delta("s", delta, side=side, force=force)
        assert stats.output_nnz == engine.result("s").nnz
        self.assert_cuts_mark_tiles(state)
        if side == "left":
            left = delta.apply(left)
        else:
            right = delta.apply(right)
        ref = repro.contract(left, right, PAIRS, plan=state.plan)
        assert output_bytes(engine.result("s")) == output_bytes(ref)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_raised_delta_leaves_every_state_object(self, monkeypatch, side):
        engine, state, _, _ = self.setup_stream()
        kept = (state.output, dict(state.tensors), dict(state.ops),
                dict(state.tables), dict(state.cuts))
        with monkeypatch.context() as m:
            m.setattr(engine, "_replace_tile_rows", fail)
            with pytest.raises(WorkspaceLimitError):
                engine.apply_delta("s", TestFaultInjection().delta_for(side, 3),
                                   side=side, force="incremental")
        assert state.output is kept[0]
        for now, before in zip(
            (state.tensors, state.ops, state.tables, state.cuts), kept[1:],
        ):
            assert now.keys() == before.keys()
            assert all(now[k] is before[k] for k in now)
