"""Tests for the fleet backends package (``repro.backends``).

The headline contract, property-tested across configs: whichever
backend runs lane ``k``, its trajectory is bit-identical to a scalar
:class:`FunctionalSimulator` seeded with the same salt — for the
default fixed-point formats, non-default rounding/overflow variants,
and wide "float-like" formats alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    BatchStats,
    FleetBackend,
    ScalarFleetBackend,
    ShardedFleetBackend,
    VectorizedFleetBackend,
)
from repro.core.config import QTAccelConfig
from repro.core.engine import make_engine
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.envs.gridworld import GridWorld
from repro.envs.random_mdp import random_dense_mdp
from repro.fixedpoint import FxpFormat

GRID = GridWorld.random(8, 4, obstacle_density=0.15, seed=2).to_mdp()
LOOPY = random_dense_mdp(16, 4, seed=9, self_loop_bias=0.5)

#: Formats the bit-identity property sweeps: the default s16.6, a
#: nearest-rounding variant, a wrap-overflow variant, and a wide
#: "float-like" word whose resolution makes rounding loss negligible.
Q_FORMATS = {
    "default": FxpFormat(16, 6),
    "nearest": FxpFormat(16, 6, rounding="nearest"),
    "wrap": FxpFormat(16, 6, overflow="wrap"),
    "floatlike": FxpFormat(48, 24),
}


def reference_tables(mdp, cfg, salt, n):
    f = FunctionalSimulator(mdp, cfg, draws=PolicyDraws.from_config(cfg, salt=salt))
    f.run(n)
    return f


def assert_backend_parity(backend_cls, mdp, cfg, *, num_agents=4, n=400):
    fleet = backend_cls(mdp, cfg, num_agents=num_agents)
    fleet.run(n)
    for k in range(num_agents):
        f = reference_tables(mdp, cfg, k, n)
        assert np.array_equal(fleet.q[k], f.tables.q.data), f"lane {k} Q differs"
        assert np.array_equal(fleet.qmax[k], f.tables.qmax.data)
        assert np.array_equal(fleet.qmax_action[k], f.tables.qmax_action.data)
    return fleet


class TestBitIdentityProperty:
    """Hypothesis sweep: vectorized lanes == FunctionalSimulator."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        alpha=st.sampled_from([0.25, 0.5, 1.0]),
        gamma=st.sampled_from([0.0, 0.5, 0.9]),
        algorithm=st.sampled_from(["qlearning", "sarsa"]),
        qmax_mode=st.sampled_from(["monotonic", "follow"]),
        fmt=st.sampled_from(sorted(Q_FORMATS)),
    )
    def test_vectorized_matches_functional(
        self, seed, alpha, gamma, algorithm, qmax_mode, fmt
    ):
        preset = getattr(QTAccelConfig, algorithm)
        cfg = preset(
            seed=seed,
            alpha=alpha,
            gamma=gamma,
            qmax_mode=qmax_mode,
            q_format=Q_FORMATS[fmt],
        )
        assert_backend_parity(VectorizedFleetBackend, LOOPY, cfg, num_agents=3, n=300)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        fmt=st.sampled_from(["default", "floatlike"]),
    )
    def test_scalar_matches_functional(self, seed, fmt):
        cfg = QTAccelConfig.sarsa(seed=seed, q_format=Q_FORMATS[fmt])
        assert_backend_parity(ScalarFleetBackend, GRID, cfg, num_agents=3, n=200)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        algorithm=st.sampled_from(["qlearning", "sarsa"]),
        fmt=st.sampled_from(sorted(Q_FORMATS)),
    )
    def test_backends_agree_with_each_other(self, seed, algorithm, fmt):
        preset = getattr(QTAccelConfig, algorithm)
        cfg = preset(seed=seed, q_format=Q_FORMATS[fmt], qmax_mode="follow")
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=4)
        sc = ScalarFleetBackend(GRID, cfg, num_agents=4)
        vec.run(250)
        sc.run(250)
        assert np.array_equal(vec.q, sc.q)
        assert np.array_equal(vec.qmax, sc.qmax)
        assert np.array_equal(vec.qmax_action, sc.qmax_action)
        assert vec.stats.as_dict() == sc.stats.as_dict()


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("backend_cls", [VectorizedFleetBackend, ScalarFleetBackend])
    def test_state_dict_replays_exactly(self, backend_cls):
        cfg = QTAccelConfig.sarsa(seed=13, qmax_mode="follow")
        fleet = backend_cls(LOOPY, cfg, num_agents=5)
        fleet.run(150)
        ckpt = fleet.state_dict()
        fleet.run(150)
        q_after = fleet.q.copy()
        qmax_after = fleet.qmax.copy()
        stats_after = fleet.stats.as_dict()

        fresh = backend_cls(LOOPY, cfg, num_agents=5)
        fresh.load_state_dict(ckpt)
        fresh.run(150)
        assert np.array_equal(fresh.q, q_after)
        assert np.array_equal(fresh.qmax, qmax_after)
        assert fresh.stats.as_dict() == stats_after

    def test_vectorized_fixed_point_checkpoint(self):
        cfg = QTAccelConfig.qlearning(seed=3, q_format=Q_FORMATS["nearest"])
        fleet = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        fleet.run(100)
        ckpt = fleet.state_dict()
        fleet.run(100)
        expected = fleet.q.copy()
        fleet.load_state_dict(ckpt)
        fleet.run(100)
        assert np.array_equal(fleet.q, expected)

    @pytest.mark.parametrize("backend_cls", [VectorizedFleetBackend, ScalarFleetBackend])
    def test_lane_state_restores_one_lane(self, backend_cls):
        """Per-lane rollback: restoring lane 1 replays only lane 1."""
        cfg = QTAccelConfig.qlearning(seed=8)
        fleet = backend_cls(GRID, cfg, num_agents=3)
        fleet.run(120)
        lane = fleet.lane_state(1)
        fleet.run(50)
        expected_other = fleet.q[2].copy()
        fleet.load_lane_state(1, lane)
        assert np.array_equal(fleet.q[2], expected_other)  # untouched
        # The restored lane matches a functional replay to sample 120.
        f = reference_tables(GRID, cfg, 1, 120)
        assert np.array_equal(fleet.q[1], f.tables.q.data)


class TestRegistryAndDispatch:
    def test_make_engine_fleet_kinds(self):
        cfg = QTAccelConfig.qlearning(seed=1)
        vec = make_engine(cfg, engine="vectorized", mdps=GRID, num_agents=2)
        sc = make_engine(cfg, engine="scalar", mdps=GRID, num_agents=2)
        assert isinstance(vec, VectorizedFleetBackend)
        assert isinstance(sc, ScalarFleetBackend)
        assert isinstance(vec, FleetBackend) and isinstance(sc, FleetBackend)

    def test_stats_contract(self):
        cfg = QTAccelConfig.qlearning(seed=1)
        fleet = make_engine(cfg, engine="vectorized", mdps=GRID, num_agents=2)
        fleet.run(10)
        d = fleet.stats.as_dict()
        assert d["samples"] == 20
        assert d["cycles"] is None
        assert fleet.stats.samples == 20

    def test_total_samples_deprecated(self):
        """The expired ``total_samples`` alias is gone; ``samples`` stays."""
        stats = BatchStats(agents=2, samples_per_agent=5)
        assert stats.samples == 10
        with pytest.raises(AttributeError, match="total_samples"):
            stats.total_samples


# ---------------------------------------------------------------------- #
# Sharded (process-parallel) backend
# ---------------------------------------------------------------------- #


def _sharded(mdps, cfg, **kw):
    """Sharded fleet with test defaults: fork (fast) and small epochs."""
    kw.setdefault("mp_context", "fork")
    kw.setdefault("epoch", 32)
    return ShardedFleetBackend(mdps, cfg, **kw)


def assert_fleets_equal(sharded, vec):
    assert np.array_equal(sharded.q, vec.q)
    assert np.array_equal(sharded.qmax, vec.qmax)
    assert np.array_equal(sharded.qmax_action, vec.qmax_action)
    assert sharded.stats.as_dict() == vec.stats.as_dict()


class TestShardedBitIdentity:
    """The tentpole contract: any worker count, same bits."""

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        workers=st.sampled_from([1, 2, 3, 5]),
        algorithm=st.sampled_from(["qlearning", "sarsa"]),
        fmt=st.sampled_from(["default", "nearest"]),
    )
    def test_sharded_matches_vectorized(self, seed, workers, algorithm, fmt):
        preset = getattr(QTAccelConfig, algorithm)
        cfg = preset(seed=seed, q_format=Q_FORMATS[fmt], qmax_mode="follow")
        vec = VectorizedFleetBackend(LOOPY, cfg, num_agents=6)
        vec.run(96)
        fleet = _sharded(LOOPY, cfg, num_agents=6, num_workers=workers)
        try:
            fleet.run(96)
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_workers_exceeding_lanes_clamp(self):
        cfg = QTAccelConfig.qlearning(seed=4)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        vec.run(80)
        fleet = _sharded(GRID, cfg, num_agents=3, num_workers=9)
        try:
            assert fleet.num_workers == 3  # one lane per worker at most
            fleet.run(80)
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_heterogeneous_worlds_odd_split(self):
        """Per-lane worlds survive an uneven 5-lanes/2-workers split."""
        worlds = [random_dense_mdp(16, 4, seed=s, self_loop_bias=0.5) for s in range(20, 25)]
        cfg = QTAccelConfig.sarsa(seed=6, qmax_mode="follow")
        vec = VectorizedFleetBackend(worlds, cfg)
        vec.run(90)
        fleet = _sharded(worlds, cfg, num_workers=2)
        try:
            fleet.run(90)
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_spawn_context_parity(self):
        """The default spawn context produces the same bits as fork."""
        cfg = QTAccelConfig.qlearning(seed=12)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=4)
        vec.run(64)
        fleet = ShardedFleetBackend(
            GRID, cfg, num_agents=4, num_workers=2, epoch=32, mp_context="spawn"
        )
        try:
            fleet.run(64)
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_lane_parity_with_functional(self):
        """Each shard lane still replays the scalar reference exactly."""
        cfg = QTAccelConfig.qlearning(seed=17, qmax_mode="follow")
        fleet = _sharded(GRID, cfg, num_agents=4, num_workers=2)
        try:
            fleet.run(120)
            for k in range(4):
                f = reference_tables(GRID, cfg, k, 120)
                assert np.array_equal(fleet.q[k], f.tables.q.data), f"lane {k}"
        finally:
            fleet.close()


class TestShardedCheckpointAndRecovery:
    def test_checkpoint_round_trip_across_worker_counts(self):
        """A 3-worker checkpoint restores into a 2-worker fleet."""
        cfg = QTAccelConfig.sarsa(seed=13, qmax_mode="follow")
        fleet = _sharded(LOOPY, cfg, num_agents=5, num_workers=3)
        try:
            fleet.run(96)
            ckpt = fleet.state_dict()
            fleet.run(96)
            q_after = fleet.q.copy()
            stats_after = fleet.stats.as_dict()
        finally:
            fleet.close()

        fresh = _sharded(LOOPY, cfg, num_agents=5, num_workers=2)
        try:
            fresh.load_state_dict(ckpt)
            fresh.run(96)
            assert np.array_equal(fresh.q, q_after)
            assert fresh.stats.as_dict() == stats_after
        finally:
            fresh.close()

    def test_killed_worker_recovers_bit_identically(self):
        cfg = QTAccelConfig.qlearning(seed=5, qmax_mode="follow")
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=6)
        vec.run(192)
        fleet = _sharded(GRID, cfg, num_agents=6, num_workers=2, checkpoint_interval=1)
        try:
            fleet.run(96)
            fleet.kill_worker(1)
            fleet.run(96)
            assert fleet.restarts >= 1
            assert not fleet.quarantined_workers
            assert_fleets_equal(fleet, vec)
        finally:
            fleet.close()

    def test_unrecoverable_worker_is_quarantined(self):
        """A worker that dies on every epoch stops retrying; the healthy
        shard keeps training bit-identically."""
        cfg = QTAccelConfig.qlearning(seed=7, qmax_mode="follow")
        fleet = _sharded(
            GRID,
            cfg,
            num_agents=4,
            num_workers=2,
            checkpoint_interval=1,
            max_worker_restarts=1,
            debug_fail_workers=(1,),
        )
        try:
            fleet.run(64)
            assert fleet.quarantined_workers == {1}
            vec = VectorizedFleetBackend(GRID, cfg, num_agents=4)
            vec.run(64)
            lo, hi = fleet.shard_bounds(0)
            assert np.array_equal(fleet.q[lo:hi], vec.q[lo:hi])
        finally:
            fleet.close()

    def test_supervisor_composes_over_sharded(self):
        """FleetSupervisor's lane-level recovery runs on top of the
        backend's own process-level recovery."""
        from repro.robustness import BatchLanes, FleetSupervisor

        cfg = QTAccelConfig.qlearning(seed=9, qmax_mode="follow")
        fleet = _sharded(GRID, cfg, num_agents=4, num_workers=2)
        try:
            sup = FleetSupervisor(BatchLanes(fleet), interval=32)
            report = sup.run(96)
            assert report.completed
            assert fleet.stats.samples_per_agent == 96
        finally:
            fleet.close()


class TestShardedDispatchAndLifecycle:
    def test_facade_and_engine_dispatch(self):
        cfg = QTAccelConfig.qlearning(seed=2)
        via_engine = make_engine(
            cfg, engine="sharded", mdp=GRID, num_agents=2, num_workers=2,
            mp_context="fork",
        )
        try:
            assert isinstance(via_engine, ShardedFleetBackend)
            assert isinstance(via_engine, FleetBackend)
        finally:
            via_engine.close()

    def test_close_is_idempotent_and_context_manager(self):
        cfg = QTAccelConfig.qlearning(seed=2)
        with _sharded(GRID, cfg, num_agents=2, num_workers=2) as fleet:
            fleet.run(32)
        fleet.close()  # second close is a no-op

    def test_telemetry_snapshot_reports_topology(self):
        cfg = QTAccelConfig.qlearning(seed=2)
        fleet = _sharded(GRID, cfg, num_agents=4, num_workers=2)
        try:
            fleet.run(32)
            snap = fleet.telemetry_snapshot()
            assert snap["workers"] == 2
            assert snap["restarts"] == 0
        finally:
            fleet.close()
