"""Lane-leasing surface: reset_lane / apply_transition(s) / query_action.

The serving stack (`repro.serve`) leans on one contract: lane ``k`` of
any fleet backend, driven through the three lane ops, is bit-identical
to a standalone :class:`FunctionalSimulator` seeded with the same salt.
These tests pin that contract backend by backend, preset by preset and
qmax mode by qmax mode — they are the foundation the gateway's
bit-exactness tests in ``test_serve.py`` stand on.  The batched
``apply_transitions`` is held to sequential ``apply_transition`` on
every native tier, and its boundary checks to rejecting malformed
batches before any table moves.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.base import LaneOpError
from repro.backends.native import NativeFleetBackend, native_kernel_tiers
from repro.backends.sharded import ShardedFleetBackend
from repro.backends.vectorized import VectorizedFleetBackend
from repro.core.config import QTAccelConfig
from repro.core.engine import make_engine
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.fixedpoint import FxpFormat, ops
from repro.serve.session import serve_world

S, A = 16, 4
WORLD = serve_world(S, A)


def _reference(config, salt: int) -> FunctionalSimulator:
    return FunctionalSimulator(
        WORLD, config, draws=PolicyDraws.from_config(config, salt=salt)
    )


def _build(backend: str, config, k: int):
    if backend == "sharded":
        return ShardedFleetBackend(
            WORLD, config, num_agents=k, num_workers=2, mp_context="fork"
        )
    if backend == "scalar":
        return make_engine(config, engine="scalar", mdps=WORLD, num_agents=k)
    if backend == "native":
        # Lane ops route through the shared vectorized path; the
        # interpreted tier keeps this test independent of numba/cc.
        return NativeFleetBackend(WORLD, config, num_agents=k, kernel="python")
    return VectorizedFleetBackend(WORLD, config, num_agents=k)


def _drive(fleet, sims, *, steps: int, seed: int) -> None:
    """Interleave the three lane ops identically on fleet and references."""
    rng = random.Random(seed)
    lanes = list(range(len(sims)))
    for _ in range(steps):
        k = rng.choice(lanes)
        roll = rng.random()
        if roll < 0.70:
            s, a = rng.randrange(S), rng.randrange(A)
            r, ns = rng.uniform(-2.0, 2.0), rng.randrange(S)
            t = rng.random() < 0.05
            got = fleet.apply_transition(k, s, a, r, ns, t)
            want = sims[k].apply_transition(s, a, r, ns, t)
            assert got == want
        elif roll < 0.90:
            s = rng.randrange(S)
            got = fleet.query_action(k, s, True)
            want = sims[k].query_action(s, explore=True)
            assert got == want
        else:
            s = rng.randrange(S)
            got = fleet.query_action(k, s, False)
            want = sims[k].query_action(s, explore=False)
            assert got == want


def _assert_tables_equal(fleet, sims) -> None:
    for k, sim in enumerate(sims):
        assert [int(v) for v in fleet.q[k]] == [int(v) for v in sim.tables.q.data]


@pytest.mark.parametrize("backend", ["vectorized", "scalar", "native"])
@pytest.mark.parametrize("preset", ["qlearning", "sarsa"])
@pytest.mark.parametrize("qmax_mode", ["monotonic", "follow", "exact"])
def test_lane_ops_match_functional(backend, preset, qmax_mode):
    """Every lane op returns/updates bit-identically to the scalar sim."""
    cfg = getattr(QTAccelConfig, preset)(seed=7, qmax_mode=qmax_mode)
    fleet = _build(backend, cfg, k=3)
    salts = [100, 101, 102]
    for k, salt in enumerate(salts):
        fleet.reset_lane(k, salt)
    sims = [_reference(cfg, salt) for salt in salts]
    _drive(fleet, sims, steps=150, seed=99)
    _assert_tables_equal(fleet, sims)


@pytest.mark.parametrize("preset", ["qlearning", "sarsa"])
def test_lane_ops_match_functional_sharded(preset):
    """Borrowed-lane ops on the process-parallel backend stay bit-exact."""
    cfg = getattr(QTAccelConfig, preset)(seed=3)
    fleet = _build("sharded", cfg, k=4)
    try:
        salts = [200 + k for k in range(4)]
        for k, salt in enumerate(salts):
            fleet.reset_lane(k, salt)
        sims = [_reference(cfg, salt) for salt in salts]
        _drive(fleet, sims, steps=120, seed=5)
        _assert_tables_equal(fleet, sims)
    finally:
        fleet.close()


def test_reset_lane_is_pristine_and_isolated():
    """reset_lane re-seeds one lane exactly; the others are untouched."""
    cfg = QTAccelConfig.qlearning(seed=11)
    fleet = _build("vectorized", cfg, k=3)
    rng = random.Random(1)
    for _ in range(60):
        k = rng.randrange(3)
        fleet.apply_transition(
            k, rng.randrange(S), rng.randrange(A), rng.uniform(-1, 1),
            rng.randrange(S), False,
        )
    before = {k: np.array(fleet.q[k], copy=True) for k in (0, 2)}
    fleet.reset_lane(1, 500)
    fresh = _reference(cfg, 500)
    assert [int(v) for v in fleet.q[1]] == [int(v) for v in fresh.tables.q.data]
    for k in (0, 2):
        assert np.array_equal(np.asarray(fleet.q[k]), before[k])
    # The re-seeded lane continues bit-exactly from its pristine state.
    sims = [None, fresh, None]
    for _ in range(40):
        s, a = rng.randrange(S), rng.randrange(A)
        r, ns = rng.uniform(-1, 1), rng.randrange(S)
        assert fleet.apply_transition(1, s, a, r, ns, False) == fresh.apply_transition(
            s, a, r, ns, False
        )


def test_greedy_query_consumes_no_draw():
    """explore=False is a pure table read: no LFSR advance, no journal need."""
    cfg = QTAccelConfig.qlearning(seed=2)
    fleet = _build("vectorized", cfg, k=1)
    fleet.reset_lane(0, 77)
    ref = _reference(cfg, 77)
    rng = random.Random(8)
    for _ in range(50):
        s, a = rng.randrange(S), rng.randrange(A)
        r, ns = rng.uniform(-1, 1), rng.randrange(S)
        fleet.apply_transition(0, s, a, r, ns, False)
        ref.apply_transition(s, a, r, ns, False)
        # Greedy queries on the fleet only — if they consumed a draw the
        # streams would diverge at the next e-greedy op.
        fleet.query_action(0, rng.randrange(S), False)
    for _ in range(10):
        s = rng.randrange(S)
        assert fleet.query_action(0, s, True) == ref.query_action(s, explore=True)
    assert [int(v) for v in fleet.q[0]] == [int(v) for v in ref.tables.q.data]


def test_lane_op_range_validation():
    cfg = QTAccelConfig.qlearning(seed=1)
    fleet = _build("vectorized", cfg, k=2)
    with pytest.raises((ValueError, IndexError)):
        fleet.reset_lane(2, 10)
    with pytest.raises((ValueError, IndexError)):
        fleet.reset_lane(-1, 10)


# ---------------------------------------------------------------------- #
# The batched lane op: apply_transitions
# ---------------------------------------------------------------------- #

#: Native tiers on this host: the interpreted oracle always, cc/numba
#: when present.  The cc tier runs the compiled qtaccel_apply_rows; the
#: others run the reference loop.
NATIVE_TIERS = [t for t in ("python", "cc", "numba") if native_kernel_tiers()[t]]

#: Rule x update-policy variants (plain rules follow the policy strings:
#: ``qlearning`` + e-greedy update is the off-policy e-greedy twin).
BATCH_RULES = {
    "qlearning": dict(update_rule="qlearning"),
    "qlearning_egreedy": dict(update_rule="qlearning", update_policy="egreedy"),
    "sarsa": dict(update_rule="sarsa"),
    "momentum": dict(update_rule="momentum_qlearning"),
    "target": dict(update_rule="target_qlearning"),
    "target_sync": dict(update_rule="target_qlearning", target_sync_period=3),
}


def _batch_columns(rows, q_format):
    lanes, s, a, r, ns, t = zip(*rows)
    ints = [np.array(c, dtype=np.int64) for c in (lanes, s, a)]
    raw = ops.quantize_array(np.array(r, dtype=np.float64), q_format)
    return (*ints, raw, np.array(ns, dtype=np.int64), np.array(t, dtype=np.int64))


def _reset_pair(fleet, ref, salts):
    for k, salt in enumerate(salts):
        fleet.reset_lane(k, salt)
        ref.reset_lane(k, salt)


def _assert_same_state(a, b) -> None:
    sa, sb = a.state_dict(), b.state_dict()
    assert set(sa) == set(sb)
    for key in sa:
        if isinstance(sa[key], np.ndarray):
            assert np.array_equal(sa[key], sb[key]), key
        elif key == "lfsr":
            for bank in sa[key]:
                assert np.array_equal(sa[key][bank], sb[key][bank]), bank
        else:
            assert sa[key] == sb[key], key


@pytest.mark.parametrize("tier", NATIVE_TIERS)
@settings(max_examples=80, deadline=None)
@given(
    rule=st.sampled_from(sorted(BATCH_RULES)),
    qmax_mode=st.sampled_from(["exact", "monotonic", "follow"]),
    width=st.sampled_from([(10, 4), (16, 6), (48, 24)]),
    rounding=st.sampled_from(["truncate", "nearest"]),
    overflow=st.sampled_from(["saturate", "wrap"]),
    shape=st.sampled_from([(8, 4), (5, 3), (2, 2)]),
    seed=st.integers(1, 2**16),
    data=st.data(),
)
def test_apply_transitions_matches_sequential(
    tier, rule, qmax_mode, width, rounding, overflow, shape, seed, data
):
    """One batched call == the same rows through apply_transition, bit
    for bit: tables, latches, LFSRs, stats and the returned q_new."""
    n_states, n_actions = shape
    fmt = FxpFormat(*width, rounding=rounding, overflow=overflow)
    cfg = QTAccelConfig(
        seed=seed, q_format=fmt, qmax_mode=qmax_mode, **BATCH_RULES[rule]
    )
    world = serve_world(n_states, n_actions)
    lanes = 3
    reward = st.one_of(
        st.floats(-4.0, 4.0),
        st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    )
    rows = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, lanes - 1),
                st.integers(0, n_states - 1),
                st.integers(0, n_actions - 1),
                reward,
                st.integers(0, n_states - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=64,
        )
    )
    fleet = NativeFleetBackend(world, cfg, num_agents=lanes, kernel=tier)
    ref = VectorizedFleetBackend(world, cfg, num_agents=lanes)
    _reset_pair(fleet, ref, [seed, seed + 1, seed + 2])
    # Two calls: the lane latches must carry across call boundaries.
    cut = data.draw(st.integers(0, len(rows)))
    got = want = 0
    for part in (rows[:cut], rows[cut:]):
        if part:
            got = fleet.apply_transitions(*_batch_columns(part, fmt))
        for k, s, a, r, ns, t in part:
            want = ref.apply_transition(k, s, a, r, ns, t)
    assert got == want
    _assert_same_state(fleet, ref)


@pytest.mark.parametrize("tier", NATIVE_TIERS)
@pytest.mark.parametrize("overflow", ["saturate", "wrap"])
def test_apply_transitions_wide_words_exact(tier, overflow):
    """Saturated (48, 24) words drive the stage-3 sum past int64; the
    batch must still equal the Python-int reference datapath."""
    fmt = FxpFormat(48, 24, overflow=overflow)
    cfg = QTAccelConfig.qlearning(seed=2, q_format=fmt)
    world = serve_world(2, 2)
    fleet = NativeFleetBackend(world, cfg, num_agents=1, kernel=tier)
    ref = VectorizedFleetBackend(world, cfg, num_agents=1)
    rows = [(0, i % 2, 0, 1e300 if i % 5 else -1e300, (i + 1) % 2, False)
            for i in range(60)]
    got = fleet.apply_transitions(*_batch_columns(rows, fmt))
    for k, s, a, r, ns, t in rows:
        want = ref.apply_transition(k, s, a, r, ns, t)
    assert got == want
    _assert_same_state(fleet, ref)


@pytest.mark.parametrize("backend", ["vectorized", "scalar", "sharded"])
def test_apply_transitions_borrowed_loop(backend):
    """The scalar and sharded backends borrow the reference loop."""
    cfg = QTAccelConfig.sarsa(seed=4, qmax_mode="follow")
    fleet = _build(backend, cfg, k=2)
    try:
        salts = [300, 301]
        for k, salt in enumerate(salts):
            fleet.reset_lane(k, salt)
        sims = [_reference(cfg, salt) for salt in salts]
        rng = random.Random(3)
        rows = [
            (rng.randrange(2), rng.randrange(S), rng.randrange(A),
             rng.uniform(-2, 2), rng.randrange(S), rng.random() < 0.1)
            for _ in range(80)
        ]
        got = fleet.apply_transitions(*_batch_columns(rows, cfg.q_format))
        for k, s, a, r, ns, t in rows:
            want = sims[k].apply_transition(s, a, r, ns, t)
        assert got == want
        _assert_tables_equal(fleet, sims)
    finally:
        getattr(fleet, "close", lambda: None)()


@pytest.mark.parametrize("tier", NATIVE_TIERS)
class TestBatchBoundary:
    """Malformed batches raise a typed error before any table moves."""

    ROWS = [(0, 1, 0.5, 2, False), (1, 3, -1.0, 4, True), (0, 2, 0.25, 1, False)]

    def _fleet(self, tier):
        fleet = NativeFleetBackend(
            WORLD, QTAccelConfig.qlearning(seed=6), num_agents=2, kernel=tier
        )
        fleet.reset_lane(0, 40)
        fleet.reset_lane(1, 41)
        return fleet

    def _columns(self):
        rows = [(k % 2, s, a, r, ns, t) for k, (s, a, r, ns, t) in enumerate(self.ROWS)]
        return list(_batch_columns(rows, QTAccelConfig().q_format))

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda cols: cols.__setitem__(1, cols[1].astype(np.int32)),
            lambda cols: cols.__setitem__(3, np.repeat(cols[3], 2)[::2]),
            lambda cols: cols.__setitem__(4, cols[4] + S),
            lambda cols: cols.__setitem__(0, cols[0] - 1),
            lambda cols: cols.__setitem__(2, cols[2][:-1]),
            lambda cols: cols.__setitem__(5, cols[5].tolist()),
        ],
        ids=["int32", "non_contiguous", "ns_out_of_range", "negative_lane",
             "short_column", "not_an_array"],
    )
    def test_rejected_untouched(self, tier, corrupt):
        fleet = self._fleet(tier)
        before = fleet.state_dict()
        cols = self._columns()
        corrupt(cols)
        with pytest.raises(LaneOpError):
            fleet.apply_transitions(*cols)
        after = fleet.state_dict()
        for key, val in before.items():
            if isinstance(val, np.ndarray):
                assert np.array_equal(val, after[key]), key
        assert after["stats"] == before["stats"]

    def test_batch_after_load_state_dict(self, tier):
        """Checkpoint loads copy in place: the bound kernel arguments stay
        valid, and the next batch still matches the reference."""
        fleet = self._fleet(tier)
        ref = VectorizedFleetBackend(WORLD, fleet.config, num_agents=2)
        fleet.apply_transitions(*self._columns())
        snapshot = fleet.state_dict()
        fleet.apply_transitions(*self._columns())  # diverge, then restore
        fleet.load_state_dict(snapshot)
        ref.load_state_dict(snapshot)
        got = fleet.apply_transitions(*self._columns())
        want = ref.apply_transitions(*self._columns())
        assert got == want
        _assert_same_state(fleet, ref)
