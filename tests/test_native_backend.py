"""The native fused-kernel backend (``repro.backends.native``).

Contract under test, tier by tier: whichever kernel tier advances the
fleet — interpreted ``python``, runtime-compiled ``cc``, JIT ``numba`` —
the resulting architectural state is bit-identical to the vectorized
numpy program (and therefore, transitively, to the scalar
:class:`FunctionalSimulator` every other backend is pinned against).
The suite runs against every tier available on the host; the ``python``
oracle is always available, so the contract is exercised even on a
machine with neither numba nor a C compiler.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.algorithms import RuleKernel, UnsupportedRuleError
from repro.algorithms.rules import QLearningRule
from repro.backends import (
    FleetBackend,
    NativeBackendUnavailableError,
    NativeFleetBackend,
    VectorizedFleetBackend,
    native_available,
    native_kernel_tiers,
)
from repro.backends import native as native_mod
from repro.core.config import QTAccelConfig
from repro.core.engine import make_engine
from repro.core.functional import FunctionalSimulator
from repro.core.policies import PolicyDraws
from repro.envs.random_mdp import random_dense_mdp
from repro.fixedpoint import FxpFormat
from tests.test_update_rules import GOLDEN_MOMENTUM, GRID

LOOPY = random_dense_mdp(16, 4, seed=9, self_loop_bias=0.5)

#: Kernel tiers present on this host, cheapest-to-verify first.  The
#: interpreted oracle is unconditionally present; CI's native-smoke job
#: adds numba, most dev hosts add cc.
AVAILABLE_TIERS = [t for t in ("python", "cc", "numba") if native_kernel_tiers()[t]]
COMPILED_TIERS = [t for t in AVAILABLE_TIERS if t != "python"]

#: Formats the bit-identity sweep covers: the default s16.6 in both
#: rounding modes, wrap overflow, a deliberately narrow word that
#: overflows constantly, and a wide "float-like" word.
Q_FORMATS = {
    "default": FxpFormat(16, 6),
    "nearest": FxpFormat(16, 6, rounding="nearest"),
    "wrap": FxpFormat(16, 6, overflow="wrap"),
    "narrow": FxpFormat(10, 4),
    "floatlike": FxpFormat(48, 24),
}

RULES = ("qlearning", "sarsa", "momentum", "target")


def _cfg(rule: str, **kw) -> QTAccelConfig:
    if rule == "momentum":
        return QTAccelConfig.momentum(**kw)
    if rule == "target":
        return QTAccelConfig.target_q(**kw)
    return getattr(QTAccelConfig, rule)(**kw)


def _assert_equal_tree(a, b, path="state") -> None:
    if isinstance(a, dict):
        assert set(a) == set(b), path
        for key in a:
            _assert_equal_tree(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), f"{path} differs"
    else:
        assert a == b, f"{path} differs"


def _assert_same_state(native, vec) -> None:
    """Full architectural equality, not just the Q tables."""
    _assert_equal_tree(native.state_dict(), vec.state_dict())
    assert native.stats.as_dict() == vec.stats.as_dict()


# ---------------------------------------------------------------------- #
# Dispatch and availability
# ---------------------------------------------------------------------- #


class TestRegistryAndDispatch:
    def test_kernel_tier_report(self):
        tiers = native_kernel_tiers()
        assert set(tiers) == {"numba", "cc", "python"}
        assert tiers["python"] is True
        ok, detail = native_available()
        assert isinstance(ok, bool) and isinstance(detail, str)

    def test_make_engine_and_facade_dispatch(self):
        cfg = QTAccelConfig.qlearning(seed=1)
        eng = make_engine(cfg, engine="native", mdp=GRID, num_agents=2, kernel="python")
        assert isinstance(eng, NativeFleetBackend)
        assert isinstance(eng, FleetBackend)
        eng.run(16)
        assert eng.stats.samples == 32

    def test_env_var_selects_tier(self, monkeypatch):
        monkeypatch.setenv(native_mod.KERNEL_ENV_VAR, "python")
        fleet = NativeFleetBackend(GRID, QTAccelConfig.qlearning(seed=1), num_agents=1)
        assert fleet.kernel_tier == "python"

    def test_explicit_kernel_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv(native_mod.KERNEL_ENV_VAR, "definitely-not-a-tier")
        fleet = NativeFleetBackend(
            GRID, QTAccelConfig.qlearning(seed=1), num_agents=1, kernel="python"
        )
        assert fleet.kernel_tier == "python"

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown native kernel tier"):
            NativeFleetBackend(
                GRID, QTAccelConfig.qlearning(seed=1), num_agents=1, kernel="gpu"
            )

    def test_unavailable_auto_raises_typed_error(self, monkeypatch):
        """With no compiled tier the error is typed and names the extra."""
        monkeypatch.setattr(
            native_mod,
            "native_kernel_tiers",
            lambda: {"numba": False, "cc": False, "python": True},
        )
        with pytest.raises(NativeBackendUnavailableError, match=r"repro\[native\]"):
            make_engine(
                QTAccelConfig.qlearning(seed=1), engine="native", mdp=GRID,
                num_agents=1,
            )

    def test_unavailable_explicit_tier_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            native_mod,
            "native_kernel_tiers",
            lambda: {"numba": False, "cc": True, "python": True},
        )
        with pytest.raises(NativeBackendUnavailableError, match="'numba'"):
            NativeFleetBackend(
                GRID, QTAccelConfig.qlearning(seed=1), num_agents=1, kernel="numba"
            )

    def test_unlowered_rule_rejected_at_construction(self, monkeypatch):
        """A rule whose RuleKernel id has no fused lowering fails early,
        typed, and names the backend that would still run it."""
        monkeypatch.setattr(
            QLearningRule, "kernel", RuleKernel(kernel_id=9, note="no lowering")
        )
        with pytest.raises(UnsupportedRuleError, match="kernel_id=9"):
            NativeFleetBackend(
                GRID, QTAccelConfig.qlearning(seed=1), num_agents=1, kernel="python"
            )

    def test_telemetry_snapshot_reports_tier(self):
        fleet = NativeFleetBackend(
            GRID, QTAccelConfig.qlearning(seed=2), num_agents=2, kernel="python"
        )
        fleet.run(8)
        snap = fleet.telemetry_snapshot()
        assert snap["kernel"] == "python"


# ---------------------------------------------------------------------- #
# Bit identity: every tier == the vectorized program == the scalar sim
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("tier", AVAILABLE_TIERS)
class TestBitIdentity:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(1, 2**16),
        rule=st.sampled_from(RULES),
        fmt=st.sampled_from(sorted(Q_FORMATS)),
        qmax_mode=st.sampled_from(["exact", "monotonic", "follow"]),
    )
    def test_matches_vectorized(self, tier, seed, rule, fmt, qmax_mode):
        cfg = _cfg(rule, seed=seed, q_format=Q_FORMATS[fmt], qmax_mode=qmax_mode)
        nat = NativeFleetBackend(LOOPY, cfg, num_agents=3, kernel=tier)
        vec = VectorizedFleetBackend(LOOPY, cfg, num_agents=3)
        nat.run(200)
        vec.run(200)
        _assert_same_state(nat, vec)

    def test_lane_matches_functional(self, tier):
        """Lane k of the fused kernel == a scalar sim with salt k."""
        cfg = QTAccelConfig.sarsa(seed=23, qmax_mode="follow")
        fleet = NativeFleetBackend(GRID, cfg, num_agents=3, kernel=tier)
        fleet.run(300)
        for k in range(3):
            ref = FunctionalSimulator(
                GRID, cfg, draws=PolicyDraws.from_config(cfg, salt=k)
            )
            ref.run(300)
            assert np.array_equal(fleet.q[k], ref.tables.q.data), f"lane {k}"
            assert np.array_equal(fleet.qmax[k], ref.tables.qmax.data)
            assert np.array_equal(fleet.qmax_action[k], ref.tables.qmax_action.data)

    def test_hard_target_sync_matches_vectorized(self, tier):
        """The wholesale table copy (sync_period) inside the fused loop."""
        cfg = QTAccelConfig.target_q(seed=31, target_sync_period=17)
        nat = NativeFleetBackend(GRID, cfg, num_agents=3, kernel=tier)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        nat.run(250)
        vec.run(250)
        _assert_same_state(nat, vec)
        assert np.array_equal(nat.target, vec.target)

    def test_heterogeneous_fleet_matches_vectorized(self, tier):
        """Per-lane env table offsets survive the fused lowering."""
        worlds = [GRID, GRID, GRID]
        cfg = QTAccelConfig.sarsa(seed=41, qmax_mode="follow")
        nat = NativeFleetBackend(worlds, cfg, salts=[5, 9, 2], kernel=tier)
        vec = VectorizedFleetBackend(worlds, cfg, salts=[5, 9, 2])
        nat.run(200)
        vec.run(200)
        _assert_same_state(nat, vec)

    def test_step_and_run_interleave(self, tier):
        """Mixing single fused steps with fused runs stays on trajectory."""
        cfg = QTAccelConfig.qlearning(seed=3)
        nat = NativeFleetBackend(GRID, cfg, num_agents=2, kernel=tier)
        vec = VectorizedFleetBackend(GRID, cfg, num_agents=2)
        for _ in range(30):
            nat.step()
            vec.step()
        nat.run(70)
        vec.run(70)
        assert np.array_equal(nat.q, vec.q)
        assert np.array_equal(nat.qmax, vec.qmax)

    def test_golden_momentum_trace(self, tier):
        """The fused kernel reproduces the committed momentum golden
        trace sample by sample (lane 0 == the default-salt scalar sim);
        the lag latches expose (pair, action, q_raw) after each step."""
        fleet = NativeFleetBackend(
            GRID, QTAccelConfig.momentum(seed=5), num_agents=1, kernel=tier
        )
        A = fleet.A
        for sample, state, action, q_raw in GOLDEN_MOMENTUM:
            fleet.step()
            got_pair = int(fleet._prev_pair[0])
            got_state = int(fleet._prev_state[0])
            assert got_state == state, f"sample {sample}"
            assert got_pair - got_state * A == action, f"sample {sample}"
            assert int(fleet.q[0, got_pair]) == q_raw, f"sample {sample}"


@pytest.mark.parametrize("tier", COMPILED_TIERS)
def test_compiled_tier_agrees_with_python_oracle(tier):
    """Compiled tiers replay the interpreted oracle exactly — including
    the narrow wrap-overflow format where C/numba integer semantics
    could plausibly diverge from the numpy reference."""
    cfg = QTAccelConfig.momentum(
        seed=7, q_format=FxpFormat(10, 4, overflow="wrap"), qmax_mode="follow"
    )
    fast = NativeFleetBackend(LOOPY, cfg, num_agents=3, kernel=tier)
    oracle = NativeFleetBackend(LOOPY, cfg, num_agents=3, kernel="python")
    fast.run(400)
    oracle.run(400)
    _assert_same_state(fast, oracle)


@pytest.mark.parametrize("tier", AVAILABLE_TIERS)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fleet_keeps_int64_accumulator_on_saturated_wide_words(tier):
    """With (48, 24) words saturated by huge rewards the stage-3 sum
    leaves int64; the fused fleet loop wraps it exactly as the numpy
    array program does (the batched lane op instead matches the exact
    scalar datapath, see tests/test_lane_ops.py)."""
    from repro.envs.base import DenseMdp

    huge = DenseMdp(
        next_state=LOOPY.next_state,
        rewards=np.full(LOOPY.rewards.shape, 1e300),
        terminal=np.zeros_like(LOOPY.terminal),
        start_states=LOOPY.start_states,
        name="saturating",
    )
    cfg = QTAccelConfig.qlearning(seed=3, q_format=FxpFormat(48, 24))
    nat = NativeFleetBackend(huge, cfg, num_agents=2, kernel=tier)
    vec = VectorizedFleetBackend(huge, cfg, num_agents=2)
    nat.run(300)
    vec.run(300)
    _assert_same_state(nat, vec)


# ---------------------------------------------------------------------- #
# Checkpoint / rollback
# ---------------------------------------------------------------------- #


class TestCheckpoint:
    @pytest.mark.parametrize("tier", AVAILABLE_TIERS)
    def test_state_dict_replays_exactly(self, tier):
        cfg = QTAccelConfig.target_q(seed=13, target_sync_period=32)
        fleet = NativeFleetBackend(LOOPY, cfg, num_agents=4, kernel=tier)
        fleet.run(150)
        ckpt = fleet.state_dict()
        fleet.run(150)
        q_after = fleet.q.copy()
        stats_after = fleet.stats.as_dict()

        fresh = NativeFleetBackend(LOOPY, cfg, num_agents=4, kernel=tier)
        fresh.load_state_dict(ckpt)
        fresh.run(150)
        assert np.array_equal(fresh.q, q_after)
        assert np.array_equal(fresh.target, fleet.target)
        assert fresh.stats.as_dict() == stats_after

    def test_checkpoints_portable_across_backends(self):
        """A mid-run native checkpoint restores into the vectorized
        backend (and back) with the continuation bit-identical."""
        cfg = QTAccelConfig.momentum(seed=17, qmax_mode="follow")
        nat = NativeFleetBackend(GRID, cfg, num_agents=3, kernel="python")
        nat.run(120)
        ckpt = nat.state_dict()
        nat.run(120)

        vec = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        vec.load_state_dict(ckpt)
        vec.run(120)
        _assert_same_state(nat, vec)

        back = NativeFleetBackend(GRID, cfg, num_agents=3, kernel="python")
        back.load_state_dict(VectorizedFleetBackend(GRID, cfg, num_agents=3).state_dict())
        fresh_vec = VectorizedFleetBackend(GRID, cfg, num_agents=3)
        back.run(90)
        fresh_vec.run(90)
        _assert_same_state(back, fresh_vec)

    def test_lane_rollback(self):
        cfg = QTAccelConfig.qlearning(seed=8)
        fleet = NativeFleetBackend(GRID, cfg, num_agents=3, kernel="python")
        fleet.run(120)
        lane = fleet.lane_state(1)
        fleet.run(50)
        untouched = fleet.q[2].copy()
        fleet.load_lane_state(1, lane)
        assert np.array_equal(fleet.q[2], untouched)
        ref = FunctionalSimulator(GRID, cfg, draws=PolicyDraws.from_config(cfg, salt=1))
        ref.run(120)
        assert np.array_equal(fleet.q[1], ref.tables.q.data)


# ---------------------------------------------------------------------- #
# Import hygiene: the package never needs numba
# ---------------------------------------------------------------------- #


def test_import_and_python_tier_never_touch_numba():
    """``import repro.backends`` plus a python-tier run must succeed
    with numba imports hard-blocked — the extra is optional, and only
    the explicit ``kernel='numba'`` tier may reach for it."""
    src_dir = Path(repro.__file__).resolve().parents[1]
    code = textwrap.dedent(
        """
        import importlib.abc, importlib.machinery, sys

        class _BlockLoader(importlib.abc.Loader):
            def create_module(self, spec):
                raise ImportError("numba import blocked by test")

            def exec_module(self, module):
                raise ImportError("numba import blocked by test")

        class _BlockFinder:
            def find_spec(self, name, path=None, target=None):
                if name == "numba" or name.startswith("numba."):
                    return importlib.machinery.ModuleSpec(name, _BlockLoader())
                return None

        sys.meta_path.insert(0, _BlockFinder())

        import repro.backends
        assert "numba" not in sys.modules
        from repro.backends import NativeFleetBackend
        from repro.core.config import QTAccelConfig
        from repro.envs.random_mdp import random_dense_mdp

        mdp = random_dense_mdp(16, 4, seed=9, self_loop_bias=0.5)
        fleet = NativeFleetBackend(
            mdp, QTAccelConfig.qlearning(seed=3), num_agents=2, kernel="python"
        )
        fleet.run(32)
        assert "numba" not in sys.modules
        print("NUMBA-FREE-OK")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    env.pop(native_mod.KERNEL_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=str(src_dir.parent),
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "NUMBA-FREE-OK" in proc.stdout


# ---------------------------------------------------------------------- #
# Perf plumbing: the sweep record and its sentinel gate
# ---------------------------------------------------------------------- #


class TestNativeSweepRecord:
    @staticmethod
    def _snapshot(ratio, ups, *, kernel="cc", machine=None):
        from repro.perf.snapshot import build_snapshot

        record = {
            "candidate": "native", "baseline": "vectorized", "axis": "lanes",
            "lanes": None, "kernel": kernel, "quick": False,
            "points": {"4096": {
                "candidate": {"updates_per_sec": ups},
                "ratio": ratio,
            }},
        }
        snap = build_snapshot({}, native_throughput=record)
        if machine is not None:
            snap["machine"] = dict(snap["machine"], machine=machine)
        return snap

    def test_compare_sentinel_gates_speedup(self):
        from repro.perf.compare import compare_snapshots

        base = self._snapshot(6.0, 5.0e7)
        worse = self._snapshot(2.0, 4.8e7)
        verdicts = {f.case: f.verdict for f in compare_snapshots(base, worse).findings}
        assert verdicts["native.speedup@lanes=4096"] == "regression"
        assert verdicts["native.updates_per_sec@lanes=4096"] == "ok"

        # The speedup ratio gates even across machine fingerprints;
        # absolute wall-clock does not.
        elsewhere = self._snapshot(2.0, 4.8e7, machine="elsewhere")
        verdicts = {
            f.case: f.verdict for f in compare_snapshots(base, elsewhere).findings
        }
        assert verdicts["native.speedup@lanes=4096"] == "regression"
        assert verdicts["native.updates_per_sec@lanes=4096"] == "skipped"

    def test_compare_sentinel_shape_guard(self):
        from repro.perf.compare import compare_snapshots

        base = self._snapshot(6.0, 5.0e7, kernel="cc")
        new = self._snapshot(2.0, 5.0e7, kernel="numba")
        result = compare_snapshots(base, new)
        assert result.ok
        assert [f.verdict for f in result.findings] == ["skipped"]
