"""Tests for the unified engine API: ``make_engine``, the ``Engine``
protocol, the shared run-stats contract, and the config construction
rules."""

import warnings

import numpy as np
import pytest

from repro import ENGINE_KINDS, Engine, make_engine
from repro.backends import (
    BatchStats,
    NativeFleetBackend,
    ScalarFleetBackend,
    ShardedFleetBackend,
    VectorizedFleetBackend,
    native_kernel_tiers,
)
from repro.core.config import QTAccelConfig
from repro.core.functional import FunctionalSimulator
from repro.core.multi_pipeline import IndependentPipelinesCycle, IndependentRunStats
from repro.core.pipeline import QTAccelPipeline
from repro.envs.gridworld import GridWorld

MDP = GridWorld.random(8, 4, obstacle_density=0.1, seed=4).to_mdp()
CFG = QTAccelConfig.qlearning(seed=6, qmax_mode="follow")


class TestMakeEngine:
    def test_kinds_registry(self):
        assert ENGINE_KINDS == (
            "functional", "pipeline", "scalar", "vectorized", "sharded", "native"
        )

    @pytest.mark.parametrize(
        "kind,cls,kw",
        [
            ("functional", FunctionalSimulator, {}),
            ("pipeline", QTAccelPipeline, {}),
            ("scalar", ScalarFleetBackend, {"num_agents": 3}),
            ("vectorized", VectorizedFleetBackend, {"num_agents": 3}),
            (
                "sharded",
                ShardedFleetBackend,
                {"num_agents": 3, "num_workers": 2, "mp_context": "fork"},
            ),
            pytest.param(
                "native",
                NativeFleetBackend,
                {"num_agents": 3, "kernel": "cc"},
                marks=pytest.mark.skipif(
                    not native_kernel_tiers()["cc"], reason="no C compiler"
                ),
            ),
        ],
    )
    def test_constructs_each_kind(self, kind, cls, kw):
        engine = make_engine(CFG, engine=kind, mdp=MDP, **kw)
        try:
            assert isinstance(engine, cls)
            assert isinstance(engine, Engine)
            engine.run(40)
            assert engine.stats.samples > 0
            engine.load_state_dict(engine.state_dict())
        finally:
            if hasattr(engine, "close"):
                engine.close()

    def test_default_is_functional(self):
        assert isinstance(make_engine(CFG, mdp=MDP), FunctionalSimulator)

    def test_fleet_backend_passthrough(self):
        scalar = make_engine(CFG, engine="scalar", mdps=MDP, num_agents=2)
        assert isinstance(scalar, ScalarFleetBackend)

    def test_matches_direct_construction(self):
        a = make_engine(CFG, mdp=MDP)
        b = FunctionalSimulator(MDP, CFG)
        a.run(200)
        b.run(200)
        assert np.array_equal(a.tables.q.data, b.tables.q.data)

    def test_mdp_and_mdps_interchangeable(self):
        one = make_engine(CFG, mdps=[MDP])  # fleet spelling, scalar engine
        assert isinstance(one, FunctionalSimulator)
        fleet = make_engine(CFG, engine="vectorized", mdp=MDP, num_agents=2)
        assert fleet.K == 2

    def test_error_paths(self):
        with pytest.raises(ValueError, match="engine: unknown value 'gpu'"):
            make_engine(CFG, engine="gpu", mdp=MDP)
        retired = "batch"  # the old fleet-facade kind; "scalar" replaced it
        with pytest.raises(ValueError, match="'batch'.*'scalar'"):
            make_engine(CFG, engine=retired, mdps=MDP, num_agents=2)
        with pytest.raises(TypeError, match="requires an mdp"):
            make_engine(CFG)
        with pytest.raises(TypeError, match="not both"):
            make_engine(CFG, mdp=MDP, mdps=[MDP])
        with pytest.raises(TypeError, match="runs a single world"):
            make_engine(CFG, engine="pipeline", mdps=[MDP, MDP])
        with pytest.raises(TypeError, match="must be a QTAccelConfig"):
            make_engine("qlearning", mdp=MDP)


class TestRunStatsContract:
    def test_functional_stats(self):
        sim = make_engine(CFG, mdp=MDP)
        sim.run(30)
        d = sim.stats.as_dict()
        assert d["samples"] == 30 and d["cycles"] is None
        assert sim.stats.cycles is None

    def test_pipeline_stats(self):
        pipe = make_engine(CFG, engine="pipeline", mdp=MDP)
        pipe.run(30)
        d = pipe.stats.as_dict()
        assert d["samples"] == 30 == pipe.stats.samples
        assert d["cycles"] == pipe.stats.cycles > 0
        # Checkpoints round-trip despite the derived "samples" key.
        pipe.load_state_dict(pipe.state_dict())
        assert pipe.stats.samples == 30

    def test_batch_stats(self):
        fleet = make_engine(CFG, engine="vectorized", mdps=MDP, num_agents=4)
        fleet.run(25)
        d = fleet.stats.as_dict()
        assert d["samples"] == 100 == fleet.stats.samples
        assert d["cycles"] is None

    def test_independent_run_stats(self):
        multi = IndependentPipelinesCycle([MDP, MDP], CFG)
        stats = multi.run(20)
        assert isinstance(stats, IndependentRunStats)
        d = stats.as_dict()
        assert d["samples"] == stats.samples == 40
        assert d["cycles"] == stats.cycles > 0


class TestDeprecationShims:
    def test_positional_config_rejected(self):
        with pytest.raises(TypeError, match="positional"):
            QTAccelConfig("egreedy", "egreedy")

    def test_stringly_policy_config_warns_and_works(self):
        """Policy strings with no rule name the plain rule they imply.

        The construction used to emit a DeprecationWarning; that warning is
        retired, so the test now pins that it works and stays silent.
        """
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = QTAccelConfig(behavior_policy="egreedy", update_policy="egreedy")
        assert cfg == QTAccelConfig(update_rule="sarsa")

    def test_keyword_config_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            QTAccelConfig(update_rule="qlearning")
            QTAccelConfig(update_rule="sarsa", epsilon=0.25)
            QTAccelConfig()

    def test_too_many_positionals(self):
        with pytest.raises(TypeError, match="positional"):
            QTAccelConfig(*(["random"] * 20))

    def test_positional_keyword_collision(self):
        with pytest.raises(TypeError, match="positional"):
            QTAccelConfig("random", behavior_policy="random")

    def test_total_samples_removed(self):
        stats = BatchStats(agents=3, samples_per_agent=7)
        assert stats.samples == 21
        with pytest.raises(AttributeError, match="total_samples"):
            stats.total_samples

    def test_validation_errors_name_field_and_value(self):
        with pytest.raises(ValueError, match="qmax_mode: unknown value 'bogus'"):
            QTAccelConfig(qmax_mode="bogus")
        with pytest.raises(ValueError, match="update_policy: unknown value 'sarsa'"):
            QTAccelConfig(update_policy="sarsa")


class TestFleetThroughputSweep:
    def test_snapshot_embeds_fleet_record(self, tmp_path):
        from repro.perf import build_snapshot, load_snapshot, run_bench, write_snapshot
        from repro.perf.fleet import SWEEPS, run_paired_sweep

        results = run_bench(cases=["functional"], repeats=1, warmup=0, quick=True)
        record = run_paired_sweep(
            *SWEEPS["fleet_throughput"], (8,), repeats=1, warmup=0, quick=True
        )
        snap = build_snapshot(results, fleet_throughput=record)
        path = write_snapshot(snap, tmp_path / "BENCH_t.json")
        loaded = load_snapshot(path)
        assert loaded["fleet_throughput"]["points"]["8"]["ratio"] is not None

    def test_cli_fleet_smoke_gate(self, capsys):
        from repro.perf.__main__ import main as perf_main

        assert perf_main(["fleet", "--smoke", "--repeats", "1"]) == 0
        assert perf_main(["fleet", "--smoke", "--repeats", "1", "--min-speedup", "1e9"]) == 1
        out = capsys.readouterr().out
        assert "fleet throughput" in out
