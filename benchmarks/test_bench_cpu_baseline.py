"""Table II bench: the paper's CPU baseline, measured for real.

This is the one benchmark whose *absolute* number is the artifact: the
nested-dict Python Q-Learning of §VI-E timed on this machine, across the
Table II sizes, against the modelled FPGA throughput.
"""

import pytest

from repro.core.config import QTAccelConfig
from repro.device.resources import estimate_resources
from repro.device.timing import throughput
from repro.envs.gridworld import GridWorld
from repro.experiments import run_experiment
from repro.experiments.cases import grid_side
from repro.reference.qlearning import DictQLearning

from .conftest import emit_once

SAMPLES = 30_000


@pytest.mark.parametrize("num_states", [64, 1024, 16384, 262144])
@pytest.mark.parametrize("num_actions", [4, 8])
def test_dict_qlearning_cpu(benchmark, num_states, num_actions):
    mdp = GridWorld.empty(grid_side(num_states), num_actions).to_mdp()
    learner = DictQLearning(mdp, seed=1)
    learner.run(2_000)  # warm the dict

    benchmark.pedantic(learner.run, args=(SAMPLES,), rounds=3, iterations=1)
    if benchmark.stats is not None:  # None under --benchmark-disable
        # samples/s from the benchmark's own stats
        sps = SAMPLES / benchmark.stats.stats.mean
        fpga = throughput(
            estimate_resources(num_states, num_actions, QTAccelConfig.qlearning())
        ).samples_per_sec
        benchmark.extra_info["cpu_samples_per_sec"] = round(sps)
        benchmark.extra_info["fpga_model_samples_per_sec"] = round(fpga)
        benchmark.extra_info["speedup"] = round(fpga / sps)
        assert fpga / sps > 50  # the orders-of-magnitude Table II gap
    emit_once("table2", run_experiment("table2", quick=True).format())
