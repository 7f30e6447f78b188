#!/usr/bin/env python3
"""Fleet-scale training through the unified engine API.

Runs the same 256-learner fleet through ``repro.make_engine`` on the
pure-Python scalar lane loop, the vectorized numpy backend, and the
process-parallel sharded backend — and shows:

* all backends produce bit-identical Q-tables lane for lane (each lane
  also matches a standalone functional simulator with the same salt),
  whatever the sharded worker count;
* the vectorized backend's throughput advantage, which grows with the
  lane count, and the sharded backend's multi-core scaling on hosts
  with more than one CPU (see ``python -m repro.perf fleet`` and
  ``--workers`` for the full sweeps);
* checkpoint round-trips (``state_dict``/``load_state_dict``) work the
  same through the Engine interface on every backend.

Run:  python examples/fleet_scale.py
"""

import os
import time

import numpy as np

from repro import make_engine
from repro.core import QTAccelConfig
from repro.envs import GridWorld

LANES = 256
STEPS = 60  # per-lane updates; scalar baseline keeps this affordable


def main() -> None:
    mdp = GridWorld.empty(16, 4).to_mdp()
    cfg = QTAccelConfig.qlearning(seed=5, qmax_mode="follow")

    print(f"-- {LANES}-lane fleet, {STEPS} updates/lane per backend --")
    engines = {}
    for backend in ("scalar", "vectorized"):
        fleet = make_engine(cfg, engine=backend, mdps=mdp, num_agents=LANES)
        t0 = time.perf_counter()
        fleet.run(STEPS)
        dt = time.perf_counter() - t0
        engines[backend] = fleet
        print(
            f"{backend:>11s}: {LANES * STEPS / dt / 1e3:8.0f} K-updates/s "
            f"({dt * 1e3:.1f} ms)"
        )

    # The sharded backend runs the same lanes across worker processes
    # over shared memory; worker count never changes the bits.
    workers = min(2, os.cpu_count() or 1)
    sharded = make_engine(
        cfg, engine="sharded", mdps=mdp, num_agents=LANES, num_workers=workers
    )
    try:
        t0 = time.perf_counter()
        sharded.run(STEPS)
        dt = time.perf_counter() - t0
        print(
            f"{'sharded':>11s}: {LANES * STEPS / dt / 1e3:8.0f} K-updates/s "
            f"({dt * 1e3:.1f} ms, {workers} worker(s))"
        )
        identical = (
            np.array_equal(engines["scalar"].q, engines["vectorized"].q)
            and np.array_equal(engines["vectorized"].q, sharded.q)
        )
    finally:
        sharded.close()
    print(f"Q tables bit-identical across backends: {identical}")

    # Checkpoint round-trip through the Engine interface.
    fleet = engines["vectorized"]
    ckpt = fleet.state_dict()
    fleet.run(STEPS)
    q_after = fleet.q.copy()
    fleet.load_state_dict(ckpt)
    fleet.run(STEPS)
    print(f"checkpoint replay reproduces the run: {np.array_equal(fleet.q, q_after)}")
    print(f"fleet stats: {fleet.stats.as_dict()}")


if __name__ == "__main__":
    main()
