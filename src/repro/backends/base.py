"""Shared surface of the fleet backends.

A *fleet backend* runs ``n_lanes`` independent QTAccel learners — one
Q/Qmax table set, one LFSR triple and one architectural latch set per
lane — behind one lane-oriented interface.  Four implementations exist,
each constructed through :func:`repro.core.engine.make_engine`:

* :class:`~repro.backends.vectorized.VectorizedFleetBackend` — the
  array program: every per-sample quantity is a length-``n_lanes``
  numpy vector and the 4-multiplier update rule is applied lane-parallel
  per lock-step step (the software analogue of the paper's Fig. 9
  replicated pipelines);
* :class:`~repro.backends.scalar.ScalarFleetBackend` — a pure-Python
  loop of per-lane :class:`~repro.core.functional.FunctionalSimulator`
  instances (Da Silva-style "no batching"), kept as the reference
  baseline the throughput benches compare against;
* :class:`~repro.backends.sharded.ShardedFleetBackend` — the
  vectorized array program partitioned into contiguous lane shards,
  one ``multiprocessing`` worker per shard over shared-memory state
  (the multi-core analogue of replicating whole accelerators);
* :class:`~repro.backends.native.NativeFleetBackend` — the vectorized
  lock-step program fused into one compiled pass per chunk of steps.

All are **bit-identical per lane** to a scalar functional simulator
seeded with the same salt — draws, lag semantics, Qmax rules and
fixed-point arithmetic included (asserted by the test suite) — so the
backend choice is purely a throughput decision.

This module owns what the implementations share: the fleet-environment
normalisation/validation, the :class:`BatchStats` counters, the
:class:`FleetBackend` protocol and the lane-op boundary checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.runstats import RunStatsContract
from ..envs.base import DenseMdp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import QTAccelConfig


@dataclass
class BatchStats(RunStatsContract):
    """Aggregate counters of a fleet run (any backend)."""

    agents: int = 0
    samples_per_agent: int = 0
    episodes: int = 0
    exploits: int = 0
    explores: int = 0

    @property
    def samples(self) -> int:
        """Total updates retired across the fleet (the shared contract)."""
        return self.agents * self.samples_per_agent


#: Alias under the fleet vocabulary; ``BatchStats`` stays the canonical
#: name (checkpoints serialise its field dict).
FleetStats = BatchStats


@dataclass(frozen=True)
class FleetSpec:
    """Validated, normalised fleet construction inputs."""

    mdps: tuple[DenseMdp, ...]
    homogeneous: bool
    salts: np.ndarray  # (n_lanes,) int64

    @property
    def n_lanes(self) -> int:
        return len(self.mdps)

    @property
    def num_states(self) -> int:
        return self.mdps[0].num_states

    @property
    def num_actions(self) -> int:
        return self.mdps[0].num_actions


def normalize_fleet(
    mdps: "DenseMdp | Sequence[DenseMdp]",
    *,
    n_lanes: int | None = None,
    salts: Sequence[int] | None = None,
) -> FleetSpec:
    """Validate fleet inputs into a :class:`FleetSpec`.

    Accepts either one shared world (requires ``n_lanes``) or a sequence
    of same-shaped worlds (one per lane).  ``salts`` defaults to
    ``range(n_lanes)`` — lane ``k`` then matches a scalar simulator built
    with ``PolicyDraws.from_config(config, salt=k)``.
    """
    if isinstance(mdps, DenseMdp):
        if n_lanes is None:
            raise ValueError("num_agents is required with a single shared world")
        fleet = (mdps,) * n_lanes
        homogeneous = True
    else:
        fleet = tuple(mdps)
        if n_lanes is not None and n_lanes != len(fleet):
            raise ValueError("num_agents contradicts the mdps list")
        homogeneous = False
    if not fleet:
        raise ValueError("need at least one agent")
    k = len(fleet)
    shape = (fleet[0].num_states, fleet[0].num_actions)
    if any((m.num_states, m.num_actions) != shape for m in fleet):
        raise ValueError("all agent worlds must share (|S|, |A|)")
    n_starts = len(fleet[0].start_states)
    if any(len(m.start_states) != n_starts for m in fleet):
        raise ValueError(
            "all agent worlds must have equally many start states "
            "(the start draw reduces modulo that count)"
        )
    if salts is None:
        salts = range(k)
    salt_arr = np.asarray(list(salts), dtype=np.int64)
    if salt_arr.size != k:
        raise ValueError("need one salt per agent")
    return FleetSpec(mdps=fleet, homogeneous=homogeneous, salts=salt_arr)


@runtime_checkable
class FleetBackend(Protocol):
    """The lane-oriented interface every fleet backend implements.

    Attribute vocabulary (kept from the original batch engine so lane
    adapters like :class:`repro.robustness.checkpoint.BatchLanes` work
    on either backend): ``K`` lanes over ``S`` states x ``A`` actions,
    with ``q``/``qmax``/``qmax_action`` exposed as stacked per-lane
    arrays of shape ``(K, S*A)`` / ``(K, S)`` / ``(K, S)``.

    Update rules (:mod:`repro.algorithms`): every backend honours
    ``config.update_rule`` uniformly — the accelerated rules' extra
    per-lane tables (momentum iterate, Polyak target) are allocated,
    stepped, checkpointed in :meth:`state_dict`/:meth:`lane_state`, and
    reset by :meth:`reset_lane` exactly like the Q table, and every
    backend stays bit-identical per lane to a scalar functional
    simulator built with the same config and salt.  Rule selection
    errors are typed (:class:`repro.algorithms.UnknownUpdateRuleError`,
    :class:`repro.algorithms.IncompatibleRuleError`) and raised at
    :class:`~repro.core.config.QTAccelConfig` construction, before any
    backend is built; combinations a specific engine cannot honour
    raise :class:`repro.algorithms.UnsupportedRuleError` from its
    constructor (e.g. the cycle-accurate pipeline with a hard
    ``target_sync_period`` — a wholesale table copy has no single-cycle
    implementation).
    """

    K: int
    S: int
    A: int
    config: "QTAccelConfig"
    stats: BatchStats

    def step(self) -> None: ...

    def run(self, samples_per_agent: int) -> BatchStats: ...

    def state_dict(self) -> dict: ...

    def load_state_dict(self, state: dict) -> None: ...

    def lane_state(self, k: int, state: dict | None = None) -> dict: ...

    def load_lane_state(self, k: int, lane: dict) -> None: ...

    def q_float(self, agent: int) -> np.ndarray: ...

    def q_float_all(self) -> np.ndarray: ...

    def telemetry_snapshot(self) -> dict: ...

    # Lane leasing — the ``repro.serve`` surface.  A *leased* lane is
    # driven by externally supplied transitions instead of the built-in
    # environment tables: ``reset_lane`` re-seeds lane ``k`` to the
    # pristine state of a fresh lane with the given salt,
    # ``apply_transition`` retires one client-supplied ``(s, a, r, s')``
    # sample through the full 4-stage datapath (one policy draw for
    # e-greedy update policies, none for greedy), and ``query_action``
    # recommends an action from the committed tables (consuming one
    # policy draw only when ``explore=True``).  All three are
    # bit-identical across backends for the same salt and call sequence.

    def reset_lane(self, k: int, salt: int) -> None: ...

    def apply_transition(
        self,
        k: int,
        state: int,
        action: int,
        reward: float,
        next_state: int,
        terminal: bool = False,
    ) -> int: ...

    def query_action(self, k: int, state: int, explore: bool = True) -> int: ...

    # The batched lane op: row ``i`` does exactly what
    # ``apply_transition(lanes[i], s[i], a[i], ·, ns[i], t[i])`` does, in
    # row order, with the reward already quantised (``r`` holds raw
    # ``q_format`` words, see ``ops.quantize_array``).  Columns are
    # 1-D C-contiguous ``int64`` arrays of one length; a malformed
    # column or an out-of-range index raises :class:`LaneOpError` before
    # any row is applied.  Returns the last row's written Q value.

    def apply_transitions(
        self,
        lanes: np.ndarray,
        s: np.ndarray,
        a: np.ndarray,
        r: np.ndarray,
        ns: np.ndarray,
        t: np.ndarray,
    ) -> int: ...


class LaneOpError(ValueError):
    """A lane-op argument failed the boundary checks — wrong dtype or
    layout, too short, or an index out of range.  Raised before any
    table is touched."""


#: Column names of an :meth:`FleetBackend.apply_transitions` batch.
TRANSITION_COLUMNS = ("lanes", "s", "a", "r", "ns", "t")


def check_transition_batch(backend, *columns: np.ndarray) -> int:
    """Boundary checks of one ``apply_transitions`` batch; returns its
    row count or raises :class:`LaneOpError`.

    Every column must be a 1-D C-contiguous ``int64`` array of one
    length, and every lane, state and action index in range for
    ``backend`` (one vectorized pass per index column: viewed unsigned,
    a negative index compares above any bound).
    """
    n = None
    for name, col in zip(TRANSITION_COLUMNS, columns, strict=True):
        if (
            not isinstance(col, np.ndarray)
            or col.dtype != np.int64
            or col.ndim != 1
            or not col.flags.c_contiguous
        ):
            raise LaneOpError(
                f"apply_transitions column {name!r} must be a 1-D "
                f"C-contiguous int64 array, got "
                f"{getattr(col, 'dtype', type(col).__name__)}"
            )
        if n is None:
            n = len(col)
        elif len(col) != n:
            raise LaneOpError(
                f"apply_transitions column {name!r} has {len(col)} rows, "
                f"expected {n}"
            )
    if n:
        lanes, s, a, _, ns, _ = columns
        for name, col, hi in (
            ("lanes", lanes, backend.K),
            ("s", s, backend.S),
            ("a", a, backend.A),
            ("ns", ns, backend.S),
        ):
            unsigned = col.view(np.uint64)
            if unsigned.max() >= hi:
                row = int(np.flatnonzero(unsigned >= hi)[0])
                raise LaneOpError(
                    f"apply_transitions row {row}: {name}={int(col[row])} "
                    f"out of range [0, {hi})"
                )
    return n
