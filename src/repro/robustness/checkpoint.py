"""Checkpoint/restore and fleet supervision.

Every engine in the reproduction is *deterministic*: its next state is a
pure function of its architectural state (tables, LFSR registers, the
episode/forwarding latches).  The engines therefore expose
``state_dict()`` / ``load_state_dict()`` snapshots of exactly that
state, and recovery reduces to a very strong primitive — restore a
checkpoint and re-run, and the machine reproduces the original
trajectory bit for bit.  Corruption injected from *outside* the machine
(an SEU) is not part of that function, so a rollback-and-retry of a
poisoned interval genuinely heals it.

Layers in this module:

* :class:`CheckpointStore` — a bounded ring of recent snapshots;
* :class:`BatchLanes` / :class:`SimLanes` — adapters giving the fleet
  engines (any fleet backend from :func:`~repro.core.engine.make_engine`,
  :class:`~repro.core.multi_pipeline.IndependentPipelines` or any list
  of scalar simulators) one lane-oriented interface;
* :class:`Watchdog` — a progress monitor that trips after ``patience``
  intervals without forward progress;
* :class:`FleetSupervisor` — the recovery loop: run in chunks, health-
  check every lane after each chunk, roll back and retry poisoned
  chunks, and quarantine lanes that stay unhealthy so the rest of the
  fleet keeps training (graceful degradation).

The process-parallel :class:`~repro.backends.sharded.ShardedFleetBackend`
reuses :class:`CheckpointStore` as its epoch-snapshot ring and applies
the same rollback/retry/quarantine discipline at worker-process
granularity: a crashed worker's shard is restored from the last
checkpoint and replayed (determinism makes the replay bit-exact), and a
worker that keeps dying is quarantined so the surviving shards train on.
:class:`FleetSupervisor` also composes *over* a sharded fleet through
:class:`BatchLanes`, layering per-lane health checks on top of the
backend's own crash recovery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..fixedpoint.format import FxpFormat


class CheckpointStore:
    """A bounded ring of ``(tag, state)`` snapshots, newest last.

    States are the engines' ``state_dict()`` payloads, which already
    copy their arrays — the store never aliases live engine state.
    """

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring: deque = deque(maxlen=capacity)

    def push(self, tag, state: dict) -> None:
        self._ring.append((tag, state))

    def latest(self) -> tuple:
        """Newest ``(tag, state)``; raises if empty."""
        if not self._ring:
            raise LookupError("no checkpoints stored")
        return self._ring[-1]

    def get(self, tag):
        """The newest state stored under ``tag``; raises if absent."""
        for t, state in reversed(self._ring):
            if t == tag:
                return state
        raise LookupError(f"no checkpoint tagged {tag!r}")

    def __len__(self) -> int:
        return len(self._ring)

    def tags(self) -> list:
        return [t for t, _ in self._ring]


# ---------------------------------------------------------------------- #
# Lane adapters
# ---------------------------------------------------------------------- #


class BatchLanes:
    """Lane adapter over any fleet backend (:class:`repro.backends.FleetBackend`).

    A fleet backend advances all lanes in lock-step, so the rollback
    unit is the whole fleet: restore the checkpoint and re-run the chunk.
    Determinism makes this safe — healthy lanes replay bit-identically,
    and only externally injected corruption (which is *not* part of the
    replay) disappears.  Persistent corruption is handled per lane via
    :meth:`restore_lane` + quarantine.
    """

    def __init__(self, sim):
        self.sim = sim

    @property
    def num_lanes(self) -> int:
        return self.sim.K

    def checkpoint(self) -> dict:
        return self.sim.state_dict()

    def restore(self, state: dict) -> None:
        self.sim.load_state_dict(state)

    def restore_lane(self, k: int, state: dict) -> None:
        self.sim.load_lane_state(k, self.sim.lane_state(k, state))

    def run_chunk(self, samples: int, lanes_mask: Optional[np.ndarray] = None) -> None:
        # Lock-step engine: quarantined lanes keep stepping (their
        # results are excluded by the supervisor), exactly like a fleet
        # whose broken pipeline keeps clocking.
        self.sim.run(samples)

    def lane_health(self, k: int) -> bool:
        """Default health predicate: per-lane structural invariants.

        Under the monotonic rule ``Qmax[s] >= max_a Q[s, a]`` holds for
        every state of a healthy lane; the cached argmax must be a legal
        action index.  (A flip that only *lowers* a Q entry stays
        consistent and is undetectable here — that is what ECC is for.)
        """
        sim = self.sim
        rows = sim.q[k].reshape(sim.S, sim.A)
        acts = sim.qmax_action[k]
        if not bool(np.all((acts >= 0) & (acts < sim.A))):
            return False
        if sim.config.qmax_mode == "monotonic":
            return bool(np.all(sim.qmax[k] >= rows.max(axis=1)))
        return True


class SimLanes:
    """Lane adapter over independent scalar simulators.

    Accepts a list of :class:`~repro.core.functional.FunctionalSimulator`
    (or anything with the same ``run``/``state_dict`` surface), e.g.
    ``IndependentPipelines.sims``.  Lanes advance independently, so both
    rollback and retry happen per lane, and quarantined lanes simply stop
    being run.
    """

    def __init__(self, sims: Sequence):
        if not sims:
            raise ValueError("need at least one lane")
        self.sims = list(sims)

    @property
    def num_lanes(self) -> int:
        return len(self.sims)

    def checkpoint(self) -> dict:
        return {"lanes": [sim.state_dict() for sim in self.sims]}

    def restore(self, state: dict) -> None:
        for sim, lane in zip(self.sims, state["lanes"]):
            sim.load_state_dict(lane)

    def restore_lane(self, k: int, state: dict) -> None:
        self.sims[k].load_state_dict(state["lanes"][k])

    def run_chunk(self, samples: int, lanes_mask: Optional[np.ndarray] = None) -> None:
        for k, sim in enumerate(self.sims):
            if lanes_mask is None or lanes_mask[k]:
                sim.run(samples)

    def run_lane_chunk(self, k: int, samples: int) -> None:
        self.sims[k].run(samples)

    def lane_health(self, k: int) -> bool:
        sim = self.sims[k]
        tables = sim.tables
        acts = tables.qmax_action.data
        if not bool(np.all((acts >= 0) & (acts < tables.num_actions))):
            return False
        if sim.config.qmax_mode == "monotonic":
            return tables.qmax_invariant_holds()
        return True


# ---------------------------------------------------------------------- #
# Watchdog
# ---------------------------------------------------------------------- #


class Watchdog:
    """Trips after ``patience`` beats without forward progress.

    ``beat(progress)`` returns True while healthy; once the same (or a
    lower) progress value has been reported ``patience`` times in a row
    the watchdog is expired and every further beat returns False.
    """

    def __init__(self, patience: int = 3):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.strikes = 0
        self._best: Optional[float] = None

    @property
    def expired(self) -> bool:
        return self.strikes >= self.patience

    def beat(self, progress: float) -> bool:
        if self._best is None or progress > self._best:
            self._best = progress
            self.strikes = 0
        else:
            self.strikes += 1
        return not self.expired


# ---------------------------------------------------------------------- #
# Supervisor
# ---------------------------------------------------------------------- #


@dataclass
class SupervisorReport:
    """Outcome of one supervised run."""

    chunks: int = 0
    samples_per_lane: int = 0
    retries: int = 0
    rollbacks: int = 0
    quarantined: tuple[int, ...] = ()
    completed: bool = True

    @property
    def healthy_lanes(self) -> int:
        return self._num_lanes - len(self.quarantined)

    _num_lanes: int = field(default=0, repr=False)


class FleetSupervisor:
    """Checkpointed, self-healing execution of a lane fleet.

    Per chunk of ``interval`` samples: snapshot, run, health-check every
    (non-quarantined) lane.  Unhealthy lanes trigger rollback to the
    chunk-start snapshot and a retry, up to ``max_retries`` times; a lane
    that is still unhealthy afterwards is restored to the snapshot and
    **quarantined** — excluded from health accounting while the rest of
    the fleet continues (and, for independent lanes, no longer run).

    ``on_chunk(attempt, chunk)`` is the poison hook: tests and campaigns
    use it to inject faults mid-interval.  ``health`` overrides the
    adapter's per-lane predicate.
    """

    def __init__(
        self,
        lanes,
        *,
        interval: int = 256,
        max_retries: int = 2,
        health: Optional[Callable[[object, int], bool]] = None,
        on_chunk: Optional[Callable[[int, int], None]] = None,
        store: Optional[CheckpointStore] = None,
        watchdog: Optional[Watchdog] = None,
        telemetry=None,
    ):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.lanes = lanes
        self.interval = interval
        self.max_retries = max_retries
        self._health = health
        self.on_chunk = on_chunk
        self.store = store if store is not None else CheckpointStore()
        self.watchdog = watchdog
        self.quarantined: set[int] = set()
        self.report = SupervisorReport(_num_lanes=lanes.num_lanes)
        self._group = None

        from ..telemetry.session import current_session

        session = telemetry if telemetry is not None else current_session()
        #: Session pulsed once per chunk attempt for live-metrics export.
        self._session = session
        if session is not None:
            self._group = session.group("supervisor")
            session.attach(self, "supervisor")

    # ------------------------------------------------------------------ #

    def _lane_healthy(self, k: int) -> bool:
        if self._health is not None:
            return self._health(self.lanes, k)
        return self.lanes.lane_health(k)

    def _unhealthy(self) -> list[int]:
        return [
            k
            for k in range(self.lanes.num_lanes)
            if k not in self.quarantined and not self._lane_healthy(k)
        ]

    def _active_mask(self) -> np.ndarray:
        mask = np.ones(self.lanes.num_lanes, dtype=bool)
        for k in self.quarantined:
            mask[k] = False
        return mask

    def run(self, samples_per_lane: int) -> SupervisorReport:
        """Supervised run of ``samples_per_lane`` updates per lane."""
        if samples_per_lane < 0:
            raise ValueError("samples_per_lane must be non-negative")
        done = 0
        chunk_index = self.report.chunks
        while done < samples_per_lane:
            n = min(self.interval, samples_per_lane - done)
            snapshot = self.lanes.checkpoint()
            self.store.push(("chunk", chunk_index), snapshot)

            bad: list[int] = []
            for attempt in range(self.max_retries + 1):
                if attempt > 0:
                    # Rollback.  Lock-step fleets restore whole; per-lane
                    # fleets restore only the poisoned lanes and re-run them.
                    self.report.retries += 1
                    if self._group is not None:
                        self._group.inc("retries")
                    if hasattr(self.lanes, "run_lane_chunk"):
                        for k in bad:
                            self.report.rollbacks += 1
                            self.lanes.restore_lane(k, snapshot)
                            self.lanes.run_lane_chunk(k, n)
                    else:
                        self.report.rollbacks += 1
                        self.lanes.restore(snapshot)
                        self.lanes.run_chunk(n, self._active_mask())
                else:
                    self.lanes.run_chunk(n, self._active_mask())
                if self.on_chunk is not None:
                    self.on_chunk(attempt, chunk_index)
                if self._session is not None:
                    self._session.pulse()
                bad = self._unhealthy()
                if not bad:
                    break

            if bad:
                # Unrecoverable this interval: park the lanes at the
                # last good state and take them out of the fleet.
                for k in bad:
                    self.lanes.restore_lane(k, snapshot)
                    self.quarantined.add(k)
                    if self._group is not None:
                        self._group.inc("quarantined")
                self.report.quarantined = tuple(sorted(self.quarantined))

            done += n
            chunk_index += 1
            self.report.chunks = chunk_index
            self.report.samples_per_lane += n
            if self._group is not None:
                self._group.inc("chunks")

            if self.watchdog is not None:
                active = self.lanes.num_lanes - len(self.quarantined)
                if not self.watchdog.beat(done * max(active, 0)):
                    self.report.completed = False
                    break
            if len(self.quarantined) == self.lanes.num_lanes:
                # Nothing left to supervise.
                self.report.completed = False
                break
        return self.report

    def telemetry_snapshot(self) -> dict:
        r = self.report
        return {
            "chunks": r.chunks,
            "samples_per_lane": r.samples_per_lane,
            "retries": r.retries,
            "rollbacks": r.rollbacks,
            "quarantined": len(self.quarantined),
            "completed": r.completed,
        }


def range_health(fmt: FxpFormat) -> Callable[[object, int], bool]:
    """A health predicate checking every Q word stays in ``fmt``'s raw
    range (useful for ``wrap``-overflow ablations where corruption can
    push words outside the format)."""

    def check(lanes, k: int) -> bool:
        if isinstance(lanes, BatchLanes):
            q = lanes.sim.q[k]
        else:
            q = lanes.sims[k].tables.q.data
        return bool(np.all((q >= fmt.raw_min) & (q <= fmt.raw_max)))

    return check
