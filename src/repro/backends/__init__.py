"""Fleet execution backends: the same learners, different array programs.

``n_lanes`` independent QTAccel learners can be advanced by any of
four interchangeable backends (see :mod:`repro.backends.base` for the
shared :class:`FleetBackend` surface):

* ``"vectorized"`` — :class:`VectorizedFleetBackend`, lanes
  as numpy array programs (the software analogue of Fig. 9's replicated
  pipelines; 1-2 orders of magnitude faster);
* ``"scalar"`` — :class:`ScalarFleetBackend`, a pure-Python loop of
  per-lane functional simulators (the reference baseline);
* ``"sharded"`` — :class:`ShardedFleetBackend`, the vectorized program
  partitioned into contiguous lane shards, one spawn-safe
  ``multiprocessing`` worker per shard with all per-lane state in a
  ``multiprocessing.shared_memory`` block (multi-core scaling with
  checkpointed crash recovery; remember to ``close()`` it);
* ``"native"`` — :class:`NativeFleetBackend`, the whole lock-step
  program fused into one compiled pass per chunk of steps (numba JIT
  via the ``repro[native]`` extra, or a runtime-compiled C kernel);
  raises :class:`NativeBackendUnavailableError` when no compiled tier
  exists (probe with :func:`native_available` /
  :func:`native_kernel_tiers`).

All are bit-identical per lane to a scalar
:class:`~repro.core.functional.FunctionalSimulator` with the same salt.
Construct one with
``repro.make_engine(..., engine="scalar"|"vectorized"|"sharded"|"native")``.
"""

from .base import (
    BatchStats,
    FleetBackend,
    FleetSpec,
    FleetStats,
    LaneOpError,
    normalize_fleet,
)
from .native import (
    NativeBackendUnavailableError,
    NativeFleetBackend,
    native_available,
    native_kernel_tiers,
)
from .scalar import ScalarFleetBackend
from .sharded import ShardedFleetBackend
from .vectorized import VectorizedFleetBackend

__all__ = [
    "BatchStats",
    "FleetBackend",
    "FleetSpec",
    "FleetStats",
    "LaneOpError",
    "NativeBackendUnavailableError",
    "NativeFleetBackend",
    "ScalarFleetBackend",
    "ShardedFleetBackend",
    "VectorizedFleetBackend",
    "native_available",
    "native_kernel_tiers",
    "normalize_fleet",
]
