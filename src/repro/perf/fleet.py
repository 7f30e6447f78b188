"""Paired fleet throughput sweeps: a candidate engine vs a baseline.

Every fleet speed claim in the repo is a ratio of two engines timed on
one machine: vectorized vs the scalar lane loop, each update rule vs
plain Q-Learning, the sharded pool vs scalar (or vectorized), and the
fused native kernel vs vectorized.  :func:`run_paired_sweep` measures
them all the same way: it walks one *axis* (lane count, update rule or
worker count) and at each point times candidate and baseline back to
back in every repeat.  ``ratio`` is the median per-round ratio of time
per update, ``baseline / candidate`` (above 1 the candidate is faster),
which cancels the host drift that moves absolute numbers ±30% between
runs.  Engines are built untimed and each repeat extends the same run
(steady state); each engine gets its own update budget, so the slow
scalar baseline runs fewer steps at high lane counts.

One record schema serves every sweep::

    {
      "candidate": "native", "baseline": "vectorized", "axis": "lanes",
      "lanes": null,          # fixed lane count when the axis is not lanes
      "kernel": "cc",         # native kernel tier, when a side is native
      "repeats": 3, "quick": false, "cpu_count": 2,
      "points": {
        "4096": {
          "candidate": {"steps", "updates", "seconds_median",
                        "seconds_mad", "updates_per_sec"},
          "baseline":  {...same keys...},
          "ratio": 6.1, "ratio_mad": 0.2,
        },
      },
    }

:func:`check_ratio` gates a record against a floor (the ``python -m
repro.perf fleet`` CI gates) and :func:`render_sweep` prints it.  A
snapshot carries up to four records, one per entry of :data:`SWEEPS`;
:func:`upgrade_record` reads the per-sweep layouts of
``qtaccel-bench/1`` snapshots into this schema.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional, Sequence

from .stats import mad, median

#: Full-sweep lane ladder.
LANE_COUNTS = (1, 16, 256, 4096)

#: Smoke ladder for CI: drops the expensive 4096-lane point.
SMOKE_LANE_COUNTS = (1, 16, 256)

#: Default worker ladder of the sharded sweep.
WORKER_COUNTS = (1, 2, 4)

#: Every registered update rule, built through its preset constructor
#: so policies are consistent.
RULE_NAMES = ("qlearning", "sarsa", "momentum_qlearning", "target_qlearning")

#: The axes a sweep can walk; the first two are numeric ladders.
AXES = ("lanes", "workers", "rule")

#: The update rule every engine runs, except a candidate on the rule axis.
BASELINE_RULE = "qlearning"

#: Snapshot key -> (candidate, baseline, axis) of the four sweeps.
SWEEPS = {
    "fleet_throughput": ("vectorized", "scalar", "lanes"),
    "rule_throughput": ("vectorized", "vectorized", "rule"),
    "sharded_throughput": ("sharded", "scalar", "workers"),
    "native_throughput": ("native", "vectorized", "lanes"),
}

#: Per-repeat update budget and per-lane step cap of each engine.  The
#: fused kernel retires updates 5-50x faster than the numpy program, and
#: process fan-out has fixed epoch costs, so both get larger budgets.
_BUDGETS = {
    "scalar": (24_000, 600),
    "vectorized": (200_000, 2_000),
    "sharded": (400_000, 4_000),
    "native": (2_000_000, 20_000),
}


def _mdp(size: int = 16, actions: int = 8):
    from ..envs.gridworld import GridWorld

    return GridWorld.empty(size, actions).to_mdp()


def _config(rule: str):
    from ..core.config import QTAccelConfig

    presets = {
        "qlearning": QTAccelConfig.qlearning,
        "sarsa": QTAccelConfig.sarsa,
        "momentum_qlearning": QTAccelConfig.momentum,
        "target_qlearning": QTAccelConfig.target_q,
    }
    if rule not in presets:
        raise KeyError(f"unknown rule {rule!r}; choose from {sorted(presets)}")
    return presets[rule](seed=11, qmax_mode="follow")


def _steps(engine: str, lanes: int, scale: int) -> int:
    budget, cap = _BUDGETS[engine]
    return max(1, min(cap // scale, budget // scale // lanes))


def _side(steps: int, lanes: int, secs: list[float]) -> dict:
    med = median(secs)
    updates = lanes * steps
    return {
        "steps": steps,
        "updates": updates,
        "seconds_median": med,
        "seconds_mad": mad(secs),
        "updates_per_sec": updates / med if med > 0 else None,
    }


def run_paired_sweep(
    candidate: str,
    baseline: str,
    axis: str,
    keys: Sequence,
    *,
    lanes: int = 256,
    kernel: Optional[str] = None,
    repeats: int = 3,
    warmup: int = 1,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
    mp_context: str = "spawn",
) -> dict:
    """Time ``candidate`` against ``baseline`` at each point of ``axis``.

    ``candidate`` and ``baseline`` name fleet backends (``scalar``,
    ``vectorized``, ``sharded``, ``native``).  The axis value applies to
    the candidate; on the ``lanes`` axis the baseline runs the same lane
    count, otherwise it runs the fixed ``lanes``; both run
    :data:`BASELINE_RULE` unless the candidate walks the rule axis.  The
    ``workers`` axis needs a sharded candidate, which runs without
    checkpoints and with one epoch per repeat so the number isolates
    steady-state shard throughput.  ``kernel`` pins the native tier.
    ``quick`` divides the update budgets by 10 (CI smoke / tests).
    Returns the record described in the module docstring.
    """
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    for engine in (candidate, baseline):
        if engine not in _BUDGETS:
            raise ValueError(
                f"unknown fleet backend {engine!r}; choose one of {sorted(_BUDGETS)}"
            )
    if axis == "workers" and candidate != "sharded":
        raise ValueError("the workers axis needs the sharded candidate")
    if repeats < 1 or warmup < 0:
        raise ValueError("repeats must be >= 1 and warmup non-negative")
    keys = list(keys)
    if not keys or lanes < 1 or (axis != "rule" and min(map(int, keys)) < 1):
        raise ValueError(f"{axis} points and lanes must be positive, got {keys}, {lanes}")

    from ..core.engine import make_engine

    mdp = _mdp()
    scale = 10 if quick else 1

    def build(engine: str, spec: dict):
        steps = _steps(engine, spec["lanes"], scale)
        kw = {"kernel": kernel} if engine == "native" else {}
        if engine == "sharded":
            kw = dict(num_workers=spec.get("workers", 1), epoch=steps,
                      checkpoint_interval=0, mp_context=mp_context)
        eng = make_engine(
            _config(spec["rule"]), engine=engine, mdps=mdp,
            num_agents=spec["lanes"], **kw,
        )
        return eng, steps

    points: dict[str, dict] = {}
    kernel_tier = None
    for key in keys:
        base_spec = {"lanes": int(key) if axis == "lanes" else lanes, "rule": BASELINE_RULE}
        cand_spec = dict(base_spec, **{axis: key if axis == "rule" else int(key)})
        cand, c_steps = build(candidate, cand_spec)
        base = None
        try:
            base, b_steps = build(baseline, base_spec)
            kernel_tier = getattr(cand, "kernel_tier", None) or getattr(
                base, "kernel_tier", kernel_tier
            )
            for _ in range(warmup):
                cand.run(c_steps)
                base.run(b_steps)
            c_secs: list[float] = []
            b_secs: list[float] = []
            for _ in range(repeats):
                t0 = clock()
                cand.run(c_steps)
                t1 = clock()
                base.run(b_steps)
                c_secs.append(t1 - t0)
                b_secs.append(clock() - t1)
        finally:
            for eng in (cand, base):
                getattr(eng, "close", lambda: None)()
        # Per-round ratio of time per update: baseline / candidate.
        c_updates, b_updates = cand_spec["lanes"] * c_steps, base_spec["lanes"] * b_steps
        ratios = [
            (b / b_updates) / (c / c_updates) for c, b in zip(c_secs, b_secs) if c > 0
        ]
        points[str(key)] = {
            "candidate": _side(c_steps, cand_spec["lanes"], c_secs),
            "baseline": _side(b_steps, base_spec["lanes"], b_secs),
            "ratio": median(ratios) if ratios else None,
            "ratio_mad": mad(ratios) if ratios else None,
        }

    return {
        "candidate": candidate,
        "baseline": baseline,
        "axis": axis,
        "lanes": None if axis == "lanes" else lanes,
        "kernel": kernel_tier,
        "repeats": repeats,
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "points": points,
    }


def ordered_keys(axis: Optional[str], keys) -> list[str]:
    """Point keys in axis order (numeric ladders ascending)."""
    return list(keys) if axis == "rule" else sorted(keys, key=int)


def gate_keys(axis: Optional[str], keys) -> list[str]:
    """The points a gate reads: the top of a numeric ladder, where the
    paired win is meant to be largest, or every point of the rule axis."""
    keys = ordered_keys(axis, keys)
    return keys if axis == "rule" else keys[-1:]


def _baseline(record: dict) -> str:
    """The baseline's name, with its rule when the candidate's varies."""
    base = record.get("baseline")
    return f"{base} ({BASELINE_RULE})" if record.get("axis") == "rule" else base


def _label(record: dict) -> str:
    return f"{record.get('candidate')} speedup vs {_baseline(record)}"


def check_ratio(record: dict, floor: float) -> tuple[bool, str]:
    """Gate a sweep record: the ratio at every point of :func:`gate_keys`
    must reach ``floor``.  Returns ``(ok, message)`` naming the worst
    gated point."""
    points = record.get("points") or {}
    keys = gate_keys(record.get("axis"), points)
    if not keys:
        return False, f"{_label(record)}: sweep has no measured points"
    axis = record.get("axis")
    worst_key, worst = None, None
    for key in keys:
        ratio = (points.get(key) or {}).get("ratio")
        if ratio is None:
            return False, f"{_label(record)}: no ratio recorded at {axis}={key}"
        if worst is None or ratio < worst:
            worst_key, worst = key, ratio
    ok = worst >= floor
    kernel = f" (kernel={record['kernel']})" if record.get("kernel") else ""
    return ok, (
        f"{_label(record)} at {axis}={worst_key}{kernel}: "
        f"{worst:.2f}x (floor {floor:g}x) {'ok' if ok else 'FAIL'}"
    )


def render_sweep(record: dict) -> str:
    """Human-readable table of one sweep record."""
    fixed = [
        f"{name}={record[name]}"
        for name in ("lanes", "kernel", "cpu_count")
        if record.get(name) is not None and name != record.get("axis")
    ]
    out = [
        f"{record.get('candidate')} fleet throughput vs {_baseline(record)} "
        f"(per update; {', '.join(fixed)}):"
    ]
    header = (
        f"{record.get('axis', '?'):>20s} {'candidate up/s':>16s} "
        f"{'baseline up/s':>16s} {'ratio':>9s}"
    )
    out.append(header)
    out.append("-" * len(header))

    def _ups(side) -> str:
        v = (side or {}).get("updates_per_sec")
        return f"{v:,.0f}" if isinstance(v, (int, float)) else "-"

    points = record.get("points") or {}
    for key in ordered_keys(record.get("axis"), points):
        p = points[key]
        ratio = p.get("ratio")
        out.append(
            f"{key:>20s} {_ups(p.get('candidate')):>16s} "
            f"{_ups(p.get('baseline')):>16s} "
            f"{(f'{ratio:.2f}x' if ratio is not None else '-'):>9s}"
        )
    return "\n".join(out)


#: ``qtaccel-bench/1`` layouts: key -> (candidate, baseline, axis, ratio
#: field).  Sides were keyed by engine name; the rule sweep kept one flat
#: side per point and the inverse ratio, ``overhead``.
_V1_LAYOUTS = {
    "fleet_throughput": ("vectorized", "scalar", "lanes", "speedup"),
    "sharded_throughput": ("sharded", "vectorized", "workers", "speedup_vs_vectorized"),
    "native_throughput": ("native", "vectorized", "lanes", "speedup_vs_vectorized"),
    "rule_throughput": ("vectorized", "vectorized", "rule", "overhead"),
}


def upgrade_record(key: str, old: dict) -> dict:
    """Read one ``qtaccel-bench/1`` sweep record into the paired schema.

    v1 sharded records paired the sharded pool with vectorized (the
    scalar side was a once-per-sweep aside), so they upgrade with the
    vectorized baseline.
    """
    cand, base, axis, field = _V1_LAYOUTS[key]
    points = {}
    for point_key, p in (old.get("points") or {}).items():
        if axis == "rule":
            overhead = p.get(field)
            points[point_key] = {
                "candidate": {k: v for k, v in p.items() if not k.startswith(field)},
                "baseline": None,
                "ratio": 1.0 / overhead if overhead else None,
                "ratio_mad": None,
            }
        else:
            points[point_key] = {
                "candidate": p.get(cand),
                "baseline": p.get(base),
                "ratio": p.get(field),
                "ratio_mad": p.get(f"{field}_mad"),
            }
    return {
        "candidate": cand,
        "baseline": base,
        "axis": axis,
        "lanes": None if axis == "lanes" else old.get("n_lanes"),
        "kernel": old.get("kernel"),
        "repeats": old.get("repeats"),
        "quick": old.get("quick", False),
        "cpu_count": old.get("cpu_count"),
        "points": points,
    }
