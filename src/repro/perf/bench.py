"""The noise-aware bench harness over every engine's hot loop.

Each :class:`BenchCase` times a fixed workload on one engine variant:

* ``functional`` — the vectorless fast path convergence studies run on;
* ``pipeline`` — the cycle-accurate 4-stage pipeline, detached;
* ``pipeline_telemetry`` — the same pipeline attached to a counters-only
  :class:`~repro.telemetry.session.TelemetrySession`;
* ``pipeline_ecc`` — the same pipeline over SECDED-protected tables
  (``ecc_tables=True``);
* ``batch_fleet`` — the vectorised lock-step fleet;
* ``multi_pipeline`` — two table-sharing pipelines (Fig. 8 mode).

Noise discipline: every case gets ``warmup`` untimed runs, then the
timed repeats are **globally interleaved** (round-robin across cases)
so slow drift — thermal throttling, a neighbour stealing the core —
lands on all cases alike instead of biasing whichever ran last.  The
summary is median + MAD + bootstrap CI (:mod:`repro.perf.stats`).

Overhead ratios are the **median of paired per-round ratios**: repeat
``i`` of a variant and of its baseline run back-to-back in the same
interleaved round, so dividing them first and taking the median across
rounds cancels slow drift that a ratio-of-medians would double-count
(on a busy 1-CPU box the latter wanders ±15%; the paired median stays
within a few percent).  ``pipeline_telemetry / pipeline`` is the
instrumentation tax (its budget pins the documented <5%
disabled-telemetry claim from docs/observability.md — the attached
counters-only ratio strictly upper-bounds the detached pointer-test
cost, so holding the attached ratio under budget holds the claim), and
``pipeline_ecc / pipeline`` prices the decode-on-read ECC path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .stagetime import StageTimer
from .stats import summarize

#: The paper's headline clock (Fig. 6, |S|=64): modelled MS/s at this
#: clock is ``189 / cycles_per_sample``.
PAPER_CLOCK_MHZ = 189.0

#: Telemetry-overhead budget as a ratio (pins the documented <5% claim).
TELEMETRY_OVERHEAD_BUDGET = 1.05


def _mdp(size: int = 16, actions: int = 8):
    from ..envs.gridworld import GridWorld

    return GridWorld.empty(size, actions).to_mdp()


def _config(**kw):
    from ..core.config import QTAccelConfig

    kw.setdefault("seed", 11)
    kw.setdefault("qmax_mode", "follow")
    return QTAccelConfig.qlearning(**kw)


@dataclass
class BenchCase:
    """One timed engine variant.

    ``setup(workload)`` returns a ``make`` factory; each call to
    ``make()`` builds a fresh engine (untimed — construction, session
    attachment and table allocation never pollute the hot-loop number)
    and returns ``(run, engine)`` where only ``run()`` is timed.
    ``cycles(engine)`` maps a finished engine to its cycle count for
    the cycle-accurate variants, enabling cycles/sample and the
    modelled MS/s at the paper's clock.
    """

    name: str
    title: str
    workload: int
    quick_workload: int
    setup: Callable[[int], Callable[[], tuple]]
    cycles: Optional[Callable[[object], int]] = None
    baseline: Optional[str] = None
    tags: tuple[str, ...] = field(default_factory=tuple)


# ---------------------------------------------------------------------- #
# Case definitions
# ---------------------------------------------------------------------- #


def _setup_functional(n: int):
    from ..core.functional import FunctionalSimulator

    mdp, cfg = _mdp(64), _config()

    def make():
        sim = FunctionalSimulator(mdp, cfg)
        return (lambda: sim.run(n)), sim

    return make


def _setup_pipeline(n: int):
    from ..core.pipeline import QTAccelPipeline

    mdp, cfg = _mdp(), _config()

    def make():
        pipe = QTAccelPipeline(mdp, cfg)
        return (lambda: pipe.run(n)), pipe

    return make


def _setup_pipeline_telemetry(n: int):
    from ..core.pipeline import QTAccelPipeline
    from ..telemetry.session import TelemetrySession

    mdp, cfg = _mdp(), _config()

    def make():
        session = TelemetrySession(trace=False)
        with session:
            pipe = QTAccelPipeline(mdp, cfg)
        return (lambda: pipe.run(n)), pipe

    return make


def _setup_pipeline_ecc(n: int):
    from ..core.pipeline import QTAccelPipeline

    mdp, cfg = _mdp(), _config(ecc_tables=True)

    def make():
        pipe = QTAccelPipeline(mdp, cfg)
        return (lambda: pipe.run(n)), pipe

    return make


def _setup_batch(n: int):
    from ..core.engine import make_engine

    mdp, cfg = _mdp(), _config()
    agents = 32

    def make():
        sim = make_engine(cfg, engine="vectorized", mdps=mdp, num_agents=agents)
        return (lambda: sim.run(n // agents)), sim

    return make


def _setup_multi_pipeline(n: int):
    from ..core.multi_pipeline import SharedPipelines

    mdp, cfg = _mdp(), _config()

    def make():
        shared = SharedPipelines(mdp, cfg)
        return (lambda: shared.run(n // 2)), shared

    return make


def _pipe_cycles(pipe) -> int:
    return pipe.stats.cycles


def _shared_cycles(shared) -> int:
    return shared.pipes[0].stats.cycles


#: The harness's case registry, keyed by snapshot case name.
BENCH_CASES: dict[str, BenchCase] = {
    case.name: case
    for case in (
        BenchCase(
            name="functional",
            title="functional simulator (fast path)",
            workload=20_000,
            quick_workload=2_000,
            setup=_setup_functional,
        ),
        BenchCase(
            name="pipeline",
            title="cycle-accurate pipeline (detached)",
            workload=4_000,
            quick_workload=400,
            setup=_setup_pipeline,
            cycles=_pipe_cycles,
        ),
        BenchCase(
            name="pipeline_telemetry",
            title="cycle-accurate pipeline + counters-only telemetry",
            workload=4_000,
            quick_workload=400,
            setup=_setup_pipeline_telemetry,
            cycles=_pipe_cycles,
            baseline="pipeline",
            tags=("overhead",),
        ),
        BenchCase(
            name="pipeline_ecc",
            title="cycle-accurate pipeline over SECDED tables",
            workload=2_000,
            quick_workload=200,
            setup=_setup_pipeline_ecc,
            cycles=_pipe_cycles,
            baseline="pipeline",
            tags=("overhead",),
        ),
        BenchCase(
            name="batch_fleet",
            title="vectorised lock-step fleet (32 agents)",
            workload=32_000,
            quick_workload=3_200,
            setup=_setup_batch,
        ),
        BenchCase(
            name="multi_pipeline",
            title="two table-sharing pipelines (Fig. 8)",
            workload=2_000,
            quick_workload=200,
            setup=_setup_multi_pipeline,
            cycles=_shared_cycles,
        ),
    )
}


# ---------------------------------------------------------------------- #
# Harness
# ---------------------------------------------------------------------- #


@dataclass
class BenchResult:
    """One case's measured outcome."""

    case: BenchCase
    workload: int
    seconds: list[float]
    cycles: Optional[int] = None

    def summary(self) -> dict:
        digest = summarize(self.seconds)
        med = digest["median"]
        out = {
            "title": self.case.title,
            "workload_samples": self.workload,
            "seconds": digest,
            "samples_per_sec": self.workload / med if med > 0 else None,
        }
        # Cycle-derived figures only exist for cycle-accurate engines;
        # non-cycle cases omit the keys entirely (snapshot schema 1.1 —
        # earlier snapshots carried explicit nulls, and the regression
        # sentinel tolerates both spellings).
        if self.cycles is not None and self.workload:
            cps = self.cycles / self.workload
            out["cycles_per_sample"] = cps
            out["modelled_msps_at_189mhz"] = PAPER_CLOCK_MHZ / cps
        return out


def run_bench(
    *,
    cases: Optional[Sequence[str]] = None,
    repeats: int = 7,
    warmup: int = 2,
    quick: bool = False,
    clock: Callable[[], float] = time.perf_counter,
) -> dict[str, BenchResult]:
    """Run the harness and return ``{case name: BenchResult}``.

    Repeats are interleaved round-robin across all selected cases (see
    the module docstring for why).  ``clock`` is injectable so tests
    can drive the harness with a fake clock and assert the bookkeeping
    without real time.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    names = list(cases) if cases is not None else list(BENCH_CASES)
    unknown = [n for n in names if n not in BENCH_CASES]
    if unknown:
        raise KeyError(
            f"unknown bench case(s) {unknown}; known: {sorted(BENCH_CASES)}"
        )
    # A variant's ratio is only meaningful against its interleaved
    # baseline, so pull missing baselines into the selection.
    for n in list(names):
        base = BENCH_CASES[n].baseline
        if base is not None and base not in names:
            names.append(base)

    plans: dict[str, Callable[[], tuple]] = {}
    results: dict[str, BenchResult] = {}
    for n in names:
        case = BENCH_CASES[n]
        workload = case.quick_workload if quick else case.workload
        plans[n] = case.setup(workload)
        results[n] = BenchResult(case=case, workload=workload, seconds=[])

    for n in names:
        make = plans[n]
        for _ in range(warmup):
            run, _engine = make()
            run()

    for _ in range(repeats):
        for n in names:
            run, engine = plans[n]()  # fresh engine, constructed untimed
            t0 = clock()
            run()
            elapsed = clock() - t0
            res = results[n]
            res.seconds.append(elapsed)
            if res.case.cycles is not None and res.cycles is None:
                res.cycles = res.case.cycles(engine)
    return results


def overhead_ratios(results: dict[str, BenchResult]) -> dict[str, dict]:
    """Variant/baseline overhead ratios for every measured pair.

    Repeat ``i`` of the variant and of its baseline come from the same
    interleaved round, so each pair is divided first (per-sample, since
    workloads may differ) and the ratio reported is the median across
    rounds — drift-cancelling where a ratio of medians is not.
    """
    from .stats import mad, median

    out: dict[str, dict] = {}
    for name, res in results.items():
        base = res.case.baseline
        if base is None or base not in results:
            continue
        base_res = results[base]
        pairs = [
            (v / res.workload) / (b / base_res.workload)
            for v, b in zip(res.seconds, base_res.seconds)
            if b > 0
        ]
        entry = {
            "variant": name,
            "baseline": base,
            "ratio": median(pairs) if pairs else None,
            "ratio_mad": mad(pairs) if pairs else None,
            "budget": None,
        }
        if name == "pipeline_telemetry":
            entry["budget"] = TELEMETRY_OVERHEAD_BUDGET
        out[name] = entry
    return out


def measure_stage_attribution(
    *,
    samples: int = 4_000,
    sample_every: int = 16,
) -> dict:
    """Run one pipeline with a :class:`StageTimer` and return its summary.

    Kept out of the timed cases: the sampled timestamps would otherwise
    leak into the throughput numbers they are meant to explain.
    """
    from ..core.pipeline import QTAccelPipeline

    mdp, cfg = _mdp(), _config()
    pipe = QTAccelPipeline(mdp, cfg)
    timer = StageTimer(sample_every).attach(pipe)
    pipe.run(samples)
    return timer.summary()
