"""Native fused fleet kernel: the whole lock-step program in one pass.

:class:`~repro.backends.vectorized.VectorizedFleetBackend` executes one
lock-step sample as ~40 numpy array operations over ~10 temporaries —
every intermediate crosses memory once per step, which BENCH_1/2 showed
is the software ceiling.  This module lowers that exact program (env
step, epsilon-greedy argmax with LFSR draws, and the stage-3 fixed-point
update of every registered :class:`~repro.algorithms.UpdateRule` with a
compiled lowering) into **one fused pass**, mirroring how the paper's
4-stage pipeline fuses read/bootstrap/update/write-back into a single
hardware traversal:

* the loop nest is interchanged to *lane-outer, step-inner* — legal
  because lanes never interact — so one lane's tables stay cache-hot
  across a whole chunk of steps instead of the fleet's entire state
  being streamed through memory every step;
* the fixed-point arithmetic is integer ``int64`` raw math replicating
  :mod:`repro.fixedpoint.ops` bit for bit (wide accumulate, one
  ``rshift_round`` in either rounding mode, one saturate/wrap clamp);
* which stage-3/stage-4 arithmetic a rule needs is taken from its
  :class:`~repro.algorithms.RuleKernel` lowering descriptor — rules
  without a compiled lowering are rejected with a typed
  :class:`~repro.algorithms.UnsupportedRuleError` at construction.

Three kernel tiers share a single implementation:

``numba``
    :func:`numba.njit` ``(parallel=True, cache=True)`` over the lane
    axis (requires the ``repro[native]`` extra).
``cc``
    The same program as static C, compiled at import-to-use time with
    the system compiler (``cc``/``gcc``/``clang``) into a cached shared
    object and called through :mod:`ctypes` — no third-party packages.
``python``
    The shared implementation interpreted directly (bit-identical,
    slow; selected only explicitly — it exists so the contract suite
    can prove all tiers agree without a compiler).

Importing this module never requires numba; tier resolution happens at
backend construction (``kernel="auto"`` prefers numba, then cc, then
raises :class:`NativeBackendUnavailableError`).

The cc tier also retires the batched lane op ``apply_transitions``
through a second C entry point that inlines the same stage 2-4 body.
Everything else — storage layout, checkpointing, the serve-facing
``reset_lane``/``apply_transition``/``query_action`` lane ops, lane
state, q_float views — is inherited unchanged from the vectorized
backend: the kernel mutates the very same arrays in place, so mixing
fused ``run()`` calls with the inherited per-step surfaces stays
bit-identical.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import tempfile
from typing import Sequence

import numpy as np

from ..core.config import QTAccelConfig
from ..envs.base import DenseMdp
from ..rtl.rng import DECIMATION
from .base import LaneOpError, check_transition_batch
from .vectorized import VectorizedFleetBackend

_I64 = np.int64

#: Tier resolution order of ``kernel="auto"`` (``python`` is excluded —
#: it is a correctness oracle, not a performance tier).
AUTO_TIERS = ("numba", "cc")

#: Recognised ``kernel=`` spellings.
KERNEL_TIERS = ("numba", "cc", "python")

#: Environment override consulted when the constructor gets no explicit
#: ``kernel=`` (``make_engine`` forwards one when given).  It pins the
#: tier of every backend a whole process builds, e.g. a test run that
#: must exercise the numba tier (CI's ``native-smoke`` job).
KERNEL_ENV_VAR = "QTACCEL_NATIVE_KERNEL"

#: The datapath constants, in the order of the C ``params`` block
#: (``qt_unpack``) and of ``_fleet_steps_impl``'s trailing arguments.
KERNEL_PARAMS = (
    "dec", "dec_mask", "egreedy_cut", "behavior_random", "update_greedy",
    "on_policy", "rule_kind", "qmax_mode", "one_minus_alpha", "alpha",
    "alpha_gamma", "beta", "tau", "one_minus_tau", "shift", "nearest",
    "saturate", "raw_min", "raw_max", "span", "signed_fmt", "sync_period",
)

#: Qmax-rule dispatch tags inside the fused kernel.
_QMAX_MODES = {"exact": 0, "monotonic": 1, "follow": 2}

#: RuleKernel.kernel_id values this kernel lowers, and the rule *kind*
#: whose extra-table allocation each id assumes.
_KERNEL_ID_KINDS = {0: ("plain",), 1: ("momentum",), 2: ("target",)}


class NativeBackendUnavailableError(ImportError):
    """No native kernel tier is available on this host.

    Raised by :class:`NativeFleetBackend` (and therefore by
    ``make_engine(engine="native")``) instead of a bare
    :class:`ImportError`, naming the install extra that fixes it.
    """


def _find_compiler() -> str | None:
    """The C compiler of the ``cc`` tier, or None."""
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        return cc
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def native_kernel_tiers() -> dict[str, bool]:
    """Availability of each kernel tier on this host (no imports run)."""
    return {
        "numba": importlib.util.find_spec("numba") is not None,
        "cc": _find_compiler() is not None,
        "python": True,
    }


def native_available() -> tuple[bool, str]:
    """Whether ``kernel="auto"`` would resolve, with a human detail."""
    tiers = native_kernel_tiers()
    for tier in AUTO_TIERS:
        if tiers[tier]:
            return True, f"kernel tier {tier!r}"
    return False, (
        "no compiled kernel tier: numba is not installed (pip install "
        "'repro[native]') and no C compiler (cc/gcc/clang) was found"
    )


# ---------------------------------------------------------------------- #
# The fused kernel (shared implementation)
#
# One function body serves the numba and python tiers: ``prange`` below
# is a module global bound to ``range`` and swapped for ``numba.prange``
# immediately before JIT compilation (numba resolves globals at compile
# time; ``numba.prange`` degrades to ``range`` under plain
# interpretation, so the python tier is unaffected by the swap).
# ---------------------------------------------------------------------- #

prange = range


def _fleet_steps_impl(
    q, qmax, qmax_action, momentum, target, target_count,
    arch_state, forwarded, prev_pair, prev_state, prev_q,
    prev_qmax, prev_qmax_action, s_policy, leap, counts,
    s_start, s_action, nxt, rew, term, starts,
    n_steps, K, S, A, n_starts, het,
    dec, dec_mask, egreedy_cut, behavior_random, update_greedy, on_policy,
    rule_kind, qmax_mode, one_minus_alpha, alpha, alpha_gamma, beta, tau,
    one_minus_tau, shift, nearest, saturate, raw_min, raw_max, span,
    signed_fmt, sync_period,
):
    """Advance every lane ``n_steps`` lock-step samples, fused.

    Bit-identical per lane to ``n_steps`` calls of
    :meth:`VectorizedFleetBackend.step` (asserted by the test suite).
    All arrays are flat ``int64``; the trailing scalars are the
    datapath constants in :data:`KERNEL_PARAMS` order (the C entry
    points take them as one ``params`` array).  ``counts`` receives
    ``(exploits, explores, episodes)`` deltas.
    """
    SA = S * A
    a_pow2 = (A & (A - 1)) == 0
    st_pow2 = (n_starts & (n_starts - 1)) == 0
    ex_total = 0
    er_total = 0
    ep_total = 0
    for k in prange(K):
        sa_base = k * SA
        s_base = k * S
        if het:
            e_sa = k * SA
            e_s = k * S
            e_start = k * n_starts
        else:
            e_sa = 0
            e_s = 0
            e_start = 0
        st = arch_state[k]
        fw = forwarded[k]
        ss = s_start[k]
        sa_rng = s_action[k]
        sp = s_policy[k]
        p_state = prev_state[k]
        p_qa = prev_qmax_action[k]
        tc = target_count[k] if rule_kind == 2 else 0
        p_pair = prev_pair[k]
        p_q = prev_q[k]
        p_qm = prev_qmax[k]
        for _ in range(n_steps):
            # ---- stage 1: state + behaviour action ---- #
            restart = st < 0
            if restart:
                ss = (ss >> dec) ^ leap[ss & dec_mask]
                idx = (ss & (n_starts - 1)) if st_pow2 else (ss % n_starts)
                state = starts[e_start + idx]
            else:
                state = st
            if behavior_random:
                sa_rng = (sa_rng >> dec) ^ leap[sa_rng & dec_mask]
                action = (sa_rng & (A - 1)) if a_pow2 else (sa_rng % A)
            else:
                # SARSA: forwarded action, except at restarts where a
                # fresh e-greedy draw reads the *lagged* table view.
                if restart:
                    sp = (sp >> dec) ^ leap[sp & dec_mask]
                    if sp < egreedy_cut:
                        if state == p_state:
                            action = p_qa
                        else:
                            action = qmax_action[s_base + state]
                    else:
                        action = (sp & (A - 1)) if a_pow2 else (sp % A)
                else:
                    action = fw

            # ---- environment tables ---- #
            pair = state * A + action
            s_next = nxt[e_sa + pair]
            r = rew[e_sa + pair]
            terminal = term[e_s + s_next] != 0
            isa = sa_base + pair
            q_sa = q[isa]

            # ---- stage 2: update policy ---- #
            ins = s_base + s_next
            if update_greedy:
                a_next = qmax_action[ins]
                if rule_kind == 2:
                    # Select online, evaluate target.
                    q_next = target[sa_base + s_next * A + a_next]
                else:
                    q_next = qmax[ins]
                ex_total += 1
            else:
                sp = (sp >> dec) ^ leap[sp & dec_mask]
                if sp < egreedy_cut:
                    a_next = qmax_action[ins]
                    q_next = qmax[ins]
                    ex_total += 1
                else:
                    a_next = (sp & (A - 1)) if a_pow2 else (sp % A)
                    q_next = q[sa_base + s_next * A + a_next]
                    er_total += 1
            if terminal:
                q_next = 0

            # ---- stage 3: wide accumulate, one round, one clamp ---- #
            acc = one_minus_alpha * q_sa + alpha * r + alpha_gamma * q_next
            if rule_kind == 1:
                acc += beta * (q_sa - momentum[isa])
            if shift == 0:
                q_new = acc
            elif nearest:
                half = 1 << (shift - 1)
                if acc >= 0:
                    q_new = (acc + half) >> shift
                else:
                    q_new = -((-acc + half) >> shift)
            else:
                q_new = acc >> shift
            if saturate:
                if q_new < raw_min:
                    q_new = raw_min
                elif q_new > raw_max:
                    q_new = raw_max
            else:
                q_new = q_new & (span - 1)
                if signed_fmt and q_new > raw_max:
                    q_new = q_new - span

            # ---- stage 4: write-back + Qmax rule ---- #
            ist = s_base + state
            cur_val = qmax[ist]
            cur_act = qmax_action[ist]
            q[isa] = q_new
            if qmax_mode == 0:  # exact: first-max row scan
                row = sa_base + state * A
                best = 0
                best_val = q[row]
                for a in range(1, A):
                    v = q[row + a]
                    if v > best_val:
                        best_val = v
                        best = a
                qmax[ist] = best_val
                qmax_action[ist] = best
            else:
                upd = q_new > cur_val
                if qmax_mode == 2 and action == cur_act:
                    upd = True
                if upd:
                    qmax[ist] = q_new
                    qmax_action[ist] = action

            if rule_kind == 1:
                # Momentum: the pre-update Q(s, a) becomes the iterate.
                momentum[isa] = q_sa
            elif rule_kind == 2:
                # Lazy Polyak read-modify-write on the written pair.
                acc2 = one_minus_tau * target[isa] + tau * q_new
                if shift == 0:
                    t_new = acc2
                elif nearest:
                    half = 1 << (shift - 1)
                    if acc2 >= 0:
                        t_new = (acc2 + half) >> shift
                    else:
                        t_new = -((-acc2 + half) >> shift)
                else:
                    t_new = acc2 >> shift
                if saturate:
                    if t_new < raw_min:
                        t_new = raw_min
                    elif t_new > raw_max:
                        t_new = raw_max
                else:
                    t_new = t_new & (span - 1)
                    if signed_fmt and t_new > raw_max:
                        t_new = t_new - span
                target[isa] = t_new
                tc += 1
                if sync_period > 0 and tc >= sync_period:
                    for i in range(SA):
                        target[sa_base + i] = q[sa_base + i]
                    tc = 0

            # ---- lag latches + episode bookkeeping ---- #
            p_pair = pair
            p_state = state
            p_q = q_sa
            p_qm = cur_val
            p_qa = cur_act
            if terminal:
                ep_total += 1
                st = -1
                if on_policy:
                    fw = -1
            else:
                st = s_next
                if on_policy:
                    fw = a_next

        arch_state[k] = st
        forwarded[k] = fw
        s_start[k] = ss
        s_action[k] = sa_rng
        s_policy[k] = sp
        prev_pair[k] = p_pair
        prev_state[k] = p_state
        prev_q[k] = p_q
        prev_qmax[k] = p_qm
        prev_qmax_action[k] = p_qa
        if rule_kind == 2:
            target_count[k] = tc
    counts[0] += ex_total
    counts[1] += er_total
    counts[2] += ep_total


_NUMBA_KERNEL = None


def _get_numba_kernel():
    """JIT-compile the shared implementation with numba (cached)."""
    global _NUMBA_KERNEL, prange
    if _NUMBA_KERNEL is None:
        import numba

        prange = numba.prange
        _NUMBA_KERNEL = numba.njit(parallel=True, cache=True)(_fleet_steps_impl)
    return _NUMBA_KERNEL


# ---------------------------------------------------------------------- #
# cc tier: the same program as static C, compiled once per source hash
# ---------------------------------------------------------------------- #

_C_SOURCE = r"""
/* qtaccel fused fleet kernel -- generated-by-hand C mirror of
 * repro.backends.native._fleet_steps_impl (qtaccel_fleet_steps) and of
 * VectorizedFleetBackend.apply_transitions (qtaccel_apply_rows).  Both
 * entry points inline one copy of stages 2-4 (qt_update).  Bit-identity
 * with the Python tiers is asserted by the test suite; arithmetic right
 * shift on negative integers (gcc/clang behaviour) is assumed.  Each
 * entry point keeps its reference's stage-3 accumulator: int64 for the
 * fleet program (the numpy step), exact for external rows (the
 * Python-int apply_transition), which saturated wide words push past
 * int64. */
#include <stdint.h>

/* Every helper folds into both entry points (gcc/clang attribute). */
#define QT_INLINE static inline __attribute__((always_inline))

/* Datapath constants: the params block (KERNEL_PARAMS order) + shape. */
typedef struct {
    int64_t A, dec, dec_mask, egreedy_cut, behavior_random, update_greedy,
        on_policy, rule_kind, qmax_mode, one_minus_alpha, alpha,
        alpha_gamma, beta, tau, one_minus_tau, shift, nearest, saturate,
        raw_min, raw_max, span, signed_fmt, sync_period;
    int a_pow2;
    const int64_t *leap;
} qt_consts;

/* The per-lane tables and latches both entry points read and write. */
typedef struct {
    int64_t *q, *qmax, *qmax_action, *momentum, *target, *target_count,
        *arch_state, *forwarded, *prev_pair, *prev_state, *prev_q,
        *prev_qmax, *prev_qmax_action, *s_policy;
} qt_tables;

/* One lane's policy LFSR, Polyak counter and lag latches, in registers. */
typedef struct {
    int64_t sp, tc, p_pair, p_state, p_q, p_qm, p_qa;
} qt_lane;

QT_INLINE qt_consts qt_unpack(const int64_t *p, int64_t A,
                              const int64_t *leap)
{
    qt_consts c = {A, p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7],
                   p[8], p[9], p[10], p[11], p[12], p[13], p[14], p[15],
                   p[16], p[17], p[18], p[19], p[20], p[21],
                   (A & (A - 1)) == 0, leap};
    return c;
}

QT_INLINE qt_lane qt_lane_load(const qt_consts *c, const qt_tables *t,
                               int64_t k)
{
    qt_lane L = {t->s_policy[k], c->rule_kind == 2 ? t->target_count[k] : 0,
                 t->prev_pair[k], t->prev_state[k], t->prev_q[k],
                 t->prev_qmax[k], t->prev_qmax_action[k]};
    return L;
}

QT_INLINE void qt_lane_store(const qt_consts *c, const qt_tables *t,
                             int64_t k, const qt_lane *L)
{
    t->s_policy[k] = L->sp;
    if (c->rule_kind == 2) t->target_count[k] = L->tc;
    t->prev_pair[k] = L->p_pair;
    t->prev_state[k] = L->p_state;
    t->prev_q[k] = L->p_q;
    t->prev_qmax[k] = L->p_qm;
    t->prev_qmax_action[k] = L->p_qa;
}

/* One decimated LFSR draw (the leap-table step of UniformSource). */
QT_INLINE int64_t qt_draw(const qt_consts *c, int64_t s)
{
    return (s >> c->dec) ^ c->leap[s & c->dec_mask];
}

/* A draw reduced to an action index (mask for power-of-two |A|). */
QT_INLINE int64_t qt_reduce(const qt_consts *c, int64_t u)
{
    return c->a_pow2 ? (u & (c->A - 1)) : (u % c->A);
}

/* Stage 3: a wide accumulate of up to four products, one rshift_round
 * in the format's rounding mode, one saturate/wrap clamp.  Instantiated
 * for the two accumulators: int64 (the numpy array program's, which the
 * fleet loop mirrors) and an exact 128-bit sum (the Python-int scalar
 * datapath's, which external rows mirror). */
#define QT_STAGE3(NAME, ACC)                                               \
    QT_INLINE int64_t NAME(const qt_consts *c, int64_t w1, int64_t x1,     \
                           int64_t w2, int64_t x2, int64_t w3, int64_t x3, \
                           int64_t w4, int64_t x4)                         \
    {                                                                      \
        ACC v = (ACC)w1 * x1 + (ACC)w2 * x2 + (ACC)w3 * x3 + (ACC)w4 * x4; \
        if (c->shift > 0 && c->nearest) {                                  \
            const ACC half = (ACC)1 << (c->shift - 1);                     \
            v = (v >= 0) ? ((v + half) >> c->shift)                        \
                         : -((-v + half) >> c->shift);                     \
        } else {                                                           \
            v >>= c->shift;                                                \
        }                                                                  \
        if (c->saturate) {                                                 \
            if (v < c->raw_min) v = c->raw_min;                            \
            else if (v > c->raw_max) v = c->raw_max;                       \
        } else {                                                           \
            v &= c->span - 1;                                              \
            if (c->signed_fmt && v > c->raw_max) v -= c->span;             \
        }                                                                  \
        return (int64_t)v;                                                 \
    }
QT_STAGE3(qt_stage3_i64, int64_t)
QT_STAGE3(qt_stage3_exact, __int128)

QT_INLINE int64_t qt_stage3(const qt_consts *c, const int exact, int64_t w1,
                            int64_t x1, int64_t w2, int64_t x2, int64_t w3,
                            int64_t x3, int64_t w4, int64_t x4)
{
    return exact ? qt_stage3_exact(c, w1, x1, w2, x2, w3, x3, w4, x4)
                 : qt_stage3_i64(c, w1, x1, w2, x2, w3, x3, w4, x4);
}

/* Stages 2-4 of one sample on lane k, plus its lag latches.  Returns
 * the written Q value; *a_next gets the stage-2 action and *exploited
 * whether stage 2 read the Qmax cache. */
QT_INLINE int64_t qt_update(const qt_consts *c, const qt_tables *t,
                            qt_lane *L, int64_t k, int64_t S, int64_t state,
                            int64_t action, int64_t r, int64_t s_next,
                            int terminal, const int exact, int64_t *a_next,
                            int *exploited)
{
    const int64_t A = c->A;
    const int64_t sa_base = k * S * A;
    const int64_t s_base = k * S;
    const int64_t pair = state * A + action;
    const int64_t isa = sa_base + pair;
    const int64_t q_sa = t->q[isa];

    /* stage 2: update policy */
    const int64_t ins = s_base + s_next;
    int64_t q_next;
    if (c->update_greedy) {
        *a_next = t->qmax_action[ins];
        q_next = (c->rule_kind == 2)
                     ? t->target[sa_base + s_next * A + *a_next]
                     : t->qmax[ins];
        *exploited = 1;
    } else {
        L->sp = qt_draw(c, L->sp);
        *exploited = L->sp < c->egreedy_cut;
        if (*exploited) {
            *a_next = t->qmax_action[ins];
            q_next = t->qmax[ins];
        } else {
            *a_next = qt_reduce(c, L->sp);
            q_next = t->q[sa_base + s_next * A + *a_next];
        }
    }
    if (terminal)
        q_next = 0;

    /* stage 3 (the momentum term only for rule_kind 1) */
    const int64_t q_new = qt_stage3(
        c, exact, c->one_minus_alpha, q_sa, c->alpha, r, c->alpha_gamma,
        q_next, c->beta, c->rule_kind == 1 ? q_sa - t->momentum[isa] : 0);

    /* stage 4: write-back + Qmax rule */
    const int64_t ist = s_base + state;
    const int64_t cur_val = t->qmax[ist];
    const int64_t cur_act = t->qmax_action[ist];
    t->q[isa] = q_new;
    if (c->qmax_mode == 0) { /* exact: first-max row scan */
        const int64_t row = sa_base + state * A;
        int64_t best = 0, best_val = t->q[row];
        for (int64_t a = 1; a < A; a++) {
            if (t->q[row + a] > best_val) {
                best_val = t->q[row + a];
                best = a;
            }
        }
        t->qmax[ist] = best_val;
        t->qmax_action[ist] = best;
    } else {
        int upd = q_new > cur_val;
        if (c->qmax_mode == 2 && action == cur_act) upd = 1;
        if (upd) {
            t->qmax[ist] = q_new;
            t->qmax_action[ist] = action;
        }
    }

    if (c->rule_kind == 1) {
        t->momentum[isa] = q_sa;
    } else if (c->rule_kind == 2) {
        /* lazy Polyak read-modify-write on the written pair */
        t->target[isa] = qt_stage3(c, exact, c->one_minus_tau,
                                   t->target[isa], c->tau, q_new, 0, 0, 0, 0);
        L->tc++;
        if (c->sync_period > 0 && L->tc >= c->sync_period) {
            for (int64_t i = 0; i < S * A; i++)
                t->target[sa_base + i] = t->q[sa_base + i];
            L->tc = 0;
        }
    }

    /* lag latches */
    L->p_pair = pair;
    L->p_state = state;
    L->p_q = q_sa;
    L->p_qm = cur_val;
    L->p_qa = cur_act;
    return q_new;
}

void qtaccel_fleet_steps(
    int64_t *q, int64_t *qmax, int64_t *qmax_action,
    int64_t *momentum, int64_t *target, int64_t *target_count,
    int64_t *arch_state, int64_t *forwarded,
    int64_t *prev_pair, int64_t *prev_state, int64_t *prev_q,
    int64_t *prev_qmax, int64_t *prev_qmax_action,
    int64_t *s_policy, const int64_t *leap, int64_t *counts,
    int64_t *s_start, int64_t *s_action,
    const int64_t *nxt, const int64_t *rew, const int64_t *term,
    const int64_t *starts,
    int64_t n_steps, int64_t K, int64_t S, int64_t A, int64_t n_starts,
    int64_t het, const int64_t *params)
{
    const qt_consts c = qt_unpack(params, A, leap);
    const qt_tables t = {q, qmax, qmax_action, momentum, target,
                         target_count, arch_state, forwarded, prev_pair,
                         prev_state, prev_q, prev_qmax, prev_qmax_action,
                         s_policy};
    const int st_pow2 = (n_starts & (n_starts - 1)) == 0;
    int64_t ex_total = 0, er_total = 0, ep_total = 0;
    for (int64_t k = 0; k < K; k++) {
        const int64_t e_sa = het ? k * S * A : 0;
        const int64_t e_s = het ? k * S : 0;
        const int64_t e_start = het ? k * n_starts : 0;
        int64_t st = arch_state[k];
        int64_t fw = forwarded[k];
        int64_t ss = s_start[k];
        int64_t sa_rng = s_action[k];
        qt_lane L = qt_lane_load(&c, &t, k);
        for (int64_t n = 0; n < n_steps; n++) {
            /* stage 1: state + behaviour action */
            const int restart = st < 0;
            int64_t state, action;
            if (restart) {
                ss = qt_draw(&c, ss);
                int64_t idx = st_pow2 ? (ss & (n_starts - 1)) : (ss % n_starts);
                state = starts[e_start + idx];
            } else {
                state = st;
            }
            if (c.behavior_random) {
                sa_rng = qt_draw(&c, sa_rng);
                action = qt_reduce(&c, sa_rng);
            } else if (restart) {
                /* SARSA restart: a fresh e-greedy draw reads the
                 * lagged table view */
                L.sp = qt_draw(&c, L.sp);
                if (L.sp < c.egreedy_cut) {
                    action = (state == L.p_state) ? L.p_qa
                                                  : qmax_action[k * S + state];
                } else {
                    action = qt_reduce(&c, L.sp);
                }
            } else {
                action = fw;
            }

            /* environment tables */
            const int64_t pair = state * A + action;
            const int64_t s_next = nxt[e_sa + pair];
            const int terminal = term[e_s + s_next] != 0;
            int64_t a_next;
            int exploited;
            qt_update(&c, &t, &L, k, S, state, action, rew[e_sa + pair],
                      s_next, terminal, 0, &a_next, &exploited);
            if (exploited) ex_total++;
            else er_total++;

            /* episode bookkeeping */
            if (terminal) {
                ep_total++;
                st = -1;
                if (c.on_policy) fw = -1;
            } else {
                st = s_next;
                if (c.on_policy) fw = a_next;
            }
        }
        arch_state[k] = st;
        forwarded[k] = fw;
        s_start[k] = ss;
        s_action[k] = sa_rng;
        qt_lane_store(&c, &t, k, &L);
    }
    counts[0] += ex_total;
    counts[1] += er_total;
    counts[2] += ep_total;
}

int64_t qtaccel_apply_rows(
    int64_t *q, int64_t *qmax, int64_t *qmax_action,
    int64_t *momentum, int64_t *target, int64_t *target_count,
    int64_t *arch_state, int64_t *forwarded,
    int64_t *prev_pair, int64_t *prev_state, int64_t *prev_q,
    int64_t *prev_qmax, int64_t *prev_qmax_action,
    int64_t *s_policy, const int64_t *leap, int64_t *counts,
    const int64_t *lanes, const int64_t *rs, const int64_t *ra,
    const int64_t *rr, const int64_t *rns, const int64_t *rt,
    int64_t n_rows, int64_t S, int64_t A, const int64_t *params)
{
    const qt_consts c = qt_unpack(params, A, leap);
    const qt_tables t = {q, qmax, qmax_action, momentum, target,
                         target_count, arch_state, forwarded, prev_pair,
                         prev_state, prev_q, prev_qmax, prev_qmax_action,
                         s_policy};
    int64_t q_new = 0;
    for (int64_t i = 0; i < n_rows; i++) {
        const int64_t k = lanes[i];
        const int terminal = rt[i] != 0;
        qt_lane L = qt_lane_load(&c, &t, k);
        int64_t a_next;
        int exploited;
        q_new = qt_update(&c, &t, &L, k, S, rs[i], ra[i], rr[i], rns[i],
                          terminal, 1, &a_next, &exploited);
        qt_lane_store(&c, &t, k, &L);
        counts[exploited ? 0 : 1]++;
        if (terminal) {
            counts[2]++;
            arch_state[k] = -1;
            forwarded[k] = -1;
        } else {
            arch_state[k] = rns[i];
            forwarded[k] = c.on_policy ? a_next : -1;
        }
    }
    return q_new;
}
"""

#: Compiler flags of the cc tier (part of the cache key).  ``-fwrapv``
#: defines signed overflow as the two's-complement wrap the fleet loop's
#: int64 accumulator mirrors from the numpy program.
_CC_FLAGS = ("-O3", "-fwrapv", "-shared", "-fPIC")


def _cc_build_library() -> str:
    """Compile the C kernel into a source-hash-cached shared object."""
    compiler = _find_compiler()
    if compiler is None:  # pragma: no cover - guarded by tier resolution
        raise NativeBackendUnavailableError("no C compiler found for the cc tier")
    digest = hashlib.sha1(" ".join((_C_SOURCE,) + _CC_FLAGS).encode()).hexdigest()[:16]
    cache_dir = os.path.join(
        tempfile.gettempdir(), f"qtaccel-native-{os.getuid()}"
    )
    os.makedirs(cache_dir, exist_ok=True)
    lib_path = os.path.join(cache_dir, f"qtaccel_fleet_{digest}.so")
    if not os.path.exists(lib_path):
        src_path = os.path.join(cache_dir, f"qtaccel_fleet_{digest}.c")
        tmp_path = lib_path + f".tmp{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(_C_SOURCE)
        try:
            subprocess.run(
                [compiler, *_CC_FLAGS, "-o", tmp_path, src_path],
                check=True,
                capture_output=True,
                text=True,
            )
        except subprocess.CalledProcessError as exc:
            raise NativeBackendUnavailableError(
                f"cc tier compile failed with {compiler}:\n{exc.stderr}"
            ) from exc
        os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
    return lib_path


_CC_ENTRY_POINTS = None

#: Leading pointer arguments both C entry points share: the lane state
#: (``qt_tables``), the leap table and the ``counts`` accumulator.
_LANE_ARGS = 16


def _cc_entry_points():
    """``(qtaccel_fleet_steps, qtaccel_apply_rows)`` with their ctypes
    signatures declared.  Arrays cross as addresses (``c_void_p``);
    callers pass only addresses of arrays that passed :func:`_checked`."""
    global _CC_ENTRY_POINTS
    if _CC_ENTRY_POINTS is None:
        import ctypes

        lib = ctypes.CDLL(_cc_build_library())
        ptr, i64 = ctypes.c_void_p, ctypes.c_int64
        fleet = lib.qtaccel_fleet_steps
        fleet.argtypes = [ptr] * (_LANE_ARGS + 6) + [i64] * 6 + [ptr]
        fleet.restype = None
        rows = lib.qtaccel_apply_rows
        rows.argtypes = [ptr] * (_LANE_ARGS + 6) + [i64] * 3 + [ptr]
        rows.restype = i64
        _CC_ENTRY_POINTS = (fleet, rows)
    return _CC_ENTRY_POINTS


def _checked(name: str, arr: np.ndarray, min_len: int) -> np.ndarray:
    """``arr`` after the kernel-boundary checks: an ``int64``,
    C-contiguous array of at least ``min_len`` elements."""
    if (
        not isinstance(arr, np.ndarray)
        or arr.dtype != _I64
        or not arr.flags.c_contiguous
        or arr.size < min_len
    ):
        raise LaneOpError(
            f"kernel argument {name!r} must be a C-contiguous int64 array "
            f"of at least {min_len} elements, got "
            f"{getattr(arr, 'dtype', type(arr).__name__)} of size "
            f"{getattr(arr, 'size', '?')}"
        )
    return arr


def _resolve_kernel(kernel: str):
    """Resolve a tier request into ``(tier_name, fleet_steps, apply_rows)``
    (``apply_rows`` is None on the tiers that run the reference loop)."""
    tiers = native_kernel_tiers()
    if kernel == "auto":
        for tier in AUTO_TIERS:
            if tiers[tier]:
                kernel = tier
                break
        else:
            ok, detail = native_available()
            assert not ok
            raise NativeBackendUnavailableError(
                f"NativeFleetBackend: {detail}; the pure-Python oracle is "
                f"available explicitly via kernel='python' (or "
                f"{KERNEL_ENV_VAR}=python) but is slower than the "
                f"vectorized backend"
            )
    if kernel not in KERNEL_TIERS:
        raise ValueError(
            f"unknown native kernel tier {kernel!r}; choose one of "
            f"{('auto',) + KERNEL_TIERS}"
        )
    if not tiers[kernel]:
        raise NativeBackendUnavailableError(
            f"native kernel tier {kernel!r} is unavailable on this host "
            f"(numba missing: pip install 'repro[native]'; cc missing: "
            f"install a C compiler)"
        )
    if kernel == "numba":
        return "numba", _get_numba_kernel(), None
    if kernel == "cc":
        return ("cc",) + _cc_entry_points()
    return "python", _fleet_steps_impl, None


class NativeFleetBackend(VectorizedFleetBackend):
    """The vectorized fleet's lock-step program, fused into one
    compiled pass per chunk of steps (lane-outer, step-inner).

    Construction raises :class:`NativeBackendUnavailableError` when no
    compiled tier exists (``kernel="auto"``) and
    :class:`~repro.algorithms.UnsupportedRuleError` when the configured
    update rule declares no compiled lowering
    (:class:`~repro.algorithms.RuleKernel`).  Every inherited surface —
    checkpoints, lane ops, ``q_float`` — operates on the same arrays the
    kernel mutates, so mixing them with fused runs is bit-safe.
    """

    _TELEMETRY_NAME = "native"

    #: Steps fused per kernel invocation when a telemetry session is
    #: attached (the session is pulsed between chunks; without a session
    #: the whole run is one invocation).
    PULSE_CHUNK = 256

    def __init__(
        self,
        mdps: "DenseMdp | Sequence[DenseMdp]",
        config: QTAccelConfig,
        *,
        num_agents: int | None = None,
        salts: Sequence[int] | None = None,
        telemetry=None,
        kernel: str | None = None,
    ):
        super().__init__(
            mdps, config, num_agents=num_agents, salts=salts, telemetry=telemetry
        )
        rk = self.rule.kernel
        kinds = _KERNEL_ID_KINDS.get(rk.kernel_id)
        if kinds is None or self._rule_kind not in kinds:
            from ..algorithms import UnsupportedRuleError

            raise UnsupportedRuleError(
                f"update_rule={self.rule.name!r} (kind={self._rule_kind!r}) "
                f"declares kernel_id={rk.kernel_id}, which the native fused "
                f"kernel does not lower; use the vectorized backend or add "
                f"a RuleKernel lowering"
            )
        if kernel is None:
            kernel = os.environ.get(KERNEL_ENV_VAR) or "auto"
        self.kernel_tier, self._kernel_fn, self._apply_rows = _resolve_kernel(kernel)

        # Kernel-side constants and buffers.  The terminal flags become
        # an int64 copy once (env tables are immutable after build).
        self._counts = np.zeros(3, dtype=_I64)
        self._dummy_i64 = np.zeros(1, dtype=_I64)
        self._leap = self._bank_start._leap_table_np(DECIMATION)
        self._terminal_i64 = self._terminal_flat.astype(_I64)
        coefs = self._rule_coefs
        qf = config.q_format
        params = {
            "dec": DECIMATION,
            "dec_mask": (1 << DECIMATION) - 1,
            "egreedy_cut": int(self._egreedy_cut),
            "behavior_random": int(config.behavior_policy == "random"),
            "update_greedy": int(config.update_policy == "greedy"),
            "on_policy": int(config.is_on_policy),
            "rule_kind": int(rk.kernel_id),
            "qmax_mode": _QMAX_MODES[config.qmax_mode],
            "one_minus_alpha": int(self._one_minus_alpha),
            "alpha": int(self._alpha),
            "alpha_gamma": int(self._alpha_gamma),
            "beta": int(coefs.beta),
            "tau": int(coefs.tau),
            "one_minus_tau": int(coefs.one_minus_tau),
            "shift": int(config.coef_format.frac),
            "nearest": int(qf.rounding == "nearest"),
            "saturate": int(qf.overflow == "saturate"),
            "raw_min": int(qf.raw_min),
            "raw_max": int(qf.raw_max),
            "span": 1 << qf.wordlen,
            "signed_fmt": int(qf.signed),
            "sync_period": int(config.target_sync_period or 0),
        }
        self._params = np.array([params[name] for name in KERNEL_PARAMS], dtype=_I64)

    def _rebind_flat_views(self) -> None:
        super()._rebind_flat_views()
        # The kernel arguments alias the storage just rebound: re-derive
        # (and re-check) them at the next kernel call.
        self._bound_args = None

    def _kernel_args(self) -> tuple:
        """The kernel's arguments ``(lane, fleet, params)``, each a tuple.

        Derived once per storage binding (see :meth:`_rebind_flat_views`;
        state loads copy in place and keep it), after every array passed
        :func:`_checked` — on the cc tier as raw addresses, since no
        pointer may reach C unchecked.  ``params`` is the C tier's
        one-pointer block, or the scalars themselves for the Python body.
        """
        bound = self._bound_args
        if bound is not None:
            return bound
        K, S, SA = self.K, self.S, self.S * self.A
        n_env = K if self._env_sa_off is not None else 1
        dummy = self._dummy_i64

        def rule_table(arr, n):
            return (dummy, 1) if arr is None else (arr, n)

        lane = {
            "q": (self._q_flat, K * SA),
            "qmax": (self._qmax_flat, K * S),
            "qmax_action": (self._qmax_action_flat, K * S),
            "momentum": rule_table(getattr(self, "_momentum_flat", None), K * SA),
            "target": rule_table(getattr(self, "_target_flat", None), K * SA),
            "target_count": rule_table(self._target_count, K),
            "arch_state": (self._arch_state, K),
            "forwarded": (self._forwarded, K),
            "prev_pair": (self._prev_pair, K),
            "prev_state": (self._prev_state, K),
            "prev_q": (self._prev_q, K),
            "prev_qmax": (self._prev_qmax, K),
            "prev_qmax_action": (self._prev_qmax_action, K),
            "s_policy": (self._bank_policy.states, K),
            "leap": (self._leap, 1 << DECIMATION),
            "counts": (self._counts, 3),
        }
        fleet = {
            "s_start": (self._bank_start.states, K),
            "s_action": (self._bank_action.states, K),
            "nxt": (self._next_flat, n_env * SA),
            "rew": (self._rewards_flat, n_env * SA),
            "term": (self._terminal_i64, n_env * S),
            "starts": (self._starts_flat, n_env * self._n_starts),
        }
        arrays = [_checked(n, a, m) for n, (a, m) in {**lane, **fleet}.items()]
        params = _checked("params", self._params, len(KERNEL_PARAMS))
        # The checked arrays stay referenced with the binding: an address
        # handed to C never outlives its buffer.
        self._bound_arrays = arrays + [params]
        if self._apply_rows is None:  # python / numba: arrays + scalars
            args, tail = arrays, tuple(params.tolist())
        else:
            args, tail = [a.ctypes.data for a in arrays], (params.ctypes.data,)
        bound = (tuple(args[: len(lane)]), tuple(args[len(lane) :]), tail)
        self._bound_args = bound
        return bound

    def telemetry_snapshot(self) -> dict:
        snap = super().telemetry_snapshot()
        snap["kernel"] = self.kernel_tier
        return snap

    def _take_counts(self) -> None:
        """Fold the kernel's ``counts`` deltas into the stats, then zero them."""
        counts = self._counts
        stats = self.stats
        stats.exploits += int(counts[0])
        stats.explores += int(counts[1])
        stats.episodes += int(counts[2])
        counts[:] = 0

    def _invoke(self, n_steps: int) -> None:
        """One fused kernel pass of ``n_steps`` per lane."""
        lane, fleet, params = self._kernel_args()
        self._kernel_fn(
            *lane, *fleet,
            n_steps, self.K, self.S, self.A, self._n_starts,
            int(self._env_sa_off is not None), *params,
        )
        self._take_counts()

    def apply_transitions(self, lanes, s, a, r, ns, t) -> int:
        """The batched lane op as one ``qtaccel_apply_rows`` call.

        On the cc tier the rows retire through the same inlined stage
        2-4 body as :meth:`run`; the python and numba tiers run the
        inherited reference loop.  Either way the batch passes
        :func:`~repro.backends.base.check_transition_batch` first, so
        only in-range indices in checked ``int64`` columns reach C.
        """
        if self._apply_rows is None:
            return super().apply_transitions(lanes, s, a, r, ns, t)
        n = check_transition_batch(self, lanes, s, a, r, ns, t)
        if n == 0:
            return 0
        lane, _, params = self._kernel_args()
        q_new = self._apply_rows(
            *lane,
            lanes.ctypes.data, s.ctypes.data, a.ctypes.data,
            r.ctypes.data, ns.ctypes.data, t.ctypes.data,
            n, self.S, self.A, *params,
        )
        self._take_counts()
        return q_new

    def step(self) -> None:
        if self.guard is not None:
            # The divergence guard observes every update vector, which
            # only the per-step numpy program produces; state is shared,
            # so falling back keeps the trajectory bit-identical.
            super().step()
            return
        self._invoke(1)

    def run(self, samples_per_agent: int):
        """Advance every lane by ``samples_per_agent`` fused updates."""
        if samples_per_agent < 0:
            raise ValueError("samples_per_agent must be non-negative")
        if self.guard is not None:
            return super().run(samples_per_agent)
        session = self._session
        if session is None:
            if samples_per_agent:
                self._invoke(samples_per_agent)
        else:
            remaining = samples_per_agent
            while remaining > 0:
                chunk = min(remaining, self.PULSE_CHUNK)
                self._invoke(chunk)
                session.pulse()
                remaining -= chunk
        self.stats.samples_per_agent += samples_per_agent
        return self.stats
