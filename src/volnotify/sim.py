"""Seeded Monte-Carlo execution of notification policies.

One engine plays chunks of episodes at once, period by period, on (E, V)
arrays. Every draw comes from one numpy PCG64DXSM stream seeded by the run
seed (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", 2014), which numpy can
advance by any number of outputs at once. An episode's draws form five slot
groups, each a contiguous run of that stream: g = 0, the arrival draws (one
per period); g = 1, 2 and 3, the notification coins, the response coins and
the inactivity-duration uniforms; and g = 4, the policy draws (V per period
each, volunteers in ascending index within a period). Group g of episode k
starts at output (g * J + k * T * n_g) mod 2**128, where n_g is the group's
draws per period and J = 0x9e3779b97f4a7c15f39cc0605cedc835 is the stride of
numpy's jumped(), so episode 0's group g is the first output of
PCG64DXSM(seed).jumped(g). So episode k's draws never depend on which other
episodes run, any episode can be replayed alone, and a run draws only the
groups it reads: a plain StaticPlanPolicy never draws the policy group.
A 64-bit output w becomes the uniform (w >> 11) * 2**-53. A slot a period
does not need (no arrival, a volunteer not notified or inactive) is skipped,
never handed to the next draw, so every policy sees the same arrivals and
coins on the same seed; a fixed (Deterministic) duration needs no uniforms,
so its run does not draw group 3 at all. Notifying an inactive
volunteer changes nothing. A volunteer whose inactivity ends at period t
can be notified at t. Seeds and episode indices must lie in [0, 2**64);
anything else is a ValidationError.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .core import Deterministic, Instance, ValidationError, duration_table, exhausted_age, json_int
from .policies import Policy, StaticPlanPolicy

__all__ = [
    "CapacityError",
    "SimStats",
    "simulate",
    "simulate_batched",
    "empirical_active_prob",
    "brute_force_optimal_online",
]

# Draws per chunk, counted as T (1 + 4V) per episode, all five groups, even
# where a run skips the policy group, so both engine paths cut the same
# chunks. It bounds a chunk's memory, whatever the run's episode count (the
# run's per-episode completions add 8 bytes an episode); results do not
# depend on it.
_DRAW_BUDGET = 2**20
# numpy's jumped() stride: group g starts g * _JUMP outputs into the stream.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
# Most 64-bit elements (64 KiB) of any array the engine derives from its
# uniforms (response coins, a law's sampling temporaries), once V allows.
# glibc serves blocks below its mmap threshold (128 KiB until it adapts, or
# where pinned) from its heap, recycled from call to call, but maps each
# larger block afresh and page-faults it in: on runs of 25 episodes those
# faults took about a tenth of the time, and a varying tenth, since their
# cost follows the load of the host. For the same reason the chunk's
# uniforms go to a buffer kept per thread (see _uniforms), filled there by
# the generator without any staging array, and its return periods are
# written over its duration uniforms (see _return_periods).
_PIECE = 2**13
_spare = threading.local()


class CapacityError(RuntimeError):
    """State space of an exact computation exceeds the supported size."""


@dataclass(frozen=True)
class SimStats:
    """Aggregate statistics over independent episodes.

    attribution holds each volunteer's mean completions per episode and sums
    to mean_completed; ratio is mean_completed / lp_value when a positive
    benchmark value was supplied, None otherwise.
    """

    episodes: int
    mean_completed: float
    std_error: float
    attribution: tuple
    lp_value: float | None
    ratio: float | None
    seed: int


class _Chunk(NamedTuple):
    """The history of the episodes start .. start + E - 1, period-major."""

    start: int
    arrivals: np.ndarray  # (T, E) arrival type, 1-based; 0 when no task came
    active: np.ndarray  # (T, E, V) active just before the period's arrival draw
    notified: np.ndarray  # (T, E, V)
    responded: np.ndarray  # (T, E, V)


def _uniforms(bitgen: np.random.PCG64DXSM, origin: dict, start: int, E: int, T: int,
              widths) -> np.ndarray:
    """Groups 0 .. len(widths) - 1 of episodes start .. start + E - 1, back to back.

    Group g, widths[g] draws per period, is the E * T * widths[g] outputs w
    of the stream from (g * _JUMP + start * T * widths[g]) mod 2**128 on,
    each as the uniform (w >> 11) * 2**-53; a group of width 0 is not drawn
    and takes no room. For each drawn group bitgen is reset to the stream's
    origin state, advanced once, and a numpy Generator on it fills the
    group's slice of the calling thread's spare buffer in place: its
    random() on a PCG64DXSM is that uniform bit for bit. The caller hands
    the buffer back (_spare.buffer = out.base) once it has read the
    uniforms; a nested call finds no spare and allocates its own.
    """
    n = E * T * sum(widths)
    buf = getattr(_spare, "buffer", None)
    _spare.buffer = None
    if buf is None or buf.size < n:
        buf = np.empty(n)
    out = buf[:n]
    fill = np.random.Generator(bitgen).random
    lo = 0
    for g, width in enumerate(widths):
        if width:
            bitgen.state = origin
            bitgen.advance((g * _JUMP + start * T * width) % 2**128)
            fill(out=out[lo:lo + E * T * width])
            lo += E * T * width
    return out


def _return_periods(dist, u: np.ndarray, periods: np.ndarray) -> None:
    """Turn u, a chunk's (E, T, V) duration uniforms, into return periods in place.

    The uniform of episode e, period t and volunteer v becomes t +
    dist.sample(u), bit for bit. u is rewritten a contiguous block at a
    time, of whole episodes or, where one episode outgrows _PIECE elements,
    of periods of one episode, so no derived array outgrows a piece; periods
    is the (T, 1) column 1 .. T.
    """
    E, T, V = u.shape
    rows = max(1, _PIECE // V)  # periods of V uniforms in one block
    k, step = (rows // T, T) if rows >= T else (1, rows)
    for e0 in range(0, E, k):
        for i0 in range(0, T, step):
            block = u[e0:e0 + k, i0:i0 + step]
            dist.sample(block, out=block)
            block += periods[i0:i0 + step]


def _chunks(instance: Instance, policy: Policy, seed: int, first: int, episodes: int):
    """Play episodes first .. first + episodes - 1, yielding one _Chunk per chunk of them.

    A policy is reached through new_state, advance, decide and record, once
    per chunk and period, on all of the chunk's episodes. A plain
    StaticPlanPolicy (not a subclass) is not called at all: its plan entries
    are gathered for every period and episode of a piece at once and
    compared with the notification coins in one pass, with the same
    notifications bit for bit, and the policy group is never drawn. Either
    way, the activity recurrence runs over a piece once its notifications
    are in. A StaticPlanPolicy, plain or subclassed, whose tensor is not
    (V, S, T) is a ValidationError before anything is drawn.
    """
    episodes = json_int(episodes, "episode count", 1)
    seed = json_int(seed, "seed", 0, 2**64 - 1)
    first = json_int(first, "first episode index", 0, 2**64 - episodes)
    V, S, T = instance.V, instance.S, instance.T
    if isinstance(policy, StaticPlanPolicy) and policy.probs.shape != (V, S, T):
        raise ValidationError(
            f"plan {policy.name!r} has shape {policy.probs.shape}, the instance needs {(V, S, T)}")
    size = max(1, _DRAW_BUDGET // (T * (1 + 4 * V)))
    cum = np.cumsum(instance.arrival_rates, axis=1)[:, None, :]  # (T, 1, S)
    match = np.vstack([instance.match_probs.T, np.zeros(V)])  # (S + 1, V); row S: no task
    periods = np.arange(1.0, T + 1.0)[:, None]
    times = periods[:, 0].tolist()
    if type(policy) is StaticPlanPolicy:
        # row t * (S + 1) + s holds the plan at period t + 1 for type s + 1;
        # row t * (S + 1) + S, a period with no task, notifies nobody
        plan = np.zeros((T, S + 1, V))
        plan[:, :S] = policy.probs.transpose(2, 1, 0)
        plan = plan.reshape(T * (S + 1), V)
        first_row = np.arange(0, T * (S + 1), S + 1)[:, None]
    else:
        plan = None
    fixed = isinstance(instance.dist, Deterministic)
    # arrival, notification, response and duration draws, then the policy's;
    # a fixed duration is not drawn, nor the policy group of a plain plan
    widths = (1, V, V, 0 if fixed else V) + ((V,) if plan is None else ())
    bitgen = np.random.PCG64DXSM(seed)
    origin = bitgen.state
    for start in range(first, first + episodes, size):
        E = min(size, first + episodes - start)
        tape = _uniforms(bitgen, origin, start, E, T, widths)
        groups = []  # (E, T, n_g) views of the tape, in group order
        lo = 0
        for width in widths:
            groups.append(tape[lo:lo + E * T * width].reshape(E, T, width))
            lo += E * T * width
        arrival_u, notify_u, respond_u = (g.transpose(1, 0, 2) for g in groups[:3])  # (T, E, n_g)
        # ends[i]: the period until which a volunteer notified at period i + 1 is inactive
        if fixed:
            ends = periods[:, :, None] + float(instance.dist.d)  # (T, 1, 1)
        else:
            _return_periods(instance.dist, groups[3], periods)
            ends = groups[3].transpose(1, 0, 2)
        types0 = (arrival_u >= cum).sum(axis=2)  # (T, E); S: no task
        arrivals = np.where(types0 < S, types0 + 1, 0)
        arriving = arrivals[:, :, None] > 0
        any_arrival = arrivals.any(axis=1).tolist()
        until = np.zeros((E, V))
        active = np.empty((T, E, V), dtype=bool)
        notified = np.zeros((T, E, V), dtype=bool)
        responded = np.zeros((T, E, V), dtype=bool)
        if plan is None:
            state = policy.new_state()
        else:
            rows = types0 + first_row  # (T, E) rows of plan
        # Response coins are derived `step` periods at a time, so that no
        # array of them outgrows a piece.
        step = max(1, _PIECE // (E * V))
        for i0 in range(0, T, step):
            i1 = min(i0 + step, T)
            would_respond = respond_u[i0:i1] < match[types0[i0:i1]]
            if plan is not None:
                np.less(notify_u[i0:i1], plan[rows[i0:i1]], out=notified[i0:i1])
            else:
                for i in range(i0, i1):
                    t = i + 1
                    if t >= 2:
                        state = policy.advance(state, t)
                    if not any_arrival[i]:
                        continue
                    probs = policy.decide(state, t, arrivals[i], groups[4][:, i])
                    if np.shape(probs) != (E, V):
                        raise ValidationError(
                            f"policy returned probabilities of shape {np.shape(probs)} for "
                            f"{E} episodes and {V} volunteers")
                    np.less(notify_u[i], probs, out=notified[i])
                    notified[i] &= arriving[i]
                    state = policy.record(state, t, notified[i])
            # No policy sees who is active, so the activity recurrence runs after
            # the piece's notifications; responded[i] holds period i's fresh
            # notifications until the response coins are applied to the piece.
            for t, now, went, fresh, back, arrived in zip(
                    times[i0:i1], active[i0:i1], notified[i0:i1], responded[i0:i1],
                    ends[i0:i1], any_arrival[i0:i1]):
                np.less_equal(until, t, out=now)
                if arrived:
                    np.logical_and(went, now, out=fresh)
                    np.putmask(until, fresh, back)
            responded[i0:i1] &= would_respond
        _spare.buffer = tape.base  # read to the end: hand the buffer back
        yield _Chunk(start, arrivals, active, notified, responded)


def _credits(chunk: _Chunk) -> np.ndarray:
    """(E, V) completions per episode and volunteer, each credited to its lowest-index responder."""
    _, E, V = chunk.responded.shape
    hit = chunk.responded.any(axis=2)  # (T, E)
    first = chunk.responded.argmax(axis=2)
    episode = np.broadcast_to(np.arange(E), hit.shape)
    return np.bincount(episode[hit] * V + first[hit], minlength=E * V).reshape(E, V)


def _drive(instance: Instance, policy: Policy, episodes: int, seed: int):
    """The one observer of the engine behind simulate and simulate_batched.

    Returns the (episodes,) completions of episodes 0 .. episodes - 1 and the
    (V,) completions credited to each volunteer, both int64.
    """
    completed = []
    attr = np.zeros(instance.V, dtype=np.int64)
    for chunk in _chunks(instance, policy, seed, 0, episodes):
        credits = _credits(chunk)
        completed.append(credits.sum(axis=1))
        attr += credits.sum(axis=0)
    return np.concatenate(completed), attr


def _aggregate(seed, lp_value, completed, attr) -> SimStats:
    episodes = len(completed)
    mean = int(completed.sum()) / episodes
    if episodes > 1:
        var = (int(completed @ completed) - episodes * mean * mean) / (episodes - 1)
        se = math.sqrt(max(var, 0.0) / episodes)
    else:
        se = 0.0
    ratio = None
    if lp_value is not None and lp_value > 0.0:
        ratio = mean / lp_value
    return SimStats(
        episodes=episodes,
        mean_completed=mean,
        std_error=se,
        attribution=tuple(a / episodes for a in attr.tolist()),
        lp_value=lp_value,
        ratio=ratio,
        seed=int(seed),
    )


def simulate(instance: Instance, policy: Policy, episodes: int, seed: int,
             lp_value: float | None = None) -> SimStats:
    """Run episodes 0 .. episodes - 1 on the streams of (seed, episode index).

    Identical arguments reproduce identical statistics; episode aggregation is
    a commutative sum, so splitting the episode range across workers cannot
    change the outcome.
    """
    return _aggregate(seed, lp_value, *_drive(instance, policy, episodes, seed))


def simulate_batched(instance: Instance, policy: Policy, episodes: int, seed: int,
                     nbatches: int = 25, lp_value: float | None = None):
    """Like simulate, but also report per-batch means over a partition of the episodes.

    The episodes are split into min(nbatches, episodes) contiguous batches
    whose sizes differ by at most one, larger batches first. Returns
    (SimStats, rows) where each row carries the batch index (1-based), its
    episode count, its mean completions, and its ratio to lp_value.
    """
    nbatches = json_int(nbatches, "batch count", 1)
    completed, attr = _drive(instance, policy, episodes, seed)
    rows = []
    for b, batch in enumerate(np.array_split(completed, min(nbatches, episodes))):
        mean = int(batch.sum()) / len(batch)
        rows.append({
            "batch": b + 1,
            "episodes": len(batch),
            "mean_completed": mean,
            "ratio": mean / lp_value if lp_value else None,
        })
    return _aggregate(seed, lp_value, completed, attr), rows


def empirical_active_prob(instance: Instance, policy: Policy, episodes: int,
                          seed: int) -> np.ndarray:
    """Fraction of episodes with each volunteer active just before each period's arrival draw."""
    counts = np.zeros((instance.V, instance.T), dtype=np.int64)
    for chunk in _chunks(instance, policy, seed, 0, episodes):
        counts += chunk.active.sum(axis=1).T
    return counts / episodes


# ---------------------------------------------------------------------------
# Exact optimal online policy for tiny finite-support instances
# ---------------------------------------------------------------------------


def brute_force_optimal_online(instance: Instance, max_states: int = 10**6) -> float:
    """Expected completions of the best online policy that observes volunteer states.

    Backward induction over (period, joint remaining-inactivity state) with a
    maximization over every subset of active volunteers per arrival type. Only
    finite-support duration distributions are supported, and the joint state
    count tau_max^V must stay within max_states.

    Durations run to tau_max, the law's exhausted_age (as in the belief
    filter). Masses that sum to just under 1 leave survival past the
    support, and it returns at tau_max.
    """
    dist, V, S, T = instance.dist, instance.V, instance.S, instance.T
    if dist.support_max is None:
        raise CapacityError("exact solve needs a finite-support duration distribution")
    # tau_max is at most the sampler's longest duration, where the cdf is 1, and
    # the cap admits none past its V-th root, so no longer table is read
    longest = int(dist.sample(np.array([np.nextafter(1.0, 0.0)]))[0])
    table = duration_table(dist, min(longest, int(max_states ** (1.0 / V)) + 1))
    tau_max = exhausted_age(table)
    nstates = tau_max ** V
    if nstates > max_states:
        raise CapacityError(f"at least {nstates} joint states exceed the cap of {max_states}")

    strides = [tau_max ** v for v in range(V)]
    pmf = table.pmf[:tau_max + 1].tolist()
    if tau_max > dist.support_max:
        pmf[tau_max] = float(table.sf[tau_max - 1])
    durations = [(z, pmf[z]) for z in range(1, tau_max + 1) if pmf[z] > 0.0]
    dec = []
    active_sets = []
    for sid in range(nstates):
        digits = [(sid // strides[v]) % tau_max for v in range(V)]
        dec.append(sum(max(d - 1, 0) * strides[v] for v, d in enumerate(digits)))
        active_sets.append([v for v, d in enumerate(digits) if d == 0])

    lam = instance.arrival_rates
    lam0 = instance.no_arrival_rates()
    p = instance.match_probs

    W_next = [0.0] * nstates
    for t in range(T - 1, -1, -1):
        arrivals = [s for s in range(S) if lam[t, s] > 0.0]
        W_now = [0.0] * nstates
        for sid in range(nstates):
            base = dec[sid]
            value = lam0[t] * W_next[base]
            active = active_sets[sid]
            for s in arrivals:
                best = W_next[base]  # notify nobody
                for mask in range(1, 1 << len(active)):
                    subset = [active[i] for i in range(len(active)) if mask >> i & 1]
                    miss = 1.0
                    for v in subset:
                        miss *= 1.0 - p[v, s]
                    expected = 0.0
                    for combo in product(durations, repeat=len(subset)):
                        prob = 1.0
                        nid = base
                        for v, (z, gz) in zip(subset, combo):
                            prob *= gz
                            nid += (z - 1) * strides[v]
                        expected += prob * W_next[nid]
                    cand = (1.0 - miss) + expected
                    if cand > best:
                        best = cand
                value += lam[t, s] * best
            W_now[sid] = value
        W_next = W_now
    return W_next[0]
