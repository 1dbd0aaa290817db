"""Seeded Monte-Carlo execution of notification policies.

Each episode owns an independent random sub-stream derived from the run seed
and the episode index, so episodes can be replayed or distributed across
workers without changing results. Within an episode, draws happen in a fixed
documented order per period: the arrival draw, any draws the policy itself
makes while deciding, one notification coin per volunteer in ascending index,
one response coin per notified active volunteer in ascending index, and one
inactivity duration per notified active volunteer in ascending index.
Notifying an inactive volunteer consumes her notification coin but changes
nothing. A volunteer whose inactivity ends at period t can be notified at t.
Seeds and episode indices must lie in [0, 2**64), so no two (seed, episode)
pairs share a stream; anything else is a ValidationError.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import Instance, ValidationError, duration_table
from .policies import Policy

__all__ = [
    "CapacityError",
    "episode_rng",
    "PeriodRecord",
    "EpisodeLog",
    "SimStats",
    "run_episode",
    "simulate",
    "simulate_batched",
    "empirical_active_prob",
    "brute_force_optimal_online",
]


class CapacityError(RuntimeError):
    """State space of an exact computation exceeds the supported size."""


def _stream_seed(seed: int, episode: int) -> int:
    """(seed << 64) | episode, the seed of one episode's stream; both must lie in [0, 2**64)."""
    if not (0 <= seed < 2**64 and 0 <= episode < 2**64):
        raise ValidationError(
            f"seed and episode index must lie in [0, 2**64), got {seed} and {episode}")
    return (seed << 64) | episode


def episode_rng(seed: int, episode: int) -> random.Random:
    """Independent stream for one episode: the seed and index never collide."""
    return random.Random(_stream_seed(seed, episode))


@dataclass(frozen=True)
class PeriodRecord:
    """What happened in one period; indices are 1-based, arrival None when no task came."""

    arrival: int | None
    notified: tuple
    responders: tuple
    completer: int | None


@dataclass(frozen=True)
class EpisodeLog:
    """Per-episode trace; the completer is always the lowest-indexed responder."""

    completed: int
    periods: tuple


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


class _Ctx:
    """Plain-python view of an instance for the episode inner loop."""

    __slots__ = ("V", "S", "T", "cum", "p_rows", "dist")

    def __init__(self, instance: Instance):
        self.V = instance.V
        self.S = instance.S
        self.T = instance.T
        self.cum = np.cumsum(instance.arrival_rates, axis=1).tolist()
        self.p_rows = instance.match_probs.tolist()
        self.dist = instance.dist


def _play(ctx: _Ctx, policy: Policy, rng: random.Random,
          collect: bool = False, active_counts=None):
    """One episode; returns (completed, per-volunteer counts, records or None)."""
    V, S = ctx.V, ctx.S
    inactive_until = [0] * V
    state = policy.new_state()
    completed = 0
    attribution = [0] * V
    records = [] if collect else None
    draw = rng.random
    for t in range(1, ctx.T + 1):
        if t >= 2:
            state = policy.advance(state, t)
        if active_counts is not None:
            for v in range(V):
                if inactive_until[v] <= t:
                    active_counts[v][t - 1] += 1
        u = draw()
        cum_row = ctx.cum[t - 1]
        s0 = None
        for j in range(S):
            if u < cum_row[j]:
                s0 = j
                break
        if s0 is None:
            if collect:
                records.append(PeriodRecord(None, (), (), None))
            continue
        probs = policy.decide(state, t, s0 + 1, rng)
        if len(probs) != V:
            raise ValidationError(
                f"policy returned {len(probs)} probabilities for {V} volunteers")
        notified = [v for v in range(V) if draw() < probs[v]]
        responders = []
        dropping = []
        for v in notified:
            if inactive_until[v] <= t:
                if draw() < ctx.p_rows[v][s0]:
                    responders.append(v)
                dropping.append(v)
        for v in dropping:
            inactive_until[v] = t + ctx.dist.sample(rng)
        if responders:
            completed += 1
            attribution[responders[0]] += 1
        state = policy.record(state, t, notified)
        if collect:
            records.append(PeriodRecord(
                s0 + 1,
                tuple(v + 1 for v in notified),
                tuple(v + 1 for v in responders),
                responders[0] + 1 if responders else None,
            ))
    return completed, attribution, records


def run_episode(instance: Instance, policy: Policy, rng: random.Random) -> EpisodeLog:
    """Play one full episode against the policy and return its trace."""
    completed, _, records = _play(_Ctx(instance), policy, rng, collect=True)
    return EpisodeLog(completed=completed, periods=tuple(records))


def _drive(instance: Instance, policy: Policy, episodes: int, seed: int, nbatches: int = 1,
           active_counts=None):
    """The one episode loop: episode ep plays on the stream seeded (seed << 64) | ep.

    Episodes run in order, split into min(nbatches, episodes) contiguous
    batches whose sizes differ by at most one. Returns (batch sizes, batch
    completion totals, sum of squared completions, per-volunteer completions).
    """
    if episodes < 1:
        raise ValidationError(f"episode count must be >= 1, got {episodes}")
    if nbatches < 1:
        raise ValidationError(f"batch count must be >= 1, got {nbatches}")
    nb = min(nbatches, episodes)
    sizes = [episodes // nb + (1 if b < episodes % nb else 0) for b in range(nb)]
    ctx = _Ctx(instance)
    rng = random.Random()
    totals = []
    total_sq = 0
    attr = [0] * ctx.V
    start = 0
    for size in sizes:
        batch_total = 0
        for ep in range(start, start + size):
            rng.seed(_stream_seed(seed, ep))
            completed, a, _ = _play(ctx, policy, rng, active_counts=active_counts)
            batch_total += completed
            total_sq += completed * completed
            for v in range(ctx.V):
                attr[v] += a[v]
        start += size
        totals.append(batch_total)
    return sizes, totals, total_sq, attr


def _aggregate(seed, lp_value, sizes, totals, total_sq, attr) -> SimStats:
    episodes = sum(sizes)
    mean = sum(totals) / episodes
    if episodes > 1:
        var = (total_sq - episodes * mean * mean) / (episodes - 1)
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
        attribution=tuple(a / episodes for a in attr),
        lp_value=lp_value,
        ratio=ratio,
        seed=seed,
    )


def simulate(instance: Instance, policy: Policy, episodes: int, seed: int,
             lp_value: float | None = None) -> SimStats:
    """Run independent episodes on sub-streams derived from (seed, episode index).

    Identical arguments reproduce identical statistics; episode aggregation is
    a commutative sum, so splitting the episode range across workers cannot
    change the outcome.
    """
    return _aggregate(seed, lp_value, *_drive(instance, policy, episodes, seed))


def simulate_batched(instance: Instance, policy: Policy, episodes: int, seed: int,
                     nbatches: int = 25, lp_value: float | None = None):
    """Like simulate, but also report per-batch means over a partition of the episodes.

    Returns (SimStats, rows) where each row carries the batch index (1-based),
    its episode count, its mean completions, and its ratio to lp_value.
    """
    sizes, totals, total_sq, attr = _drive(instance, policy, episodes, seed, nbatches)
    rows = []
    for b, (size, total) in enumerate(zip(sizes, totals)):
        mean = total / size
        rows.append({
            "batch": b + 1,
            "episodes": size,
            "mean_completed": mean,
            "ratio": mean / lp_value if lp_value else None,
        })
    return _aggregate(seed, lp_value, sizes, totals, total_sq, attr), rows


def empirical_active_prob(instance: Instance, policy: Policy, episodes: int,
                          seed: int) -> np.ndarray:
    """Fraction of episodes with each volunteer active just before each period's arrival draw."""
    counts = [[0] * instance.T for _ in range(instance.V)]
    _drive(instance, policy, episodes, seed, active_counts=counts)
    return np.array(counts, dtype=float) / episodes


# ---------------------------------------------------------------------------
# Exact optimal online policy for tiny finite-support instances
# ---------------------------------------------------------------------------


def brute_force_optimal_online(instance: Instance, max_states: int = 10**6) -> float:
    """Expected completions of the best online policy that observes volunteer states.

    Backward induction over (period, joint remaining-inactivity state) with a
    maximization over every subset of active volunteers per arrival type. Only
    finite-support duration distributions are supported, and the joint state
    count tau_max^V must stay within max_states.
    """
    tau_max = instance.dist.support_max
    if tau_max is None:
        raise CapacityError("exact solve needs a finite-support duration distribution")
    V, S, T = instance.V, instance.S, instance.T
    nstates = tau_max ** V
    if nstates > max_states:
        raise CapacityError(f"{nstates} joint states exceed the cap of {max_states}")

    strides = [tau_max ** v for v in range(V)]
    pmf = duration_table(instance.dist, tau_max).pmf.tolist()
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
