"""Notification policies: plan-based randomized policies, belief tracking, heuristics.

The sparse-notification policy prunes an ex-ante solution with one backward
dynamic program per volunteer, processed in priority order; the scaled-down
policy divides the ex-ante probabilities by the exact activity probability it
induces. Both are non-adaptive: each is one (V, S, T) tensor of notification
probabilities computed offline, immutable, and shareable across concurrent
simulation workers. Heuristic policies are adaptive through an exact
per-episode belief filter over each volunteer's hidden active/inactive state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    FractionalSolution,
    Instance,
    ValidationError,
    check_feasible,
    duration_table,
)
from . import exante

__all__ = [
    "SNPlan",
    "sn_offline",
    "SDNPlan",
    "sdn_offline",
    "BeliefState",
    "Policy",
    "StaticPlanPolicy",
    "BeliefPolicy",
    "RandomNPolicy",
    "BestNPolicy",
    "UpToRhoPolicy",
    "RollingHorizonPolicy",
    "parse_policy_spec",
    "make_policy",
    "POLICY_GRAMMAR",
    "PLAN_POLICIES",
]


def _require_feasible(instance: Instance, x_star: FractionalSolution) -> np.ndarray:
    report = check_feasible(instance, x_star)
    if report:
        raise ValidationError(
            f"ex-ante solution is infeasible ({len(report)} violations; first: {report[0]})")
    return x_star.x


# ---------------------------------------------------------------------------
# Sparse notification policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SNPlan:
    """Sparsified notification plan.

    x_tilde keeps each ex-ante entry or zeroes it; J[v, t] is volunteer v's
    value-to-go from period t+1 on (0-based, J[v, T] == 0); r[v, s, t] is the
    per-arrival reward credited to v given the already-fixed plans of
    higher-priority volunteers.
    """

    x_tilde: np.ndarray
    J: np.ndarray
    r: np.ndarray


def sn_offline(instance: Instance, x_star: FractionalSolution) -> SNPlan:
    """Run the per-volunteer backward dynamic programs that sparsify x_star.

    For each volunteer in priority order, notifying at (s, t) is kept exactly
    when the immediate reward plus the expected value after reactivating is at
    least the value of staying active into t+1 (kept on ties). Reactivations
    past the horizon earn nothing, and periods without an arrival contribute
    the no-arrival mass times the next period's value.
    """
    x = _require_feasible(instance, x_star)
    V, S, T = instance.V, instance.S, instance.T
    lam = instance.arrival_rates
    lam0 = instance.no_arrival_rates()
    g = duration_table(instance.dist, T).pmf[1:]

    x_tilde = np.zeros((V, S, T))
    J = np.zeros((V, T + 1))
    r = np.zeros((V, S, T))
    prefix = np.ones((S, T))  # prod over higher-priority volunteers of (1 - x_tilde p)
    for v in range(V):
        r[v] = instance.match_probs[v][:, None] * prefix
        for t in range(T - 1, -1, -1):
            # sum_{tau > t} g[tau - t - 1] J[v, tau], added left to right (np.sum
            # adds pairwise, which changes the last bits)
            terms = g[:T - t - 1] * J[v, t + 1:T]
            future = np.cumsum(terms)[-1] if terms.size else 0.0
            stay = J[v, t + 1]
            value = lam0[t] * stay
            for s in range(S):
                notify_value = r[v, s, t] + future
                if notify_value >= stay:
                    x_tilde[v, s, t] = x[v, s, t]
                    value += lam[t, s] * (
                        (1.0 - x[v, s, t]) * stay + x[v, s, t] * notify_value)
                else:
                    value += lam[t, s] * stay
            J[v, t] = value
        prefix = prefix * (1.0 - instance.match_probs[v][:, None] * x_tilde[v])
    return SNPlan(x_tilde=x_tilde, J=J, r=r)


# ---------------------------------------------------------------------------
# Scaled-down notification policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SDNPlan:
    """Activity probabilities and notification tensor of the scaled-down policy."""

    beta: np.ndarray  # (V, T); beta[v, 0] == 1
    probs: np.ndarray  # (V, S, T) notification probabilities


def sdn_offline(instance: Instance, x_star: FractionalSolution) -> SDNPlan:
    """Compute each volunteer's exact activity probability under the policy itself.

    beta[v, t] discounts 1 by the chance an earlier scaled-down notification
    still keeps v inactive at t. Feasibility of x_star guarantees
    beta >= 1/(2 - q); a violation beyond 1e-9 is reported as an error. Each
    notification probability is the ex-ante entry divided by the factor 2 - q
    and by beta, clipped to [0, 1] after a check that none exceeds 1 by more
    than 1e-9.
    """
    x = _require_feasible(instance, x_star)
    V, T = instance.V, instance.T
    q = instance.dist.mdhr()
    mu = 1.0 / (2.0 - q)
    weights = np.einsum("ts,vst->vt", instance.arrival_rates, x)  # (V, T)
    sf = duration_table(instance.dist, T).sf
    beta = np.ones((V, T))
    for t in range(1, T):
        # survival offsets are t - t' >= 1 for earlier periods t' < t
        beta[:, t] = 1.0 - mu * (weights[:, :t] @ sf[t:0:-1])
    floor = mu - 1e-9
    if np.any(beta < floor):
        v, t = np.argwhere(beta < floor)[0]
        raise ValidationError(
            f"activity probability beta[{v + 1}, {t + 1}] = {beta[v, t]:.12g} "
            f"fell below 1/(2-q) = {mu:.12g}")
    probs = np.divide(x, (2.0 - q) * beta[:, None, :])
    if np.any(probs > 1.0 + 1e-9):
        raise ValidationError("scaled-down notification probability exceeded 1")
    return SDNPlan(beta=beta, probs=np.clip(probs, 0.0, 1.0))



# ---------------------------------------------------------------------------
# Belief filter
# ---------------------------------------------------------------------------


@dataclass
class BeliefState:
    """Exact marginal over each volunteer's hidden state given the notification history.

    One row per episode of a chunk: active has shape (E, V), active[e, v]
    being the probability volunteer v is active in episode e, and pending
    has shape (E, V, T), pending[e, v, tau-1] being the mass knocked out by
    the notification at period tau and still inactive. Each volunteer's
    active probability and pending masses sum to 1. Both arrays are updated
    in place. A state with one row stands for every episode of a chunk until
    its first notification, which gives it one row per episode.
    """

    active: np.ndarray
    pending: np.ndarray

    @classmethod
    def all_active(cls, V: int, T: int) -> "BeliefState":
        return cls(active=np.ones((1, V)), pending=np.zeros((1, V, T)))

    def advance(self, hazard: np.ndarray, t: int) -> None:
        """Move to the start of period t >= 2: each pending mass returns with its elapsed hazard.

        hazard is a duration table's hazard array; the mass notified at tau
        has been inactive for t - tau periods. Only the masses inactive for
        at most len(hazard) - 1 periods are touched. For a law of finite
        support the table may stop at its support_max, with the same
        result bit for bit: an older mass has hazard 1, so it was zeroed
        when its support ran out, or hazard exactly 0 (a tabulated law whose
        masses sum to just under 1), so it adds an exact zero and stays.
        """
        oldest = max(1, t + 1 - len(hazard))  # period of the oldest mass touched
        h = hazard[t - oldest:0:-1]
        mass = self.pending[:, :, oldest - 1:t - 1]
        # summed in ascending tau, the order the masses were notified in
        self.active += np.cumsum(h * mass, axis=2)[:, :, -1]
        mass *= 1.0 - h

    def notify(self, notified: np.ndarray, t: int) -> None:
        """Record the (E, V) mask of the volunteers notified at period t.

        Their active mass becomes pending from t; mass already inactive is
        unaffected because inactive volunteers ignore notifications.
        """
        if len(self.active) != len(notified):
            self.active = np.repeat(self.active, len(notified), axis=0)
            self.pending = np.repeat(self.pending, len(notified), axis=0)
        self.pending[:, :, t - 1] += np.where(notified, self.active, 0.0)
        self.active[notified] = 0.0


# ---------------------------------------------------------------------------
# Policy objects for the simulator
# ---------------------------------------------------------------------------


class Policy:
    """Protocol the simulator's engine drives, on a chunk of E episodes at a time.

    The engine threads an opaque per-chunk state through advance (start of
    each period from 2 on), decide (in a period where a task arrives in some
    episode) and record (after that period's realized notifications). decide
    gets the (E,) arrival types s, 1-based and 0 where no task came (those
    rows are ignored), and the period's (E, V) policy uniforms u, and returns
    the (E, V) notification probabilities. record gets the (E, V) boolean
    mask of the notified volunteers. The arrays passed in are views that
    the engine reuses, valid only during the call. Non-adaptive policies
    keep no state.
    """

    name = "policy"

    def new_state(self):
        return None

    def advance(self, state, t: int):
        return state

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def record(self, state, t: int, notified: np.ndarray):
        return state


class StaticPlanPolicy(Policy):
    """Notifies with fixed per-(period, type) probabilities from a precomputed tensor."""

    def __init__(self, name: str, probs: np.ndarray):
        self.name = name
        self.probs = np.array(probs, dtype=float)  # (V, S, T)
        self.probs.setflags(write=False)

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.probs[:, s - 1, t - 1].T


class BeliefPolicy(Policy):
    """Adaptive policy over the exact belief filter; subclasses supply decide.

    The per-chunk state is a BeliefState. A volunteer is eligible when
    believed active with probability at least theta. Volunteers are ranked
    per task type by descending match probability, ties to the lower index.
    """

    def __init__(self, name: str, instance: Instance, theta: float = 1.0):
        self.name = name
        self.instance = instance
        self.theta = theta
        support = instance.dist.support_max
        # up to the support: BeliefState.advance adds nothing for older masses
        self._hazard = duration_table(instance.dist, instance.T).hazard[:None if support is None else support + 1]
        self._order = np.argsort(-instance.match_probs.T, axis=1, kind="stable")  # (S, V)

    def new_state(self):
        return BeliefState.all_active(self.instance.V, self.instance.T)

    def advance(self, state, t: int):
        state.advance(self._hazard, t)
        return state

    def record(self, state, t: int, notified):
        state.notify(notified, t)
        return state

    def _eligible(self, state, episodes: int) -> np.ndarray:
        """(episodes, V) mask of the volunteers believed active with probability >= theta."""
        return np.broadcast_to(state.active >= self.theta - 1e-9, (episodes, self.instance.V))


def _notify_ranked(V: int, order: np.ndarray, take: np.ndarray) -> np.ndarray:
    """(E, V) 0/1 notification probabilities of the volunteers order[e, j] with take[e, j]."""
    probs = np.zeros((len(order), V))
    np.put_along_axis(probs, order, take, axis=1)
    return probs


class RandomNPolicy(BeliefPolicy):
    """Notifies the n eligible volunteers with the smallest policy draws, or all when fewer."""

    def __init__(self, name: str, instance: Instance, n: int, theta: float = 1.0):
        super().__init__(name, instance, theta)
        self.n = n

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        eligible = self._eligible(state, len(s))
        order = np.argsort(np.where(eligible, u, 2.0), axis=1, kind="stable")[:, :self.n]
        return _notify_ranked(self.instance.V, order, np.take_along_axis(eligible, order, axis=1))


class BestNPolicy(BeliefPolicy):
    """Notifies the n eligible volunteers with the largest match probability."""

    def __init__(self, name: str, instance: Instance, n: int, theta: float = 1.0):
        super().__init__(name, instance, theta)
        self.n = n

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        order = self._order[s - 1]
        take = np.take_along_axis(self._eligible(state, len(s)), order, axis=1)
        take &= np.cumsum(take, axis=1) <= self.n
        return _notify_ranked(self.instance.V, order, take)


class UpToRhoPolicy(BeliefPolicy):
    """Notifies by descending match until the believed chance of a response reaches rho.

    Every volunteer with a positive believed response probability counts,
    whatever theta is.
    """

    def __init__(self, name: str, instance: Instance, rho: float, theta: float = 1.0):
        super().__init__(name, instance, theta)
        self.rho = rho

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        order = self._order[s - 1]
        pa = np.take_along_axis(self.instance.match_probs.T[s - 1] * state.active, order, axis=1)
        # chance that nobody ranked before responds, multiplied in rank order
        missed = np.cumprod(np.hstack([np.ones((len(s), 1)), 1.0 - pa[:, :-1]]), axis=1)
        return _notify_ranked(self.instance.V, order, (pa > 0.0) & (1.0 - missed < self.rho))


class RollingHorizonPolicy(BeliefPolicy):
    """Notifies with the first-period probabilities of a truncated benchmark program.

    The program covers periods t .. min(t + horizon - 1, T) with only the
    eligible volunteers, all treated as active at the start of the window. It
    depends only on the period and the eligible set, so each (t, eligible)
    window is solved once and its first-period columns, an (n_eligible, S)
    array, are cached for repeat arrivals; later periods of the window are
    never read. The windows a decide misses are solved as one batch
    (exante._Benchmark.solve), each bitwise the same as benchmark_lp on the
    window's instance. A horizon of None is default_rolling_horizon(instance).
    """

    def __init__(self, name: str, instance: Instance, horizon: int | None = None,
                 theta: float = 1.0):
        super().__init__(name, instance, theta)
        self.horizon = default_rolling_horizon(instance) if horizon is None else horizon
        self._cache: dict = {}
        self._window = None  # (t, exante._Benchmark over periods t .. t + horizon - 1) of the last miss
        self._spares: list = []  # HiGHS solvers free for the next batch

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        eligible = self._eligible(state, len(s))
        rows = np.flatnonzero(s).tolist()
        keys = [(t, tuple(np.flatnonzero(eligible[e]).tolist())) for e in rows]
        missing = [key for key in dict.fromkeys(keys) if key not in self._cache]
        if missing:
            self._cache.update(zip(missing, self._solve(t, [key[1] for key in missing])))
        probs = np.zeros(eligible.shape)
        for e, key in zip(rows, keys):
            first = self._cache[key]
            if first is not None:
                probs[e, list(key[1])] = first[:, s[e] - 1]
        return probs

    def _solve(self, t: int, subsets: list) -> list:
        """The first-period columns of the window at t for each eligible set; None for an empty one."""
        if self._window is None or self._window[0] != t:
            sub = Instance(arrival_rates=self.instance.arrival_rates[t - 1:t + self.horizon - 1],
                           match_probs=self.instance.match_probs, dist=self.instance.dist)
            self._window = (t, exante._Benchmark(sub))
        window = self._window[1]
        p = self.instance.match_probs
        solved = iter(window.solve([p[list(volunteers)] for volunteers in subsets if volunteers],
                                   self._spares))
        return [np.ascontiguousarray(next(solved)[:, :, 0]) if volunteers else None
                for volunteers in subsets]


# ---------------------------------------------------------------------------
# Policy specification grammar
# ---------------------------------------------------------------------------

POLICY_GRAMMAR = "sn | sdn | exante | all | random:n | best:n | upto:rho | rolling:H"
# static kind -> (needs the ex-ante solution, builder of its (V, S, T) tensor)
_STATIC_KINDS = {
    "sn": (True, lambda instance, x_star: sn_offline(instance, x_star).x_tilde),
    "sdn": (True, lambda instance, x_star: sdn_offline(instance, x_star).probs),
    "exante": (True, lambda instance, x_star: np.asarray(x_star.x)),
    "all": (False, lambda instance, x_star: np.ones((instance.V, instance.S, instance.T))),
}
PLAN_POLICIES = tuple(kind for kind, (needs_x, _) in _STATIC_KINDS.items() if needs_x)
# belief kind -> (class, parameter, type, least value, greatest value)
_BELIEF_KINDS = {
    "random": (RandomNPolicy, "n", int, 1, math.inf),
    "best": (BestNPolicy, "n", int, 1, math.inf),
    "upto": (UpToRhoPolicy, "rho", float, 0.0, 1.0),
    "rolling": (RollingHorizonPolicy, "horizon", int, 1, math.inf),
}


def parse_policy_spec(text: str) -> tuple[str, dict]:
    """Parse a policy spec string into (kind, params); see POLICY_GRAMMAR.

    n and H must be at least 1 and rho must lie in [0, 1]; a bare "rolling"
    leaves the horizon to make_policy.
    """
    head, _, arg = text.strip().partition(":")
    head = head.lower()
    if head in _STATIC_KINDS:
        if arg:
            raise ValidationError(f"policy {head!r} takes no parameter")
        return head, {}
    if head not in _BELIEF_KINDS:
        raise ValidationError(f"unknown policy spec {text!r}; grammar: {POLICY_GRAMMAR}")
    if head == "rolling" and not arg:
        return head, {}
    _, key, convert, least, greatest = _BELIEF_KINDS[head]
    try:
        value = convert(arg)
    except ValueError:
        raise ValidationError(f"bad parameter in policy spec {text!r}") from None
    if not least <= value <= greatest:
        raise ValidationError(
            f"policy {head!r} needs {key} in [{least}, {greatest}], got {arg.strip()}")
    return head, {key: value}


def default_rolling_horizon(instance: Instance) -> int:
    """Mean inactivity duration rounded to the nearest integer, at least 1."""
    return max(1, int(instance.dist.mean() + 0.5))


def make_policy(text: str, instance: Instance, x_star: FractionalSolution | None = None,
                theta: float = 1.0) -> Policy:
    """Build a simulator-ready policy from a spec string; nothing is solved here.

    The plan kinds (sn, sdn, exante) need the ex-ante solution x_star, e.g.
    select_ex_ante(instance, m).solution. theta, the activity belief a
    heuristic needs before it notifies, must lie in [0, 1].
    """
    kind, params = parse_policy_spec(text)
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must be in [0, 1], got {theta}")
    if kind in _STATIC_KINDS:
        needs_x, build = _STATIC_KINDS[kind]
        if needs_x and x_star is None:
            raise ValidationError(f"policy {kind!r} needs the ex-ante solution x_star")
        return StaticPlanPolicy(text, build(instance, x_star))
    return _BELIEF_KINDS[kind][0](text, instance, theta=theta, **params)
