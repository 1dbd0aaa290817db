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

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    FEASIBILITY_TOL,
    FractionalSolution,
    Geometric,
    Instance,
    ValidationError,
    check_feasible,  # unread here, but bench/spans.py wraps this module's binding
    duration_table,
    exhausted_age,
    json_int,
    json_real,
    _feasibility,
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


def _activity(instance: Instance, x_star: FractionalSolution) -> tuple[np.ndarray, float, float, np.ndarray, np.ndarray]:
    """SDN's activity, once check_feasible would report nothing: x_star's tensor, q = mdhr,
    mu = 1/(2 - q), beta = 1 - mu (load - w) ((w, load) being notification_load) and the
    (V, T) mask of the entries below beta's floor mu - (1 - mu) FEASIBILITY_TOL - 1e-9."""
    report, weights, load = _feasibility(instance, x_star)
    if report:
        raise ValidationError(
            f"ex-ante solution is infeasible ({len(report)} violations; first: {report[0]})")
    q = instance.dist.mdhr()
    mu = 1.0 / (2.0 - q)
    beta = 1.0 - mu * (load - weights)
    return x_star.x, q, mu, beta, beta < mu - (1.0 - mu) * FEASIBILITY_TOL - 1e-9


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
    x = _activity(instance, x_star)[0]
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
    still keeps v inactive at t: beta = 1 - mu (load - w), (w, load) being
    notification_load(x_star) and mu = 1/(2 - q). As sf(e) <= (1 - q) sf(e - 1),
    load - w <= (1 - q)(1 + tol), tol being FEASIBILITY_TOL, so beta >= mu - (1 - mu) tol
    and x / ((2 - q) beta) <= (1 + tol) / (1 - (1 - q) tol); a violation of
    either beyond 1e-9 is an error. beta - mu is the dual certificate's alpha
    (bounds.verify_dual_certificate); the probabilities are clipped to [0, 1].
    """
    x, q, mu, beta, low = _activity(instance, x_star)
    if low.any():
        v, t = np.argwhere(low)[0]
        raise ValidationError(
            f"activity probability beta[{v + 1}, {t + 1}] = {beta[v, t]:.12g} "
            f"fell below 1/(2-q) = {mu:.12g}")
    probs = np.divide(x, (2.0 - q) * beta[:, None, :])
    if np.any(probs > (1.0 + FEASIBILITY_TOL) / (1.0 - (1.0 - q) * FEASIBILITY_TOL) + 1e-9):
        raise ValidationError("scaled-down notification probability exceeded 1")
    return SDNPlan(beta=beta, probs=np.clip(probs, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Belief filter
# ---------------------------------------------------------------------------


@dataclass
class BeliefState:
    """Exact marginal over each volunteer's hidden state given the notification history.

    One row per episode of a chunk: active has shape (E, V), active[e, v]
    being the probability volunteer v is active in episode e. In general
    pending has shape (E, V, T), pending[e, v, tau-1] being the mass knocked
    out by the notification at period tau and still inactive, and that mass
    returns only at the elapsed ages of the span kept in ages (a range,
    oldest first), each with its hazard. A memoryless (geometric) law
    returns every inactive mass with the same hazard q: pending has shape
    (E, V, 1), each volunteer's whole inactive mass, ages is None and hazard
    is q. Each volunteer's active probability and pending masses sum to 1.
    Both arrays are updated in place. A state with one row stands for every
    episode of a chunk until its first notification, which gives it one row
    per episode.
    """

    active: np.ndarray
    pending: np.ndarray
    ages: range | None
    hazard: np.ndarray | float

    @classmethod
    def all_active(cls, instance: Instance) -> "BeliefState":
        """Before any notification. A finite law keeps the span between its youngest and oldest ages
        of positive hazard, up to its exhausted_age, where the hazard is 1 and every mass is back."""
        dist, V, T = instance.dist, instance.V, instance.T
        if isinstance(dist, Geometric):
            return cls(np.ones((1, V)), np.zeros((1, V, 1)), None, dist.q)
        table = duration_table(dist, T)
        kept = np.flatnonzero(table.hazard[:exhausted_age(table) + 1])
        ages = range(kept[-1], kept[0] - 1, -1) if kept.size else range(0)
        return cls(np.ones((1, V)), np.zeros((1, V, T)), ages, table.hazard[ages])

    def advance(self, t: int) -> None:
        """Move to the start of period t >= 2: the mass notified at tau returns with the hazard of
        age t - tau, over the kept ages below t (one slice of pending); a memoryless state moves q."""
        if self.ages is None:
            self.active += self.hazard * self.pending[:, :, 0]
            self.pending *= 1.0 - self.hazard
            return
        oldest = self.ages.start
        lo, hi = max(t - 1 - oldest, 0), t - 1 - self.ages.stop
        if lo < hi:
            h, mass = self.hazard[lo + oldest + 1 - t:], self.pending[:, :, lo:hi]
            # summed in ascending tau, the order the masses were notified in; an age of
            # hazard 0 adds an exact +0.0 and keeps its mass's bits
            self.active += (h * mass).cumsum(axis=2)[:, :, -1]
            mass *= 1.0 - h

    def notify(self, notified: np.ndarray, t: int) -> None:
        """Record the (E, V) mask of the volunteers notified at period t.

        Their active mass becomes pending from t; mass already inactive is
        unaffected because inactive volunteers ignore notifications.
        """
        if len(self.active) != len(notified):
            self.active = np.repeat(self.active, len(notified), axis=0)
            self.pending = np.repeat(self.pending, len(notified), axis=0)
        knocked = self.active * notified
        self.pending[:, :, 0 if self.ages is None else t - 1] += knocked
        self.active -= knocked


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
    keep no state; the engine reads a plain StaticPlanPolicy's tensor
    directly and calls none of these methods on it, so a policy that must
    be called (to trace it, say) is a subclass or a wrapper.
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
        self.theta = _theta(theta)
        self._order = np.argsort(-instance.match_probs.T, axis=1, kind="stable")  # (S, V)

    def new_state(self):
        return BeliefState.all_active(self.instance)

    def advance(self, state, t: int):
        state.advance(t)
        return state

    def record(self, state, t: int, notified):
        state.notify(notified, t)
        return state

    def _eligible(self, state, episodes: int) -> np.ndarray:
        """(episodes, V) mask of the volunteers believed active with probability >= theta."""
        eligible = state.active >= self.theta - 1e-9
        if len(eligible) == episodes:
            return eligible
        # the state's one shared row, before its first notification
        return np.broadcast_to(eligible, (episodes, self.instance.V))


def _notify_ranked(V: int, rows: np.ndarray, order: np.ndarray, take: np.ndarray) -> np.ndarray:
    """(E, V) 0/1 probabilities notifying volunteer order[e, j] when take[e, j]; rows = arange(E)[:, None]."""
    probs = np.zeros((len(order), V))
    probs[rows, order] = take
    return probs


class RandomNPolicy(BeliefPolicy):
    """Notifies the n eligible volunteers with the smallest policy draws, or all when fewer."""

    def __init__(self, name: str, instance: Instance, n: int, theta: float = 1.0):
        super().__init__(name, instance, theta)
        self.n = _parameter("random", n)

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        eligible, rows = self._eligible(state, len(s)), np.arange(len(s))[:, None]
        order = np.argsort(np.where(eligible, u, 2.0), axis=1, kind="stable")[:, :self.n]
        return _notify_ranked(self.instance.V, rows, order, eligible[rows, order])


class BestNPolicy(BeliefPolicy):
    """Notifies the n eligible volunteers with the largest match probability."""

    def __init__(self, name: str, instance: Instance, n: int, theta: float = 1.0):
        super().__init__(name, instance, theta)
        self.n = _parameter("best", n)

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        order, rows = self._order[s - 1], np.arange(len(s))[:, None]
        take = self._eligible(state, len(s))[rows, order]
        take &= np.cumsum(take, axis=1) <= self.n
        return _notify_ranked(self.instance.V, rows, order, take)


class UpToRhoPolicy(BeliefPolicy):
    """Notifies by descending match until the believed chance of a response reaches rho.

    Every volunteer with a positive believed response probability counts,
    whatever theta is.
    """

    def __init__(self, name: str, instance: Instance, rho: float, theta: float = 1.0):
        super().__init__(name, instance, theta)
        self.rho = _parameter("upto", rho)

    def decide(self, state, t: int, s: np.ndarray, u: np.ndarray) -> np.ndarray:
        order, rows = self._order[s - 1], np.arange(len(s))[:, None]
        pa = (self.instance.match_probs.T[s - 1] * state.active)[rows, order]
        # chance that nobody ranked before responds, multiplied in rank order
        missed = np.ones(pa.shape)
        np.cumprod(1.0 - pa[:, :-1], axis=1, out=missed[:, 1:])
        return _notify_ranked(self.instance.V, rows, order, (pa > 0.0) & (1.0 - missed < self.rho))


class RollingHorizonPolicy(BeliefPolicy):
    """Notifies with the first-period probabilities of a truncated benchmark program.

    The program covers periods t .. min(t + horizon - 1, T) with only the
    eligible volunteers, all treated as active at the start of the window. It
    depends only on the period and the eligible set, so each (t, eligible)
    window is solved once and its first-period columns, an (n_eligible, S)
    array, are cached for repeat arrivals; later periods of the window are
    never read. The windows a decide misses go to exante's thread pool
    (exante._Benchmark.solve), each a fresh solve bitwise the same as
    benchmark_lp on the window's instance, whatever thread solves it. A
    horizon of None is default_rolling_horizon(instance).
    """

    def __init__(self, name: str, instance: Instance, horizon: int | None = None,
                 theta: float = 1.0):
        super().__init__(name, instance, theta)
        self.horizon = default_rolling_horizon(instance) if horizon is None else _parameter("rolling", horizon)
        self._cache: dict = {}

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
        if not any(subsets):  # no window to build
            return [None] * len(subsets)
        p = self.instance.match_probs
        window = Instance(arrival_rates=self.instance.arrival_rates[t - 1:t + self.horizon - 1],
                          match_probs=p, dist=self.instance.dist)
        solved = iter(exante._Benchmark(window).solve([p[list(volunteers)] for volunteers in subsets if volunteers]))
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
# belief kind -> (class, parameter, its rule, least value, greatest value or None):
# the one range both parse_policy_spec and the class's constructor check
_BELIEF_KINDS = {
    "random": (RandomNPolicy, "n", json_int, 1, None),
    "best": (BestNPolicy, "n", json_int, 1, None),
    "upto": (UpToRhoPolicy, "rho", json_real, 0, 1),
    "rolling": (RollingHorizonPolicy, "horizon", json_int, 1, None),
}


def _parameter(kind: str, value):
    """value as the parameter of belief kind kind, read by its rule and range (_BELIEF_KINDS)."""
    _, key, rule, least, most = _BELIEF_KINDS[kind]
    return rule(value, f"{kind}:{key}", least, most)


# theta, the activity belief a heuristic needs before it notifies
_theta = functools.partial(json_real, name="theta", least=0, most=1)


def parse_policy_spec(text: str) -> tuple[str, dict]:
    """Parse a policy spec string into (kind, params); see POLICY_GRAMMAR.

    n and H must be integers of at least 1 and rho a real in [0, 1]
    (_BELIEF_KINDS); a bare "rolling" leaves the horizon to make_policy.
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
    _, key, rule, _, _ = _BELIEF_KINDS[head]
    try:
        value = (int if rule is json_int else float)(arg)
    except ValueError:
        raise ValidationError(f"bad parameter in policy spec {text!r}") from None
    return head, {key: _parameter(head, value)}


def default_rolling_horizon(instance: Instance) -> int:
    """Mean inactivity duration rounded to the nearest integer, at least 1 and at most T.

    A window already stops at T, so the cap changes no window; it keeps an
    infinite geometric mean (q below about 5.6e-309) from the rounding.
    """
    return max(1, int(min(instance.dist.mean(), instance.T) + 0.5))


def make_policy(text: str, instance: Instance, x_star: FractionalSolution | None = None,
                theta: float = 1.0) -> Policy:
    """Build a simulator-ready policy from a spec string; nothing is solved here.

    The plan kinds (sn, sdn, exante) need the ex-ante solution x_star, e.g.
    select_ex_ante(instance, m).solution. theta, the activity belief a
    heuristic needs before it notifies, must lie in [0, 1].
    """
    kind, params = parse_policy_spec(text)
    theta = _theta(theta)
    if kind in _STATIC_KINDS:
        needs_x, build = _STATIC_KINDS[kind]
        if needs_x and x_star is None:
            raise ValidationError(f"policy {kind!r} needs the ex-ante solution x_star")
        return StaticPlanPolicy(text, build(instance, x_star))
    return _BELIEF_KINDS[kind][0](text, instance, theta=theta, **params)
