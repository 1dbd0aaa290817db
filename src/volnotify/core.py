"""Problem primitives: inter-activity distributions, instances, fractional solutions.

A problem instance couples time-varying task arrival rates, per-pair match
probabilities, and the distribution of the inactivity period that a
notification triggers. Everything here is immutable after construction and
all evaluation helpers are pure functions, so instances and solutions can be
shared freely across concurrent readers.

Indexing convention: public operations take 1-based volunteer/type/period
indices (v, s, t) matching the usual mathematical notation; the underlying
arrays are 0-based with shapes (T, S) for arrival rates, (V, S) for match
probabilities, and (V, S, T) for notification tensors.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

FEASIBILITY_TOL = 1e-7  # absolute slack granted to solver output
EXHAUSTED_SF = 1e-12  # survival at or below this counts as exhausted: the rest of the mass is back

__all__ = [
    "ValidationError",
    "InterActivityDistribution",
    "Geometric",
    "Deterministic",
    "Tabulated",
    "DurationTable",
    "duration_table",
    "Instance",
    "FractionalSolution",
    "Violation",
    "check_feasible",
    "notification_load",
    "evaluate_f",
    "evaluate_fv",
    "survival_matrix",
    "instance_to_json",
    "instance_from_json",
    "dist_to_dict",
    "dist_from_dict",
]


class ValidationError(ValueError):
    """Raised when instance data, parameters, or solution tensors are malformed."""


# ---------------------------------------------------------------------------
# Inter-activity time distributions
# ---------------------------------------------------------------------------


class InterActivityDistribution:
    """Distribution of the inactivity duration triggered by notifying an active volunteer.

    Durations are integers >= 1. A subclass states its values once, as
    `_masses(n)`: the pmf and the cdf at durations 1..n, which every caller
    reads through duration_table. Beside them it gives `mdhr` (the minimum
    discrete hazard rate, 0/0 hazards counting as 1), `mean`, `support_max`
    (None when unbounded) and `sample(u, out=None)`, which maps an array of
    uniforms in [0, 1) to the durations that invert the cdf at them, as
    floats of the same shape (a geometric duration can exceed every integer
    dtype). Given `out`, a float array of u's shape that may be u itself,
    sample writes the durations there elementwise and returns it; the
    simulator turns a chunk's duration uniforms into return periods in place
    this way, and draws no duration uniforms at all for a Deterministic law.
    """


@dataclass(frozen=True)
class Geometric(InterActivityDistribution):
    """Memoryless duration: pmf(tau) = q (1-q)^(tau-1) on an unbounded support."""

    q: float

    def __post_init__(self):
        q = json_real(self.q, "geometric success probability")
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"geometric success probability must be in (0, 1], got {self.q!r}")
        object.__setattr__(self, "q", q)

    def _masses(self, n: int) -> tuple[list, list]:
        # Scalar powers: numpy's array power may round differently.
        q = self.q
        return ([q * (1.0 - q) ** (tau - 1) for tau in range(1, n + 1)],
                [1.0 - (1.0 - q) ** tau for tau in range(1, n + 1)])

    def mdhr(self) -> float:
        # Hazard is constant at q for every duration.
        return self.q

    def mean(self) -> float:
        return 1.0 / self.q

    support_max = None

    def sample(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(np.shape(u))
        if self.q >= 1.0:
            out[...] = 1.0
            return out
        # Smallest z >= 1 with cdf(z) > u; untruncated, so no integer dtype holds
        # every z, and below q ~ 1e-307 a z beyond the float range is inf.
        with np.errstate(over="ignore"):
            np.log1p(np.negative(u, out=out), out=out)
            np.divide(out, math.log1p(-self.q), out=out)
            return np.maximum(np.ceil(out, out=out), 1.0, out=out)


@dataclass(frozen=True)
class Deterministic(InterActivityDistribution):
    """Fixed duration of d periods."""

    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", json_int(self.d, "deterministic length", 1))

    def _masses(self, n: int) -> tuple[list, list]:
        return ([float(tau == self.d) for tau in range(1, n + 1)],
                [float(tau >= self.d) for tau in range(1, n + 1)])

    def mdhr(self) -> float:
        # Hazard is 0 before d and 1 at d, so the minimum is 0 unless d == 1.
        return 1.0 if self.d == 1 else 0.0

    def mean(self) -> float:
        return float(self.d)

    @property
    def support_max(self) -> int:
        return self.d

    def sample(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty(np.shape(u))
        out[...] = float(self.d)
        return out


@dataclass(frozen=True)
class Tabulated(InterActivityDistribution):
    """Explicit pmf on durations 1..len(probs); masses must sum to 1 within 1e-9."""

    probs: tuple

    def __post_init__(self):
        probs = tuple(json_real(p, "tabulated mass") for p in self.probs)
        if not probs:
            raise ValidationError("tabulated distribution needs at least one mass")
        if not all(p >= 0.0 for p in probs):
            raise ValidationError("tabulated masses must be nonnegative")
        if not abs(sum(probs) - 1.0) <= 1e-9:
            raise ValidationError(f"tabulated masses must sum to 1, got {sum(probs)}")
        object.__setattr__(self, "probs", probs)
        cum = np.array([*accumulate(probs[:-1]), 1.0])
        cum.setflags(write=False)
        object.__setattr__(self, "_cum", cum)

    def _masses(self, n: int) -> tuple[list, list]:
        pad = max(n - len(self.probs), 0)
        return list(self.probs[:n]) + [0.0] * pad, self._cum[:n].tolist() + [1.0] * pad

    def mdhr(self) -> float:
        # Durations whose survival is already exhausted count as hazard 1 (the
        # 0/0 case). Survival is the running 1 - p1 - p2 - ..., not
        # duration_table's 1 - cdf: the two can differ in the last bit, and
        # mdhr scales the SDN plan.
        best, surv = 1.0, 1.0
        for p in self.probs:
            if surv > EXHAUSTED_SF:
                best = min(best, p / surv)
            surv -= p
        return max(best, 0.0)

    def mean(self) -> float:
        return sum((i + 1) * p for i, p in enumerate(self.probs))

    @property
    def support_max(self) -> int:
        return max(tau for tau, p in enumerate(self.probs, start=1) if p > 0.0)

    def sample(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        # The first tau with u < cum[tau]; the last cum entry is exactly 1.
        return np.add(np.searchsorted(self._cum, u, side="right"), 1.0, out=out)


class DurationTable(NamedTuple):
    """Read-only arrays over elapsed durations e = 0..n of one distribution."""

    pmf: np.ndarray  # P(duration == e); pmf[0] == 0
    sf: np.ndarray  # P(duration > e); sf[0] == 1
    hazard: np.ndarray  # P(duration == e | duration > e - 1); hazard[0] == 0


@lru_cache(maxsize=256)
def duration_table(dist: InterActivityDistribution, n: int) -> DurationTable:
    """The pmf, survival (1 - cdf) and hazard of dist._masses(n) for durations 0..n, built once per (dist, n).

    Survival at or below EXHAUSTED_SF counts as exhausted: the hazard is 1
    for a duration whose own or prior survival is exhausted (this also
    settles the 0/0 case) and min(pmf[e] / sf[e-1], 1) otherwise.
    """
    pmf, cdf = dist._masses(n)
    pmf, sf = np.array([0.0] + pmf), 1.0 - np.array([0.0] + cdf)
    exhausted = sf <= EXHAUSTED_SF
    hazard = np.zeros(n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        hazard[1:] = np.where(exhausted[1:] | exhausted[:-1], 1.0,
                              np.minimum(pmf[1:] / sf[:-1], 1.0))
    for arr in (pmf, sf, hazard):
        arr.setflags(write=False)
    return DurationTable(pmf, sf, hazard)


def exhausted_age(table: DurationTable) -> int:
    """The first age of table whose survival is exhausted, where every remaining mass returns;
    len(table.sf) when none is."""
    exhausted = np.flatnonzero(table.sf <= EXHAUSTED_SF)
    return int(exhausted[0]) if exhausted.size else len(table.sf)


# ---------------------------------------------------------------------------
# Instance and fractional solutions
# ---------------------------------------------------------------------------


def _readonly_array(values, shape_name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != ndim:
        raise ValidationError(f"{shape_name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Instance:
    """One problem instance: arrival rates (T x S), match probabilities (V x S), duration distribution.

    At most one task arrives per period, so every arrival-rate row must sum to
    at most 1; the slack is the no-arrival probability of that period. Rows
    that violate the sum constraint are rejected outright rather than
    renormalized, so stored instances are reproduced exactly.
    """

    arrival_rates: np.ndarray
    match_probs: np.ndarray
    dist: InterActivityDistribution

    def __post_init__(self):
        lam = _readonly_array(self.arrival_rates, "arrival_rates", 2)
        p = _readonly_array(self.match_probs, "match_probs", 2)
        if lam.shape[1] != p.shape[1]:
            raise ValidationError(
                f"arrival_rates has {lam.shape[1]} task types but match_probs has {p.shape[1]}"
            )
        if lam.shape[0] < 1 or p.shape[0] < 1 or lam.shape[1] < 1:
            raise ValidationError("instance needs at least one period, volunteer, and task type")
        if not np.all((lam >= 0.0) & (lam <= 1.0)):
            raise ValidationError("arrival rates must lie in [0, 1]")
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValidationError("match probabilities must lie in [0, 1]")
        row_sums = lam.sum(axis=1)
        bad = np.nonzero(row_sums > 1.0 + 1e-9)[0]
        if bad.size:
            t = int(bad[0])
            raise ValidationError(
                f"arrival rates in period {t + 1} sum to {row_sums[t]:.12g} > 1"
            )
        if not isinstance(self.dist, InterActivityDistribution):
            raise ValidationError("dist must be an InterActivityDistribution")
        object.__setattr__(self, "arrival_rates", lam)
        object.__setattr__(self, "match_probs", p)

    @property
    def T(self) -> int:
        return self.arrival_rates.shape[0]

    @property
    def V(self) -> int:
        return self.match_probs.shape[0]

    @property
    def S(self) -> int:
        return self.arrival_rates.shape[1]

    def no_arrival_rates(self) -> np.ndarray:
        """Per-period probability that no task arrives (the row slack)."""
        return np.clip(1.0 - self.arrival_rates.sum(axis=1), 0.0, 1.0)


@dataclass(frozen=True)
class FractionalSolution:
    """A V x S x T tensor of notification probabilities."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly_array(self.x, "solution tensor", 3))


def _require_shape(instance: Instance, solution: FractionalSolution) -> np.ndarray:
    if solution.x.shape != (instance.V, instance.S, instance.T):
        raise ValidationError(
            f"solution tensor shape {solution.x.shape} does not match instance "
            f"({instance.V}, {instance.S}, {instance.T})"
        )
    return solution.x


@lru_cache(maxsize=16)  # a matrix holds T * T floats, so only a few are kept
def survival_matrix(dist: InterActivityDistribution, T: int) -> np.ndarray:
    """Lower-triangular (T x T) matrix M[t, tau] = P(duration > t - tau) for tau <= t (0-based).

    Built once per (dist, T) and read-only, like duration_table.
    """
    elapsed = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
    matrix = np.tril(duration_table(dist, T).sf[elapsed])
    matrix.setflags(write=False)
    return matrix


@dataclass(frozen=True)
class Violation:
    """One feasibility violation; kind is 'range' (box) or 'load' (notification budget)."""

    kind: str
    v: int
    s: int | None
    t: int
    value: float


def notification_load(instance: Instance, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w[v, t] = sum_s lambda[t, s] x[v, s, t] and load[v, t] = sum_{tau <= t} w[v, tau] sf(t - tau).

    load is the expected number of v's notifications still pending at t, which
    check_feasible bounds by 1; as sf(0) = 1, load - w sets SDN's activity.
    """
    w = np.einsum("ts,vst->vt", instance.arrival_rates, x)
    return w, w @ survival_matrix(instance.dist, instance.T).T


def check_feasible(instance: Instance, solution: FractionalSolution) -> list[Violation]:
    """Report violations of the box constraints and per-volunteer notification budgets.

    The budget constraint requires, for every volunteer v and period t, that
    v's notification load (notification_load) not exceed 1. A non-finite
    entry is a range violation. Returns an empty list iff the solution is
    feasible within FEASIBILITY_TOL.
    """
    return _feasibility(instance, solution)[0]


def _feasibility(instance: Instance,
                 solution: FractionalSolution) -> tuple[list[Violation], np.ndarray, np.ndarray]:
    """check_feasible's report, with the (w, load) of notification_load that it read."""
    x = _require_shape(instance, solution)
    # a positive test, so that NaN, which fails every comparison, is out of range
    out = [Violation("range", int(v) + 1, int(s) + 1, int(t) + 1, float(x[v, s, t]))
           for v, s, t in np.argwhere(~((x >= -FEASIBILITY_TOL) & (x <= 1.0 + FEASIBILITY_TOL)))]
    with np.errstate(invalid="ignore", over="ignore"):  # an infinite entry times a zero is NaN
        weights, loads = notification_load(instance, x)
    return out + [Violation("load", int(v) + 1, None, int(t) + 1, float(loads[v, t]))
                  for v, t in np.argwhere(loads > 1.0 + FEASIBILITY_TOL)], weights, loads


def evaluate_f(instance: Instance, solution: FractionalSolution) -> float:
    """Expected completions if volunteers were always active and notified per the tensor.

    Sums lambda[t, s] * (1 - prod_v (1 - x[v, s, t] p[v, s])) over all arrival slots.
    """
    x = _require_shape(instance, solution)
    miss = np.prod(1.0 - x * instance.match_probs[:, :, None], axis=0)  # (S, T)
    return float(np.sum(instance.arrival_rates * (1.0 - miss).T))


def evaluate_fv(instance: Instance, solution: FractionalSolution, v: int) -> float:
    """Volunteer v's contribution when lower-indexed volunteers take priority (v is 1-based).

    The per-slot term is lambda[t, s] * prod_{u<v} (1 - p[u, s] x[u, s, t]) * p[v, s] x[v, s, t];
    summing contributions over all v recovers evaluate_f.
    """
    x = _require_shape(instance, solution)
    i = json_int(v, "volunteer index", 1, instance.V) - 1
    prefix = np.prod(1.0 - x[:i] * instance.match_probs[:i, :, None], axis=0)  # (S, T)
    own = x[i] * instance.match_probs[i][:, None]  # (S, T)
    return float(np.sum(instance.arrival_rates * (prefix * own).T))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def dist_to_dict(dist: InterActivityDistribution) -> dict:
    if isinstance(dist, Geometric):
        return {"type": "geometric", "q": dist.q}
    if isinstance(dist, Deterministic):
        return {"type": "deterministic", "d": dist.d}
    if isinstance(dist, Tabulated):
        return {"type": "tabulated", "probs": list(dist.probs)}
    raise ValidationError(f"cannot serialize distribution {dist!r}")


def dist_from_dict(data: dict) -> InterActivityDistribution:
    try:
        kind = data["type"]
    except (TypeError, KeyError):
        raise ValidationError("distribution object needs a 'type' field") from None
    try:
        if kind == "geometric":
            return Geometric(json_real(data["q"], "q"))
        if kind == "deterministic":
            return Deterministic(data["d"])
        if kind == "tabulated":
            return Tabulated(tuple(json_reals(data["probs"], "probs")))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {kind} distribution: {exc!r}") from None
    raise ValidationError(f"unknown distribution type {kind!r}")


def instance_to_json(instance: Instance, indent: int | None = None) -> str:
    """Serialize an instance; rates round-trip bit-exactly as decimal literals.

    Arrival rates are written as sparse 1-indexed [t, s, rate] triples when
    more than half the slots are empty, and as a dense T x S array otherwise.
    """
    lam = instance.arrival_rates
    nonzero = np.argwhere(lam != 0.0)
    # A sparse triple list that is exactly T x 3 would be indistinguishable
    # from a dense matrix with S == 3, so force dense in that case.
    ambiguous = instance.S == 3 and nonzero.shape[0] == instance.T
    if nonzero.shape[0] * 2 <= lam.size and not ambiguous:
        arrivals = [[int(t) + 1, int(s) + 1, float(lam[t, s])] for t, s in nonzero]
    else:
        arrivals = [list(map(float, row)) for row in lam]
    doc = {
        "T": instance.T,
        "V": instance.V,
        "S": instance.S,
        "arrivals": arrivals,
        "match": [list(map(float, row)) for row in instance.match_probs],
        "dist": dist_to_dict(instance.dist),
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def json_int(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """A Python or numpy integer in [least, most] as a plain int; anything else is a ValidationError.

    The one rule for every count, seed and index a caller hands the package:
    a bool, float, string or null is rejected, never truncated or converted.
    A bound of None is open.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        number = int(value)
        if (least is None or number >= least) and (most is None or number <= most):
            return number
    bound = "" if least is None else f" >= {least}" if most is None else f" in [{least}, {most}]"
    raise ValidationError(f"{name} must be an integer{bound}, got {value!r}")


def json_real(value, name: str, least: float | None = None, most: float | None = None) -> float:
    """json_int's rule for every real: a real number in [least, most] as a float; a bound refuses nan."""
    if not isinstance(value, (bool, np.bool_)) and isinstance(value, numbers.Real):
        number = float(value)
        if (least is None or number >= least) and (most is None or number <= most):
            return number
    bound = "" if least is None else f" >= {least}" if most is None else f" in [{least}, {most}]"
    raise ValidationError(f"{name} must be a real number{bound}, got {value!r}")


def json_reals(values, name: str) -> np.ndarray:
    """A (nested) list of JSON numbers as a float array; a boolean, string or null entry is rejected."""
    stack = [values]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(value)
        else:
            json_real(value, name)
    return np.array(values, dtype=float)


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid instance JSON: {exc}") from None
    try:
        T, V, S = (json_int(doc[key], key, 1) for key in ("T", "V", "S"))
        arrivals = doc["arrivals"]
        p = json_reals(doc["match"], "match")
        dist = dist_from_dict(doc["dist"])
        lam = np.zeros((T, S))
        # An empty list is the sparse form of no arrivals: a dense matrix has T >= 1 rows.
        if all(len(row) == 3 for row in arrivals) and (T, S) != (len(arrivals), 3):
            seen = set()
            for t, s, rate in arrivals:
                t, s = json_int(t, "arrival period", 1, T), json_int(s, "arrival type", 1, S)
                if (t, s) in seen:
                    raise ValidationError(f"duplicate arrival triple for period {t}, type {s}")
                seen.add((t, s))
                lam[t - 1, s - 1] = json_real(rate, "arrival rate")
        else:
            lam = json_reals(arrivals, "arrivals")
            if lam.shape != (T, S):
                raise ValidationError(f"dense arrivals must be {T} x {S}, got {lam.shape}")
    except ValidationError:
        raise
    except KeyError as exc:
        raise ValidationError(f"instance JSON missing field: {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed instance JSON: {exc}") from None
    if p.shape != (V, S):
        raise ValidationError(f"match matrix must be {V} x {S}, got {p.shape}")
    return Instance(arrival_rates=lam, match_probs=p, dist=dist)
