"""Canonical hardness instances, ratio bounds, dual certificates.

The six canonical instances pin down the gap between online policies and the
benchmark: two prophet-style two-period instances (one of which also shows
why directly following an ex-ante solution fails), two homogeneous many-
volunteer instances behind the hardness curve, and two small instances that
separate the three ex-ante candidates. The kappa curve caps the competitive
ratio of every online policy as a function of the minimum discrete hazard
rate. The dual certificate of the per-volunteer value-to-go floor is read
off SDN's activity pass in policies: alpha = beta - mu, feasible where SDN's
own floor check passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import policies
from .core import (
    Deterministic,
    FractionalSolution,
    Geometric,
    Instance,
    ValidationError,
    check_feasible,  # unread here, but bench/spans.py wraps this module's binding
    json_int,
    json_real,
)

__all__ = [
    "CanonicalInstanceSpec",
    "make_instance",
    "parse_canonical_spec",
    "kappa",
    "sn_guarantee",
    "kappa_grid",
    "verify_dual_certificate",
]

# Each kind's parameter names; make_instance reads no others.
PARAMS = {"I1": ("q", "eps", "det_length"), "I2": ("n",), "I3": ("n",), "I4": ("q", "eps"),
          "I5": ("eps",), "I6": ()}


@dataclass(frozen=True)
class CanonicalInstanceSpec:
    """Selector for one canonical instance; params depend on the kind.

    I1: q, eps (eps <= (1-q)/100; q == 0 uses a deterministic duration of
        det_length >= 2, the zero-hazard analogue of the geometric case).
    I2, I3: n (volunteer count; the hazard rate is 1/n for I2).
    I4: q, eps (eps <= q/10).
    I5: eps. I6: no params.
    Any other parameter name is a ValidationError.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise ValidationError(f"unknown canonical instance {self.kind!r}")
        unknown = sorted(set(self.params) - set(PARAMS[self.kind]))
        if unknown:
            raise ValidationError(f"unknown {self.kind} parameters {unknown}; allowed: "
                                  f"{', '.join(PARAMS[self.kind]) or 'none'}")
        object.__setattr__(self, "params", dict(self.params))


def _two_period(lam11: float, lam22: float, p_row, dist) -> Instance:
    lam = np.zeros((2, 2))
    lam[0, 0] = lam11
    lam[1, 1] = lam22
    return Instance(arrival_rates=lam, match_probs=np.array([p_row]), dist=dist)


def make_instance(spec: CanonicalInstanceSpec) -> Instance:
    """Materialize a canonical instance exactly as defined."""
    p = spec.params
    kind = spec.kind

    if kind == "I1":
        q, eps = json_real(p.get("q", 0.5), "I1 q"), json_real(p.get("eps", 1e-3), "I1 eps")
        if not 0.0 <= q < 1.0:
            raise ValidationError(f"I1 q must lie in [0, 1), got {q}")
        if not 0.0 < eps <= (1.0 - q) / 100.0:
            raise ValidationError(f"I1 eps must lie in (0, (1-q)/100], got {eps}")
        if q == 0.0:
            dist = Deterministic(json_int(p.get("det_length", 2), "I1 det_length", 2))
        else:
            dist = Geometric(q)
        return _two_period(1.0, eps / (1.0 - q), [eps, 1.0], dist)

    if kind == "I2":
        n = json_int(p.get("n", 4), "I2 volunteer count n", 1)
        q = 1.0 / n
        lam = np.full((n * n + 1, 1), q)
        lam[0, 0] = 1.0
        return Instance(arrival_rates=lam, match_probs=np.full((n, 1), q), dist=Geometric(q))

    if kind == "I3":
        n = json_int(p.get("n", 20), "I3 volunteer count n", 2)
        lam = np.full((n * n, 1), 1.0 / n)
        return Instance(arrival_rates=lam, match_probs=np.full((n, 1), 1.0 / n),
                        dist=Deterministic(n))

    if kind == "I4":
        q, eps = json_real(p.get("q", 0.1), "I4 q"), json_real(p.get("eps", 1e-3), "I4 eps")
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"I4 q must lie in (0, 1], got {q}")
        if not 0.0 < eps <= q / 10.0:
            raise ValidationError(f"I4 eps must lie in (0, q/10], got {eps}")
        return _two_period(1.0, q, [eps, 1.0], Geometric(q))

    if kind == "I5":
        eps = json_real(p.get("eps", 1e-3), "I5 eps")
        if not 0.0 < eps < 0.5:
            raise ValidationError(f"I5 eps must lie in (0, 0.5), got {eps}")
        lam = np.array([[1.0, 0.0], [0.0, 1.0]])
        probs = np.array([[0.5, 0.0], [0.5, 0.5 - eps]])
        return Instance(arrival_rates=lam, match_probs=probs, dist=Deterministic(2))

    # I6
    lam = np.array([[1.0, 0.0], [0.0, 1.0]])
    third = 1.0 / 3.0
    probs = np.array([
        [third, 0.0],
        [third, 0.0],
        [third, third - 1e-3],
        [0.0, 11.0 / 18.0],
    ])
    return Instance(arrival_rates=lam, match_probs=probs, dist=Deterministic(2))


def parse_canonical_spec(text: str) -> CanonicalInstanceSpec:
    """Parse 'I4' or 'I4:q=0.1,eps=1e-3' (case-insensitive) into a spec."""
    head, _, arg = text.strip().partition(":")
    params = {}
    if arg:
        for item in arg.split(","):
            key, _, value = item.partition("=")
            if not _:
                raise ValidationError(f"bad canonical parameter {item!r}")
            key = key.strip()
            try:
                params[key] = int(value) if key in ("n", "det_length") else float(value)
            except ValueError:
                raise ValidationError(f"bad canonical parameter {item!r}") from None
    return CanonicalInstanceSpec(kind=head.upper(), params=params)


# ---------------------------------------------------------------------------
# Ratio bounds
# ---------------------------------------------------------------------------


def kappa(q: float) -> float:
    """Upper bound on any online policy's competitive ratio at hazard rate q.

    The two branches come from the prophet-style two-period instance and the
    homogeneous many-volunteer instance; the endpoints are pinned at 0.334
    (zero hazard) and 1 (unit hazard). Values of q below 1/16 outside {1/n}
    are evaluated by the same formula as an extrapolation.
    """
    q = json_real(q, "hazard rate", 0, 1)
    if q == 0.0:
        return 0.334
    if q == 1.0:
        return 1.0
    prophet = 1.0 / (2.0 - q)
    crowd = 1.0 + q - (q * (1.0 - q) / (math.log(1.0 / (1.0 - q)) * (1.0 + q))) \
        * (1.0 - math.exp(-1.0))
    return min(prophet, crowd)


def sn_guarantee(q: float) -> float:
    """Competitive ratio guaranteed by the sparse-notification policy."""
    return (1.0 - math.exp(-1.0)) / (2.0 - json_real(q, "hazard rate", 0, 1))


def kappa_grid(step: float = 0.05) -> list[dict]:
    """Rows (q, sn_lower, kappa) over the grid {0, step, 2 step, ..., 1}."""
    step = json_real(step, "grid step")
    if not 0.0 < step <= 1.0:
        raise ValidationError(f"grid step must lie in (0, 1], got {step}")
    qs = []
    while len(qs) * step < 1.0 - 1e-12:
        qs.append(len(qs) * step)
    return [{"q": q, "sn_lower": sn_guarantee(q), "kappa": kappa(q)} for q in qs + [1.0]]


# ---------------------------------------------------------------------------
# Dual certificate
# ---------------------------------------------------------------------------


def verify_dual_certificate(instance: Instance, solution: FractionalSolution,
                            v: int) -> tuple[np.ndarray, bool]:
    """Volunteer v's (1-based) dual certificate alpha and whether it is feasible.

    alpha = beta - mu, beta being v's row of SDN's activity (sdn_offline) and
    mu = 1/(2-q); the dual's gamma is constant at mu. The certificate is
    feasible exactly when v's row passes SDN's floor, which every solution
    check_feasible accepts does: alpha may sit (1 - mu) FEASIBILITY_TOL below 0.
    """
    i = json_int(v, "volunteer index", 1, instance.V) - 1
    _, _, mu, beta, low = policies._activity(instance, solution)
    return beta[i] - mu, not low[i].any()
