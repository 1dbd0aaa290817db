import os
import random

import numpy as np

import volnotify
from volnotify.core import Deterministic, Geometric, Instance, Tabulated, ValidationError

VARIANTS = ("geometric", "deterministic", "tabulated")


def package_env():
    """The environment a fresh `python -m volnotify` process needs to import this package."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(volnotify.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def random_dist(rng: random.Random, variant: str):
    if variant == "geometric":
        return Geometric(rng.uniform(0.05, 1.0))
    if variant == "deterministic":
        return Deterministic(rng.randint(1, 4))
    if variant == "tabulated":
        k = rng.randint(1, 4)
        raw = np.array([rng.uniform(0.05, 1.0) for _ in range(k)])
        return Tabulated(tuple(raw / raw.sum()))
    raise ValueError(variant)


def random_instance(rng: random.Random, max_v=5, max_s=4, max_t=10, variant=None) -> Instance:
    """Random instance with valid arrival rows and a mixed distribution variant."""
    V = rng.randint(1, max_v)
    S = rng.randint(1, max_s)
    T = rng.randint(1, max_t)
    lam = np.zeros((T, S))
    for t in range(T):
        raw = np.array([rng.random() for _ in range(S)])
        # Random slack keeps row sums strictly inside [0, 1].
        scale = rng.random() / max(raw.sum(), 1e-12)
        lam[t] = raw * min(scale, 1.0 / max(raw.sum(), 1e-12))
    p = np.array([[rng.random() for _ in range(S)] for _ in range(V)])
    variant = variant or VARIANTS[rng.randrange(3)]
    return Instance(arrival_rates=lam, match_probs=p, dist=random_dist(rng, variant))


def fuzz_draws(count: int) -> list[Instance]:
    """The first count draws of the seeded fuzz generator; draw k is element k - 1."""
    rng = random.Random(5)
    return [random_instance(rng, max_v=8, max_s=4, max_t=30) for _ in range(count)]


def random_tensor(rng: random.Random, instance: Instance) -> np.ndarray:
    shape = (instance.V, instance.S, instance.T)
    return np.array([rng.random() for _ in range(int(np.prod(shape)))]).reshape(shape)


def feasible_tensor(rng: random.Random, instance: Instance) -> np.ndarray:
    """Random tensor scaled into the feasible set."""
    from volnotify.core import survival_matrix

    x = random_tensor(rng, instance)
    weights = np.einsum("ts,vst->vt", instance.arrival_rates, x)
    loads = weights @ survival_matrix(instance.dist, instance.T).T
    worst = loads.max(initial=0.0)
    if worst > 1.0:
        x = x / worst
    return x


def closed_form_value(kind: str, policy_name: str, params: dict) -> float:
    """Analytic expected values for canonical (instance, policy) pairs.

    The tests' reference table: it centralizes their constants so no test
    embeds a magic number inline. Supported pairs: (I1, lp_lower),
    (I1, online_opt), (I4, lp), (I4, follow_exante), (I4, sn), (I4, sdn),
    (I2, lp_lower).
    """
    key = (kind, policy_name)
    if key == ("I1", "lp_lower"):
        q, eps = float(params["q"]), float(params["eps"])
        return eps * (2.0 - q - (1.0 - q) * eps) / (1.0 - q)
    if key == ("I1", "online_opt"):
        q, eps = float(params["q"]), float(params["eps"])
        return eps / (1.0 - q)
    if key == ("I4", "lp"):
        return float(params["q"]) + float(params["eps"])
    if key == ("I4", "follow_exante"):
        q, eps = float(params["q"]), float(params["eps"])
        return eps + q * q
    if key == ("I4", "sn"):
        return float(params["q"])
    if key == ("I4", "sdn"):
        q, eps = float(params["q"]), float(params["eps"])
        return (eps + q) / (2.0 - q)
    if key == ("I2", "lp_lower"):
        return float(params["n"])
    raise ValidationError(f"no closed form for {kind} / {policy_name}")
