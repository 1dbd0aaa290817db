import json
import re
import subprocess
import sys

import numpy as np
import pytest

import volnotify
from conftest import package_env
from volnotify import bounds, cli, core, exante, policies, sim

# The top-level names before the namespace was built from the modules'
# __all__; every one stays importable from the package, but DualCertificate,
# which README lists under "Removed public names".
EXPORTED = [
    "Deterministic", "FractionalSolution", "Geometric", "Instance", "InterActivityDistribution",
    "Tabulated", "ValidationError", "check_feasible", "duration_table", "evaluate_f",
    "evaluate_fv", "instance_from_json", "instance_to_json",
    "BenchmarkResult", "ExAnteSolution", "LpError", "LpInfeasibleError", "benchmark_lp",
    "frank_wolfe_aa", "select_ex_ante", "sequential_sq", "solution_to_triples", "solve_lp",
    "BeliefState", "Policy", "SDNPlan", "SNPlan", "make_policy", "parse_policy_spec",
    "sdn_offline", "sn_offline",
    "CapacityError", "SimStats", "brute_force_optimal_online", "empirical_active_prob",
    "simulate", "simulate_batched",
    "CanonicalInstanceSpec", "kappa", "kappa_grid", "make_instance",
    "parse_canonical_spec", "sn_guarantee", "verify_dual_certificate",
]


def test_namespace_is_the_modules_all():
    modules = (core, exante, policies, sim, bounds)
    assert volnotify.__all__ == [name for m in modules for name in m.__all__]
    assert len(set(volnotify.__all__)) == len(volnotify.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(volnotify, name) is getattr(m, name), name


def test_earlier_exports_stay():
    assert len(EXPORTED) == len(set(EXPORTED)) == 44
    assert set(EXPORTED) <= set(volnotify.__all__)


def test_import_leaves_the_cli_out():
    code = "import sys, volnotify; sys.exit('volnotify.cli' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(), timeout=120)
    assert proc.returncode == 0


# The integer rule (core.json_int) at every count, seed and index a caller
# hands the package: (name in the message, least, most or None, a value the
# site takes, the call at the site). A call returns the value as the site
# keeps it, or None where nothing keeps it.
_I6 = bounds.make_instance(bounds.CanonicalInstanceSpec("I6"))
_ZERO = core.FractionalSolution(np.zeros((_I6.V, _I6.S, _I6.T)))
_ALL = policies.make_policy("all", _I6)
_SPEC = cli.PerturbationSpec("match_probs", 0.1, 2, 1)


def _from_json(**fields):
    doc = {"T": 3, "V": 2, "S": 2, "arrivals": [[1, 2, 0.5]], "match": [[0.5, 0.2], [0.3, 0.7]],
           "dist": {"type": "geometric", "q": 0.5}}
    doc.update(fields)
    return core.instance_from_json(json.dumps(doc, default=int))


def _drop(result):
    return None


def _canonical(kind, **params):
    return bounds.make_instance(bounds.CanonicalInstanceSpec(kind, params))


INTEGER_SITES = {
    "Deterministic.d": ("deterministic length", 1, None, 2, lambda d: core.Deterministic(d).d),
    "frank_wolfe_aa.m": ("step count", 1, None, 2, lambda m: _drop(exante.frank_wolfe_aa(_I6, m))),
    "select_ex_ante.m": ("step count", 1, None, 2, lambda m: _drop(exante.select_ex_ante(_I6, m))),
    "simulate.episodes": ("episode count", 1, None, 3,
                          lambda n: sim.simulate(_I6, _ALL, n, 1).episodes),
    "simulate.seed": ("seed", 0, 2**64 - 1, 5, lambda seed: sim.simulate(_I6, _ALL, 3, seed).seed),
    "simulate_batched.nbatches": ("batch count", 1, None, 2,
                                  lambda k: len(sim.simulate_batched(_I6, _ALL, 4, 1, nbatches=k)[1])),
    "evaluate_fv.v": ("volunteer index", 1, _I6.V, 2,
                      lambda v: _drop(core.evaluate_fv(_I6, _ZERO, v))),
    "verify_dual_certificate.v": ("volunteer index", 1, _I6.V, 2,
                                  lambda v: _drop(bounds.verify_dual_certificate(_I6, _ZERO, v))),
    "instance_from_json.T": ("T", 1, None, 3, lambda T: _from_json(T=T).T),
    "instance_from_json.V": ("V", 1, None, 2, lambda V: _from_json(V=V).V),
    "instance_from_json.S": ("S", 1, None, 2, lambda S: _from_json(S=S).S),
    "instance_from_json.d": ("deterministic length", 1, None, 2,
                             lambda d: _from_json(dist={"type": "deterministic", "d": d}).dist.d),
    "instance_from_json.period": ("arrival period", 1, 3, 2,
                                  lambda t: _drop(_from_json(arrivals=[[t, 1, 0.5]]))),
    "instance_from_json.type": ("arrival type", 1, 2, 2,
                                lambda s: _drop(_from_json(arrivals=[[1, s, 0.5]]))),
    "make_instance.I2.n": ("I2 volunteer count n", 1, None, 3, lambda n: _canonical("I2", n=n).V),
    "make_instance.I3.n": ("I3 volunteer count n", 2, None, 3, lambda n: _canonical("I3", n=n).V),
    "make_instance.I1.det_length": ("I1 det_length", 2, None, 3,
                                    lambda d: _canonical("I1", q=0.0, det_length=d).dist.d),
    "ExperimentConfig.episodes": ("episodes", 1, None, 2,
                                  lambda n: cli.ExperimentConfig("I6", ("all",), n, 1).episodes),
    "ExperimentConfig.seed": ("seed", 0, 2**64 - 1, 2,
                              lambda seed: cli.ExperimentConfig("I6", ("all",), 2, seed).seed),
    "ExperimentConfig.m": ("m", 1, None, 2,
                           lambda m: cli.ExperimentConfig("I6", ("all",), 2, 1, m).m),
    "PerturbationSpec.replicates": ("replicates", 1, None, 2,
                                    lambda r: cli.PerturbationSpec("match_probs", 0.1, r, 1).replicates),
    "PerturbationSpec.seed": ("seed", 0, 2**64 - 1, 2,
                              lambda seed: cli.PerturbationSpec("match_probs", 0.1, 2, seed).seed),
    "perturb_instance.replicate": ("replicate", 0, 1, 1,
                                   lambda r: _drop(cli.perturb_instance(_I6, _SPEC, r))),
}


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_every_count_seed_and_index_reads_the_integer_rule(site, monkeypatch):
    # A numpy integer is taken and kept as a plain int; a bool, a float, a
    # string, None or a value out of range is a ValidationError in the rule's
    # words before any program is built, any instance made or any draw taken.
    name, least, most, valid, call = INTEGER_SITES[site]
    kept = call(np.int64(valid))
    assert kept is None or (type(kept) is int and kept == valid)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{site}: work began before the integer was checked")

    for module, attr in ((exante, "_slots"), (exante, "_Benchmark"), (exante, "_pool"),
                         (sim, "_uniforms"), (policies, "_activity"), (core, "Instance"),
                         (bounds, "Instance"), (cli, "Instance")):
        monkeypatch.setattr(module, attr, refuse)
    bound = f" >= {least}" if most is None else f" in [{least}, {most}]"
    bad = [True, 2.5, "3", None, least - 1] + ([] if most is None else [most + 1])
    for value in bad:
        message = f"{name} must be an integer{bound}, got {value!r}"
        with pytest.raises(core.ValidationError, match=f"^{re.escape(message)}$"):
            call(value)
