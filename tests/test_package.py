import subprocess
import sys

import volnotify
from conftest import package_env
from volnotify import bounds, core, exante, policies, sim

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
