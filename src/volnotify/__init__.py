"""Notification policies for volunteer crowdsourcing platforms.

Models a platform that notifies volunteers about time-sensitive tasks while
each notification knocks the volunteer into a random inactivity period.
Provides the benchmark program that caps every online policy, three ex-ante
fractional solvers, the sparse and scaled-down notification policies plus
belief-based heuristics, a seeded Monte-Carlo simulator with an exact
small-instance oracle, canonical hardness instances, and the hazard-rate
bound curve.
"""

from .core import (
    Deterministic,
    FractionalSolution,
    Geometric,
    Instance,
    InterActivityDistribution,
    Tabulated,
    ValidationError,
    check_feasible,
    duration_table,
    evaluate_f,
    evaluate_fv,
    instance_from_json,
    instance_to_json,
)
from .exante import (
    BenchmarkResult,
    ExAnteSolution,
    LpError,
    LpInfeasibleError,
    benchmark_lp,
    frank_wolfe_aa,
    select_ex_ante,
    sequential_sq,
    solution_to_triples,
    solve_lp,
)
from .policies import (
    BeliefState,
    Policy,
    SDNPlan,
    SNPlan,
    make_policy,
    parse_policy_spec,
    sdn_offline,
    sn_offline,
)
from .sim import (
    CapacityError,
    SimStats,
    brute_force_optimal_online,
    empirical_active_prob,
    simulate,
    simulate_batched,
)
from .bounds import (
    CanonicalInstanceSpec,
    DualCertificate,
    kappa,
    kappa_grid,
    make_instance,
    parse_canonical_spec,
    sn_guarantee,
    verify_dual_certificate,
)

__version__ = "0.1.0"
