"""Benchmark linear program and the three ex-ante fractional solution candidates.

The benchmark linearizes the piecewise objective with one auxiliary variable
per arrival slot and upper-bounds every online policy. The candidates are the
benchmark optimizer itself, a fixed-step conditional-gradient ascent on the
true submodular objective, and a sequence of per-volunteer linear programs
that account for the externality of higher-priority volunteers. The selected
ex-ante solution is whichever candidate scores best on the true objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array, csc_array

try:  # scipy's bundled HiGHS binding is private; without it, linprog solves.
    from scipy.optimize._highspy import _core as _highs

    # The options linprog(method="highs") passes; any other value moves vertices.
    _HIGHS_OPTIONS = _highs.HighsOptions()
    _HIGHS_OPTIONS.presolve = "on"
    _HIGHS_OPTIONS.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    _HIGHS_OPTIONS.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    _HIGHS_OPTIONS.log_to_console = False
    _HIGHS_OPTIONS.output_flag = False
except (ImportError, AttributeError):  # an older scipy, or a changed private binding
    _highs = None

from .core import (
    FractionalSolution,
    Instance,
    ValidationError,
    evaluate_f,
    survival_matrix,
)

__all__ = [
    "LpError",
    "LpInfeasibleError",
    "solve_lp",
    "BenchmarkResult",
    "benchmark_lp",
    "frank_wolfe_aa",
    "sequential_sq",
    "ExAnteSolution",
    "select_ex_ante",
    "solution_to_triples",
]

DEFAULT_STEP_COUNT = 100


class LpError(RuntimeError):
    """Linear program could not be solved."""


class LpInfeasibleError(LpError):
    pass


def solve_lp(objective, A_ub, b_ub) -> tuple[np.ndarray, float]:
    """Maximize objective @ x subject to A_ub @ x <= b_ub and 0 <= x <= 1.

    A_ub may be dense or scipy.sparse. Deterministic for identical inputs;
    returns (solution, optimal value) with constraints met within 1e-7 and
    the objective within 1e-6 of optimal. Raises LpInfeasibleError or LpError.
    """
    return _Lp(A_ub, b_ub).solve(objective)


# linprog's post-solve feasibility tolerance: sqrt of its 1e-9 default, times 10.
_RESULT_TOL = np.sqrt(1e-9) * 10


class _Lp:
    """The program max c @ x, A_ub @ x <= b_ub, 0 <= x <= 1, built once for any number of objectives.

    The constraint matrix becomes one HiGHS model in the canonical CSC form
    linprog hands HiGHS. Each solve sets the costs and runs a fresh solver
    with linprog's options and checks, so a solution does not depend on
    earlier solves and is bitwise linprog's. (A warm-started model would
    solve faster but moves vertices.) Without scipy's HiGHS binding, each
    solve calls linprog.
    """

    def __init__(self, A_ub, b_ub):
        self.A_ub, self.b_ub, self._model = A_ub, b_ub, None
        if _highs is None:
            return
        A = csc_array(coo_array(A_ub, dtype=float))
        b = self._b = np.asarray(b_ub, dtype=float).reshape(-1)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError(f"b_ub must have one entry per row of A_ub, got {b.shape} for {A.shape}")
        if not (np.isfinite(A.data).all() and np.isfinite(b).all()):
            raise ValueError("A_ub and b_ub must not contain inf or nan")
        m, n = A.shape
        lp = self._model = _highs.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = m
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.start_ = A.indptr
        lp.a_matrix_.index_ = A.indices
        lp.a_matrix_.value_ = A.data
        lp.col_lower_ = np.zeros(n)
        lp.col_upper_ = np.ones(n)
        lp.row_lower_ = np.full(m, -np.inf)
        lp.row_upper_ = b

    def solve(self, objective) -> tuple[np.ndarray, float]:
        cost = -np.asarray(objective, dtype=float)
        if self._model is None:
            res = linprog(cost, A_ub=self.A_ub, b_ub=self.b_ub, bounds=(0.0, 1.0), method="highs")
            if res.status == 2:
                raise LpInfeasibleError(f"infeasible linear program: {res.message}")
            if res.status != 0 or res.x is None:
                raise LpError(f"linear program failed: {res.message}")
            return np.asarray(res.x), float(-res.fun)
        cost = cost.reshape(-1)
        if cost.shape != (self._model.num_col_,):
            raise ValueError(f"objective must have one entry per column of A_ub, got {cost.shape}")
        if not np.isfinite(cost).all():
            raise ValueError("objective must not contain inf or nan")
        self._model.col_cost_ = cost
        solver = _highs._Highs()
        solver.passOptions(_HIGHS_OPTIONS)
        if solver.passModel(self._model) == _highs.HighsStatus.kError:
            raise LpError("linear program failed: HiGHS rejected the model")
        ran = solver.run() != _highs.HighsStatus.kError
        status = solver.getModelStatus()
        if not ran or status != _highs.HighsModelStatus.kOptimal:
            primal = solver.getInfo().primal_solution_status
            message = (f"HiGHS status {int(status)}: model_status is "
                       f"{solver.modelStatusToString(status)}; primal_status is "
                       f"{solver.solutionStatusToString(primal)}")
            if status == _highs.HighsModelStatus.kInfeasible:
                raise LpInfeasibleError(f"infeasible linear program: {message}")
            raise LpError(f"linear program failed: {message}")
        solution = solver.getSolution()
        x = np.array(solution.col_value)
        fun = solver.getInfo().objective_function_value
        slack = self._b - solution.row_value
        if (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
                or not np.all((x >= -_RESULT_TOL) & (x <= 1.0 + _RESULT_TOL))
                or (slack < -_RESULT_TOL).any()):
            raise LpError(f"linear program failed: the solution misses the constraints by more "
                          f"than {_RESULT_TOL:.2E}")
        return x, float(-fun)


# ---------------------------------------------------------------------------
# Arrival slots and the per-volunteer budget
# ---------------------------------------------------------------------------


def _slots(instance: Instance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrival slots (ts, ss) with positive rate, row-major, and the T x K budget matrix.

    Budget row t, column k carries lambda[t_k, s_k] * P(duration > t - t_k)
    when the slot is at or before t; the budget rows are identical for every
    volunteer. A tensor x is read and written on the slots as x[:, ss, ts].
    """
    lam = instance.arrival_rates
    ts, ss = np.nonzero(lam > 0.0)
    return ts, ss, survival_matrix(instance.dist, instance.T)[:, ts] * lam[ts, ss]


def _snap(x: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """Snap solver output (V x K) into the feasible set.

    Clips to [0, 1], then scales each volunteer's row by 1 / max(1, peak load),
    so solver tolerance can never leave a load above 1.
    """
    x = np.clip(x, 0.0, 1.0)
    return x / np.maximum(1.0, (x @ budget.T).max(axis=1))[:, None]


def _volunteer_oracle(budget: np.ndarray):
    """costs -> the snapped maximizer of costs @ x over one volunteer's budget and the unit box.

    The budget's program is built once; each call only swaps the costs.
    """
    lp = _Lp(budget, np.ones(budget.shape[0]))
    return lambda costs: _snap(lp.solve(costs)[0][None, :], budget)[0]


# ---------------------------------------------------------------------------
# Benchmark LP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkResult:
    """Benchmark optimizer and its optimal value."""

    x_lp: FractionalSolution
    lp_value: float


def benchmark_lp(instance: Instance) -> BenchmarkResult:
    """Build and solve the benchmark LP that upper-bounds every online policy.

    Variables are notification probabilities per (volunteer, arrival slot),
    column v*K + k, plus one auxiliary completion variable per slot, column
    V*K + k, capped at the expected number of responses and at 1. Rows are
    the K caps y_k - sum_v p[v, s_k] x[v, k] <= 0, then volunteer v's T
    budget rows at K + v*T. Slots with zero arrival rate get no variables
    and their tensor entries stay 0.
    """
    ts, ss, budget = _slots(instance)
    V, K, T = instance.V, ts.size, instance.T
    x = np.zeros((V, instance.S, T))
    if K == 0:
        return BenchmarkResult(FractionalSolution(x), 0.0)
    # Only nonzero entries, as a dense matrix's conversion keeps, so HiGHS
    # sees the same model however the matrix is built.
    k = np.arange(K)
    pv, pk = np.nonzero(instance.match_probs[:, ss])
    bt, bk = np.nonzero(budget)
    bv = np.repeat(np.arange(V), bt.size)
    A = csc_array((
        np.concatenate([np.ones(K), -instance.match_probs[pv, ss[pk]], np.tile(budget[bt, bk], V)]),
        (np.concatenate([k, pk, K + bv * T + np.tile(bt, V)]),
         np.concatenate([V * K + k, pv * K + pk, bv * K + np.tile(bk, V)])),
    ), shape=(K + V * T, (V + 1) * K))
    c = np.concatenate([np.zeros(V * K), instance.arrival_rates[ts, ss]])
    b = np.concatenate([np.zeros(K), np.ones(V * T)])
    sol, value = solve_lp(c, A, b)
    x[:, ss, ts] = _snap(sol[:V * K].reshape(V, K), budget)
    return BenchmarkResult(FractionalSolution(x), value)


# ---------------------------------------------------------------------------
# Conditional-gradient candidate
# ---------------------------------------------------------------------------


def objective_gradient(instance: Instance, x: np.ndarray) -> np.ndarray:
    """Gradient of the expected-completions objective at x.

    Entry (v, s, t) is lambda[t, s] p[v, s] * prod_{u != v} (1 - x[u, s, t] p[u, s]),
    computed with prefix/suffix products so unit entries cause no division issues.
    """
    V = instance.V
    miss = 1.0 - x * instance.match_probs[:, :, None]  # (V, S, T)
    prefix = np.ones_like(miss)
    for v in range(1, V):
        prefix[v] = prefix[v - 1] * miss[v - 1]
    suffix = np.ones_like(miss)
    for v in range(V - 2, -1, -1):
        suffix[v] = suffix[v + 1] * miss[v + 1]
    return instance.arrival_rates.T[None, :, :] * instance.match_probs[:, :, None] * prefix * suffix


def frank_wolfe_aa(instance: Instance, m: int = DEFAULT_STEP_COUNT) -> FractionalSolution:
    """Conditional-gradient ascent with fixed step 1/m on the true objective.

    Starts from zero and adds one m-th of a feasible-set vertex per step, so
    the result is an average of feasible points and itself feasible. The
    budgets couple slots only within a volunteer, so the linear oracle over
    the joint feasible set splits exactly into one program per volunteer.
    """
    if m < 1:
        raise ValidationError(f"step count must be >= 1, got {m}")
    ts, ss, budget = _slots(instance)
    x = np.zeros((instance.V, instance.S, instance.T))
    if ts.size == 0:
        return FractionalSolution(x)
    oracle = _volunteer_oracle(budget)
    for _ in range(m):
        costs = objective_gradient(instance, x)[:, ss, ts]
        x[:, ss, ts] += np.array([oracle(c) for c in costs]) / m
    return FractionalSolution(x)


# ---------------------------------------------------------------------------
# Sequential per-volunteer candidate
# ---------------------------------------------------------------------------


def sequential_sq(instance: Instance) -> FractionalSolution:
    """Volunteers maximize their own priority-scheme contribution in index order.

    Volunteer v solves a linear program whose objective discounts each slot by
    the probability that no higher-priority volunteer (with already-fixed
    probabilities) grabs it, subject to v's own notification budget.
    """
    ts, ss, budget = _slots(instance)
    x = np.zeros((instance.V, instance.S, instance.T))
    if ts.size == 0:
        return FractionalSolution(x)
    lam, p = instance.arrival_rates[ts, ss], instance.match_probs
    prefix = np.ones((instance.S, instance.T))
    oracle = _volunteer_oracle(budget)
    for v in range(instance.V):
        x[v, ss, ts] = oracle(lam * prefix[ss, ts] * p[v, ss])
        prefix = prefix * (1.0 - p[v][:, None] * x[v])
    return FractionalSolution(x)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExAnteSolution:
    """The selected ex-ante solution with its provenance tag, objective and benchmark values."""

    solution: FractionalSolution
    tag: str  # "LP", "AA", or "SQ"
    f_value: float
    lp_value: float  # the benchmark value, solved for the LP candidate


def select_ex_ante(instance: Instance, m: int = DEFAULT_STEP_COUNT) -> ExAnteSolution:
    """Evaluate all three candidates on the true objective and keep the best.

    Ties break in the order LP, AA, SQ.
    """
    if m < 1:
        raise ValidationError(f"step count must be >= 1, got {m}")
    bench = benchmark_lp(instance)
    candidates = [
        ("LP", bench.x_lp),
        ("AA", frank_wolfe_aa(instance, m)),
        ("SQ", sequential_sq(instance)),
    ]
    values = [evaluate_f(instance, sol) for _, sol in candidates]
    best = values.index(max(values))  # the first of equal values
    return ExAnteSolution(solution=candidates[best][1], tag=candidates[best][0],
                          f_value=values[best], lp_value=bench.lp_value)


def solution_to_triples(solution: FractionalSolution) -> list[dict]:
    """Sparse 1-indexed export of a solution tensor, zeros omitted, 12 significant digits."""
    out = []
    for v, s, t in np.argwhere(solution.x != 0.0):
        out.append({
            "v": int(v) + 1,
            "s": int(s) + 1,
            "t": int(t) + 1,
            "value": float(f"{solution.x[v, s, t]:.12g}"),
        })
    return out
