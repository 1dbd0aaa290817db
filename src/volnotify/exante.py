"""Benchmark linear program and the three ex-ante fractional solution candidates.

The benchmark linearizes the piecewise objective with one auxiliary variable
per arrival slot and upper-bounds every online policy. The candidates are the
benchmark optimizer itself, a fixed-step conditional-gradient ascent on the
true submodular objective, and a sequence of per-volunteer linear programs
that account for the externality of higher-priority volunteers. The selected
ex-ante solution is whichever candidate scores best on the true objective.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array, csc_array, issparse

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
    Geometric,
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


def solve_lp(objective, A_ub, b_ub, A_eq=None, b_eq=None) -> tuple[np.ndarray, float]:
    """Maximize objective @ x subject to A_ub @ x <= b_ub, A_eq @ x == b_eq and 0 <= x <= 1.

    A_ub and A_eq may each be a dense 2-D array (or nested sequence), a
    scipy.sparse matrix or array (duplicate entries are summed, explicit
    zeros kept, as linprog does) or the package's own COO triplets; the
    equality rows are optional. A_ub may also be the package's own _Csc
    rows, which carry their bounds: b_ub, A_eq and b_eq are then None.
    Deterministic for identical inputs; returns (solution, optimal value)
    with constraints met within 1e-7 and the objective within 1e-6 of
    optimal. Raises LpInfeasibleError or LpError.
    """
    return _Lp(A_ub, b_ub, A_eq, b_eq).solve(objective)


class _Rows(NamedTuple):
    """A matrix as COO triplets: entry i is val[i] at (row[i], col[i]), at most one entry per position."""

    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    shape: tuple[int, int]


def _triplets(A) -> _Rows:
    """A constraint matrix as _Rows: a dense one's nonzeros, a sparse one in scipy's canonical CSC form."""
    if isinstance(A, _Rows):
        return A
    if issparse(A):  # duplicates summed and explicit zeros kept, bitwise as in linprog's matrix
        A = csc_array(A, dtype=float, copy=True)
        A.sum_duplicates()
        return _Rows(A.indices, np.repeat(np.arange(A.shape[1]), np.diff(A.indptr)), A.data, A.shape)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"constraint matrices must be 2-D, got shape {A.shape}")
    row, col = np.nonzero(A)
    return _Rows(row, col, A[row, col], A.shape)


def _stack(top: _Rows, bottom: _Rows) -> _Rows:
    """The rows of top, then the rows of bottom."""
    return _Rows(np.concatenate([top.row, bottom.row + top.shape[0]]), np.concatenate([top.col, bottom.col]),
                 np.concatenate([top.val, bottom.val]), (top.shape[0] + bottom.shape[0], top.shape[1]))


# linprog's post-solve feasibility tolerance: sqrt of its 1e-9 default, times 10.
_RESULT_TOL = np.sqrt(1e-9) * 10


class _Csc(NamedTuple):
    """The rows lower <= A @ x <= upper with A in the canonical CSC form linprog hands HiGHS.

    Column j's entries are value[start[j]:start[j+1]] on the rows of the
    same slice of index, ascending; equality rows (lower == upper) come last.
    """

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def problem(self) -> tuple:
        """The rows as solve_lp's (A_ub, b_ub, A_eq, b_eq)."""
        n, m = self.start.size - 1, self.lower.size
        col = np.repeat(np.arange(n), np.diff(self.start))
        m_ub = int(np.count_nonzero(self.lower < self.upper))
        ub = self.index < m_ub
        A_ub = _Rows(self.index[ub], col[ub], self.value[ub], (m_ub, n))
        if m_ub == m:
            return A_ub, self.upper, None, None
        A_eq = _Rows(self.index[~ub] - m_ub, col[~ub], self.value[~ub], (m - m_ub, n))
        return A_ub, self.upper[:m_ub], A_eq, self.upper[m_ub:]


class _Lp:
    """The program max c @ x, A_ub @ x <= b_ub, A_eq @ x == b_eq, 0 <= x <= 1, built once for any number of objectives.

    The rows become one _Csc (unless given as one), built with numpy from
    COO triplets: inequality rows first, row bounds equal on an equality
    row. The first solve loads it into a fresh solver with linprog's
    options and checks, so it is bitwise linprog's. Each later solve only
    changes the costs and reruns that solver from the previous basis: a
    warm start, with the same checks and the same optimal value, though it
    may end on another optimal vertex than a fresh solve. A failed solve
    drops the solver, so the next one starts fresh. Without scipy's HiGHS
    binding, each solve calls linprog.
    """

    def __init__(self, A_ub, b_ub=None, A_eq=None, b_eq=None):
        rows = A_ub if isinstance(A_ub, _Csc) else None
        if rows is not None and _highs is None:
            A_ub, b_ub, A_eq, b_eq = rows.problem()
        self.A_ub, self.b_ub, self.A_eq, self.b_eq = A_ub, b_ub, A_eq, b_eq
        self._rows = self._solver = None
        if _highs is None:
            return
        if rows is None:
            rows = self._sorted(A_ub, b_ub, A_eq, b_eq)
        self._rows, self._eq = rows, rows.lower == rows.upper
        self._cols = np.arange(rows.start.size - 1, dtype=np.int32)

    @staticmethod
    def _sorted(A_ub, b_ub, A_eq, b_eq) -> _Csc:
        A = _triplets(A_ub)
        upper = np.asarray(b_ub, dtype=float).reshape(-1)
        if upper.shape != (A.shape[0],):
            raise ValueError(f"b_ub must have one entry per row of A_ub, got {upper.shape} for {A.shape}")
        lower = np.full(upper.size, -np.inf)
        if A_eq is not None:
            eq = _triplets(A_eq)
            b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
            if eq.shape[1] != A.shape[1] or b_eq.shape != (eq.shape[0],):
                raise ValueError(f"A_eq {eq.shape} and b_eq {b_eq.shape} do not match A_ub {A.shape}")
            A = _stack(A, eq)
            lower, upper = np.concatenate([lower, b_eq]), np.concatenate([upper, b_eq])
        if not (np.isfinite(A.val).all() and np.isfinite(upper).all()):
            raise ValueError("A_ub, b_ub, A_eq and b_eq must not contain inf or nan")
        order = np.lexsort((A.row, A.col))
        start = np.concatenate([[0], np.cumsum(np.bincount(A.col, minlength=A.shape[1]))])
        return _Csc(start, A.row[order], A.val[order], lower, upper)

    def solve(self, objective) -> tuple[np.ndarray, float]:
        cost = -np.asarray(objective, dtype=float)
        if self._rows is None:
            A_ub, A_eq = (coo_array((A.val, (A.row, A.col)), shape=A.shape) if isinstance(A, _Rows) else A
                          for A in (self.A_ub, self.A_eq))
            res = linprog(cost, A_ub=A_ub, b_ub=self.b_ub, A_eq=A_eq, b_eq=self.b_eq,
                          bounds=(0.0, 1.0), method="highs")
            if res.status == 2:
                raise LpInfeasibleError(f"infeasible linear program: {res.message}")
            if res.status != 0 or res.x is None:
                raise LpError(f"linear program failed: {res.message}")
            return np.asarray(res.x), float(-res.fun)
        # Every check comes before the solver is touched: the binding crashes
        # on a model run without costs.
        cost = cost.reshape(-1)
        if cost.shape != (self._cols.size,):
            raise ValueError(f"objective must have one entry per column of A_ub, got {cost.shape}")
        if not np.isfinite(cost).all():
            raise ValueError("objective must not contain inf or nan")
        if self._solver is None:
            self._solver = _load(_solver(), self._rows, cost)
        else:
            self._solver.changeColsCost(self._cols.size, self._cols, cost)
        try:
            return _result(self._solver, self._solver.run(), self._rows.upper, self._eq)
        except LpError:
            self._solver = None
            raise


def _solver():
    """A fresh HiGHS solver with linprog's options."""
    solver = _highs._Highs()
    solver.passOptions(_HIGHS_OPTIONS)
    return solver


def _load(solver, rows: _Csc, cost: np.ndarray):
    """solver, holding the program min cost @ x over rows and 0 <= x <= 1 in place of anything it held.

    passModel clears the solver's earlier model, basis and solution, so a
    reloaded solver solves as a fresh one does.
    """
    n = cost.size
    # Every column is continuous; the binding needs the integrality array to say so.
    status = solver.passModel(n, rows.lower.size, rows.index.size, _highs.MatrixFormat.kColwise,
                              _highs.ObjSense.kMinimize, 0.0, cost, np.zeros(n), np.ones(n),
                              rows.lower, rows.upper, rows.start.astype(np.int32),
                              rows.index.astype(np.int32), rows.value, np.zeros(n, dtype=np.int32))
    if status == _highs.HighsStatus.kError:
        raise LpError("linear program failed: HiGHS rejected the model")
    return solver


def _result(solver, run_status, upper: np.ndarray, eq: np.ndarray) -> tuple[np.ndarray, float]:
    """The checked (solution, optimal value) of a run() that returned run_status, as solve_lp returns them.

    upper holds the row upper bounds and eq marks the equality rows.
    """
    ran = run_status != _highs.HighsStatus.kError
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
    fun = solver.getObjectiveValue()
    slack = upper - solution.row_value  # equality rows: the residual
    # Positive tests: every comparison with NaN is false, so NaN fails each one.
    if not (fun == fun and ((x >= -_RESULT_TOL) & (x <= 1.0 + _RESULT_TOL)).all()
            and (slack >= -_RESULT_TOL).all() and (np.abs(slack[eq]) <= _RESULT_TOL).all()):
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


def _load_rows(instance: Instance, ts: np.ndarray, ss: np.ndarray) -> _Rows | None:
    """One volunteer's T load-state rows over K + T columns, or None.

    Only geometric durations have them. The columns are the K slot columns
    and then T load columns L in [0, 1]; the equality rows
    L[t] - (1-q) L[t-1] - sum_{k: t_k = t} lambda_k x_k = 0 make L[t] the
    value of budget row t, with O(K + T) nonzeros instead of the budget's
    O(T K). Presolve eliminates L because the rows are equalities.
    """
    if not isinstance(instance.dist, Geometric):
        return None
    T, K = instance.T, ts.size
    decay = 1.0 - instance.dist.q
    lag = np.arange(1, T) if decay > 0.0 else np.arange(0)
    return _Rows(np.concatenate([ts, np.arange(T), lag]),
                 np.concatenate([np.arange(K), K + np.arange(T), K + lag - 1]),
                 np.concatenate([-instance.arrival_rates[ts, ss], np.ones(T), np.full(lag.size, -decay)]),
                 (T, K + T))


def _volunteer_oracle(budget: np.ndarray, load: _Rows | None = None):
    """costs -> the snapped maximizer of costs @ x over one volunteer's budget and the unit box.

    The program has the budget rows <= 1, or the load-state rows (_load_rows)
    when given. It is built once; each call only swaps the costs, so every
    solve after the first is warm-started. Costs are divided by their
    largest magnitude first: the maximizer is the same, and HiGHS fails on
    some cost vectors that span many magnitudes below 1.
    """
    T, K = budget.shape
    pad = np.zeros(0 if load is None else T)
    lp = (_Lp(budget, np.ones(T)) if load is None
          else _Lp(np.zeros((0, K + T)), np.zeros(0), load, np.zeros(T)))

    def oracle(costs):
        peak = np.abs(costs).max()
        scaled = costs / peak if peak > 0.0 else costs
        return _snap(lp.solve(np.concatenate([scaled, pad]))[0][None, :K], budget)[0]

    return oracle


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
    V*K + k, capped at the expected number of responses and at 1; for
    geometric durations, volunteer v's T load columns follow at
    (V+1)*K + v*T. Rows are the K caps y_k - sum_v p[v, s_k] x[v, k] <= 0,
    then volunteer v's T budget rows <= 1, or load-state rows == 0
    (_load_rows), at K + v*T. Slots with zero arrival rate get no variables
    and their tensor entries stay 0.
    """
    lp = _Benchmark(instance)
    if lp.ts.size == 0:
        return BenchmarkResult(FractionalSolution(lp.tensor(None, instance.V)), 0.0)
    c, rows = lp.model(instance.match_probs)
    sol, value = solve_lp(c, rows, None)
    return BenchmarkResult(FractionalSolution(lp.tensor(sol, instance.V)), value)


class _Benchmark:
    """The benchmark LP over one instance's arrival slots, for any n <= V volunteers.

    Everything but the caps' match probabilities is built once, already in
    canonical CSC order: one volunteer's columns, in which each slot column
    leads with its cap row and then has its budget or load-state rows
    (_load_rows) shifted past the K cap rows, copied once per volunteer.
    Every volunteer's copy is the same, so the slot columns of n volunteers
    are a prefix of those of all V, and so are their rows and load columns:
    a model needs neither a sort nor a per-volunteer loop.
    """

    def __init__(self, instance: Instance):
        self.ts, self.ss, self.budget = _slots(instance)
        self._rates = instance.arrival_rates[self.ts, self.ss]
        self._shape = (instance.S, instance.T)
        (T, K), V = self.budget.shape, instance.V
        one = _load_rows(instance, self.ts, self.ss)
        equal = one is not None  # load-state rows == 0; budget rows <= 1 otherwise
        if one is None:
            rows, cols = np.nonzero(self.budget)
            one = _Rows(rows, cols, self.budget[rows, cols], self.budget.shape)
        row, col = np.concatenate([np.arange(K), K + one.row]), np.concatenate([np.arange(K), one.col])
        order = np.lexsort((row, col))
        index, value = row[order], np.concatenate([np.zeros(K), one.val])[order]
        count = np.bincount(col, minlength=one.shape[1])
        slot = int(count[:K].sum())
        shift = (np.arange(V) * T)[:, None]  # volunteer v's rows start at K + v*T
        # all V volunteers' slot columns, with the bounds of all K + V*T rows
        self._slot = _Csc(np.concatenate([[0], np.cumsum(np.tile(count[:K], V))]),
                          (index[:slot] + shift * (order[:slot] >= K)).ravel(), np.tile(value[:slot], V),
                          np.concatenate([np.full(K, -np.inf), np.full(V * T, 0.0 if equal else -np.inf)]),
                          np.concatenate([np.zeros(K), np.full(V * T, 0.0 if equal else 1.0)]))
        self._caps = np.flatnonzero(np.tile(order[:slot] < K, V))  # volunteer-major, as p[:, ss]
        # the load columns, as start, index, value: T per volunteer, or none
        self._loads = (np.concatenate([[0], np.cumsum(np.tile(count[K:], V))]),
                       (index[slot:] + shift).ravel(), np.tile(value[slot:], V))
        self._load_cols = count.size - K

    def model(self, match_probs: np.ndarray) -> tuple[np.ndarray, _Csc]:
        """The objective and rows of the benchmark LP of n volunteers with these (n, S) match probabilities."""
        (T, K), n = self.budget.shape, len(match_probs)
        start = self._slot.start[:n * K + 1]
        caps = -match_probs[:, self.ss].ravel()
        index = self._slot.index[:start[-1]]
        value = self._slot.value[:start[-1]].copy()
        value[self._caps[:n * K]] = caps
        if not caps.all():  # a zero match probability has no cap entry
            keep = np.ones(value.size, dtype=bool)
            keep[self._caps[:n * K]] = caps != 0.0
            index, value = index[keep], value[keep]
            start = np.concatenate([[0], np.cumsum(np.diff(start) - (caps == 0.0))])
        load_start, load_index, load_value = self._loads
        loads = load_start[:n * self._load_cols + 1]
        c = np.zeros(n * K + K + loads.size - 1)
        c[n * K:(n + 1) * K] = self._rates
        m = K + n * T
        return c, _Csc(np.concatenate([start, start[-1] + np.arange(1, K + 1), start[-1] + K + loads[1:]]),
                       np.concatenate([index, np.arange(K), load_index[:loads[-1]]]),
                       np.concatenate([value, np.ones(K), load_value[:loads[-1]]]),
                       self._slot.lower[:m], self._slot.upper[:m])

    def tensor(self, sol: np.ndarray | None, n: int) -> np.ndarray:
        """The (n, S, T) notification tensor of a solution of n volunteers' model, snapped (_snap)."""
        K = self.ts.size
        x = np.zeros((n, *self._shape))
        if K:
            x[:, self.ss, self.ts] = _snap(sol[:n * K].reshape(n, K), self.budget)
        return x

    def solve(self, match_probs: list, spares: list) -> list[np.ndarray]:
        """The tensor() of the benchmark LP of each of several volunteer sets, in order.

        Each is a fresh solve, bitwise the same as benchmark_lp's on an
        instance of that set. Each model is built, loaded into a spare
        solver (from spares, which the call refills, or a new one) and run
        before the next is built: on a worker of _pool() if one is free,
        and here otherwise, since this thread would only wait. Only run()
        leaves the calling thread: every check of solve_lp happens here, in
        order, and the first failure raises once every run still in flight
        has ended. Without scipy's HiGHS binding, each set goes to solve_lp
        in turn.
        """
        if not self.ts.size:
            return [self.tensor(None, len(p)) for p in match_probs]
        if _highs is None:
            return [self.tensor(solve_lp(*self.model(p), None)[0], len(p)) for p in match_probs]
        (pool, workers), pending, done = _pool(), deque(), []
        try:
            for p in match_probs:
                if len(pending) == 2 * (workers + 1):  # two runs per thread, at most, not yet checked
                    done.append(self._collect(*pending.popleft(), spares))
                c, rows = self.model(p)
                solver = _load(spares.pop() if spares else _solver(), rows, -c)
                if sum(not future.done() for future, *_ in pending) < workers:
                    future = pool.submit(solver.run)
                else:
                    future = Future()
                    future.set_result(solver.run())
                pending.append((future, solver, rows, len(p)))
            while pending:
                done.append(self._collect(*pending.popleft(), spares))
        finally:
            wait([future for future, *_ in pending])
        return done

    def _collect(self, future, solver, rows: _Csc, n: int, spares: list) -> np.ndarray:
        sol, _ = _result(solver, future.result(), rows.upper, rows.lower == rows.upper)
        solver.clearSolver()  # a spare keeps no solve data: about 0.25 MB each
        spares.append(solver)  # a solver whose solve failed is dropped
        return self.tensor(sol, n)


def _pool() -> tuple[ThreadPoolExecutor | None, int]:
    """The process's pool for HiGHS run() calls and its size, started on first use.

    run() releases the interpreter lock, so the runs of a batch overlap each
    other and the Python that builds the next model. The calling thread runs
    whatever no worker is free for, so the pool has one thread per other CPU
    the process may use, and none on one CPU. One thread builds and checks every model, so
    more than _MAX_WORKERS would sit idle; each thread that runs HiGHS also
    keeps its own HiGHS scheduler and malloc arena, about 1 MB.
    """
    global _executor
    with _executor_lock:
        if _executor is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            workers = min(cpus - 1, _MAX_WORKERS)
            _executor = (ThreadPoolExecutor(workers, thread_name_prefix="volnotify-highs") if workers else None,
                         workers)
        return _executor


def _forget_pool():
    # A forked child has none of its parent's threads (the lock may have been
    # held by one), so it starts a pool of its own.
    global _executor, _executor_lock
    _executor, _executor_lock = None, threading.Lock()


_MAX_WORKERS = 3
_executor: tuple | None = None
_executor_lock = threading.Lock()
if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_forget_pool)


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
    oracle = _volunteer_oracle(budget, _load_rows(instance, ts, ss))
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
    oracle = _volunteer_oracle(budget, _load_rows(instance, ts, ss))
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
