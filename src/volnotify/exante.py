"""Benchmark linear program and the three ex-ante fractional solution candidates.

The benchmark linearizes the piecewise objective with one auxiliary variable
per arrival slot and upper-bounds every online policy. The candidates are the
benchmark optimizer itself, a fixed-step conditional-gradient ascent on the
true submodular objective, and a sequence of per-volunteer linear programs
that account for the externality of higher-priority volunteers. The selected
ex-ante solution is whichever candidate scores best on the true objective.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import NamedTuple

import numpy as np

_HIGHS_NAME = "scipy.optimize._highspy._core"


def _load_extension(name: str, directory: str):
    """The extension module name from its file in directory, registered in sys.modules under name.

    Nothing of the module's parent packages runs. Raises ImportError when
    directory holds no such file.
    """
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no extension module {name} in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call: only the fallback path needs scipy.optimize."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


try:  # scipy's bundled HiGHS binding is private; without it, linprog solves.
    # Loaded from its file, since importing it by name would run
    # scipy.optimize's __init__ (scipy.linalg, scipy.sparse, ...); a copy
    # scipy.optimize already imported is reused, so the file is loaded once.
    _highs = sys.modules.get(_HIGHS_NAME) or _load_extension(_HIGHS_NAME, os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0], "optimize", "_highspy"))

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
    evaluate_f,
    json_int,
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

    A_ub and A_eq are dense 2-D arrays (or nested sequences; pass a
    scipy.sparse matrix as its .toarray()); the equality rows are optional.
    A_ub may also be the package's own _Csc rows, which carry their bounds:
    b_ub, A_eq and b_eq are then None.
    Deterministic for identical inputs; returns (solution, optimal value)
    with constraints met within 1e-7 and the objective within 1e-6 of
    optimal. Raises LpInfeasibleError or LpError.
    """
    rows = A_ub if isinstance(A_ub, _Csc) else _dense_rows(A_ub, b_ub, A_eq, b_eq)
    return _Lp(rows).solve(objective)


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
        """The rows as linprog's (A_ub, b_ub, A_eq, b_eq): row slices of one scipy.sparse csc_array."""
        from scipy.sparse import csc_array

        m_ub = int(np.count_nonzero(self.lower < self.upper))
        A = csc_array((self.value, self.index, self.start), shape=(self.lower.size, self.start.size - 1))
        if m_ub == self.lower.size:
            return A, self.upper, None, None
        return A[:m_ub], self.upper[:m_ub], A[m_ub:], self.upper[m_ub:]


def _dense_rows(A_ub, b_ub, A_eq=None, b_eq=None) -> _Csc:
    """solve_lp's dense rows A_ub @ x <= b_ub, then A_eq @ x == b_eq, as a _Csc of their nonzeros.

    Raises ValueError on a scipy.sparse matrix, mismatched shapes, inf or nan.
    """
    sparse = sys.modules.get("scipy.sparse")  # a sparse matrix means scipy.sparse is loaded
    if sparse is not None and (sparse.issparse(A_ub) or sparse.issparse(A_eq)):
        raise ValueError("solve_lp takes dense constraint matrices: pass a scipy.sparse matrix as its .toarray()")
    A = np.asarray(A_ub, dtype=float)
    upper = np.asarray(b_ub, dtype=float).reshape(-1)
    if A.ndim != 2 or upper.shape != (A.shape[0],):
        raise ValueError(f"A_ub must be 2-D with one b_ub entry per row, got {A.shape} and {upper.shape}")
    lower = np.full(upper.size, -np.inf)
    if A_eq is not None:
        eq = np.asarray(A_eq, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
        if eq.ndim != 2 or eq.shape[1] != A.shape[1] or b_eq.shape != (eq.shape[0],):
            raise ValueError(f"A_eq {eq.shape} and b_eq {b_eq.shape} do not match A_ub {A.shape}")
        A = np.vstack([A, eq])
        lower, upper = np.concatenate([lower, b_eq]), np.concatenate([upper, b_eq])
    if not (np.isfinite(A).all() and np.isfinite(upper).all()):
        raise ValueError("A_ub, b_ub, A_eq and b_eq must not contain inf or nan")
    col, row = np.nonzero(A.T)  # column-major: by column, then row
    start = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=A.shape[1]))])
    return _Csc(start, row, A[row, col], lower, upper)


class _Lp:
    """The program max c @ x over rows and 0 <= x <= 1, built once for any number of objectives.

    Every solve runs on the calling thread's kept solver (_kept). It loads
    the rows with passModel, which clears what the solver held, and applies
    linprog's options and checks, so it is bitwise linprog's: a fresh
    solve. Only when this program was the last one solved on the thread
    does it instead change the costs and rerun from the previous basis: a
    warm start, with the same checks and the same optimal value, though it
    may end on another optimal vertex than a fresh solve. A failed solve
    drops the thread's solver and program, so the next solve starts fresh.
    Without scipy's HiGHS binding, each solve calls linprog.
    """

    def __init__(self, rows: _Csc):
        self._rows = rows
        self._cols = np.arange(rows.start.size - 1, dtype=np.int32)
        self._equal = rows.lower == rows.upper

    def solve(self, objective) -> tuple[np.ndarray, float]:
        return self.start(objective)()

    def start(self, objective, pool: ThreadPoolExecutor | None = None):
        """Begin solve(objective); returns the function that ends it and returns what solve returns.

        Everything but HiGHS run() happens on the calling thread: the checks
        and the load here, the result's checks in the returned function.
        run() goes to pool when one is given, so the caller may work until
        it ends the solve, which waits for the run; otherwise it runs here.
        The solver is taken from the thread (_kept) and kept again once the
        result passes every check, unless the thread has made another solver
        in the meantime. Without scipy's HiGHS binding, linprog solves here.
        """
        # Every check comes before the solver is touched: the binding crashes
        # on a model run without costs.
        cost = -np.asarray(objective, dtype=float).reshape(-1)
        if cost.shape != (self._cols.size,):
            raise ValueError(f"objective must have one entry per column of A_ub, got {cost.shape}")
        if not np.isfinite(cost).all():
            raise ValueError("objective must not contain inf or nan")
        if _highs is None:
            A_ub, b_ub, A_eq, b_eq = self._rows.problem()
            res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0.0, 1.0), method="highs")
            if res.status == 2:
                raise LpInfeasibleError(f"infeasible linear program: {res.message}")
            if res.status != 0 or res.x is None:
                raise LpError(f"linear program failed: {res.message}")
            out = np.asarray(res.x), float(-res.fun)
            return lambda: out
        solver, warm = _kept.solver, _kept.program is self
        _kept.solver = _kept.program = None  # kept again only once the solve passes every check
        if warm:
            solver.changeColsCost(self._cols.size, self._cols, cost)
        else:
            solver = _load(solver or _solver(), self._rows, cost)
        run = pool.submit(solver.run) if pool is not None else None
        status = solver.run() if run is None else None

        def finish() -> tuple[np.ndarray, float]:
            out = _result(solver, status if run is None else run.result(), self._rows.upper, self._equal)
            if _kept.solver is None:
                _kept.solver, _kept.program = solver, self
            return out

        return finish


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


def _result(solver, run_status, upper: np.ndarray, equal: np.ndarray) -> tuple[np.ndarray, float]:
    """The checked (solution, optimal value) of a run() that returned run_status, as solve_lp returns them.

    upper holds the rows' upper bounds and equal marks the equality rows.
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
    # Positive tests: every comparison with NaN is false, and min and max
    # return NaN when any entry is NaN, so NaN fails each one.
    if not (fun == fun and x.min(initial=0.0) >= -_RESULT_TOL and x.max(initial=1.0) <= 1.0 + _RESULT_TOL
            and slack.min(initial=0.0) >= -_RESULT_TOL and np.abs(slack[equal]).max(initial=0.0) <= _RESULT_TOL):
        raise LpError(f"linear program failed: the solution misses the constraints by more "
                      f"than {_RESULT_TOL:.2E}")
    return x, float(-fun)


class _Kept(threading.local):
    """The calling thread's kept HiGHS solver and the _Lp it last solved; None on a new thread."""

    solver = None
    program = None


_kept = _Kept()


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
    x = x.clip(0.0, 1.0)
    return x / np.maximum(1.0, (x @ budget.T).max(axis=1))[:, None]


def _volunteer_rows(instance: Instance, ts: np.ndarray, ss: np.ndarray, budget: np.ndarray) -> _Csc:
    """One volunteer's rows: the T budget rows <= 1 over its K slot columns, or the load-state rows.

    Geometric durations get the load-state rows: the K slot columns and
    then T load columns L in [0, 1], with the equality rows
    L[t] - (1-q) L[t-1] - sum_{k: t_k = t} lambda_k x_k = 0 that make L[t]
    the value of budget row t, with O(K + T) nonzeros instead of the
    budget's O(T K). Presolve eliminates L because the rows are equalities.
    """
    T, K = budget.shape
    if not isinstance(instance.dist, Geometric):
        return _dense_rows(budget, np.ones(T))
    # Slot column k has -lambda_k on row t_k; load column t has 1 on row t
    # and -(1-q) on row t+1, if there is one and q < 1.
    row = np.arange(T)[:, None] + [0, 1]
    value = np.broadcast_to([1.0, -(1.0 - instance.dist.q)], (T, 2))
    keep = (row < T) & (value != 0.0)
    return _Csc(np.concatenate([np.arange(K + 1), K + np.cumsum(keep.sum(axis=1))]),
                np.concatenate([ts, row[keep]]), np.concatenate([-instance.arrival_rates[ts, ss], value[keep]]),
                np.zeros(T), np.zeros(T))


def _volunteer_oracle(budget: np.ndarray, rows: _Csc, group: int = 1):
    """costs -> the snapped maximizers of costs[j] @ x over one volunteer's rows (_volunteer_rows) and the unit box.

    The program is block diagonal: group copies of rows, copy j's columns
    from j * n and its rows from j * m for rows of m rows and n columns, so
    its maximizer is each block's own maximizer. It is built once; a call
    takes the (r, K) costs of r <= group volunteers, the rest of the blocks
    getting zero costs, and returns their (r, K) rows, snapped (_snap).
    Each call only swaps the costs, so every solve after the first is
    warm-started (_Lp) from the previous call's basis, block by block, as
    AA and SQ solve no other program in between. Each volunteer's costs are
    divided by their largest magnitude first: its maximizer is the same,
    and HiGHS fails on some cost vectors that span many magnitudes below 1.
    """
    K, n = budget.shape[1], rows.start.size - 1
    copy = np.arange(group)[:, None]
    lp = _Lp(_Csc(np.concatenate([[0], (rows.start[1:] + copy * rows.start[-1]).ravel()]),
                  (rows.index + copy * rows.lower.size).ravel(), np.tile(rows.value, group),
                  np.tile(rows.lower, group), np.tile(rows.upper, group)))

    def oracle(costs):
        peak = np.abs(costs).max(axis=1, keepdims=True)
        objective = np.zeros((group, n))  # the load columns' and the spare blocks' costs stay 0
        objective[:len(costs), :K] = costs / np.where(peak > 0.0, peak, 1.0)
        return _snap(lp.solve(objective.ravel())[0].reshape(group, n)[:len(costs), :K], budget)

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
    (_volunteer_rows), at K + v*T. Slots with zero arrival rate get no
    variables and their tensor entries stay 0.
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
    leads with its cap row and then has that volunteer's rows
    (_volunteer_rows) shifted past the K cap rows, copied once per volunteer.
    Every volunteer's copy is the same, so the slot columns of n volunteers
    are a prefix of those of all V, and so are their rows and load columns:
    a model needs neither a sort nor a per-volunteer loop.
    """

    def __init__(self, instance: Instance):
        self.ts, self.ss, self.budget = _slots(instance)
        self._rates = instance.arrival_rates[self.ts, self.ss]
        self._shape = (instance.S, instance.T)
        (T, K), V = self.budget.shape, instance.V
        one = _volunteer_rows(instance, self.ts, self.ss, self.budget)
        slot, count = one.start[K], np.diff(one.start)  # the slot columns' entries; entries per column
        # Each slot column leads with its cap entry (model() sets its value), then has the
        # volunteer's own entries; placed by mask, as np.insert is slower on small windows.
        cap = np.zeros(slot + K, dtype=bool)
        cap[one.start[:K] + np.arange(K)] = True
        own = ~cap
        index, value = np.empty(slot + K, dtype=one.index.dtype), np.zeros(slot + K)
        index[cap], index[own], value[own] = np.arange(K), one.index[:slot] + K, one.value[:slot]
        shift = (np.arange(V) * T)[:, None]  # volunteer v's rows start at K + v*T
        # all V volunteers' slot columns, with the bounds of all K + V*T rows
        self._slot = _Csc(np.concatenate([[0], np.cumsum(np.tile(count[:K] + 1, V))]),
                          (index + shift * own).ravel(), np.tile(value, V),
                          np.concatenate([np.full(K, -np.inf), np.tile(one.lower, V)]),
                          np.concatenate([np.zeros(K), np.tile(one.upper, V)]))
        self._caps = np.flatnonzero(np.tile(cap, V))  # volunteer-major, as p[:, ss]
        # the load columns, as start, index, value: T per volunteer, or none
        self._loads = (np.concatenate([[0], np.cumsum(np.tile(count[K:], V))]),
                       (one.index[slot:] + K + shift).ravel(), np.tile(one.value[slot:], V))
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

    def solve(self, match_probs: list) -> list[np.ndarray]:
        """The tensor() of the benchmark LP of each of several volunteer sets, in order.

        Each is a fresh solve, bitwise the same as benchmark_lp's on an
        instance of that set, run as one _window on a thread of _pool().
        The first failure, in order, raises here once every window has
        ended. Without scipy's HiGHS binding, each set goes to solve_lp in
        turn on the calling thread.
        """
        if not self.ts.size:
            return [self.tensor(None, len(p)) for p in match_probs]
        if _highs is None:
            return [self.tensor(solve_lp(*self.model(p), None)[0], len(p)) for p in match_probs]
        pool = _pool()
        futures = [pool.submit(self._window, p) for p in match_probs]
        wait(futures)
        return [future.result() for future in futures]

    def _window(self, match_probs: np.ndarray) -> np.ndarray:
        """The tensor() of one set's model, solved on this thread's kept solver: a fresh load (_Lp)."""
        c, rows = self.model(match_probs)
        return self.tensor(_Lp(rows).solve(c)[0], len(match_probs))


_MAX_WORKERS = 3


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The process's pool for rolling windows (_Benchmark._window) and select_ex_ante's LP run, made on first use.

    run() releases the interpreter lock, so the windows of a batch overlap
    each other's HiGHS runs and model building, and the LP candidate's run
    overlaps the AA and SQ candidates on the calling thread. While windows
    solve the calling thread only waits, so the pool has one thread per CPU
    the process may use, at most _MAX_WORKERS; each thread keeps one HiGHS
    solver (_kept), its own HiGHS scheduler and malloc arena, about 1 MB,
    plus the work arrays of the largest window its solver solved. The LP
    candidate's run uses the calling thread's solver, so no pool thread
    keeps it. Two threads that make the pool at once may make one each;
    the one not kept ends with its work.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return ThreadPoolExecutor(min(cpus, _MAX_WORKERS), thread_name_prefix="volnotify-highs")


def _after_fork_in_child() -> None:
    """A forked child has none of its parent's threads: it makes a pool and a solver of its own."""
    _pool.cache_clear()
    _kept.solver = _kept.program = None


if hasattr(os, "register_at_fork"):  # POSIX only; elsewhere nothing forks
    os.register_at_fork(after_in_child=_after_fork_in_child)


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


# Nonzeros of AA's oracle program at most, where one volunteer's rows have
# fewer: the program then holds as many volunteers as fit, up to all V. A
# Frank-Wolfe step is one HiGHS run per group of volunteers, and on small
# programs a run is mostly fixed cost: a warm run of one volunteer's program
# took about 95 us on a 2-core host, for about 3 simplex iterations, on the
# benchmark's fuzz draws at m = 5. Without the cap, the program of all 40 volunteers of
# I3:n=40 raised AA's peak RSS from 99 to 400 MB at m = 20. At 2**12 the
# programs of those fuzz draws and of V=10, S=5, T=50 hold every volunteer,
# and those of I2:n=40 and I3:n=40 one each.
_ORACLE_NNZ = 2**12


def frank_wolfe_aa(instance: Instance, m: int = DEFAULT_STEP_COUNT) -> FractionalSolution:
    """Conditional-gradient ascent with fixed step 1/m on the true objective.

    Starts from zero and adds one m-th of a feasible-set vertex per step, so
    the result is an average of feasible points and itself feasible. The
    budgets couple slots only within a volunteer, so the linear oracle over
    the joint feasible set is a block-diagonal program, one block per
    volunteer. A step solves it a group of volunteers at a time, on one
    program of as many blocks as fit in _ORACLE_NNZ nonzeros; the last
    group's spare blocks get zero costs.
    """
    m = json_int(m, "step count", 1)
    ts, ss, budget = _slots(instance)
    x = np.zeros((instance.V, instance.S, instance.T))
    if ts.size == 0:
        return FractionalSolution(x)
    rows = _volunteer_rows(instance, ts, ss, budget)
    group = min(instance.V, max(1, _ORACLE_NNZ // int(rows.start[-1])))
    oracle = _volunteer_oracle(budget, rows, group)
    for _ in range(m):
        costs = objective_gradient(instance, x)[:, ss, ts]
        x[:, ss, ts] += np.concatenate([oracle(costs[v:v + group]) for v in range(0, instance.V, group)]) / m
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
    oracle = _volunteer_oracle(budget, _volunteer_rows(instance, ts, ss, budget))
    for v in range(instance.V):
        x[v, ss, ts] = oracle((lam * prefix[ss, ts] * p[v, ss])[None])[0]
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

    Ties break in the order LP, AA, SQ. The LP candidate is benchmark_lp's
    solve, bit for bit, but only its HiGHS run() goes to a thread of
    _pool(), on the calling thread's kept solver (_Lp.start), while the
    calling thread computes AA and SQ on a solver it keeps afterwards. A
    failure surfaces in the order LP, AA, SQ, once the run has ended.
    Without scipy's HiGHS binding, the three are solved in turn.
    """
    m = json_int(m, "step count", 1)
    lp, finish = _Benchmark(instance), None
    if lp.ts.size:  # else no LP, as in benchmark_lp
        c, rows = lp.model(instance.match_probs)
        finish = _Lp(rows).start(c, _pool())
    try:
        aa, sq = frank_wolfe_aa(instance, m), sequential_sq(instance)
    finally:  # the run ends first, and an LP failure replaces AA's or SQ's
        sol, lp_value = finish() if finish else (None, 0.0)
    candidates = [("LP", FractionalSolution(lp.tensor(sol, instance.V))), ("AA", aa), ("SQ", sq)]
    values = [evaluate_f(instance, sol) for _, sol in candidates]
    best = values.index(max(values))  # the first of equal values
    return ExAnteSolution(solution=candidates[best][1], tag=candidates[best][0],
                          f_value=values[best], lp_value=lp_value)


def solution_to_triples(solution: FractionalSolution) -> list[dict]:
    """Sparse 1-indexed export of a solution tensor, zeros omitted, 12 significant digits."""
    kept = solution.x != 0.0
    return [{"v": v + 1, "s": s + 1, "t": t + 1, "value": float(f"{value:.12g}")}
            for (v, s, t), value in zip(np.argwhere(kept).tolist(), solution.x[kept].tolist())]
