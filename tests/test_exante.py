import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse import coo_array, csc_array

import volnotify
from conftest import VARIANTS, RecordingPool, feasible_tensor, fuzz_draws, random_instance
from volnotify.bounds import make_instance, parse_canonical_spec, verify_dual_certificate
from volnotify.core import (
    Deterministic,
    FractionalSolution,
    Geometric,
    Instance,
    ValidationError,
    check_feasible,
    evaluate_f,
    notification_load,
    survival_matrix,
)
from volnotify import exante
from volnotify.exante import (
    LpError,
    LpInfeasibleError,
    _Benchmark,
    _dense_rows,
    _slots,
    _snap,
    _volunteer_oracle,
    _volunteer_rows,
    benchmark_lp,
    frank_wolfe_aa,
    select_ex_ante,
    sequential_sq,
    solution_to_triples,
    solve_lp,
)
from volnotify.policies import make_policy, sdn_offline
from volnotify.sim import simulate


def make_i1(q=0.5, eps=1e-3):
    lam = np.zeros((2, 2))
    lam[0, 0] = 1.0
    lam[1, 1] = eps / (1.0 - q)
    return Instance(arrival_rates=lam, match_probs=np.array([[eps, 1.0]]), dist=Geometric(q))


def make_i4(q=0.1, eps=1e-3):
    lam = np.zeros((2, 2))
    lam[0, 0] = 1.0
    lam[1, 1] = q
    return Instance(arrival_rates=lam, match_probs=np.array([[eps, 1.0]]), dist=Geometric(q))


def make_i5(eps=0.01):
    lam = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = np.array([[0.5, 0.0], [0.5, 0.5 - eps]])
    return Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))


def make_i6():
    lam = np.array([[1.0, 0.0], [0.0, 1.0]])
    third = 1.0 / 3.0
    p = np.array([
        [third, 0.0],
        [third, 0.0],
        [third, third - 1e-3],
        [0.0, 11.0 / 18.0],
    ])
    return Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))


def make_i2(n=4):
    q = 1.0 / n
    lam = np.full((n * n + 1, 1), q)
    lam[0, 0] = 1.0
    return Instance(arrival_rates=lam, match_probs=np.full((n, 1), q), dist=Geometric(q))


def dense_benchmark(inst):
    """The benchmark LP with one dense budget block per volunteer: (solution, value)."""
    ts, ss, budget = _slots(inst)
    V, K, T = inst.V, ts.size, inst.T
    A = np.zeros((K + V * T, (V + 1) * K))
    for k, s in enumerate(ss):
        A[k, V * K + k] = 1.0
        for v in range(V):
            A[k, v * K + k] = -inst.match_probs[v, s]
    for v in range(V):
        A[K + v * T:K + (v + 1) * T, v * K:(v + 1) * K] = budget
    c = np.concatenate([np.zeros(V * K), inst.arrival_rates[ts, ss]])
    b = np.concatenate([np.zeros(K), np.ones(V * T)])
    return solve_lp(c, A, b)


def volunteer_problem(inst):
    """One volunteer's rows as solve_lp's dense (A_ub, b_ub, A_eq, b_eq), written out entry by entry.

    The budget rows <= 1 over the K slot columns, or for geometric durations
    L[t] - (1-q) L[t-1] - sum_{k: t_k = t} lambda_k x_k == 0 over the K slot
    columns and T load columns L.
    """
    ts, ss, budget = _slots(inst)
    T, K = budget.shape
    if not isinstance(inst.dist, Geometric):
        return budget, np.ones(T), None, None
    A = np.zeros((T, K + T))
    for k, (t, s) in enumerate(zip(ts, ss)):
        A[t, k] = -inst.arrival_rates[t, s]
    for t in range(T):
        A[t, K + t] = 1.0
        if t > 0:
            A[t, K + t - 1] = -(1.0 - inst.dist.q)
    return np.zeros((0, K + T)), np.zeros(0), A, np.zeros(T)


def benchmark_problem(inst):
    """The benchmark LP's rows as dense (A_ub, b_ub, A_eq, b_eq), laid out as benchmark_lp documents.

    The K caps, then each volunteer's volunteer_problem rows on its own slot
    columns and load columns.
    """
    ts, ss, _ = _slots(inst)
    A_ub, b_ub, A_eq, _ = volunteer_problem(inst)
    one = A_ub if A_eq is None else A_eq
    V, K, T = inst.V, ts.size, inst.T
    L = one.shape[1] - K  # load columns per volunteer
    A = np.zeros((K + V * T, (V + 1) * K + V * L))
    for k, s in enumerate(ss):
        A[k, V * K + k] = 1.0
        for v in range(V):
            A[k, v * K + k] = -inst.match_probs[v, s]
    for v in range(V):
        rows = slice(K + v * T, K + (v + 1) * T)
        A[rows, v * K:(v + 1) * K] = one[:, :K]
        A[rows, (V + 1) * K + v * L:(V + 1) * K + (v + 1) * L] = one[:, K:]
    if A_eq is None:
        return A, np.concatenate([np.zeros(K), np.tile(b_ub, V)]), None, None
    return A[:K], np.zeros(K), A[K:], np.zeros(V * T)


def with_zero_matches(rng, inst):
    """inst with about a third of its match probabilities set to 0 (their benchmark caps have no entry)."""
    zero = np.array([[rng.random() < 0.3 for _ in range(inst.S)] for _ in range(inst.V)])
    zero[0, 0] = True
    return Instance(arrival_rates=inst.arrival_rates, match_probs=np.where(zero, 0.0, inst.match_probs),
                    dist=inst.dist)


def on_each_path(monkeypatch):
    """Yields once on the HiGHS kernel, then once on the linprog path its import guard falls back to."""
    yield "highs"
    with monkeypatch.context() as m:
        m.setattr(exante, "_highs", None)
        yield "linprog"


class FakeSolver:
    """Stands in for a HiGHS solver: reports an optimal run with the given solution, row values and objective."""

    def __init__(self, x, rows, fun):
        self.solution = type("Solution", (), {"col_value": x, "row_value": rows})()
        self.fun = fun

    def changeColsCost(self, *args):
        pass

    def run(self):
        return exante._highs.HighsStatus.kOk

    def getModelStatus(self):
        return exante._highs.HighsModelStatus.kOptimal

    def getSolution(self):
        return self.solution

    def getObjectiveValue(self):
        return self.fun


def _same_bits(a, b):
    (xa, va), (xb, vb) = a, b
    return xa.dtype == xb.dtype and xa.tobytes() == xb.tobytes() and \
        np.float64(va).tobytes() == np.float64(vb).tobytes()


def _lp_cases():
    rng = np.random.default_rng(7)
    A = rng.random((12, 20)) * (rng.random((12, 20)) < 0.3)
    c = rng.random(20)
    r = random.Random(5)
    yield [1.0], np.zeros((0, 1)), np.zeros(0)
    yield [1.0, 1.0], [[1.0, 1.0]], [1.0]
    yield c, A, np.ones(12)
    yield [r.random() for _ in range(6)], [[r.random() for _ in range(6)] for _ in range(4)], [1.0] * 4
    yield c, A[:6], np.ones(6), A[6:] * 0.5, A[6:].sum(axis=1) * 0.25
    # An entry that is not a round decimal (0.1 + 0.2 + 0.3 is not 0.6).
    dup = coo_array(([0.1, 0.2, 0.3, 0.0, 0.7, 0.4, 0.9], ([0, 0, 0, 1, 1, 2, 0], [1, 1, 1, 0, 2, 2, 3])),
                    shape=(3, 4)).toarray()
    yield [0.3, 0.5, 0.2, 0.4], dup, np.full(3, 0.5)
    yield [0.3, 0.5, 0.2, 0.4], np.zeros((0, 4)), np.zeros(0), dup, [0.5, 0.35, 0.2]


def _scipy_model(A_ub, b_ub, A_eq=None, b_eq=None):
    """The CSC arrays and row bounds linprog hands HiGHS: (start, index, value, lower, upper)."""
    top = np.asarray(A_ub, dtype=float)
    A = csc_array(np.vstack([top, np.zeros((0, top.shape[1])) if A_eq is None else A_eq]))
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    b_eq = np.zeros(0) if A_eq is None else np.asarray(b_eq, dtype=float).ravel()
    return (A.indptr, A.indices, A.data, np.concatenate([np.full(b_ub.size, -np.inf), b_eq]),
            np.concatenate([b_ub, b_eq]))


def _model_arrays(lp):
    """The arrays lp hands HiGHS, (start, index, value, lower, upper), and the column bounds HiGHS holds."""
    model = exante._load(exante._solver(), lp._rows, np.zeros(lp._cols.size)).getLp()
    return lp._rows, (model.col_lower_, model.col_upper_)


class TestLoadIsTheBudget:
    def test_core_load_is_the_lp_budget_map(self):
        # check_feasible and the LP's budget rows state one constraint, on every law
        rng = random.Random(71)
        laws = [random_instance(rng, variant=variant) for variant in VARIANTS for _ in range(10)]
        for seed, inst in enumerate(laws + fuzz_draws(200)):
            x = feasible_tensor(random.Random(seed), inst)
            ts, ss, budget = _slots(inst)
            assert np.abs(notification_load(inst, x)[1] - x[:, ss, ts] @ budget.T).max() <= 1e-12


class TestSolveLp:
    def test_single_variable(self, monkeypatch):
        for _ in on_each_path(monkeypatch):
            sol, val = solve_lp([1.0], np.zeros((0, 1)), np.zeros(0))
            assert sol[0] == pytest.approx(1.0, abs=1e-9)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_simplex_face(self, monkeypatch):
        for _ in on_each_path(monkeypatch):
            _, val = solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_infeasible(self, monkeypatch):
        for _ in on_each_path(monkeypatch):
            with pytest.raises(LpInfeasibleError):
                solve_lp([1.0], [[1.0]], [-1.0])

    def test_non_finite_inputs_rejected(self, monkeypatch):
        for _ in on_each_path(monkeypatch):
            for problem in (([np.nan], [[1.0]], [1.0]), ([1.0], [[np.inf]], [1.0]),
                            ([1.0], [[1.0]], [np.nan]), ([1.0], [[np.nan]], [1.0])):
                with pytest.raises(ValueError):
                    solve_lp(*problem)

    def test_sparse_input_names_the_dense_remedy(self, monkeypatch):
        # solve_lp takes dense matrices; a scipy.sparse one is refused alike
        # on both paths, with the remedy in the message.
        for _ in on_each_path(monkeypatch):
            for problem in (([1.0, 1.0], csc_array(np.ones((1, 2))), [1.0]),
                            ([1.0, 1.0], np.zeros((0, 2)), np.zeros(0), csc_array([[1.0, -1.0]]), [0.0])):
                with pytest.raises(ValueError, match="toarray"):
                    solve_lp(*problem)

    def test_deterministic_resolve(self, monkeypatch):
        for _ in on_each_path(monkeypatch):
            rng = random.Random(5)
            c = [rng.random() for _ in range(6)]
            A = [[rng.random() for _ in range(6)] for _ in range(4)]
            first, val1 = solve_lp(c, A, [1.0] * 4)
            second, val2 = solve_lp(c, A, [1.0] * 4)
            assert first.tolist() == second.tolist()
            assert val1 == val2

    def test_equality_rows(self, monkeypatch):
        for _ in on_each_path(monkeypatch):
            sol, val = solve_lp([1.0, 1.0], np.zeros((0, 2)), np.zeros(0), [[1.0, -1.0]], [0.5])
            assert sol == pytest.approx([1.0, 0.5], abs=1e-9)
            assert val == pytest.approx(1.5, abs=1e-9)
            with pytest.raises(LpInfeasibleError):
                solve_lp([1.0], np.zeros((0, 1)), np.zeros(0), [[1.0]], [2.0])

    def test_zero_row_program(self, monkeypatch):
        for _ in on_each_path(monkeypatch):
            for _ in range(2):  # a new program after another: loaded afresh
                sol, value = solve_lp([1, 2], np.zeros((0, 2)), [])
                assert (sol.tolist(), value) == ([1.0, 1.0], 3.0)
            lp = exante._Lp(_dense_rows(np.zeros((0, 2)), []))
            for objective in ([1, 2], [2, 1]):  # a load, then a warm rerun
                sol, value = lp.solve(objective)
                assert (sol.tolist(), value) == ([1.0, 1.0], 3.0)

    def test_bad_objective_leaves_the_program_usable(self, monkeypatch):
        # Shape and finiteness are checked before the solver is touched, on
        # the first solve and on a warm one.
        for _ in on_each_path(monkeypatch):
            lp = exante._Lp(_dense_rows([[1.0, 1.0]], [1.0]))
            for objective in ([1.0, 2.0], [2.0, 1.0]):
                for bad in ([1.0], [1.0, 2.0, 3.0], [np.nan, 1.0], [np.inf, 1.0]):
                    with pytest.raises(ValueError):
                        lp.solve(bad)
                sol, val = lp.solve(objective)
                assert sol == pytest.approx([0.0, 1.0] if objective[1] > 1 else [1.0, 0.0], abs=1e-9)
                assert val == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("x, rows, fun", [
        ([np.nan, 0.5], [1.0, 0.0], -1.0),  # NaN in the solution
        ([0.5, 0.5], [1.0, 0.0], np.nan),  # NaN objective
        ([0.5, 0.5], [np.nan, 0.0], -1.0),  # NaN inequality row value
        ([0.5, 0.5], [1.0, np.nan], -1.0),  # NaN equality row value
        ([1.1, 0.5], [1.0, 0.0], -1.0),  # above the box
        ([-0.1, 0.5], [1.0, 0.0], -1.0),  # below the box
        ([0.5, 0.5], [1.1, 0.0], -1.0),  # negative slack
        ([0.5, 0.5], [1.0, -0.1], -1.0),  # equality residual with positive slack
    ])
    def test_result_checks_reject_a_bad_solution(self, x, rows, fun, monkeypatch):
        # max x1 + x2, x1 + x2 <= 1, x1 - x2 == 0; a solver returns the given
        # solution, row values and objective with an optimal status. The fake
        # stands in for the thread's kept solver, which lp solved last, so
        # the next solve of lp runs it warm.
        if exante._highs is None:
            pytest.skip("scipy has no HiGHS binding")
        # the thread's own solver and program come back after the test
        monkeypatch.setattr(exante._kept, "solver", exante._kept.solver)
        monkeypatch.setattr(exante._kept, "program", exante._kept.program)
        lp = exante._Lp(_dense_rows([[1.0, 1.0]], [1.0], [[1.0, -1.0]], [0.0]))
        assert lp.solve([1.0, 1.0])[1] == pytest.approx(1.0, abs=1e-9)
        assert exante._kept.program is lp
        exante._kept.solver = FakeSolver([0.5, 0.5], [1.0, 0.0], -1.0)
        sol, value = lp.solve([1.0, 1.0])  # the fake's good answer passes
        assert sol.tolist() == [0.5, 0.5] and value == 1.0
        exante._kept.solver = FakeSolver(x, rows, fun)
        with pytest.raises(LpError, match="misses the constraints"):
            lp.solve([1.0, 1.0])
        # the failed solver is dropped
        assert exante._kept.solver is None and exante._kept.program is None
        assert lp.solve([1.0, 1.0])[1] == pytest.approx(1.0, abs=1e-9)  # a fresh one solves
        assert isinstance(exante._kept.solver, exante._highs._Highs)


class TestKernelMatchesLinprog:
    def test_solve_lp_bitwise(self, monkeypatch):
        for problem in _lp_cases():
            kernel, reference = (solve_lp(*problem) for _ in on_each_path(monkeypatch))
            assert _same_bits(kernel, reference)

    def test_benchmark_bitwise(self, monkeypatch):
        # Every duration family, and caps without entries.
        rng = random.Random(19)
        instances = [make_i2(4), make_i1(), make_i6(), random_instance(rng, variant="tabulated"),
                     with_zero_matches(rng, random_instance(rng, variant="geometric"))]
        for inst in instances:
            kernel, reference = (benchmark_lp(inst) for _ in on_each_path(monkeypatch))
            assert kernel.x_lp.x.tobytes() == reference.x_lp.x.tobytes()
            assert kernel.lp_value == reference.lp_value

    def test_oracle_solves_first_bitwise_then_warm(self, monkeypatch):
        # Each AA/SQ oracle model is built once per call. Its first solve is
        # fresh and must return linprog's bits; each later solve starts from
        # the previous basis and must reach a fresh solve's value within 1e-9
        # relative, with a feasible snapped row in each volunteer's block.
        # AA solves one model of all these volunteers per step, so it runs
        # 8 steps for as many warm solves as 4 steps of one solve per
        # volunteer gave.
        calls = []
        solve = exante._Lp.solve

        def recording(self, objective):
            out = solve(self, objective)
            calls.append((self, np.array(objective), budget, out))
            return out

        rng = random.Random(11)
        with monkeypatch.context() as m:
            m.setattr(exante._Lp, "solve", recording)
            for variant in VARIANTS * 2:
                inst = random_instance(rng, max_v=4, max_s=3, max_t=8, variant=variant)
                budget = _slots(inst)[2]
                frank_wolfe_aa(inst, 8)
                sequential_sq(inst)
        seen = set()
        for lp, costs, budget, (x, value) in calls:
            if id(lp) in seen:
                assert value == pytest.approx(exante._Lp(lp._rows).solve(costs)[1], rel=1e-9)
                blocks = lp._rows.lower.size // budget.shape[0]  # T rows per volunteer
                rows = _snap(x.reshape(blocks, -1)[:, :budget.shape[1]], budget)
                assert rows.min() >= 0.0 and (rows @ budget.T).max() <= 1.0 + 1e-12
            else:
                seen.add(id(lp))
                with monkeypatch.context() as m:
                    m.setattr(exante, "_highs", None)
                    assert _same_bits((x, value), exante._Lp(lp._rows).solve(costs))
        assert len(seen) >= 10 and len(calls) - len(seen) > 40

    def test_model_is_scipys_csc(self):
        # Every model HiGHS gets must be scipy's CSC arrays for the same rows,
        # array for array, with row bounds (-inf, b_ub] and then [b_eq, b_eq]:
        # solve_lp's dense input, one volunteer's rows and the benchmark LP
        # (assembled without a sort), each against a dense reference.
        models = [(_dense_rows(*problem[1:]), problem[1:]) for problem in _lp_cases()]
        rng = random.Random(17)
        instances = [random_instance(rng, max_v=5, max_s=3, max_t=12, variant=v) for v in VARIANTS * 3]
        instances += fuzz_draws(200)
        instances += [make_instance(parse_canonical_spec(f"I{f}:n={n}")) for f in (2, 3) for n in (4, 10, 12)]
        instances += [with_zero_matches(rng, random_instance(rng, max_v=5, max_s=3, max_t=12, variant=v))
                      for v in VARIANTS]
        instances += [make_i4(q=1.0)]  # q = 1: no load carries over
        families = set()
        for inst in instances:
            ts, ss, budget = _slots(inst)
            if ts.size == 0:
                continue
            families.add(type(inst.dist))
            models.append((_volunteer_rows(inst, ts, ss, budget), volunteer_problem(inst)))
            models.append((_Benchmark(inst).model(inst.match_probs)[1], benchmark_problem(inst)))
        assert len(families) == 3
        for rows, problem in models:
            reference = _scipy_model(*problem)
            arrays, (col_lower, col_upper) = _model_arrays(exante._Lp(rows))
            for got, want in zip(arrays, reference):
                assert np.asarray(got, dtype=want.dtype).tobytes() == want.tobytes()
            n = reference[0].size - 1
            assert (list(col_lower), list(col_upper)) == ([0.0] * n, [1.0] * n)

    def test_internal_paths_build_no_sparse_matrix(self, monkeypatch):
        # The benchmark LP, the AA/SQ oracles and the rolling windows hand
        # HiGHS numpy-built arrays and build no scipy.sparse object.
        def refuse(self, *args, **kwargs):
            raise AssertionError("a scipy.sparse object was built")

        inst = random_instance(random.Random(3), max_v=4, max_s=3, max_t=10, variant="geometric")
        with monkeypatch.context() as m:
            m.setattr(scipy.sparse._base._spbase, "__init__", refuse)
            benchmark_lp(make_i2(4))
            for variant in VARIANTS:
                select_ex_ante(random_instance(random.Random(4), max_v=4, max_s=3, max_t=10,
                                               variant=variant), m=3)
            simulate(inst, make_policy("rolling", inst), 3, 1)
        with pytest.raises(AssertionError), monkeypatch.context() as m:
            m.setattr(scipy.sparse._base._spbase, "__init__", refuse)
            csc_array([[1.0]])  # the guard sees a construction

    def test_selection_repeats_bitwise(self):
        rng = random.Random(13)
        for variant in VARIANTS:
            inst = random_instance(rng, max_v=4, max_s=3, max_t=8, variant=variant)
            first, second = (select_ex_ante(inst, m=6) for _ in range(2))
            assert first.solution.x.tobytes() == second.solution.x.tobytes()
            assert (first.tag, first.f_value, first.lp_value) == \
                (second.tag, second.f_value, second.lp_value)


def solver_per_program(monkeypatch):
    """Patches _Lp.solve to a reference lifecycle: each _Lp keeps a HiGHS solver of its own.

    Its first solve loads a new solver; each later one changes the costs
    and reruns that solver, whatever was solved in between.
    """
    def solve(self, objective):
        cost = -np.asarray(objective, dtype=float).reshape(-1)
        own = self.__dict__.get("own")
        if own is None:
            own = self.own = exante._load(exante._solver(), self._rows, cost)
        else:
            own.changeColsCost(cost.size, np.arange(cost.size, dtype=np.int32), cost)
        return exante._result(own, own.run(), self._rows.upper, self._rows.lower == self._rows.upper)

    monkeypatch.setattr(exante._Lp, "solve", solve)


def _pipeline_bits(inst, m=20):
    """The bytes of benchmark_lp, frank_wolfe_aa, sequential_sq and select_ex_ante on inst."""
    bench, selected = benchmark_lp(inst), select_ex_ante(inst, m)
    return (bench.x_lp.x.tobytes(), np.float64(bench.lp_value).tobytes(), frank_wolfe_aa(inst, m).x.tobytes(),
            sequential_sq(inst).x.tobytes(), selected.solution.x.tobytes(), selected.tag,
            np.float64(selected.f_value).tobytes(), np.float64(selected.lp_value).tobytes())


@pytest.mark.skipif(exante._highs is None, reason="scipy has no HiGHS binding")
class TestKeptSolver:
    # Every LP runs on its thread's one kept solver: a load unless the same
    # program was the thread's last, a warm rerun if it was.
    def test_matches_a_solver_per_program_bitwise(self, monkeypatch):
        rng = random.Random(23)
        instances = [make_i2(4), make_i6(), make_instance(parse_canonical_spec("I3:n=3")), make_i4()]
        instances += [random_instance(rng, max_v=4, max_s=3, max_t=8, variant=v) for v in VARIANTS]
        instances += fuzz_draws(12)
        # the programs of two instances alternate on this thread
        order = instances + [instances[1], instances[0], instances[1], instances[0]]
        kept = [_pipeline_bits(inst) for inst in order]
        with monkeypatch.context() as m:
            solver_per_program(m)
            reference = [_pipeline_bits(inst) for inst in order]
        assert kept == reference
        assert {bits[5] for bits in kept} == {"LP", "AA", "SQ"}

    def test_alternating_oracles_load_each_solve(self, monkeypatch):
        # Two AA/SQ oracles called in turn on one thread: neither program is
        # the thread's last, so every call is a fresh load, bitwise the first
        # solve of a new oracle with a solver of its own.
        rng = random.Random(29)
        pairs = [(random_instance(rng, max_v=3, max_s=3, max_t=8, variant=v),
                  random_instance(rng, max_v=3, max_s=3, max_t=8, variant=w))
                 for v, w in zip(VARIANTS, VARIANTS[1:] + VARIANTS[:1])]
        loads, load = [], exante._load

        def counted(*args):
            loads.append(args[1])
            return load(*args)

        for pair in pairs:
            args = []
            for inst in pair:
                ts, ss, budget = _slots(inst)
                args.append((budget, _volunteer_rows(inst, ts, ss, budget)))
            calls = [(i, np.array([rng.uniform(-1.0, 1.0) for _ in range(args[i][0].shape[1])]))
                     for _ in range(4) for i in (0, 1)]
            oracles = [_volunteer_oracle(*a) for a in args]
            with monkeypatch.context() as m:
                m.setattr(exante, "_load", counted)
                del loads[:]
                kept = [oracles[i](costs[None]) for i, costs in calls]
                assert len(loads) == len(calls)
            with monkeypatch.context() as m:
                solver_per_program(m)
                fresh = [_volunteer_oracle(*args[i])(costs[None]) for i, costs in calls]
            assert [x.tobytes() for x in kept] == [x.tobytes() for x in fresh]

    def test_a_window_between_two_solves_reloads(self, monkeypatch):
        inst = random_instance(random.Random(31), max_v=4, max_s=3, max_t=8, variant="geometric")
        ts, ss, budget = _slots(inst)
        lp = exante._Lp(_volunteer_rows(inst, ts, ss, budget))
        costs = [np.array([random.Random(k).uniform(-1.0, 1.0) for _ in range(lp._cols.size)]) for k in range(3)]
        loads, load = [], exante._load

        def counted(*args):
            loads.append(args[1])
            return load(*args)

        monkeypatch.setattr(exante, "_load", counted)
        lp.solve(costs[0])
        lp.solve(costs[1])
        assert loads == [lp._rows] and exante._kept.program is lp  # the second solve is warm
        window = _Benchmark(inst)._window(inst.match_probs)  # on this thread, not the pool
        assert len(loads) == 2 and exante._kept.program is not lp
        after = lp.solve(costs[2])
        assert len(loads) == 3 and loads[2] is lp._rows  # a fresh load
        assert _same_bits(after, exante._Lp(lp._rows).solve(costs[2]))
        assert window.tobytes() == benchmark_lp(inst).x_lp.x.tobytes()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork is POSIX only")
    def test_forked_child_starts_without_the_kept_solver(self):
        import warnings

        solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
        assert exante._kept.solver is not None
        with warnings.catch_warnings():  # forking with pool threads alive warns on Python 3.12+
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # the child: exit 0 only if it starts clean and solves
            code = 1
            try:
                if exante._kept.solver is None and exante._kept.program is None:
                    sol, value = solve_lp([1.0, 2.0], [[1.0, 1.0]], [1.0])
                    code = 0 if (sol.tolist(), value) == ([0.0, 1.0], 2.0) else 2
            finally:
                os._exit(code)
        for _ in range(600):  # at most 60 s
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.1)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not exit within 60 s")
        assert os.waitstatus_to_exitcode(status) == 0
        assert exante._kept.solver is not None  # the parent's stays


class TestBenchmark:
    def test_i4_value_and_optimizer(self):
        res = benchmark_lp(make_i4(0.1, 1e-3))
        assert res.lp_value == pytest.approx(0.101, abs=1e-6)
        assert res.x_lp.x[0, 0, 0] == pytest.approx(1.0, abs=1e-7)
        assert res.x_lp.x[0, 1, 1] == pytest.approx(1.0, abs=1e-7)

    def test_i2_value(self):
        res = benchmark_lp(make_i2(4))
        assert res.lp_value == pytest.approx(5.0, abs=1e-6)
        assert res.lp_value >= 4.0

    def test_zero_match_probs(self):
        inst = Instance(arrival_rates=np.array([[0.5], [0.5]]),
                        match_probs=np.zeros((2, 1)), dist=Deterministic(2))
        assert benchmark_lp(inst).lp_value == pytest.approx(0.0, abs=1e-9)

    def test_i1_lower_bound(self):
        q, eps = 0.5, 1e-3
        res = benchmark_lp(make_i1(q, eps))
        feasible_value = eps * (2.0 - q - (1.0 - q) * eps) / (1.0 - q)
        assert res.lp_value >= feasible_value - 1e-6

    def test_optimizer_is_feasible_and_consistent(self):
        rng = random.Random(41)
        for _ in range(10):
            inst = random_instance(rng)
            res = benchmark_lp(inst)
            assert check_feasible(inst, res.x_lp) == []
            # objective recomputed from the tensor matches the reported value
            ts, ss, _ = _slots(inst)
            expected = sum(
                inst.arrival_rates[t, s] * min(
                    1.0, float(inst.match_probs[:, s] @ res.x_lp.x[:, s, t]))
                for t, s in zip(ts, ss))
            assert res.lp_value == pytest.approx(expected, abs=1e-6)

    def test_sparse_assembly_matches_dense_reference(self):
        # The benchmark LP built row by row with the dense budget. For
        # deterministic and tabulated durations HiGHS must see the same
        # model, so the solutions agree exactly; geometric durations use
        # load-state rows, which must reach the same value.
        rng = random.Random(71)
        cases = [(variant, random_instance(rng, variant=variant)) for variant in VARIANTS * 4]
        cases += [(variant, with_zero_matches(random.Random(73 + i), random_instance(rng, variant=variant)))
                  for i, variant in enumerate(VARIANTS * 2)]
        for variant, inst in cases:
            ts, ss, budget = _slots(inst)
            sol, value = dense_benchmark(inst)
            res = benchmark_lp(inst)
            if variant == "geometric":
                assert res.lp_value == pytest.approx(value, rel=1e-9)
                assert check_feasible(inst, res.x_lp) == []
                continue
            assert res.lp_value == value
            x = np.clip(sol[:inst.V * ts.size].reshape(inst.V, ts.size), 0.0, 1.0)
            x /= np.maximum(1.0, (x @ budget.T).max(axis=1))[:, None]
            assert res.x_lp.x[:, ss, ts].tolist() == x.tolist()

    def test_lp_dominates_objective(self):
        rng = random.Random(43)
        for _ in range(10):
            inst = random_instance(rng)
            res = benchmark_lp(inst)
            x = FractionalSolution(feasible_tensor(rng, inst))
            assert res.lp_value >= evaluate_f(inst, x) - 1e-9


class TestFrankWolfe:
    def test_i5_two_steps_exact(self):
        eps = 0.01
        sol = frank_wolfe_aa(make_i5(eps), m=2)
        assert sol.x[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
        assert sol.x[1, 0, 0] == pytest.approx(0.5, abs=1e-9)
        assert sol.x[1, 1, 1] == pytest.approx(0.5, abs=1e-9)
        assert evaluate_f(make_i5(eps), sol) == pytest.approx(0.875 - 0.5 * eps, abs=1e-9)

    def test_i6_five_steps(self):
        inst = make_i6()
        sol = frank_wolfe_aa(inst, m=5)
        assert evaluate_f(inst, sol) == pytest.approx(1.307, abs=1e-3)

    def test_zero_match_probs(self):
        inst = Instance(arrival_rates=np.array([[0.5], [0.5]]),
                        match_probs=np.zeros((2, 1)), dist=Deterministic(2))
        assert evaluate_f(inst, frank_wolfe_aa(inst, m=3)) == 0.0

    def test_iterates_feasible(self):
        rng = random.Random(47)
        inst = random_instance(rng, max_v=4, max_s=3, max_t=8)
        for m in range(1, 5):
            assert check_feasible(inst, frank_wolfe_aa(inst, m)) == []

    def test_invalid_step_count(self):
        with pytest.raises(ValidationError):
            frank_wolfe_aa(make_i5(), m=0)

    def test_step_count_must_be_an_integer(self, monkeypatch):
        # A bool or a non-integer step count is refused before the slots or
        # the LP candidate's program are built; numpy integers are step counts.
        def refuse(*args):
            raise AssertionError("built before the step count was checked")

        inst = make_i6()
        expected = frank_wolfe_aa(inst, 3).x.tobytes(), _select_bits(select_ex_ante(inst, 3))
        assert (frank_wolfe_aa(inst, np.int64(3)).x.tobytes(),
                _select_bits(select_ex_ante(inst, np.int32(3)))) == expected
        with ThreadPoolExecutor(1) as executor:
            pool = RecordingPool(executor)
            monkeypatch.setattr(exante, "_pool", lambda: pool)
            monkeypatch.setattr(exante, "_slots", refuse)
            monkeypatch.setattr(exante, "_Benchmark", refuse)
            for m in (True, False, np.bool_(True), 2.5, 3.0, np.float64(3.0), "3", None):
                for candidate in (frank_wolfe_aa, select_ex_ante):
                    with pytest.raises(ValidationError, match="step count"):
                        candidate(inst, m)
        assert pool.calls == []

    @pytest.mark.skipif(exante._highs is None, reason="scipy has no HiGHS binding")
    def test_one_volunteer_per_program_is_the_per_volunteer_chain(self, monkeypatch):
        # Capped at one volunteer per oracle program, AA solves each
        # volunteer in turn on one warm program: the bytes of the chain
        # before the oracle solved groups, recorded from it at m = 5.
        monkeypatch.setattr(exante, "_ORACLE_NNZ", 1)
        digest = hashlib.sha256()
        for inst in fuzz_draws(50) + [make_instance(parse_canonical_spec(spec))
                                      for spec in ("I2:n=4", "I3:n=3", "I6")]:
            digest.update(frank_wolfe_aa(inst, 5).x.tobytes())
        assert digest.hexdigest() == "e22ea74cb8e46705eba225b016f22ef794ea19a2c4471f181d2f753137f9bcd4"

    @pytest.mark.skipif(exante._highs is None, reason="scipy has no HiGHS binding")
    def test_group_blocks_reach_each_volunteers_lp_value(self, monkeypatch):
        # Two volunteers per oracle program on V = 5: each step runs groups of
        # 2, 2 and 1 volunteers, the last with a spare block of zero costs.
        # The program is loaded once per AA call, it is scipy's CSC of the
        # block-diagonal rows, and each block reaches the value of its own
        # volunteer's program within 1e-9 relative.
        rng = random.Random(53)
        loads, load = [], exante._load
        runs, solve = [], exante._Lp.solve

        def counted(*args):
            loads.append(args[1])
            return load(*args)

        def recording(self, objective):
            out = solve(self, objective)
            runs.append((np.array(objective), out[0]))
            return out

        for variant in VARIANTS:
            drawn = random_instance(rng, max_s=3, max_t=8, variant=variant)
            inst = Instance(arrival_rates=drawn.arrival_rates, dist=drawn.dist,
                            match_probs=np.array([[rng.random() for _ in range(drawn.S)] for _ in range(5)]))
            ts, ss, budget = _slots(inst)
            one = _volunteer_rows(inst, ts, ss, budget)
            n = one.start.size - 1
            with monkeypatch.context() as m:
                m.setattr(exante, "_ORACLE_NNZ", 2 * one.start[-1])
                m.setattr(exante, "_load", counted)
                m.setattr(exante._Lp, "solve", recording)
                del loads[:], runs[:]
                x = frank_wolfe_aa(inst, 3)
            assert check_feasible(inst, x) == []
            assert len(loads) == 1 and len(runs) == 3 * 3
            A_ub, b_ub, A_eq, b_eq = volunteer_problem(inst)
            pair = [None if a is None else np.kron(np.eye(2), a) for a in (A_ub, A_eq)]
            reference = _scipy_model(pair[0], np.tile(b_ub, 2), pair[1], None if A_eq is None else np.tile(b_eq, 2))
            for got, want in zip(loads[0], reference):
                assert np.asarray(got, dtype=want.dtype).tobytes() == want.tobytes()
            for k, (objective, sol) in enumerate(runs):
                blocks, sols = objective.reshape(2, n), sol.reshape(2, n)
                volunteers = 1 if k % 3 == 2 else 2
                assert not blocks[volunteers:].any()
                for j in range(volunteers):
                    own = exante._Lp(one).solve(blocks[j])[1]
                    assert blocks[j] @ sols[j] == pytest.approx(own, rel=1e-9)


class TestSequential:
    def test_i5_exact(self):
        eps = 0.01
        inst = make_i5(eps)
        sol = sequential_sq(inst)
        assert sol.x[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
        assert sol.x[1, 0, 0] == pytest.approx(0.0, abs=1e-9)
        assert sol.x[1, 1, 1] == pytest.approx(1.0, abs=1e-9)
        assert evaluate_f(inst, sol) == pytest.approx(1.0 - eps, abs=1e-9)

    def test_i6_value(self):
        inst = make_i6()
        assert evaluate_f(inst, sequential_sq(inst)) == pytest.approx(1.296, abs=1e-3)

    def test_single_volunteer_matches_benchmark(self):
        # With one volunteer the completion cap never binds, so the greedy
        # program and the benchmark agree in value.
        rng = random.Random(59)
        inst = random_instance(rng, max_v=1, max_s=2, max_t=4)
        sq = sequential_sq(inst)
        assert evaluate_f(inst, sq) == pytest.approx(benchmark_lp(inst).lp_value, abs=1e-6)

    def test_feasible(self):
        rng = random.Random(61)
        for _ in range(5):
            inst = random_instance(rng)
            assert check_feasible(inst, sequential_sq(inst)) == []


class TestSelect:
    def test_i5_picks_sequential(self):
        eps = 0.01
        res = select_ex_ante(make_i5(eps), m=2)
        assert res.tag == "SQ"
        assert res.f_value == pytest.approx(1.0 - eps, abs=1e-9)

    def test_i6_picks_benchmark(self):
        res = select_ex_ante(make_i6(), m=5)
        assert res.tag == "LP"
        assert res.f_value == pytest.approx(1.315, abs=1e-3)

    def test_i4_tie_breaks_to_lp(self):
        q, eps = 0.1, 1e-3
        inst = make_i4(q, eps)
        lp_f = evaluate_f(inst, benchmark_lp(inst).x_lp)
        aa_f = evaluate_f(inst, frank_wolfe_aa(inst, m=3))
        sq_f = evaluate_f(inst, sequential_sq(inst))
        assert lp_f == pytest.approx(eps + q, abs=1e-9)
        assert aa_f == pytest.approx(eps + q, abs=1e-9)
        assert sq_f == pytest.approx(eps + q, abs=1e-9)
        res = select_ex_ante(inst, m=3)
        assert res.tag == "LP"

    def test_guarantee_fraction_of_benchmark(self):
        rng = random.Random(67)
        for _ in range(8):
            inst = random_instance(rng)
            res = select_ex_ante(inst, m=4)
            lp = benchmark_lp(inst).lp_value
            assert res.lp_value == lp  # the LP candidate's own solve, not a second one
            assert res.f_value >= (1.0 - 1.0 / math.e) * lp - 1e-6
            assert check_feasible(inst, res.solution) == []


def _in_turn(inst, m):
    """select_ex_ante's candidates computed one after another and picked as it picks: the reference."""
    bench = benchmark_lp(inst)
    candidates = [("LP", bench.x_lp), ("AA", frank_wolfe_aa(inst, m)), ("SQ", sequential_sq(inst))]
    values = [evaluate_f(inst, sol) for _, sol in candidates]
    best = values.index(max(values))
    return (candidates[best][0], np.float64(values[best]).tobytes(), np.float64(bench.lp_value).tobytes(),
            candidates[best][1].x.tobytes())


def _select_bits(selected):
    return (selected.tag, np.float64(selected.f_value).tobytes(), np.float64(selected.lp_value).tobytes(),
            selected.solution.x.tobytes())


class TestSelectOverlapsTheLpRun:
    # select_ex_ante sends only the LP candidate's HiGHS run() to the pool
    # and computes AA and SQ meanwhile; nothing of the result may change.
    LADDER = [f"I{k}:n={n}" for k in (2, 3) for n in (4, 10)]

    @pytest.fixture(scope="class")
    def instances(self):
        return fuzz_draws(200) + [make_instance(parse_canonical_spec(spec)) for spec in self.LADDER]

    @pytest.mark.skipif(exante._highs is None, reason="scipy has no HiGHS binding")
    @pytest.mark.parametrize("workers", [1, 3])
    def test_equals_the_candidates_in_turn_bitwise(self, instances, workers, monkeypatch):
        with ThreadPoolExecutor(workers) as executor:
            pool = RecordingPool(executor)
            monkeypatch.setattr(exante, "_pool", lambda: pool)
            for inst in instances:
                pool.calls.clear()
                assert _select_bits(select_ex_ante(inst, 5)) == _in_turn(inst, 5)
                # one run() on the pool for a program with slots, none for one without
                assert len(pool.calls) == bool(_slots(inst)[0].size)
                assert all(fn.__name__ == "run" for fn in pool.calls)

    def test_without_highs_equals_the_candidates_in_turn_bitwise(self, instances, monkeypatch):
        monkeypatch.setattr(exante, "_highs", None)
        with ThreadPoolExecutor(1) as executor:
            pool = RecordingPool(executor)
            monkeypatch.setattr(exante, "_pool", lambda: pool)
            for inst in instances:  # one step: each linprog call costs about 2.5 ms
                assert _select_bits(select_ex_ante(inst, 1)) == _in_turn(inst, 1)
        assert pool.calls == []  # linprog solves on the calling thread

    @pytest.mark.skipif(exante._highs is None, reason="scipy has no HiGHS binding")
    def test_lp_failure_surfaces_first_and_its_solver_is_dropped(self, monkeypatch):
        inst = make_instance(parse_canonical_spec("I3:n=4"))
        reference = _in_turn(inst, 5)
        made, new_solver = [], exante._solver

        def failing(solver, *args):
            # the LP's check comes last, after AA's first check has failed
            if solver is pool.calls[-1].__self__:
                raise LpError("linear program failed: injected LP")
            raise LpError("linear program failed: injected AA")

        def counted():
            made.append(new_solver())
            return made[-1]

        with ThreadPoolExecutor(1) as executor:
            pool = RecordingPool(executor)
            monkeypatch.setattr(exante, "_pool", lambda: pool)
            kept = exante._kept.solver
            with monkeypatch.context() as m:
                m.setattr(exante, "_result", failing)
                with pytest.raises(LpError, match="injected LP") as raised:
                    select_ex_ante(inst, 5)
                assert "injected AA" in str(raised.value.__context__)
                assert len(pool.futures) == 1 and pool.futures[0].done()
            assert pool.calls[0].__self__ is kept  # the LP ran on the thread's kept solver
            assert exante._kept.solver is None  # neither failed solver is kept
            monkeypatch.setattr(exante, "_solver", counted)
            assert _select_bits(select_ex_ante(inst, 5)) == reference
            lp_solver = pool.calls[-1].__self__
        # the AA and SQ chains made one solver and kept it; the LP's is dropped
        assert len(made) == 2 and made[0] is lp_solver
        assert exante._kept.solver is made[1] and exante._kept.solver is not lp_solver


class TestExport:
    def test_sparse_triples(self):
        x = np.zeros((2, 2, 2))
        x[0, 0, 0] = 1.0
        x[1, 1, 1] = 0.123456789012345
        triples = solution_to_triples(FractionalSolution(x))
        assert {"v": 1, "s": 1, "t": 1, "value": 1.0} in triples
        assert len(triples) == 2
        val = [d for d in triples if d["v"] == 2][0]["value"]
        assert val == pytest.approx(0.123456789012345, abs=1e-12)


class TestSolverOutputSnapped:
    # Draws of the fuzz generator whose candidates HiGHS returned with loads
    # up to 1 + 9e-9, beyond the 1e-9 checks of sdn_offline and the dual
    # certificates.
    DRAWS = (185, 264, 1743)
    # HiGHS ended one SQ oracle solve of this draw with model status Unknown
    # (15) before the oracle scaled its costs.
    UNSOLVED_DRAW = 2380

    @pytest.fixture(scope="class")
    def draws(self):
        draws = fuzz_draws(self.UNSOLVED_DRAW)
        return {k: draws[k - 1] for k in (*self.DRAWS, self.UNSOLVED_DRAW)}

    @pytest.fixture(scope="class")
    def instances(self, draws):
        return [draws[k] for k in self.DRAWS]

    def test_sdn_and_certificates(self, instances):
        for inst in instances:
            x_star = select_ex_ante(inst, 5).solution
            make_policy("sdn", inst, x_star=x_star)
            for v in range(1, inst.V + 1):
                assert verify_dual_certificate(inst, x_star, v)[1]

    def test_selection_feasible(self, instances):
        for inst in instances:
            assert check_feasible(inst, select_ex_ante(inst, m=5).solution) == []

    def test_unsolved_draw(self, draws):
        inst = draws[self.UNSOLVED_DRAW]
        assert check_feasible(inst, select_ex_ante(inst, m=5).solution) == []

    def test_unsolved_costs_on_a_fresh_oracle(self, draws):
        # Volunteer 8's SQ costs on the dense budget, after fresh unscaled
        # solves for volunteers 1-7; they span 1.2e-10 to 7.4e-4, and HiGHS
        # ends an unscaled solve of them with model status Unknown.
        inst = draws[self.UNSOLVED_DRAW]
        ts, ss, budget = _slots(inst)
        lam, p = inst.arrival_rates[ts, ss], inst.match_probs
        prefix = np.ones((inst.S, inst.T))
        for v in range(7):
            x = np.zeros((inst.S, inst.T))
            sol = solve_lp(lam * prefix[ss, ts] * p[v, ss], budget, np.ones(inst.T))[0]
            x[ss, ts] = _snap(sol[None, :], budget)[0]
            prefix = prefix * (1.0 - p[v][:, None] * x)
        costs = lam * prefix[ss, ts] * p[7, ss]
        assert costs.max() == pytest.approx(7.44e-4, rel=1e-3)
        assert costs[costs > 0.0].min() == pytest.approx(1.17e-10, rel=1e-2)
        row = _volunteer_oracle(budget, _dense_rows(budget, np.ones(inst.T)))(costs[None])
        assert row.min() >= 0.0 and (row @ budget.T).max() <= 1.0 + 1e-12

    def test_candidate_loads_within_budget(self, instances):
        for inst in instances:
            surv = survival_matrix(inst.dist, inst.T)
            for sol in (benchmark_lp(inst).x_lp, frank_wolfe_aa(inst, 5), sequential_sq(inst)):
                assert sol.x.min() >= 0.0 and sol.x.max() <= 1.0
                loads = np.einsum("ts,vst->vt", inst.arrival_rates, sol.x) @ surv.T
                assert loads.max() <= 1.0 + 1e-12


class TestFuzzRegression:
    def test_first_draws_through_the_pipeline(self):
        # Draws 1-200 of the fuzz generator, all three duration families.
        families = set()
        for inst in fuzz_draws(200):
            families.add(type(inst.dist))
            ex = select_ex_ante(inst, m=5)
            assert check_feasible(inst, ex.solution) == []
            sdn_offline(inst, ex.solution)
            assert ex.lp_value == pytest.approx(dense_benchmark(inst)[1], rel=1e-9)
        assert len(families) == 3


class TestCapacity:
    # The top rung of the hardness ladder: a dense geometric budget needed 7.1 GB.
    LIMIT_KB = 2 * 1024 * 1024

    @pytest.mark.parametrize("spec", ["I2:n=40", "I3:n=40"])
    def test_bench_top_rung(self, spec, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(volnotify.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out, err = tmp_path / "bench.json", tmp_path / "stderr"
        with open(err, "w") as stderr:
            proc = subprocess.Popen([sys.executable, "-m", "volnotify", "bench", spec, "--out", str(out)],
                                    env=env, stdout=subprocess.DEVNULL, stderr=stderr)
            # wait4 reaps the child with its own resource usage: the
            # RUSAGE_CHILDREN record of this one child.
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, err.read_text()
        assert usage.ru_maxrss < self.LIMIT_KB
        assert json.loads(out.read_text())["lp_value"] > 0.0


def run_fresh(code: str) -> str:
    """Runs code in a fresh interpreter that imports this package; returns its stdout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(volnotify.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestImportFootprint:
    # The HiGHS binding is loaded from its file, so the package never runs
    # scipy.optimize's __init__; scipy.optimize and scipy.sparse load only
    # for the linprog fallback.
    HEAVY = "('scipy.optimize', 'scipy.sparse', 'scipy.linalg')"

    def test_import_and_bench_load_no_heavy_scipy_module(self):
        if exante._highs is None:
            pytest.skip("scipy has no HiGHS binding")
        run_fresh(f"""if True:
            import sys
            import volnotify
            from volnotify import cli, exante
            assert exante._highs is not None
            assert not [m for m in {self.HEAVY} if m in sys.modules], sorted(sys.modules)
            cli.main(["bench", "I3:n=4"])
            assert not [m for m in {self.HEAVY} if m in sys.modules], sorted(sys.modules)
        """)

    @pytest.mark.parametrize("scipy_first", [True, False], ids=["scipy-first", "volnotify-first"])
    def test_binding_is_loaded_once(self, scipy_first):
        if exante._highs is None:
            pytest.skip("scipy has no HiGHS binding")
        # After the first import, creating the binding's module again fails.
        run_fresh(f"""if True:
            import sys
            from importlib.machinery import ExtensionFileLoader
            create = ExtensionFileLoader.create_module

            def once(self, spec):
                assert spec.name != "scipy.optimize._highspy._core", "the binding was loaded twice"
                return create(self, spec)

            if {scipy_first}:
                import scipy.optimize
            else:
                from volnotify import exante
            ExtensionFileLoader.create_module = once
            from volnotify import exante
            import scipy.optimize
            from scipy.optimize._highspy import _core, _highs_wrapper
            assert exante._highs is sys.modules["scipy.optimize._highspy._core"] is _core is _highs_wrapper._h
            res = scipy.optimize.linprog([-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0], bounds=(0, 1),
                                         method="highs")
            assert res.status == 0 and res.fun == -1.0
            assert exante.solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])[1] == 1.0
        """)

    def test_loader_raises_import_error_without_the_binding(self):
        if exante._highs is None:
            pytest.skip("scipy has no HiGHS binding")
        run_fresh("""if True:
            import os, sys, tempfile
            from volnotify import exante
            loaded = sys.modules[exante._HIGHS_NAME]
            with tempfile.TemporaryDirectory() as empty:
                for directory in (empty, os.path.join(empty, "missing")):
                    try:
                        exante._load_extension(exante._HIGHS_NAME, directory)
                    except ImportError:
                        pass
                    else:
                        raise AssertionError(f"loaded a binding from {directory}")
            assert sys.modules[exante._HIGHS_NAME] is loaded
        """)

    def test_falls_back_to_linprog_without_the_binding(self):
        # scipy's package directory is made to look empty while the package
        # imports, so the binding's file is not found.
        run_fresh(f"""if True:
            import importlib.machinery, importlib.util, sys, tempfile
            find_spec = importlib.util.find_spec

            def without_binding(name, package=None):
                if name != "scipy":
                    return find_spec(name, package)
                spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
                spec.submodule_search_locations = [empty]
                return spec

            with tempfile.TemporaryDirectory() as empty:
                importlib.util.find_spec = without_binding
                from volnotify import exante
                importlib.util.find_spec = find_spec
            assert exante._highs is None and exante._HIGHS_NAME not in sys.modules
            assert not [m for m in {self.HEAVY} if m in sys.modules]
            x, value = exante.solve_lp([1.0, 1.0], [[1.0, 1.0]], [1.0])
            assert value == 1.0 and "scipy.optimize" in sys.modules
        """)
