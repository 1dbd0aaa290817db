import hashlib
import json
import math
import random
import warnings
from itertools import accumulate

import numpy as np
import pytest

from conftest import random_dist, random_instance, random_tensor, VARIANTS
from volnotify.core import (
    Deterministic,
    FractionalSolution,
    Geometric,
    Instance,
    Tabulated,
    ValidationError,
    check_feasible,
    duration_table,
    evaluate_f,
    evaluate_fv,
    instance_from_json,
    instance_to_json,
    survival_matrix,
)


def oracle_f(instance, x):
    """Independent nested-loop expansion of the expected-completions objective."""
    total = 0.0
    for t in range(instance.T):
        for s in range(instance.S):
            miss = 1.0
            for v in range(instance.V):
                miss *= 1.0 - x[v, s, t] * instance.match_probs[v, s]
            total += instance.arrival_rates[t, s] * (1.0 - miss)
    return total


def make_i5(eps=0.01):
    lam = np.array([[1.0, 0.0], [0.0, 1.0]])
    p = np.array([[0.5, 0.0], [0.5, 0.5 - eps]])
    return Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))


def make_i2(n=4):
    q = 1.0 / n
    lam = np.full((n * n + 1, 1), q)
    lam[0, 0] = 1.0
    p = np.full((n, 1), q)
    return Instance(arrival_rates=lam, match_probs=p, dist=Geometric(q))


class TestDistributions:
    def test_geometric_pmf_closed_form(self):
        assert duration_table(Geometric(0.5), 2).pmf[2] == pytest.approx(0.25, abs=1e-15)

    def test_deterministic_pmf(self):
        table = duration_table(Deterministic(7), 8)
        assert table.pmf.tolist() == [0.0] * 7 + [1.0, 0.0]
        assert table.sf.tolist() == [1.0] * 7 + [0.0, 0.0]

    def test_tabulated_pmf_beyond_support(self):
        table = duration_table(Tabulated((0.2, 0.8)), 3)
        assert table.pmf[3] == 0.0
        assert table.sf[3] == 0.0

    def test_mdhr_geometric_equals_success_prob(self):
        assert Geometric(0.3).mdhr() == 0.3

    def test_mdhr_deterministic(self):
        assert Deterministic(2).mdhr() == 0.0
        assert Deterministic(1).mdhr() == 1.0

    def test_mdhr_tabulated_point_mass(self):
        assert Tabulated((1.0,)).mdhr() == 1.0

    def test_mdhr_in_unit_interval(self):
        rng = random.Random(7)
        for _ in range(60):
            dist = random_dist(rng, VARIANTS[rng.randrange(3)])
            assert 0.0 <= dist.mdhr() <= 1.0

    def test_cdf_pmf_consistency(self):
        rng = random.Random(11)
        for _ in range(30):
            dist = random_dist(rng, VARIANTS[rng.randrange(3)])
            table = duration_table(dist, 8)
            for tau in range(1, 9):
                assert table.sf[tau - 1] - table.sf[tau] == pytest.approx(table.pmf[tau], abs=1e-12)
            assert table.sf[0] == 1.0
            assert table.pmf[0] == 0.0

    def test_tabulated_validation(self):
        with pytest.raises(ValidationError):
            Tabulated((0.5, 0.4))
        with pytest.raises(ValidationError):
            Tabulated((1.2, -0.2))
        for probs in ((float("nan"), 1.0), (float("nan"),), (0.5, 0.5, float("nan"))):
            with pytest.raises(ValidationError):
                Tabulated(probs)

    def test_geometric_validation(self):
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                Geometric(q)

    def test_sample_deterministic(self):
        rng = random.Random(1)
        u = np.array([rng.random() for _ in range(50)])
        assert Deterministic(7).sample(u).tolist() == [7.0] * 50

    def test_sample_degenerate_tabulated(self):
        rng = random.Random(2)
        u = np.array([rng.random() for _ in range(50)])
        assert Tabulated((0.0, 1.0)).sample(u).tolist() == [2.0] * 50

    def test_sample_geometric_mean(self):
        rng = random.Random(3)
        dist = Geometric(0.5)
        n = 10**5
        draws = dist.sample(np.array([rng.random() for _ in range(n)]))
        se = math.sqrt(0.5) / 0.5 / math.sqrt(n)  # duration std is sqrt(1-q)/q
        assert abs(draws.mean() - 2.0) <= 3 * se
        assert draws.min() >= 1
        assert dist.sample(np.array([0.0])).tolist() == [1.0]  # the lowest uniform

    def test_sample_matches_pmf(self):
        rng = random.Random(4)
        dist = Tabulated((0.2, 0.3, 0.5))
        n = 20000
        pmf = duration_table(dist, 3).pmf
        draws = dist.sample(np.array([rng.random() for _ in range(n)]))
        counts = np.bincount(draws.astype(int), minlength=4)
        for tau in range(1, 4):
            se = math.sqrt(pmf[tau] * (1 - pmf[tau]) / n)
            assert abs(counts[tau] / n - pmf[tau]) <= 4 * se

    @pytest.mark.parametrize("dist, seed, draws", [
        (Geometric(0.3), 12, [2, 4, 4, 1, 1, 2, 1, 5, 4, 3, 3, 4, 1, 2, 1, 7, 1, 5, 1, 4]),
        (Geometric(1.0), 13, [1] * 20),
        (Deterministic(4), 14, [4] * 20),
        (Tabulated((0.4, 0.3, 0.2, 0.1)), 12,
         [2, 2, 2, 1, 1, 1, 1, 3, 2, 2, 2, 2, 1, 2, 1, 4, 1, 3, 1, 2]),
    ], ids=["Geometric(0.3)", "Geometric(1.0)", "Deterministic(4)", "Tabulated(0.4,0.3,0.2,0.1)"])
    def test_samples_on_fixed_streams(self, dist, seed, draws):
        # Literals recorded from the per-draw samplers, which inverted the cdf
        # at each of these uniforms one at a time.
        rng = random.Random(seed)
        u = np.array([rng.random() for _ in range(20)])
        assert dist.sample(u).tolist() == draws
        assert dist.sample(u.reshape(4, 5)).tolist() == np.reshape(draws, (4, 5)).tolist()

    @pytest.mark.parametrize("make, value", [
        (Geometric, "0.5"), (Geometric, None), (Geometric, [0.5]),
        (Tabulated, ("0.5", "0.5")), (Tabulated, (0.0, True)), (Tabulated, (np.True_,)),
        (Tabulated, (None, 1.0)),
    ], ids=repr)
    def test_non_numbers_rejected(self, make, value):
        with pytest.raises(ValidationError):
            make(value)


TABLE_DISTS = [Geometric(0.3), Geometric(0.999), Geometric(1.0), Deterministic(1), Deterministic(4),
               Tabulated((0.1, 0.0, 0.5, 0.4)), Tabulated((0.5, 0.5, 0.0, 0.0))]
# sha256 prefixes of duration_table(dist, 9)'s pmf, sf and hazard bytes, as the
# per-element pmf/sf methods tabulated them.
TABLE_SHA256 = [
    ["f184b1a57ad10e669c282b43", "755a9bb1ffa8cf70f23653f0", "26c0b529761e97beaa98ba30"],
    ["3f470e5ded30b53c970c28f3", "d7fe76f9ef1f75c2707f3c7e", "f529a99f98604322a75154d1"],
    ["c36ba26743947ae3eee1b2af", "abd7f97c5efd303610302f13", "8c76caccc95b46b216f1d949"],
    ["c36ba26743947ae3eee1b2af", "abd7f97c5efd303610302f13", "8c76caccc95b46b216f1d949"],
    ["b3a50001cd5fb22985e0f73c", "3e41584d656ae9dab7b1cbb0", "1f3fa073d78bb60118b8aeb5"],
    ["99218a4f4c7998f49c848549", "0bed8c1f50fdb1b1a190d98e", "64d9ae582575acae81749544"],
    ["feecc53de5a9dd654ee79781", "a7612a54029d333c6c66a9ec", "6b1bc23f27d6c6e7d1d832fb"],
]


class TestDurationTable:
    @pytest.mark.parametrize("dist, digests", zip(TABLE_DISTS, TABLE_SHA256), ids=map(repr, TABLE_DISTS))
    def test_matches_per_element_values_bit_for_bit(self, dist, digests):
        table = duration_table(dist, 9)
        assert [hashlib.sha256(arr.tobytes()).hexdigest()[:24] for arr in table] == digests
        assert duration_table(dist, 9) is table  # cached per (dist, n)

    @pytest.mark.parametrize("dist", TABLE_DISTS, ids=repr)
    def test_arrays_are_read_only(self, dist):
        for arr in duration_table(dist, 5):
            assert arr.shape == (6,)
            with pytest.raises(ValueError):
                arr[1] = 0.5

    @pytest.mark.parametrize("dist", TABLE_DISTS, ids=repr)
    def test_hazard_rule(self, dist):
        n = 9
        table = duration_table(dist, n)
        assert table.hazard[0] == 0.0
        exhausted = next((e for e in range(n + 1) if table.sf[e] <= 1e-12), n + 1)
        assert exhausted <= (dist.support_max or n + 1)
        for e in range(1, n + 1):
            if e >= exhausted:
                assert table.hazard[e] == 1.0  # exhausted support returns at once
            else:
                assert table.hazard[e] == min(table.pmf[e] / table.sf[e - 1], 1.0)

    @pytest.mark.parametrize("dist", TABLE_DISTS, ids=repr)
    def test_survival_matrix_cached_and_read_only(self, dist):
        matrix = survival_matrix(dist, 6)
        assert survival_matrix(dist, 6) is matrix
        sf = duration_table(dist, 6).sf
        assert matrix.tolist() == [[sf[t - tau] if tau <= t else 0.0 for tau in range(6)]
                                   for t in range(6)]
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.5

    # 0.1 + 0.2 rounds up, so the running sum differs from the exact cdf in the last bit.
    TABULATED = (0.1, 0.2, 0.3, 0.15, 0.25)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_tabulated_cdf_is_the_running_sum(self, n):
        # The cdf is the running sum p1, p1 + p2, ... in Python floats, ending
        # at exactly 1 and padded with 1 past the support.
        probs = self.TABULATED
        cdf = [*accumulate(probs[:-1]), 1.0] + [1.0] * max(n - len(probs), 0)
        pmf = list(probs) + [0.0] * max(n - len(probs), 0)
        dist = Tabulated(probs)
        table = duration_table(dist, n)
        assert table.pmf.tobytes() == np.array([0.0] + pmf[:n]).tobytes()
        assert table.sf.tobytes() == (1.0 - np.array([0.0] + cdf[:n])).tobytes()
        assert not dist._cum.flags.writeable
        masses = dist._masses(n)
        assert masses == (pmf[:n], cdf[:n]) and all(type(c) is float for c in masses[1])

    def test_tabulated_sample_inverts_the_running_sum(self):
        # Every cdf value, its two float neighbours and a uniform grid: the
        # duration is the first tau with u < cdf(tau).
        cdf = [*accumulate(self.TABULATED[:-1]), 1.0]
        u = sorted({*np.linspace(0.0, 1.0, 101, endpoint=False), 0.0,
                    *(w for c in cdf[:-1] for w in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)))})
        want = [next(tau for tau, c in enumerate(cdf, start=1) if w < c) for w in u]
        assert Tabulated(self.TABULATED).sample(np.array(u)).tolist() == want

    def test_zero_mass_has_zero_hazard(self):
        hazard = duration_table(Tabulated((0.1, 0.0, 0.5, 0.4)), 6).hazard
        assert hazard.tolist()[:3] == [0.0, 0.1, 0.0]
        assert hazard[4:].tolist() == [1.0, 1.0, 1.0]


def _one_volunteer(inst, dist=None):
    return Instance(arrival_rates=inst.arrival_rates, match_probs=inst.match_probs[:1],
                    dist=dist or inst.dist)


class TestExhaustion:
    """The belief filter and the exact oracle both stop at a law's first exhausted age.

    Pinned at the bits they had while each searched duration_table's survival
    for that age itself: the filter's kept ages and hazard, and the oracle's
    value on a one-volunteer instance.
    """

    QUIET = Instance(arrival_rates=np.full((6, 1), 0.7), match_probs=np.array([[0.9]]),
                     dist=Deterministic(1))
    LAWS = [
        # sums to just under 1 and ends in a zero: the residual returns at age 3
        (Tabulated((0.5, 0.4999999995, 0.0)), [3, 2, 1], [1.0, 0.999999999, 0.5], "0x1.75dba2b624ec2p+1"),
        (Tabulated((0.1, 0.0, 0.5, 0.4)), [4, 3, 2, 1], [1.0, 0.5555555555555556, 0.0, 0.1],
         "0x1.c7524e1000523p+0"),
        (Deterministic(1), [1], [1.0], "0x1.e3d70a3d70a3cp+1"),
        (Deterministic(2), [2], [1.0], "0x1.2dd893aa6c4fbp+1"),
        (Deterministic(3), [3], [1.0], "0x1.b958f99659734p+0"),
        (Deterministic(4), [4], [1.0], "0x1.9add9a7a6a297p+0"),
    ]
    # sha256 over each finite law of fuzz draws 1-200 (126 of them), in draw
    # order: the kept ages as int64, the kept hazard, the oracle's value
    FUZZ_SHA256 = "e7857e854a41dc0d46e829758bd1e7439ccc0fec51cc14912a49e19f68f2c36f"

    @pytest.mark.parametrize("dist, ages, hazard, optimum", LAWS, ids=[repr(law[0]) for law in LAWS])
    def test_named_laws(self, dist, ages, hazard, optimum):
        from volnotify.policies import BeliefState
        from volnotify.sim import brute_force_optimal_online

        inst = _one_volunteer(self.QUIET, dist)
        state = BeliefState.all_active(inst)
        assert list(state.ages) == ages
        assert state.hazard.tolist() == hazard
        assert brute_force_optimal_online(inst).hex() == optimum

    def test_fuzz_laws(self):
        from conftest import fuzz_draws
        from volnotify.policies import BeliefState
        from volnotify.sim import brute_force_optimal_online

        digest, laws = hashlib.sha256(), 0
        for inst in fuzz_draws(200):
            if inst.dist.support_max is None:
                continue
            laws += 1
            state = BeliefState.all_active(inst)
            digest.update(np.array(list(state.ages), dtype=np.int64).tobytes())
            digest.update(state.hazard.tobytes())
            digest.update(np.float64(brute_force_optimal_online(_one_volunteer(inst))).tobytes())
        assert laws == 126
        assert digest.hexdigest() == self.FUZZ_SHA256


class TestInstance:
    def test_row_sum_rejected(self):
        lam = np.array([[0.7, 0.4]])
        with pytest.raises(ValidationError):
            Instance(arrival_rates=lam, match_probs=np.array([[0.5, 0.5]]), dist=Deterministic(2))

    def test_entry_ranges_rejected(self):
        with pytest.raises(ValidationError):
            Instance(arrival_rates=np.array([[1.5]]), match_probs=np.array([[0.5]]),
                     dist=Deterministic(2))
        with pytest.raises(ValidationError):
            Instance(arrival_rates=np.array([[0.5]]), match_probs=np.array([[-0.1]]),
                     dist=Deterministic(2))
        nan = float("nan")
        with pytest.raises(ValidationError):
            Instance(arrival_rates=np.array([[nan]]), match_probs=np.array([[0.5]]),
                     dist=Deterministic(2))
        with pytest.raises(ValidationError):
            Instance(arrival_rates=np.array([[0.5]]), match_probs=np.array([[nan]]),
                     dist=Deterministic(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Instance(arrival_rates=np.zeros((2, 2)), match_probs=np.zeros((2, 3)),
                     dist=Deterministic(2))

    def test_zero_arrival_rows_allowed(self):
        inst = Instance(arrival_rates=np.zeros((3, 2)), match_probs=np.full((2, 2), 0.5),
                        dist=Geometric(0.5))
        assert inst.no_arrival_rates().tolist() == [1.0, 1.0, 1.0]

    def test_immutable(self):
        inst = make_i5()
        with pytest.raises(ValueError):
            inst.arrival_rates[0, 0] = 0.5


class TestFeasibility:
    def test_zeros_feasible(self):
        inst = make_i5()
        assert check_feasible(inst, FractionalSolution(np.zeros((inst.V, inst.S, inst.T)))) == []

    def test_i2_all_ones_feasible_and_tight(self):
        inst = make_i2(4)
        ones = FractionalSolution(np.ones((inst.V, inst.S, inst.T)))
        assert check_feasible(inst, ones) == []
        # Every budget constraint is met with equality for this instance.
        weights = np.einsum("ts,vst->vt", inst.arrival_rates, ones.x)
        loads = weights @ survival_matrix(inst.dist, inst.T).T
        assert np.allclose(loads, 1.0, atol=1e-12)

    def test_range_violation_reported(self):
        inst = make_i5()
        x = np.zeros((2, 2, 2))
        x[1, 0, 1] = 1.5
        report = check_feasible(inst, FractionalSolution(x))
        assert any(v.kind == "range" and (v.v, v.s, v.t) == (2, 1, 2) for v in report)

    def test_load_violation_reports_lhs(self):
        inst = make_i2(2)
        x = np.ones((2, 1, 5))
        x[0, 0, 0] = 1.0
        lam2 = inst.arrival_rates.copy()
        lam2[1, 0] = 1.0  # double the later arrival mass to overload the budget
        heavy = Instance(arrival_rates=lam2, match_probs=inst.match_probs, dist=inst.dist)
        report = check_feasible(heavy, FractionalSolution(x))
        loads = [v for v in report if v.kind == "load"]
        assert loads and all(v.value > 1.0 + 1e-7 for v in loads)

    def test_shape_mismatch(self):
        inst = make_i5()
        with pytest.raises(ValidationError):
            check_feasible(inst, FractionalSolution(np.zeros((1, 2, 2))))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_range_violations(self, value):
        from volnotify.bounds import make_instance, parse_canonical_spec, verify_dual_certificate
        from volnotify.policies import sdn_offline, sn_offline

        inst = make_instance(parse_canonical_spec("I3:n=3"))
        one = np.zeros((inst.V, inst.S, inst.T))
        one[1, 0, 4] = value
        for x in (np.full(one.shape, value), one):
            solution = FractionalSolution(x)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = check_feasible(inst, solution)
                ranges = {(r.v, r.s, r.t) for r in report if r.kind == "range"}
                assert ranges == {(v + 1, s + 1, t + 1) for v, s, t in np.argwhere(x != 0.0)}
                for build in (sn_offline, sdn_offline, lambda i, sol: verify_dual_certificate(i, sol, 1)):
                    with pytest.raises(ValidationError):
                        build(inst, solution)


class TestObjective:
    def test_i5_lp_solution_value(self):
        inst = make_i5()
        x = np.zeros((2, 2, 2))
        x[0, 0, 0] = 1.0
        x[1, 0, 0] = 1.0
        assert evaluate_f(inst, FractionalSolution(x)) == pytest.approx(0.75, abs=1e-12)

    def test_zeros(self):
        inst = make_i5()
        assert evaluate_f(inst, FractionalSolution(np.zeros((inst.V, inst.S, inst.T)))) == 0.0

    def test_matches_oracle(self):
        rng = random.Random(17)
        lam = np.array([[0.3, 0.4], [0.1, 0.2], [0.0, 0.9]])
        p = np.array([[0.2, 0.8], [0.6, 0.1]])
        inst = Instance(arrival_rates=lam, match_probs=p, dist=Geometric(0.4))
        for _ in range(20):
            x = random_tensor(rng, inst)
            assert evaluate_f(inst, FractionalSolution(x)) == pytest.approx(
                oracle_f(inst, x), abs=1e-12)

    def test_first_volunteer_contribution_is_linear(self):
        rng = random.Random(23)
        inst = random_instance(rng)
        x = random_tensor(rng, inst)
        expected = float(np.sum(
            inst.arrival_rates.T * inst.match_probs[0][:, None] * x[0]))
        assert evaluate_fv(inst, FractionalSolution(x), 1) == pytest.approx(expected, abs=1e-12)

    def test_i5_priority_contributions(self):
        eps = 0.01
        inst = make_i5(eps)
        x = np.zeros((2, 2, 2))
        x[0, 0, 0] = 1.0
        x[1, 1, 1] = 1.0
        sol = FractionalSolution(x)
        assert evaluate_fv(inst, sol, 1) == pytest.approx(0.5, abs=1e-12)
        assert evaluate_fv(inst, sol, 2) == pytest.approx(0.5 - eps, abs=1e-12)

    def test_decomposition_identity(self):
        rng = random.Random(29)
        for _ in range(200):
            inst = random_instance(rng)
            x = FractionalSolution(random_tensor(rng, inst))
            total = sum(evaluate_fv(inst, x, v) for v in range(1, inst.V + 1))
            assert abs(evaluate_f(inst, x) - total) <= 1e-10

    def test_monotonicity(self):
        rng = random.Random(31)
        for _ in range(25):
            inst = random_instance(rng)
            x = random_tensor(rng, inst) * 0.8
            base = evaluate_f(inst, FractionalSolution(x))
            v = rng.randrange(inst.V)
            s = rng.randrange(inst.S)
            t = rng.randrange(inst.T)
            bumped = x.copy()
            bumped[v, s, t] = min(1.0, bumped[v, s, t] + 0.2)
            assert evaluate_f(inst, FractionalSolution(bumped)) >= base - 1e-12

    def test_fv_index_out_of_range(self):
        inst = make_i5()
        sol = FractionalSolution(np.zeros((inst.V, inst.S, inst.T)))
        for v in (0, 3):
            with pytest.raises(ValidationError):
                evaluate_fv(inst, sol, v)


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = random.Random(37)
        for _ in range(20):
            inst = random_instance(rng)
            back = instance_from_json(instance_to_json(inst))
            assert back.arrival_rates.tolist() == inst.arrival_rates.tolist()
            assert back.match_probs.tolist() == inst.match_probs.tolist()
            assert back.dist == inst.dist

    @pytest.mark.parametrize("dist", [Deterministic(np.int64(3)), Deterministic(np.int32(1)),
                                      Geometric(np.float64(0.25)), Geometric(1)], ids=repr)
    def test_numpy_and_int_parameters_round_trip(self, dist):
        inst = Instance(arrival_rates=np.array([[0.5]]), match_probs=np.array([[0.5]]), dist=dist)
        back = instance_from_json(instance_to_json(inst))
        assert back.dist == dist
        assert type(getattr(back.dist, "d", 1)) is int and type(getattr(back.dist, "q", 1.0)) is float
        assert instance_to_json(back) == instance_to_json(inst)

    @pytest.mark.parametrize("make", [Geometric, Deterministic])
    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_boolean_parameters_rejected(self, make, flag):
        with pytest.raises(ValidationError):
            make(flag)

    @pytest.mark.parametrize("dist", [Geometric(0.25), Deterministic(3), Tabulated((0.5, 0.0, 0.5))], ids=repr)
    def test_no_arrivals_round_trip(self, dist):
        inst = Instance(arrival_rates=np.zeros((4, 2)), match_probs=np.full((3, 2), 0.5), dist=dist)
        text = instance_to_json(inst)
        assert json.loads(text)["arrivals"] == []  # the sparse form
        back = instance_from_json(text)
        assert back.arrival_rates.tolist() == inst.arrival_rates.tolist() and back.dist == dist
        assert instance_to_json(back) == text

    def test_sparse_form_accepted(self):
        text = """{"T": 2, "V": 1, "S": 2,
                   "arrivals": [[1, 1, 1.0], [2, 2, 0.1]],
                   "match": [[0.001, 1.0]],
                   "dist": {"type": "geometric", "q": 0.1}}"""
        inst = instance_from_json(text)
        assert inst.arrival_rates[0, 0] == 1.0
        assert inst.arrival_rates[1, 1] == 0.1
        assert inst.arrival_rates[0, 1] == 0.0

    def test_duplicate_triple_rejected(self):
        text = """{"T": 2, "V": 1, "S": 2,
                   "arrivals": [[1, 1, 0.5], [1, 1, 0.25]],
                   "match": [[0.5, 0.5]],
                   "dist": {"type": "deterministic", "d": 2}}"""
        with pytest.raises(ValidationError):
            instance_from_json(text)

    def test_bad_row_sum_rejected_not_renormalized(self):
        text = """{"T": 1, "V": 1, "S": 2,
                   "arrivals": [[0.7, 0.4]],
                   "match": [[0.5, 0.5]],
                   "dist": {"type": "deterministic", "d": 2}}"""
        with pytest.raises(ValidationError):
            instance_from_json(text)

    @pytest.mark.parametrize("field, value", [
        ("T", '"two"'), ("V", '"one"'), ("S", "null"), ("T", "1e400"),
        ("dist", '{"type": "geometric", "q": "half"}'),
        ("dist", '{"type": "geometric"}'),
        ("dist", '{"type": "deterministic", "d": "two"}'),
        ("dist", '{"type": "tabulated", "probs": [0.5, "x"]}'),
        ("dist", '{"type": "tabulated", "probs": 5}'),
        ("arrivals", '[[0.5, "x"]]'), ("match", '[["y"]]'),
        ("T", "2.9"), ("T", "1.0"), ("V", '"1"'), ("S", "true"),
        ("dist", '{"type": "deterministic", "d": 2.7}'),
        ("dist", '{"type": "deterministic", "d": 2.0}'),
        ("dist", '{"type": "deterministic", "d": true}'),
        ("arrivals", "[[1.0, 1, 0.5]]"), ("arrivals", "[[1, true, 0.5]]"),
        ("arrivals", "[[NaN, 0.5]]"), ("match", "[[0.5, NaN]]"),
        ("dist", '{"type": "tabulated", "probs": [NaN, 1.0]}'),
        ("match", "[[true, 0.5]]"), ("arrivals", "[[0.5, false]]"),
        ("arrivals", "[[1, 1, true]]"), ("dist", '{"type": "geometric", "q": true}'),
        ("dist", '{"type": "tabulated", "probs": [true]}'),
    ])
    def test_malformed_fields_rejected(self, field, value):
        doc = {"T": "1", "V": "1", "S": "2", "arrivals": "[[0.5, 0.5]]", "match": "[[0.5, 0.5]]",
               "dist": '{"type": "deterministic", "d": 2}'}
        doc[field] = value
        text = "{" + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"
        with pytest.raises(ValidationError):
            instance_from_json(text)

    def test_unknown_dist_rejected(self):
        with pytest.raises(ValidationError):
            instance_from_json('{"T":1,"V":1,"S":1,"arrivals":[[0.5]],"match":[[0.5]],'
                               '"dist":{"type":"weibull","k":2}}')
