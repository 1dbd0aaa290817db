import math
import random

import numpy as np
import pytest

from conftest import closed_form_value, feasible_tensor, fuzz_draws, random_instance, slack_solutions
from volnotify.bounds import (
    CanonicalInstanceSpec,
    kappa,
    kappa_grid,
    make_instance,
    parse_canonical_spec,
    sn_guarantee,
    verify_dual_certificate,
)
from volnotify.core import (
    Deterministic,
    FractionalSolution,
    Geometric,
    ValidationError,
    duration_table,
)
from volnotify.exante import benchmark_lp, select_ex_ante
from volnotify.policies import sdn_offline


def spec(kind, **params):
    return CanonicalInstanceSpec(kind=kind, params=params)


class TestCanonicalInstances:
    def test_i4_fields(self):
        inst = make_instance(spec("I4", q=0.1, eps=1e-3))
        assert (inst.V, inst.S, inst.T) == (1, 2, 2)
        assert inst.arrival_rates[0, 0] == 1.0
        assert inst.arrival_rates[1, 1] == 0.1
        assert inst.match_probs[0, 0] == 1e-3
        assert inst.match_probs[0, 1] == 1.0
        assert inst.dist == Geometric(0.1)

    def test_i6_fields(self):
        inst = make_instance(spec("I6"))
        assert (inst.V, inst.S, inst.T) == (4, 2, 2)
        third = 1.0 / 3.0
        assert inst.match_probs[0, 0] == third
        assert inst.match_probs[1, 0] == third
        assert inst.match_probs[2, 0] == third
        assert inst.match_probs[2, 1] == third - 1e-3
        assert inst.match_probs[3, 1] == 11.0 / 18.0
        assert inst.match_probs[3, 0] == 0.0
        assert inst.dist == Deterministic(2)

    def test_i2_fields(self):
        inst = make_instance(spec("I2", n=4))
        assert (inst.V, inst.S, inst.T) == (4, 1, 17)
        assert inst.arrival_rates[0, 0] == 1.0
        assert np.all(inst.arrival_rates[1:, 0] == 0.25)
        assert np.all(inst.match_probs == 0.25)
        assert inst.dist == Geometric(0.25)

    def test_i1_geometric_and_zero_hazard_variant(self):
        inst = make_instance(spec("I1", q=0.5, eps=1e-3))
        assert inst.dist == Geometric(0.5)
        assert inst.arrival_rates[1, 1] == pytest.approx(2e-3, abs=1e-15)
        det = make_instance(spec("I1", q=0.0, eps=1e-3))
        assert det.dist == Deterministic(2)
        assert det.arrival_rates[1, 1] == pytest.approx(1e-3, abs=1e-15)

    def test_i3_fields(self):
        inst = make_instance(spec("I3", n=5))
        assert (inst.V, inst.S, inst.T) == (5, 1, 25)
        assert inst.dist == Deterministic(5)
        assert np.all(inst.arrival_rates == 0.2)

    def test_i5_dist_has_no_mass_at_one(self):
        inst = make_instance(spec("I5", eps=0.01))
        assert duration_table(inst.dist, 2).pmf.tolist() == [0.0, 0.0, 1.0]

    def test_invalid_params(self):
        nan = float("nan")
        for bad in (spec("I2", n=2.5), spec("I2", n=0), spec("I4", q=0.1, eps=0.05),
                    spec("I1", q=0.5, eps=0.1), spec("I3", n=1),
                    spec("I1", q=0.5, eps=nan), spec("I4", q=0.2, eps=nan),
                    spec("I1", q=nan, eps=1e-3), spec("I4", q=nan, eps=1e-3)):
            with pytest.raises(ValidationError):
                make_instance(bad)
        with pytest.raises(ValidationError):
            CanonicalInstanceSpec(kind="I9")

    def test_unknown_parameter_names_rejected(self):
        # each kind reads only its own names, so a stray one would otherwise
        # be ignored and the default instance built under the stray label
        allowed = {"I1": {"q": 0.5, "eps": 1e-3, "det_length": 2}, "I2": {"n": 4},
                   "I3": {"n": 4}, "I4": {"q": 0.1, "eps": 1e-3}, "I5": {"eps": 1e-3}, "I6": {}}
        for kind, params in allowed.items():
            make_instance(CanonicalInstanceSpec(kind, params))
            for bogus in ("m", "q", "n", "det_length", "N"):
                if bogus in params:
                    continue
                with pytest.raises(ValidationError, match=f"unknown {kind} parameters"):
                    CanonicalInstanceSpec(kind, {**params, bogus: 1})
                with pytest.raises(ValidationError, match=f"unknown {kind} parameters"):
                    parse_canonical_spec(f"{kind}:{bogus}=1")

    def test_parse_canonical(self):
        s = parse_canonical_spec("i4:q=0.1,eps=1e-3")
        assert s.kind == "I4"
        assert s.params == {"q": 0.1, "eps": 1e-3}
        assert parse_canonical_spec("I6").params == {}
        assert parse_canonical_spec("i2:n=4").params == {"n": 4}
        for bad in ("I7", "i4:q", "i2:n=four"):
            with pytest.raises(ValidationError):
                parse_canonical_spec(bad)


class TestKappa:
    def test_endpoints(self):
        assert kappa(0.0) == 0.334
        assert kappa(1.0) == 1.0

    def test_half(self):
        # Both branches evaluated independently; the prophet branch binds.
        prophet = 1.0 / 1.5
        crowd = 1.5 - (0.25 / (math.log(2.0) * 1.5)) * (1.0 - math.exp(-1.0))
        assert crowd > prophet
        assert kappa(0.5) == pytest.approx(prophet, abs=1e-12)
        assert kappa(0.5) == pytest.approx(0.666667, abs=1e-6)

    def test_domain(self):
        for q in (-0.1, 1.1):
            with pytest.raises(ValidationError):
                kappa(q)

    def test_grid_monotone_and_dominates_guarantee(self):
        rows = kappa_grid(0.05)
        assert len(rows) == 21
        assert rows[0]["q"] == 0.0 and rows[-1]["q"] == 1.0
        ks = [r["kappa"] for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(ks, ks[1:]))
        for r in rows:
            assert r["kappa"] >= r["sn_lower"] - 1e-9
            assert r["sn_lower"] == pytest.approx(sn_guarantee(r["q"]), abs=1e-15)


class TestClosedForms:
    def test_supported_pairs(self):
        assert closed_form_value("I4", "lp", {"q": 0.1, "eps": 1e-3}) == pytest.approx(0.101)
        assert closed_form_value("I4", "sn", {"q": 0.1, "eps": 1e-3}) == 0.1
        assert closed_form_value("I4", "sdn", {"q": 0.1, "eps": 1e-3}) == pytest.approx(
            0.101 / 1.9)
        assert closed_form_value("I4", "follow_exante", {"q": 0.1, "eps": 1e-3}) == \
            pytest.approx(0.011)
        assert closed_form_value("I2", "lp_lower", {"n": 4}) == 4.0
        assert closed_form_value("I1", "online_opt", {"q": 0.5, "eps": 1e-3}) == \
            pytest.approx(2e-3)
        assert closed_form_value("I1", "lp_lower", {"q": 0.5, "eps": 1e-3}) == \
            pytest.approx(1e-3 * (1.5 - 0.5e-3) / 0.5)

    def test_unsupported_pair(self):
        with pytest.raises(ValidationError):
            closed_form_value("I5", "sn", {})


class TestBenchmarkClosedForms:
    def test_i4_lp_random_parameters(self):
        rng = random.Random(47)
        for _ in range(10):
            q = rng.uniform(0.05, 0.95)
            eps = rng.uniform(1e-4, q / 10.0)
            inst = make_instance(spec("I4", q=q, eps=eps))
            value = benchmark_lp(inst).lp_value
            assert value == pytest.approx(closed_form_value("I4", "lp", {"q": q, "eps": eps}),
                                          abs=1e-6)

    def test_i5_lp_value(self):
        inst = make_instance(spec("I5", eps=0.01))
        assert benchmark_lp(inst).lp_value == pytest.approx(1.0, abs=1e-6)

    def test_i1_lp_at_least_feasible_value(self):
        for q in (0.2, 0.5, 0.8):
            eps = (1.0 - q) / 200.0
            inst = make_instance(spec("I1", q=q, eps=eps))
            lower = closed_form_value("I1", "lp_lower", {"q": q, "eps": eps})
            assert benchmark_lp(inst).lp_value >= lower - 1e-6


class TestDualCertificate:
    def test_zero_solution(self):
        rng = random.Random(53)
        inst = random_instance(rng)
        cert, ok = verify_dual_certificate(inst, FractionalSolution(np.zeros((inst.V, inst.S, inst.T))), 1)
        assert ok
        assert cert.mu == pytest.approx(1.0 / (2.0 - inst.dist.mdhr()), abs=1e-15)
        assert np.all(cert.gamma == cert.mu)
        assert np.all(cert.alpha == pytest.approx(1.0 - cert.mu, abs=1e-12))

    def test_i2_all_ones_sits_on_boundary(self):
        inst = make_instance(spec("I2", n=4))
        ones = FractionalSolution(np.ones((inst.V, inst.S, inst.T)))
        for v in (1, 4):
            cert, ok = verify_dual_certificate(inst, ones, v)
            assert ok
            # after the first period the recursion pins alpha at 1 - (2-q) mu = 0
            assert np.all(np.abs(cert.alpha[1:]) <= 1e-9)

    def test_selected_solutions_certify(self):
        rng = random.Random(59)
        for _ in range(10):
            inst = random_instance(rng)
            res = select_ex_ante(inst, m=3)
            for v in range(1, inst.V + 1):
                _, ok = verify_dual_certificate(inst, res.solution, v)
                assert ok

    def test_matches_loop_form(self):
        # alpha by its own recursion, the returned mass summed in a Python
        # loop, on fuzz draws 1-200 and the I2/I3 ladder; alpha itself is read
        # off the load, so the two agree up to rounding.
        ladder = [make_instance(spec(k, n=n)) for k in ("I2", "I3") for n in (4, 10, 12)]
        for seed, inst in enumerate(fuzz_draws(200) + ladder):
            x = feasible_tensor(random.Random(seed), inst)
            g = duration_table(inst.dist, inst.T).pmf[1:]
            for v in range(1, inst.V + 1):
                cert, _ = verify_dual_certificate(inst, FractionalSolution(x), v)
                weights = np.einsum("ts,st->t", inst.arrival_rates, x[v - 1])
                alpha = np.empty(inst.T)
                alpha[0] = 1.0 - cert.mu
                for t in range(1, inst.T):
                    returned = sum(weights[tp] * g[t - tp - 1] for tp in range(t))
                    alpha[t] = alpha[t - 1] - cert.mu * (weights[t - 1] - returned)
                assert np.abs(cert.alpha - alpha).max() <= 1e-12

    @staticmethod
    def _agrees_with_sdn(inst, x):
        """alpha is sdn_offline's beta[v - 1] - mu bit for bit, and feasible exactly when SDN builds."""
        solution = FractionalSolution(x)
        try:
            beta = sdn_offline(inst, solution).beta
        except ValidationError:
            beta = None
        for v in range(1, inst.V + 1):
            cert, ok = verify_dual_certificate(inst, solution, v)
            assert ok == (beta is not None)
            if beta is not None:
                assert cert.alpha.tobytes() == (beta[v - 1] - cert.mu).tobytes()

    def test_alpha_is_sdn_beta_minus_mu(self):
        ladder = [make_instance(spec(k, n=n)) for k in ("I2", "I3") for n in (4, 10, 12)]
        for seed, inst in enumerate(fuzz_draws(200) + ladder):
            self._agrees_with_sdn(inst, feasible_tensor(random.Random(seed), inst))

    def test_selected_solutions_are_sdn_floor(self):
        rng = random.Random(67)
        ladder = [make_instance(spec(k, n=n)) for k in ("I2", "I3") for n in (4, 10)]
        for inst in ladder + [random_instance(rng) for _ in range(10)]:
            self._agrees_with_sdn(inst, select_ex_ante(inst, m=3).solution.x)

    def test_certifies_every_solution_check_feasible_accepts(self):
        # alpha may sit (1 - mu) FEASIBILITY_TOL below 0, as SDN's beta may
        # sit below mu; the deterministic case reaches alpha = -2.5e-8
        lowest = []
        for inst, x in slack_solutions():
            cert, ok = verify_dual_certificate(inst, x, 1)
            assert ok
            lowest.append(cert.alpha.min())
            self._agrees_with_sdn(inst, x.x)
        assert lowest[0] < -1e-9

    def test_infeasible_solution_rejected(self):
        rng = random.Random(61)
        inst = random_instance(rng)
        bad = FractionalSolution(np.full((inst.V, inst.S, inst.T), 1.5))
        with pytest.raises(ValidationError):
            verify_dual_certificate(inst, bad, 1)
