import os
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import RecordingPool, feasible_tensor, fuzz_draws, random_instance, slack_solutions
from volnotify.bounds import make_instance, parse_canonical_spec
from volnotify.core import (
    Deterministic,
    FractionalSolution,
    Geometric,
    Instance,
    Tabulated,
    ValidationError,
    check_feasible,
    duration_table,
    evaluate_fv,
)
from volnotify import exante
from volnotify.exante import LpError, benchmark_lp, select_ex_ante
from volnotify.policies import (
    BeliefPolicy,
    BeliefState,
    BestNPolicy,
    RandomNPolicy,
    RollingHorizonPolicy,
    StaticPlanPolicy,
    UpToRhoPolicy,
    default_rolling_horizon,
    make_policy,
    parse_policy_spec,
    sdn_offline,
    sn_offline,
)
from volnotify.sim import _chunks, simulate


U1 = np.full((1, 1), 0.5)  # one episode's policy uniforms on a one-volunteer instance


def make_i4(q=0.1, eps=1e-3):
    lam = np.zeros((2, 2))
    lam[0, 0] = 1.0
    lam[1, 1] = q
    return Instance(arrival_rates=lam, match_probs=np.array([[eps, 1.0]]), dist=Geometric(q))


def i4_ones():
    x = np.zeros((1, 2, 2))
    x[0, 0, 0] = 1.0
    x[0, 1, 1] = 1.0
    return FractionalSolution(x)


def fold_cases():
    """(instance, feasible tensor) on fuzz draws 1-200 and the I2/I3 ladder."""
    ladder = [make_instance(parse_canonical_spec(f"I{k}:n={n}")) for k in (2, 3) for n in (4, 10, 12)]
    for seed, inst in enumerate(fuzz_draws(200) + ladder):
        yield inst, feasible_tensor(random.Random(seed), inst)


def sn_loop(instance, x):
    """sn_offline with the value after reactivating summed in a Python loop: (x_tilde, J)."""
    V, S, T = instance.V, instance.S, instance.T
    lam, lam0 = instance.arrival_rates, instance.no_arrival_rates()
    g = duration_table(instance.dist, T).pmf[1:]
    x_tilde, J, prefix = np.zeros((V, S, T)), np.zeros((V, T + 1)), np.ones((S, T))
    for v in range(V):
        r = instance.match_probs[v][:, None] * prefix
        for t in range(T - 1, -1, -1):
            future = 0.0
            for tau in range(t + 1, T):
                future += g[tau - t - 1] * J[v, tau]
            stay = J[v, t + 1]
            value = lam0[t] * stay
            for s in range(S):
                notify_value = r[s, t] + future
                if notify_value >= stay:
                    x_tilde[v, s, t] = x[v, s, t]
                    value += lam[t, s] * ((1.0 - x[v, s, t]) * stay + x[v, s, t] * notify_value)
                else:
                    value += lam[t, s] * stay
            J[v, t] = value
        prefix = prefix * (1.0 - instance.match_probs[v][:, None] * x_tilde[v])
    return x_tilde, J


def forward_value_to_go(instance, x_tilde, r):
    """Independent forward recomputation of the value-to-go given fixed decisions."""
    V, S, T = x_tilde.shape
    lam = instance.arrival_rates
    lam0 = instance.no_arrival_rates()
    J = np.zeros((V, T + 1))
    pmf = duration_table(instance.dist, T).pmf
    for v in range(V):
        for t in range(T - 1, -1, -1):
            future = sum(pmf[tau - t] * J[v, tau]
                         for tau in range(t + 1, T))
            val = lam0[t] * J[v, t + 1]
            for s in range(S):
                val += lam[t, s] * ((1.0 - x_tilde[v, s, t]) * J[v, t + 1]
                                    + x_tilde[v, s, t] * (r[v, s, t] + future))
            J[v, t] = val
    return J


class TestSparseNotification:
    def test_i4_saves_volunteer_for_second_period(self):
        q, eps = 0.1, 1e-3
        inst = make_i4(q, eps)
        plan = sn_offline(inst, i4_ones())
        assert plan.x_tilde[0, 1, 1] == 1.0
        assert plan.J[0, 1] == pytest.approx(q, abs=1e-12)
        assert plan.x_tilde[0, 0, 0] == 0.0  # eps + q^2 < value of staying active

    def test_boundary_condition(self):
        rng = random.Random(71)
        inst = random_instance(rng)
        plan = sn_offline(inst, select_ex_ante(inst, m=3).solution)
        assert np.all(plan.J[:, inst.T] == 0.0)

    def test_decide_examples(self):
        inst = make_i4()
        plan = sn_offline(inst, i4_ones())
        assert plan.x_tilde[0, 0, 0] == 0.0
        assert plan.x_tilde[0, 1, 1] == 1.0
        # the policy is asked only on an arrival, so a period without one notifies nobody
        policy = make_policy("sn", inst, x_star=i4_ones())
        quiet = [chunk.notified[chunk.arrivals == 0] for ep in range(20)
                 for chunk in _chunks(inst, policy, 1, ep, 1)]
        assert sum(map(len, quiet)) and not any(q.any() for q in quiet)

    def test_decide_index_errors(self):
        policy = make_policy("sn", make_i4(), x_star=i4_ones())
        with pytest.raises(IndexError):
            policy.decide(None, 3, np.array([1]), np.zeros((1, 1)))
        with pytest.raises(IndexError):
            policy.decide(None, 1, np.array([5]), np.zeros((1, 1)))

    def test_requires_feasible_input(self):
        inst = make_i4()
        bad = FractionalSolution(np.full((1, 2, 2), 1.5))
        with pytest.raises(ValidationError):
            sn_offline(inst, bad)

    def test_sparsification_is_bitwise_copy(self):
        rng = random.Random(73)
        for _ in range(10):
            inst = random_instance(rng)
            x_star = select_ex_ante(inst, m=3).solution
            plan = sn_offline(inst, x_star)
            mask = plan.x_tilde != 0.0
            assert np.array_equal(plan.x_tilde[mask], x_star.x[mask])

    def test_value_to_go_monotone_and_nonnegative(self):
        rng = random.Random(79)
        for _ in range(10):
            inst = random_instance(rng)
            plan = sn_offline(inst, select_ex_ante(inst, m=3).solution)
            assert np.all(np.diff(plan.J, axis=1) <= 1e-12)
            assert np.all(plan.J >= -1e-12)

    def test_forward_recomputation_matches(self):
        rng = random.Random(83)
        for _ in range(10):
            inst = random_instance(rng)
            plan = sn_offline(inst, select_ex_ante(inst, m=3).solution)
            J = forward_value_to_go(inst, plan.x_tilde, plan.r)
            assert np.allclose(J, plan.J, atol=1e-12)

    def test_reward_floor(self):
        rng = random.Random(89)
        for _ in range(10):
            inst = random_instance(rng)
            x_star = select_ex_ante(inst, m=3).solution
            plan = sn_offline(inst, x_star)
            for v in range(inst.V):
                prefix = np.prod(
                    1.0 - x_star.x[:v] * inst.match_probs[:v, :, None], axis=0)
                floor = inst.match_probs[v][:, None] * prefix
                assert np.all(plan.r[v] >= floor - 1e-12)

    def test_dp_floor_on_priority_contribution(self):
        rng = random.Random(97)
        for _ in range(20):
            inst = random_instance(rng, max_v=3, max_s=3, max_t=8)
            x_star = select_ex_ante(inst, m=3).solution
            plan = sn_offline(inst, x_star)
            q = inst.dist.mdhr()
            for v in range(1, inst.V + 1):
                fv = evaluate_fv(inst, x_star, v)
                assert plan.J[v - 1, 0] >= fv / (2.0 - q) - 1e-9


    def test_matches_loop_form_bitwise(self):
        for inst, x in fold_cases():
            plan = sn_offline(inst, FractionalSolution(x))
            x_tilde, J = sn_loop(inst, x)
            assert plan.J.tobytes() == J.tobytes()
            assert plan.x_tilde.tobytes() == x_tilde.tobytes()


class TestScaledDown:
    def test_initial_activity_is_one(self):
        rng = random.Random(101)
        inst = random_instance(rng)
        plan = sdn_offline(inst, select_ex_ante(inst, m=3).solution)
        assert np.all(plan.beta[:, 0] == 1.0)

    def test_zero_solution_keeps_everyone_active(self):
        rng = random.Random(103)
        inst = random_instance(rng)
        plan = sdn_offline(inst, FractionalSolution(np.zeros((inst.V, inst.S, inst.T))))
        assert np.all(plan.beta == 1.0)

    def test_i4_first_period_probability(self):
        q = 0.1
        inst = make_i4(q)
        plan = sdn_offline(inst, i4_ones())
        assert plan.probs[0, 0, 0] == pytest.approx(1.0 / (2.0 - q), abs=1e-12)

    def test_i4_second_period_probability(self):
        q = 0.1
        inst = make_i4(q)
        plan = sdn_offline(inst, i4_ones())
        # beta at period 2 equals 1 - (1-q)/(2-q) = 1/(2-q), so the scaled
        # probability is exactly 1.
        assert plan.beta[0, 1] == pytest.approx(1.0 / (2.0 - q), abs=1e-12)
        assert plan.probs[0, 1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_entries_give_zero_probability(self):
        inst = make_i4()
        plan = sdn_offline(inst, i4_ones())
        assert plan.probs[0, 0, 1] == 0.0

    def test_beta_floor_and_valid_probabilities(self):
        rng = random.Random(107)
        for _ in range(10):
            inst = random_instance(rng)
            plan = sdn_offline(inst, select_ex_ante(inst, m=3).solution)
            q = inst.dist.mdhr()
            assert np.all(plan.beta >= 1.0 / (2.0 - q) - 1e-9)
            assert plan.probs.shape == (inst.V, inst.S, inst.T)
            assert np.all((plan.probs >= 0.0) & (plan.probs <= 1.0))

    def test_builds_on_every_solution_check_feasible_accepts(self):
        # The floor and the probability bound allow what FEASIBILITY_TOL
        # allows: beta >= mu - (1 - mu) tol, probabilities <= (1 + tol) / (1 - (1 - q) tol).
        (det, x_det), (geo, x_geo) = slack_solutions()
        assert check_feasible(det, x_det) == [] and check_feasible(geo, x_geo) == []
        plan = sdn_offline(det, x_det)
        assert plan.beta[0].tolist() == (1.0 - 0.5 * np.array([0.0, 0.5 + 2.5e-8, 1.0 + 5e-8])).tolist()
        assert plan.beta[0, 2] < 0.5 - 1e-9
        assert sdn_offline(geo, x_geo).probs.tolist() == [[[1.0, 1.0, 1.0]]]


def dict_filter_step(active, pending, table, t):
    """Reference belief advance: per-volunteer dicts {tau: mass}, the hazard rule per element of table's pmf/sf."""
    for v, masses in enumerate(pending):
        moved, kept = 0.0, {}
        for tau, mass in masses.items():
            elapsed = t - tau
            if table.sf[elapsed] <= 1e-12:
                moved += mass
                continue
            prior = table.sf[elapsed - 1]
            hazard = 1.0 if prior <= 1e-12 else min(table.pmf[elapsed] / prior, 1.0)
            moved += hazard * mass
            if (1.0 - hazard) * mass > 0.0:
                kept[tau] = (1.0 - hazard) * mass
        active[v] += moved
        pending[v] = kept


# The trailing-zero law: its masses end in a zero and sum to just under 1,
# so support_max is 2 while the residual 5e-10 returns at duration 3.
TRAILING_ZERO = Tabulated((0.5, 0.4999999995, 0.0))


def quiet_instance(dist, T, V=1):
    """An instance with no arrivals for V volunteers of match probability 0.5."""
    return Instance(arrival_rates=np.zeros((T, 1)), match_probs=np.full((V, 1), 0.5), dist=dist)


def belief_policy(dist, T, V=1, theta=1.0):
    """A belief-tracking policy for V volunteers on an instance with no arrivals."""
    return make_policy("best:1", quiet_instance(dist, T, V), theta=theta)


def dense_state(V, T):
    """A T-column belief state, pending[e, v, tau-1] for every notification period tau; advance it with dense_advance."""
    return BeliefState(np.ones((1, V)), np.zeros((1, V, T)), np.arange(T, 0, -1), None)


def dense_advance(state, hazard, t):
    """Reference advance over every earlier period with a duration table's full hazard array, whatever the law.

    The mass notified at tau (column tau - 1) returns with hazard[t - tau],
    the returned masses summed in ascending tau.
    """
    h = hazard[t - 1:0:-1]
    mass = state.pending[:, :, :t - 1]
    state.active += np.cumsum(h * mass, axis=2)[:, :, -1]
    mass *= 1.0 - h


class TestBeliefFilter:
    def test_deterministic_cycle(self):
        policy = belief_policy(Deterministic(7), 10)
        state = policy.record(policy.new_state(), 1, np.array([[True]]))
        assert state.active[0, 0] == 0.0
        for t in range(2, 8):
            assert policy.advance(state, t) is state  # updated in place
            assert state.active[0, 0] == 0.0  # not eligible for 6 periods after
            assert policy._eligible(state, 1).tolist() == [[False]]
        state = policy.advance(state, 8)
        assert state.active[0, 0] == 1.0
        assert policy._eligible(state, 1).tolist() == [[True]]

    def test_geometric_moves_constant_fraction(self):
        q = 0.3
        policy = belief_policy(Geometric(q), 5)
        state = policy.record(policy.new_state(), 1, np.array([[True]]))
        a = 0.0
        for t in range(2, 6):
            state = policy.advance(state, t)
            expected = a + q * (1.0 - a)
            assert state.active[0, 0] == pytest.approx(expected, abs=1e-12)
            a = expected

    def test_tabulated_example(self):
        policy = belief_policy(Tabulated((0.2, 0.8)), 3)
        state = policy.record(policy.new_state(), 1, np.array([[True]]))
        state = policy.advance(state, 2)
        assert state.active[0, 0] == pytest.approx(0.2, abs=1e-12)
        state = policy.advance(state, 3)
        assert state.active[0, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dist, T, ages", [
        (Deterministic(1), 30, [1]), (Deterministic(7), 30, [7]), (Deterministic(7), 5, []),
        (Tabulated((0.2, 0.8)), 30, [2, 1]), (Tabulated((0.1, 0.0, 0.5, 0.4, 0.0)), 30, [4, 3, 2, 1]),
        (TRAILING_ZERO, 30, [3, 2, 1])], ids=repr)
    def test_kept_ages(self, dist, T, ages):
        # the span from the oldest age of positive hazard, up to the first exhausted
        # survival, down to the youngest, oldest first; an interior age may have hazard 0
        state = BeliefState.all_active(quiet_instance(dist, T))
        assert list(state.ages) == ages
        assert state.hazard.tolist() == duration_table(dist, T).hazard[ages].tolist()

    def test_trailing_zero_residual_returns(self):
        # Two knock-outs in a row must leave the belief at 1 two periods after
        # each; a filter cut at support_max kept the 5e-10 residual forever.
        policy = belief_policy(TRAILING_ZERO, 8)
        state = policy.new_state()
        for t in range(1, 9):
            if t >= 2:
                state = policy.advance(state, t)
            if t in (1, 4):
                state = policy.record(state, t, np.array([[True]]))
        assert state.active.tolist() == [[1.0]]
        assert not state.pending.any()

    def test_notify_moves_active_mass(self):
        state = BeliefState.all_active(quiet_instance(Deterministic(2), 4))
        state.notify(np.array([[True]]), 3)
        assert state.active[0, 0] == 0.0
        assert state.pending[0, 0].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_notify_inactive_is_noop(self):
        state = BeliefState.all_active(quiet_instance(Deterministic(2), 4))
        state.active[0, 0], state.pending[0, 0, 0] = 0.0, 1.0
        state.notify(np.array([[True]]), 4)
        assert state.active[0, 0] == 0.0
        assert state.pending[0, 0].tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_notify_partial_mass_conserved(self):
        state = BeliefState.all_active(quiet_instance(Deterministic(2), 4))
        state.active[0, 0], state.pending[0, 0, 0] = 0.4, 0.6
        state.notify(np.array([[True]]), 3)
        assert state.active[0, 0] == 0.0
        assert state.pending[0, 0].tolist() == [0.6, 0.0, 0.4, 0.0]
        assert state.active[0, 0] + state.pending[0, 0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_mass_conservation_under_random_history(self):
        rng = random.Random(109)
        for _ in range(20):
            inst = random_instance(rng, max_v=3)
            state = BeliefState.all_active(inst)
            for t in range(2, inst.T + 1):
                state.advance(t)
                if rng.random() < 0.5:
                    state.notify(np.arange(inst.V)[None, :] == rng.randint(1, inst.V) - 1, t)
                totals = state.active[0] + state.pending[0].sum(axis=1)
                assert totals == pytest.approx(np.ones(inst.V), abs=1e-9)

    def test_matches_dict_filter_bit_for_bit(self):
        # The dense reference on every law, and the shipped state on every
        # law but the geometric one, whose single column is checked below.
        rng = random.Random(127)
        for _ in range(30):
            inst = random_instance(rng, max_v=4, max_t=20)
            table = duration_table(inst.dist, inst.T)
            ref = dense_state(inst.V, inst.T)
            states = [ref] if isinstance(inst.dist, Geometric) else [ref, BeliefState.all_active(inst)]
            active, pending = [1.0] * inst.V, [{} for _ in range(inst.V)]
            for t in range(1, inst.T + 1):
                if t >= 2:
                    dense_advance(ref, table.hazard, t)
                    for state in states[1:]:
                        state.advance(t)
                    dict_filter_step(active, pending, table, t)
                for state in states:
                    assert state.active[0].tolist() == active
                    assert [{tau + 1: m for tau, m in enumerate(row) if m} for row in
                            state.pending[0].tolist()] == pending
                notified = np.zeros((1, inst.V), dtype=bool)
                for v in range(inst.V):
                    if rng.random() < 0.3:
                        notified[0, v] = True
                        if active[v] > 0.0:
                            pending[v][t] = active[v]
                            active[v] = 0.0
                for state in states:
                    state.notify(notified, t)

    def test_batched_updates_equal_single_episode_updates(self):
        # A chunk of E episodes, starting from the one shared row the engine
        # begins with, against E one-episode states fed the same histories.
        rng = random.Random(131)
        for _ in range(20):
            inst = random_instance(rng, max_v=4, max_t=12)
            E = rng.randint(2, 6)
            batch = BeliefState.all_active(inst)
            singles = [BeliefState.all_active(inst) for _ in range(E)]
            for t in range(1, inst.T + 1):
                if t >= 2:
                    batch.advance(t)
                    for single in singles:
                        single.advance(t)
                notified = np.array([[rng.random() < 0.3 for _ in range(inst.V)]
                                     for _ in range(E)])
                batch.notify(notified, t)
                for e, single in enumerate(singles):
                    single.notify(notified[e:e + 1], t)
                assert batch.active.shape == (E, inst.V)
                for e, single in enumerate(singles):
                    assert batch.active[e].tobytes() == single.active[0].tobytes()
                    assert batch.pending[e].tobytes() == single.pending[0].tobytes()

    @pytest.mark.parametrize("dist", [
        Deterministic(1), Deterministic(2), Deterministic(4), Deterministic(7),
        Tabulated((0.2, 0.8)), Tabulated((0.1, 0.0, 0.5, 0.4, 0.0)), Tabulated((0.3, 0.3, 0.2, 0.2)),
        Tabulated((0.25, 0.25, 0.5 - 5e-10)), TRAILING_ZERO], ids=repr)
    def test_kept_ages_match_dense_filter_bit_for_bit(self, dist):
        # A finite law's state moves mass only at its kept ages; it must
        # equal the dense filter over every earlier period with the full
        # hazard table, bit for bit, on random multi-episode histories.
        V, T = 3, 30
        policy = belief_policy(dist, T, V)
        full = duration_table(dist, T).hazard
        rng = random.Random(139)
        for _ in range(10):
            shipped, ref = policy.new_state(), dense_state(V, T)
            for t in range(1, T + 1):
                if t >= 2:
                    shipped = policy.advance(shipped, t)
                    dense_advance(ref, full, t)
                assert shipped.active.tobytes() == ref.active.tobytes()
                assert shipped.pending.tobytes() == ref.pending.tobytes()
                notified = np.array([[rng.random() < 0.3 for _ in range(V)] for _ in range(4)])
                shipped = policy.record(shipped, t, notified)
                ref.notify(notified, t)

    @pytest.mark.parametrize("dist", [Geometric(0.3), Deterministic(3),
                                      Tabulated((0.1, 0.0, 0.5, 0.4)), TRAILING_ZERO], ids=repr)
    def test_matches_closed_form_reference(self, dist):
        # Independent reference: the mass knocked out at tau is still inactive
        # at the start of t with probability sf(t - tau), so
        # active[v] = 1 - sum_{tau < t} knocked[v, tau] sf(t - tau).
        # Checked on the dense state and on the policy's own state (one
        # inactive mass for the geometric law), fed the same history.
        rng = random.Random(113)
        V, T = 3, 12
        table = duration_table(dist, T)
        policy = belief_policy(dist, T, V)
        for _ in range(30):
            state, shipped = dense_state(V, T), policy.new_state()
            knocked = np.zeros((V, T))
            for t in range(1, T + 1):
                if t >= 2:
                    dense_advance(state, table.hazard, t)
                    shipped = policy.advance(shipped, t)
                reference = [1.0 - sum(knocked[v, tau - 1] * table.sf[t - tau]
                                       for tau in range(1, t)) for v in range(V)]
                for beliefs in (state, shipped):
                    assert np.all(np.abs(beliefs.active[0] - reference) <= 1e-12)
                    assert np.all(np.abs(beliefs.active[0] + beliefs.pending[0].sum(axis=1) - 1.0) <= 1e-12)
                notified = np.array([[rng.random() < 0.4 for _ in range(V)]])
                knocked[:, t - 1] = np.where(notified[0], reference, 0.0)
                state.notify(notified, t)
                shipped = policy.record(shipped, t, notified)

    @pytest.mark.parametrize("q", [0.05, 0.25, 0.9, 1.0])
    def test_memoryless_state_matches_t_column_filter(self, q):
        # A geometric policy keeps one inactive mass per volunteer; the
        # dense filter over every earlier period, with the full hazard
        # table, must agree with it to 1e-12 on random multi-episode
        # histories, past the point where the table exhausts the survival.
        # From the first elapsed e* with sf <= 1e-12 (12 periods at q = 0.9)
        # the table's hazard is 1, so the dense filter returns early the
        # (1 - q)^e* ~ 1e-12 of each knocked-out unit that the memoryless
        # filter, exact for the law, still holds; that cut is added back.
        # Eligibility must agree wherever the belief is more than 1e-12 from
        # theta - 1e-9. Only q = 0.9 at theta = 1 comes that close: 9 periods
        # after a full knock-out the exact belief 1 - 0.1^9 is the threshold
        # itself, which the memoryless filter computes exactly and the table's
        # hazards (from 1 - cdf) round one ulp below.
        dist, V, T, E = Geometric(q), 4, 120, 5
        table = duration_table(dist, T)
        exhausted = np.flatnonzero(table.sf <= 1e-12)
        e_star = exhausted[0] if exhausted.size else T
        policies = [belief_policy(dist, T, V, theta) for theta in (1.0, 0.9, 0.5)]
        rng = random.Random(149)
        for _ in range(6):
            shipped, ref = policies[0].new_state(), dense_state(V, T)
            knocked = []  # knocked[tau - 1]: the (E, V) mass the dense filter knocked out at tau
            assert shipped.pending.shape == (1, V, 1)
            for t in range(1, T + 1):
                if t >= 2:
                    shipped = policies[0].advance(shipped, t)
                    dense_advance(ref, table.hazard, t)
                cut = sum(knocked[tau - 1] * (1.0 - q) ** (t - tau)
                          for tau in range(1, t - e_star + 1))
                assert np.all(np.abs(shipped.active + cut - ref.active) <= 1e-12)
                assert np.all(np.abs(shipped.active + shipped.pending.sum(axis=2) - 1.0) <= 1e-12)
                for policy in policies:
                    edge = np.broadcast_to(np.abs(ref.active - (policy.theta - 1e-9)) <= 1e-12, (E, V))
                    assert not edge.any() or (q, policy.theta) == (0.9, 1.0)
                    assert np.array_equal(policy._eligible(shipped, E)[~edge], policy._eligible(ref, E)[~edge])
                rate = rng.choice((0.05, 0.3, 0.7))
                notified = np.array([[rng.random() < rate for _ in range(V)] for _ in range(E)])
                shipped = policies[0].record(shipped, t, notified)
                ref.notify(notified, t)
                knocked.append(ref.pending[:, :, t - 1].copy())


class TestHeuristics:
    def setup_method(self):
        lam = np.array([[0.5, 0.5]])
        p = np.array([[0.3, 0.3], [0.6, 0.6]])
        self.inst = Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))

    def decide(self, text, beliefs, t, s, u, inst=None, x_star=None):
        """One episode's decision for arrival type s, given its policy uniforms u."""
        policy = make_policy(text, inst or self.inst, x_star=x_star)
        return policy.decide(beliefs, t, np.array([s]), np.array([u]))[0].tolist()

    def test_notify_all(self):
        probs = self.decide("all", None, 1, 1, [0.5, 0.5])
        assert probs == [1.0, 1.0]

    def test_upto_rho_stops_at_threshold(self):
        probs = self.decide("upto:0.5", BeliefState.all_active(self.inst), 1, 2, [0.5, 0.5])
        assert probs == [0.0, 1.0]  # 0.6 already clears the bar

    def test_upto_rho_unreachable_notifies_all_positive(self):
        probs = self.decide("upto:0.99", BeliefState.all_active(self.inst), 1, 1, [0.5, 0.5])
        assert probs == [1.0, 1.0]

    def test_upto_rho_all_zero_notifies_nobody(self):
        inst = Instance(arrival_rates=np.array([[0.5]]), match_probs=np.zeros((2, 1)),
                        dist=Deterministic(2))
        probs = self.decide("upto:0.5", BeliefState.all_active(inst), 1, 1, [0.5, 0.5], inst)
        assert probs == [0.0, 0.0]

    def test_best_n_picks_largest_match(self):
        probs = self.decide("best:1", BeliefState.all_active(self.inst), 1, 1, [0.5, 0.5])
        assert probs == [0.0, 1.0]

    def test_best_n_tie_goes_to_lower_index(self):
        inst = Instance(arrival_rates=np.array([[0.5]]), match_probs=np.array([[0.4], [0.4]]),
                        dist=Deterministic(2))
        probs = self.decide("best:1", BeliefState.all_active(inst), 1, 1, [0.5, 0.5], inst)
        assert probs == [1.0, 0.0]

    def test_random_n_with_few_eligible(self):
        beliefs = BeliefState.all_active(self.inst)
        beliefs.active[0, 1], beliefs.pending[0, 1, 0] = 0.2, 0.8
        probs = self.decide("random:3", beliefs, 1, 1, [0.5, 0.5])
        assert probs == [1.0, 0.0]

    def test_random_n_uniform_subset(self):
        rng = random.Random(5)
        counts = [0, 0]
        for _ in range(4000):
            probs = self.decide("random:1", BeliefState.all_active(self.inst), 1, 1,
                                [rng.random(), rng.random()])
            counts[int(np.argmax(probs))] += 1
        assert abs(counts[0] / 4000 - 0.5) < 0.05

    def test_exante_plan_follows_x_star(self):
        x = np.zeros((2, 2, 1))
        x[0, 1, 0] = 0.25
        probs = self.decide("exante", None, 1, 2, [0.5, 0.5],
                            x_star=FractionalSolution(x))
        assert probs == [0.25, 0.0]

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            make_policy("notify_everyone_twice", self.inst)

    def test_rolling_horizon_validates(self):
        with pytest.raises(ValidationError):
            make_policy("rolling:0", self.inst)

    def test_rolling_horizon_smoke(self):
        lam = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[0.5, 0.0], [0.5, 0.4]])
        inst = Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))
        probs = self.decide("rolling:2", BeliefState.all_active(inst), 1, 1, [0.5, 0.5], inst)
        assert probs == [1.0, 1.0]  # window benchmark notifies both for task 1


class TestRollingWindowsOnEachPath:
    # The rolling policy's window LPs are fresh solves, so the HiGHS kernel
    # and the linprog path it falls back to must take every decision alike.
    @staticmethod
    def instance(rng, dist, V=10, S=3, T=60):
        """Random types per period at total arrival rate 0.8, match probabilities in [0.1, 0.5]."""
        lam = np.array([[rng.random() for _ in range(S)] for _ in range(T)])
        lam *= 0.8 / lam.sum(axis=1, keepdims=True)
        p = np.array([[rng.uniform(0.1, 0.5) for _ in range(S)] for _ in range(V)])
        return Instance(arrival_rates=lam, match_probs=p, dist=dist)

    def test_decisions_byte_identical(self, monkeypatch):
        rng = random.Random(2002)
        for dist in (Geometric(0.25), Deterministic(4)):
            inst = self.instance(rng, dist)
            for spec in ("rolling", "rolling:2"):
                runs = []
                for kernel in (True, False):
                    with monkeypatch.context() as m:
                        if not kernel:
                            m.setattr(exante, "_highs", None)
                        policy = make_policy(spec, inst)
                        runs.append((simulate(inst, policy, 20, 7), policy._cache))
                (stats, windows), (ref_stats, ref_windows) = runs
                assert stats == ref_stats
                assert windows.keys() == ref_windows.keys() and len(windows) > 50
                for key, x in windows.items():
                    ref = ref_windows[key]
                    assert (x is None and ref is None) or x.tobytes() == ref.tobytes()


class TColumnFilter:
    """Test-only mixin: the dense T-column belief state with the full hazard table, whatever the law.

    It shares no filter code with the shipped policy: notify puts the
    notified volunteers' active mass in their column with a where and zeroes
    it through the mask, and eligibility is always broadcast to the chunk.
    """

    def new_state(self):
        return dense_state(self.instance.V, self.instance.T)

    def advance(self, state, t):
        dense_advance(state, duration_table(self.instance.dist, self.instance.T).hazard, t)
        return state

    def record(self, state, t, notified):
        if len(state.active) != len(notified):
            state.active = np.repeat(state.active, len(notified), axis=0)
            state.pending = np.repeat(state.pending, len(notified), axis=0)
        state.pending[:, :, t - 1] += np.where(notified, state.active, 0.0)
        state.active[notified] = 0.0
        return state

    def _eligible(self, state, episodes):
        return np.broadcast_to(state.active >= self.theta - 1e-9, (episodes, self.instance.V))


class StackedUpTo:
    """Test-only mixin: upto:rho's decide with the miss product over a stacked column of ones."""

    def decide(self, state, t, s, u):
        order, rows = self._order[s - 1], np.arange(len(s))[:, None]
        pa = (self.instance.match_probs.T[s - 1] * state.active)[rows, order]
        missed = np.cumprod(np.hstack([np.ones((len(s), 1)), 1.0 - pa[:, :-1]]), axis=1)
        probs = np.zeros((len(s), self.instance.V))
        probs[rows, order] = (pa > 0.0) & (1.0 - missed < self.rho)
        return probs


class TestFilterDecisions:
    # Beliefs of the one-mass geometric filter may differ from the T-column
    # filter's in the last bits; on this instance the decisions, and so every
    # statistic, do not. A finite law's span of kept ages gives the dense
    # beliefs bit for bit, so its statistics are equal too.
    @pytest.mark.parametrize("theta", [1.0, 0.7])
    @pytest.mark.parametrize("dist", [Geometric(0.25), TRAILING_ZERO, Deterministic(4),
                                      Tabulated((0.2, 0.0, 0.5, 0.3))], ids=repr)
    @pytest.mark.parametrize("spec, episodes", [
        ("best:2", 400), ("random:2", 400), ("upto:0.8", 400), ("rolling", 100)])
    def test_simstats_equal_t_column_reference(self, spec, episodes, dist, theta):
        inst = TestRollingWindowsOnEachPath.instance(random.Random(2005), dist)
        shipped = make_policy(spec, inst, theta=theta)
        mixins = (TColumnFilter, StackedUpTo) if isinstance(shipped, UpToRhoPolicy) else (TColumnFilter,)
        reference = type("Reference", (*mixins, type(shipped)), {})(
            spec, inst, theta=theta, **parse_policy_spec(spec)[1])
        width = 1 if isinstance(dist, Geometric) else inst.T
        assert shipped.new_state().pending.shape == (1, inst.V, width)
        assert reference.new_state().pending.shape == (1, inst.V, inst.T)
        assert simulate(inst, shipped, episodes, 17) == simulate(inst, reference, episodes, 17)


def os_threads():
    """The process's thread count, where the system shows it."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


class TestRollingWindowBatches:
    # The windows a decide misses go to exante's pool, one _window each:
    # built, loaded, run and checked on a pool thread's kept HiGHS solver.
    instance = staticmethod(TestRollingWindowsOnEachPath.instance)

    def test_windows_equal_benchmark_lp_of_the_window(self):
        rng = random.Random(2003)
        for dist, zeros in ((Geometric(0.25), False), (Deterministic(4), False),
                            (Tabulated((0.1, 0.0, 0.5, 0.4)), False), (Deterministic(3), True)):
            inst = self.instance(rng, dist)
            if zeros:  # a zero match probability has no cap entry in a window's model
                inst = Instance(arrival_rates=inst.arrival_rates, dist=dist,
                                match_probs=np.where(np.arange(inst.V)[:, None] % 3 == np.arange(inst.S),
                                                     0.0, inst.match_probs))
            policy = make_policy("rolling", inst)
            simulate(inst, policy, 10, 5)
            solved = 0
            for (t, eligible), first in policy._cache.items():
                if not eligible:
                    assert first is None
                    continue
                sub = Instance(arrival_rates=inst.arrival_rates[t - 1:t + policy.horizon - 1],
                               match_probs=inst.match_probs[list(eligible)], dist=dist)
                assert first.shape == (len(eligible), inst.S)
                assert first.tobytes() == benchmark_lp(sub).x_lp.x[:, :, 0].tobytes()
                solved += 1
            assert solved > 20

    def test_no_window_when_every_eligible_set_is_empty(self, monkeypatch):
        # A period whose missing eligible sets are all empty builds no window
        # instance and no _Benchmark; it caches None for each.
        inst = self.instance(random.Random(2003), Geometric(0.25))
        built, benchmark, calls, solve = [], exante._Benchmark, [], RollingHorizonPolicy._solve

        def counted(window):
            built.append(window)
            return benchmark(window)

        def recording(policy, t, subsets):
            calls.append(subsets)
            return solve(policy, t, subsets)

        monkeypatch.setattr(exante, "_Benchmark", counted)
        monkeypatch.setattr(RollingHorizonPolicy, "_solve", recording)
        policy = make_policy("rolling", inst)
        simulate(inst, policy, 10, 5)
        empty = [subsets for subsets in calls if not any(subsets)]
        assert empty and len(built) == len(calls) - len(empty)
        assert all(policy._cache[key] is None for key in policy._cache if not key[1])

    def test_any_pool_size_agrees(self, monkeypatch):
        # One pool thread, and three that share each _Benchmark and switch often.
        rng = random.Random(2002)
        for dist in (Geometric(0.25), Deterministic(4)):
            inst = self.instance(rng, dist)
            runs, interval = [], sys.getswitchinterval()
            with ThreadPoolExecutor(1) as one, ThreadPoolExecutor(3) as three:
                for pool, switch in ((RecordingPool(one), interval), (RecordingPool(three), 1e-5)):
                    try:
                        sys.setswitchinterval(switch)
                        with monkeypatch.context() as m:
                            m.setattr(exante, "_pool", lambda: pool)
                            policy = make_policy("rolling", inst)
                            runs.append((simulate(inst, policy, 20, 7), policy._cache))
                    finally:
                        sys.setswitchinterval(interval)
                    # each window is one _window call on the pool
                    assert pool.calls and all(fn.__func__ is exante._Benchmark._window for fn in pool.calls)
            (stats, windows), (other_stats, other_windows) = runs
            assert other_stats == stats
            assert other_windows.keys() == windows.keys()
            for key, first in windows.items():
                other = other_windows[key]
                assert (first is None and other is None) or first.tobytes() == other.tobytes()

    def test_failed_window_raises_on_calling_thread(self, monkeypatch):
        inst = self.instance(random.Random(2002), Deterministic(4))
        reference = simulate(inst, make_policy("rolling", inst), 20, 7)
        checked, lock = [], threading.Lock()
        result = exante._result

        def failing(*args):
            with lock:  # windows check concurrently: exactly one is the third
                checked.append(threading.current_thread())
                third = len(checked) == 3
            if third:
                raise LpError("linear program failed: injected")
            return result(*args)

        with ThreadPoolExecutor(2) as executor, monkeypatch.context() as m:
            pool = RecordingPool(executor)
            m.setattr(exante, "_pool", lambda: pool)
            m.setattr(exante, "_result", failing)
            with pytest.raises(LpError, match="injected"):
                simulate(inst, make_policy("rolling", inst), 20, 7)
            # every window of the failed batch had ended when the error came out
            assert len(pool.futures) > 2 and all(future.done() for future in pool.futures)
            pool_threads = set(executor._threads)
        assert len(checked) >= 3 and set(checked) <= pool_threads  # the checks ran on pool threads
        assert simulate(inst, make_policy("rolling", inst), 20, 7) == reference

    def test_thread_count_stays_bounded(self):
        inst = self.instance(random.Random(2002), Deterministic(4))
        simulate(inst, make_policy("rolling", inst), 5, 1)
        python_threads, system_threads = threading.active_count(), os_threads()
        for seed in range(2, 7):
            simulate(inst, make_policy("rolling", inst), 5, seed)
        workers = [t for t in threading.enumerate() if t.name.startswith("volnotify-highs")]
        assert len(workers) <= exante._pool()._max_workers <= min(exante._MAX_WORKERS, os.cpu_count())
        assert threading.active_count() <= python_threads
        if system_threads is not None:
            assert os_threads() <= system_threads

    def test_each_pool_thread_keeps_one_solver(self, monkeypatch):
        inst = self.instance(random.Random(2002), Deterministic(4))
        made, solver = [], exante._solver

        def counted():
            made.append(threading.current_thread())
            return solver()

        monkeypatch.setattr(exante, "_solver", counted)
        exante._pool.cache_clear()  # a new pool, whose threads keep no solver yet
        for seed in range(1, 6):
            simulate(inst, make_policy("rolling", inst), 5, seed)
        assert 1 <= len(made) <= exante._pool()._max_workers
        assert len(set(made)) == len(made)  # one solver per thread

    def test_failed_window_drops_its_solver(self, monkeypatch):
        inst = self.instance(random.Random(2002), Geometric(0.25))
        used, result = [], exante._result

        def failing(solver, *args):
            used.append(solver)
            if len(used) == 2:
                raise LpError("linear program failed: injected")
            return result(solver, *args)

        window, p = exante._Benchmark(inst), inst.match_probs
        with ThreadPoolExecutor(1) as executor, monkeypatch.context() as m:
            m.setattr(exante, "_pool", lambda: executor)
            m.setattr(exante, "_result", failing)
            with pytest.raises(LpError, match="injected"):
                window.solve([p[:2], p[:3], p[:4]])
            solved = window.solve([p[:5]])
        assert used[1] is used[0]  # kept after a passed check
        assert used[2] is not used[1]  # a fresh solver after the failed one
        assert used[3] is used[2]
        assert solved[0].tobytes() == benchmark_lp(Instance(
            arrival_rates=inst.arrival_rates, match_probs=p[:5], dist=inst.dist)).x_lp.x.tobytes()

    def test_traced_functions_run_on_the_calling_thread(self, monkeypatch):
        # bench/spans.py's Tracer is single-threaded: none of the functions it
        # wraps may run on a pool thread, on either solve path.
        import volnotify.core as core

        inst = self.instance(random.Random(2002), Deterministic(4))
        for kernel in (True, False):
            threads = []
            with monkeypatch.context() as m:
                for module, name in ((exante, "solve_lp"), (exante, "benchmark_lp"),
                                     (core, "evaluate_f"), (exante, "evaluate_f")):
                    def recording(*args, _original=getattr(module, name), **kwargs):
                        threads.append(threading.current_thread())
                        return _original(*args, **kwargs)
                    m.setattr(module, name, recording)
                if not kernel:
                    m.setattr(exante, "_highs", None)
                    select_ex_ante(inst, 5)
                    simulate(inst, make_policy("rolling", inst), 3, 7)
                    assert threads
                else:
                    select_ex_ante(inst, 5)
                    simulate(inst, make_policy("rolling", inst), 10, 7)
            assert threads and set(threads) == {threading.main_thread()}


class TestPolicyFactory:
    def test_grammar(self):
        assert parse_policy_spec("sn") == ("sn", {})
        assert parse_policy_spec("random:3") == ("random", {"n": 3})
        assert parse_policy_spec("upto:0.25") == ("upto", {"rho": 0.25})
        assert parse_policy_spec("rolling:7") == ("rolling", {"horizon": 7})
        assert parse_policy_spec("rolling") == ("rolling", {})
        for bad in ("prioritize", "random:x", "sn:3", "best:", "random:0", "random:-1",
                    "best:-1", "upto:-0.1", "upto:1.5", "upto:nan", "rolling:0", "rolling:-2"):
            with pytest.raises(ValidationError):
                parse_policy_spec(bad)
            with pytest.raises(ValidationError):
                make_policy(bad, make_i4(), x_star=i4_ones())
        assert parse_policy_spec("upto:0") == ("upto", {"rho": 0.0})
        assert parse_policy_spec("upto:1") == ("upto", {"rho": 1.0})

    def test_constructors_check_the_ranges_the_grammar_checks(self):
        # A heuristic built directly refuses what its spec string would: both
        # read one range per kind, and say so in the same words.
        inst = make_i4()
        for cls, spec, kwargs in ((RandomNPolicy, "random:0", {"n": 0}), (BestNPolicy, "best:0", {"n": 0}),
                                  (UpToRhoPolicy, "upto:5", {"rho": 5.0}),
                                  (RollingHorizonPolicy, "rolling:0", {"horizon": 0})):
            with pytest.raises(ValidationError) as parsed:
                parse_policy_spec(spec)
            with pytest.raises(ValidationError) as built:
                cls("x", inst, **kwargs)
            assert str(built.value) == str(parsed.value)
        # tests/test_package.py runs the other kinds' rows; a horizon of None is the default
        for horizon in (2.0, True, "3"):
            with pytest.raises(ValidationError, match="^rolling:horizon must be an integer >= 1"):
                RollingHorizonPolicy("x", inst, horizon)
        assert RollingHorizonPolicy("x", inst).horizon == default_rolling_horizon(inst)

    def test_default_rolling_horizon_is_mean_duration(self):
        # the mean duration, 7, up to T; a window stops at T, so T caps it
        for T, horizon in ((10, 7), (3, 3)):
            inst = Instance(arrival_rates=np.zeros((T, 1)), match_probs=np.full((1, 1), 0.5),
                            dist=Deterministic(7))
            assert default_rolling_horizon(inst) == horizon
            geo = Instance(arrival_rates=np.zeros((T, 1)), match_probs=np.full((1, 1), 0.5),
                           dist=Geometric(1.0 / 7.0))
            assert default_rolling_horizon(geo) == horizon

    def test_default_rolling_horizon_of_an_overflowing_mean(self):
        # 1 / q overflows to inf below q of about 5.6e-309; the horizon caps at T,
        # where every window already stops, so the run is rolling:T's.
        arrivals = np.array([[0.3 + 0.02 * (t % 5), 0.2] for t in range(20)])
        p = np.array([[0.5, 0.2], [0.3, 0.7], [0.6, 0.6], [0.4, 0.1]])
        for q in (1e-300, 1e-310):
            inst = Instance(arrival_rates=arrivals, match_probs=p, dist=Geometric(q))
            policy = make_policy("rolling", inst)
            assert policy.horizon == inst.T == 20
            stats, capped = simulate(inst, policy, 300, 1), simulate(inst, make_policy("rolling:20", inst), 300, 1)
            assert stats == capped
            assert np.array(stats.attribution).tobytes() == np.array(capped.attribution).tobytes()

    def test_make_policy_kinds(self):
        inst = make_i4()
        x_star = i4_ones()
        for text, cls in [("sn", StaticPlanPolicy), ("sdn", StaticPlanPolicy),
                          ("exante", StaticPlanPolicy), ("all", StaticPlanPolicy),
                          ("random:1", RandomNPolicy), ("best:2", BestNPolicy),
                          ("upto:0.5", UpToRhoPolicy), ("rolling:2", RollingHorizonPolicy)]:
            policy = make_policy(text, inst, x_star=x_star)
            assert isinstance(policy, cls)
            assert isinstance(policy, BeliefPolicy) == (cls is not StaticPlanPolicy)
            assert policy.name == text

    def test_theta_is_a_real_number(self):
        # a bool is not an activity belief, and a bad theta is refused for
        # every kind, a plan kind too
        inst = make_i4()
        for kind in ("best:1", "all"):
            for theta in (True, False, np.bool_(True), "1", None):
                with pytest.raises(ValidationError, match="theta must be a real number"):
                    make_policy(kind, inst, theta=theta)
        assert make_policy("best:1", inst, theta=1).theta == 1.0

    def test_plan_kinds_need_x_star(self):
        inst = make_i4()
        for text in ("sn", "sdn", "exante"):
            with pytest.raises(ValidationError, match="x_star"):
                make_policy(text, inst)
        assert make_policy("all", inst).decide(None, 1, np.array([1]), U1).tolist() == [[1.0]]

    def test_sn_policy_probabilities_match_plan(self):
        inst = make_i4()
        policy = make_policy("sn", inst, x_star=i4_ones())
        assert policy.decide(None, 1, np.array([1]), U1).tolist() == [[0.0]]
        assert policy.decide(None, 2, np.array([2]), U1).tolist() == [[1.0]]

    def test_sdn_policy_probabilities_match_plan(self):
        inst = make_i4()
        plan = sdn_offline(inst, i4_ones())
        policy = make_policy("sdn", inst, x_star=i4_ones())
        for t, s in ((1, 1), (1, 2), (2, 1), (2, 2)):
            probs = policy.decide(None, t, np.array([s]), U1)
            assert probs.tolist() == [plan.probs[:, s - 1, t - 1].tolist()]
