import math
import random

import numpy as np
import pytest

from conftest import random_instance
from volnotify.core import (
    Deterministic,
    FractionalSolution,
    Geometric,
    Instance,
    Tabulated,
    ValidationError,
    duration_table,
    evaluate_fv,
)
from volnotify.exante import benchmark_lp, select_ex_ante
from volnotify import sim
from volnotify.policies import BeliefState, Policy, StaticPlanPolicy, make_policy
from volnotify.sim import (
    CapacityError,
    _chunks,
    _credits,
    _drive,
    brute_force_optimal_online,
    empirical_active_prob,
    simulate,
    simulate_batched,
)


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


def alone(inst, policy, seed, k):
    """Episode k of the run seeded `seed`, played alone: its one-episode chunk."""
    (chunk,) = _chunks(inst, policy, seed, k, 1)
    return chunk


def history(chunk, e=0):
    """Episode e of a chunk as lists: arrivals (T,), then active, notified and responded (T, V)."""
    return tuple(a[:, e].tolist() for a in chunk[1:])


def tiny_deterministic_instance(rng):
    lam = np.zeros((4, 2))
    for t in range(4):
        a, b = rng.random(), rng.random()
        scale = rng.random() / max(a + b, 1e-9)
        lam[t] = [a * min(scale, 1.0), b * min(scale, 1.0)]
    p = np.array([[rng.random() for _ in range(2)] for _ in range(2)])
    return Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))


class TestEpisode:
    def test_zero_match_probs_complete_nothing(self):
        inst = Instance(arrival_rates=np.full((4, 1), 0.9), match_probs=np.zeros((2, 1)),
                        dist=Deterministic(2))
        policy = make_policy("all", inst)
        stats = simulate(inst, policy, 200, seed=1)
        assert stats.mean_completed == 0.0
        assert stats.std_error == 0.0

    def test_certain_single_completion(self):
        inst = Instance(arrival_rates=np.array([[1.0]]), match_probs=np.array([[1.0]]),
                        dist=Deterministic(1))
        policy = make_policy("all", inst)
        for ep in range(20):
            assert _credits(alone(inst, policy, 3, ep)).tolist() == [[1]]

    def test_completer_is_min_index_responder(self):
        inst = Instance(arrival_rates=np.array([[1.0]]), match_probs=np.ones((3, 1)),
                        dist=Deterministic(1))
        policy = make_policy("all", inst)
        chunk = alone(inst, policy, 5, 0)
        assert chunk.responded[0, 0].tolist() == [True, True, True]
        assert _credits(chunk).tolist() == [[1, 0, 0]]

    def test_notified_volunteer_goes_inactive_even_without_response(self):
        # One volunteer, p = 0, deterministic duration 3: after the period-1
        # notification she must be inactive in periods 2 and 3.
        inst = Instance(arrival_rates=np.array([[1.0], [0.0], [0.0]]),
                        match_probs=np.array([[0.0]]), dist=Deterministic(3))
        policy = make_policy("all", inst)
        emp = empirical_active_prob(inst, policy, 50, seed=9)
        assert emp[0].tolist() == [1.0, 0.0, 0.0]

    def test_determinism_identical_histories(self):
        rng = random.Random(11)
        inst = random_instance(rng)
        policy = make_policy("random:2", inst)
        for ep in range(5):
            assert history(alone(inst, policy, 42, ep)) == history(alone(inst, policy, 42, ep))

    def test_policy_dimension_mismatch(self):
        inst = make_i4()
        bad = StaticPlanPolicy("bad", np.ones((3, 2, 2)))
        with pytest.raises(ValidationError):
            alone(inst, bad, 1, 0)


class TestSimulate:
    def test_stats_determinism(self):
        rng = random.Random(13)
        inst = random_instance(rng)
        policy = make_policy("best:2", inst)
        a = simulate(inst, policy, 300, seed=7, lp_value=1.0)
        b = simulate(inst, policy, 300, seed=7, lp_value=1.0)
        assert a == b

    def test_attribution_sums_to_mean(self):
        rng = random.Random(17)
        inst = random_instance(rng)
        policy = make_policy("all", inst)
        stats = simulate(inst, policy, 500, seed=3)
        assert sum(stats.attribution) == pytest.approx(stats.mean_completed, abs=1e-9)

    def test_ratio_undefined_for_zero_benchmark(self):
        inst = Instance(arrival_rates=np.full((2, 1), 0.5), match_probs=np.zeros((1, 1)),
                        dist=Deterministic(2))
        stats = simulate(inst, make_policy("all", inst), 100, seed=1, lp_value=0.0)
        assert stats.ratio is None

    def test_episode_count_below_one_rejected(self):
        inst = make_i4()
        policy = make_policy("all", inst)
        for episodes in (0, -1):
            with pytest.raises(ValidationError, match="episode count"):
                simulate(inst, policy, episodes, seed=1)
            with pytest.raises(ValidationError, match="episode count"):
                simulate_batched(inst, policy, episodes, 1)
            with pytest.raises(ValidationError, match="episode count"):
                empirical_active_prob(inst, policy, episodes, 1)

    def test_seed_outside_unsigned_64_bits_rejected(self):
        # a negative seed or episode index would replay another pair's stream
        inst = make_i4()
        policy = make_policy("all", inst)
        for seed in (-1, 2**64):
            with pytest.raises(ValidationError):
                simulate(inst, policy, 10, seed=seed)
            with pytest.raises(ValidationError):
                simulate_batched(inst, policy, 10, seed, nbatches=2)
            with pytest.raises(ValidationError):
                empirical_active_prob(inst, policy, 10, seed)
            with pytest.raises(ValidationError):
                alone(inst, policy, seed, 0)
        for episode in (-1, 2**64):
            with pytest.raises(ValidationError):
                alone(inst, policy, 0, episode)
        assert simulate(inst, policy, 10, seed=2**64 - 1).episodes == 10
        assert alone(inst, policy, 2**64 - 1, 2**64 - 1).arrivals.shape == (inst.T, 1)

    def test_i4_exante_plan_moments(self):
        q, eps = 0.1, 1e-3
        inst = make_i4(q, eps)
        policy = make_policy("exante", inst, x_star=i4_ones())
        n = 20000
        stats = simulate(inst, policy, n, seed=123)
        target = eps + q * q
        assert abs(stats.mean_completed - target) <= 3 * stats.std_error + 1e-12

    def test_i4_sparse_policy_saves_volunteer(self):
        q, eps = 0.1, 1e-3
        inst = make_i4(q, eps)
        policy = make_policy("sn", inst, x_star=i4_ones())
        n = 20000
        stats = simulate(inst, policy, n, seed=321)
        assert abs(stats.mean_completed - q) <= 3 * stats.std_error + 1e-12

    def test_i4_scaled_down_value(self):
        q, eps = 0.1, 1e-3
        inst = make_i4(q, eps)
        policy = make_policy("sdn", inst, x_star=i4_ones())
        n = 20000
        stats = simulate(inst, policy, n, seed=213)
        target = (eps + q) / (2.0 - q)
        assert abs(stats.mean_completed - target) <= 3 * stats.std_error + 1e-12

    def test_batched_partition_and_consistency(self):
        rng = random.Random(19)
        inst = random_instance(rng)
        policy = make_policy("all", inst)
        stats, rows = simulate_batched(inst, policy, 103, seed=5, nbatches=25, lp_value=2.0)
        # contiguous batches, sizes differing by at most one, larger ones first
        assert [r["episodes"] for r in rows] == [5] * 3 + [4] * 22
        assert [r["batch"] for r in rows] == list(range(1, 26))
        completed = [int(c) for chunk in _chunks(inst, policy, 5, 0, 103)
                     for c in _credits(chunk).sum(axis=1)]
        ends = np.cumsum([0] + [r["episodes"] for r in rows])
        for r, lo, hi in zip(rows, ends[:-1], ends[1:]):
            assert r["mean_completed"] == sum(completed[lo:hi]) / (hi - lo)
            assert r["ratio"] == r["mean_completed"] / 2.0
        pooled = sum(r["mean_completed"] * r["episodes"] for r in rows) / 103
        assert pooled == pytest.approx(stats.mean_completed, abs=1e-12)
        plain = simulate(inst, policy, 103, seed=5, lp_value=2.0)
        assert plain == stats
        with pytest.raises(ValidationError):
            simulate_batched(inst, policy, 103, seed=5, nbatches=0)


class TestEngineContract:
    SPECS = ("all", "sdn", "best:2", "random:2", "upto:0.5", "rolling:2")

    @staticmethod
    def policies(inst):
        x_star = select_ex_ante(inst, m=3).solution
        return [make_policy(spec, inst, x_star=x_star, theta=0.5)
                for spec in TestEngineContract.SPECS]

    @staticmethod
    def words_per_episode(inst):
        # what one episode counts against sim._DRAW_BUDGET: the draws of all
        # five slot groups, T (1 + 4V), also where a run skips the policy group
        return inst.T * (1 + 4 * inst.V)

    def test_budgets_cut_the_chunks_they_name(self, monkeypatch):
        rng = random.Random(73)
        inst = random_instance(rng, max_v=4, max_s=3, max_t=8)
        for policy in self.policies(inst):
            for per_chunk in (1, 3, 4):
                monkeypatch.setattr(sim, "_DRAW_BUDGET", per_chunk * self.words_per_episode(inst))
                sizes = [c.arrivals.shape[1] for c in _chunks(inst, policy, 1, 0, 10)]
                full, rest = divmod(10, per_chunk)
                assert sizes == [per_chunk] * full + [rest] * (rest > 0)

    @staticmethod
    def contract_words(inst, seed, k):
        """Episode k's arrival, notification, response, duration and policy uniforms, (T, n_g) each.

        Group g is PCG64DXSM(seed).jumped(g) advanced by k T n_g outputs, n_g
        draws per period, each output w read as (w >> 11) * 2**-53.
        """
        words = []
        for g, width in enumerate((1,) + (inst.V,) * 4):
            bitgen = np.random.PCG64DXSM(seed).jumped(g)
            bitgen.advance(k * inst.T * width)
            uniforms = (bitgen.random_raw(inst.T * width) >> 11) * 2.0**-53
            words.append(uniforms.reshape(inst.T, width))
        return words

    @staticmethod
    def replay(inst, words):
        """The history of a 0.5-everywhere static plan on the given uniforms, played slot by slot."""
        arrival, notify, respond, duration, _ = words
        cum = np.cumsum(inst.arrival_rates, axis=1)
        until = [0.0] * inst.V
        arrivals, active, notified, responded = [], [], [], []
        for t in range(1, inst.T + 1):
            s = int(np.sum(cum[t - 1] <= arrival[t - 1, 0]))  # inst.S: no task
            arrivals.append(s + 1 if s < inst.S else 0)
            active.append([u <= t for u in until])
            notified.append([False] * inst.V)
            responded.append([False] * inst.V)
            for v in range(inst.V if s < inst.S else 0):
                if notify[t - 1, v] < 0.5:
                    notified[-1][v] = True
                    if until[v] <= t:
                        until[v] = t + float(inst.dist.sample(duration[t - 1, v:v + 1])[0])
                        responded[-1][v] = bool(respond[t - 1, v] < inst.match_probs[v, s])
        return arrivals, active, notified, responded

    def test_episodes_follow_the_stream_contract(self):
        # The plain plan skips the policy group; its subclass is driven
        # through decide, which must see the policy group's uniforms.
        class Recording(StaticPlanPolicy):
            def decide(self, state, t, s, u):
                seen[t] = u[0].copy()
                return super().decide(state, t, s, u)

        for dist in (Geometric(0.3), Deterministic(2), Tabulated((0.3, 0.0, 0.4, 0.3))):
            inst = Instance(arrival_rates=np.tile([0.3, 0.4], (12, 1)),
                            match_probs=np.array([[0.6, 0.3], [0.5, 0.7], [0.4, 0.2]]), dist=dist)
            half = np.full((inst.V, inst.S, inst.T), 0.5)
            for k in (0, 3, 29):
                words = self.contract_words(inst, 2026, k)
                expected = self.replay(inst, words)
                assert np.any(expected[3])
                assert np.sum(expected[2]) > inst.V
                plain = StaticPlanPolicy("half", half)
                assert history(alone(inst, plain, 2026, k)) == expected, (dist, k)
                seen = {}
                assert history(alone(inst, Recording("half", half), 2026, k)) == expected, (dist, k)
                arrived = [t for t, s in enumerate(expected[0], 1) if s]
                assert sorted(seen) == arrived
                assert all(np.array_equal(seen[t], words[4][t - 1]) for t in arrived)

    def test_slot_groups_are_uncorrelated(self):
        # Same-slot notification coins, response coins and duration uniforms
        # of 10**6 slots: a stride that lines the groups up would show here.
        E, T, V = 1000, 100, 10
        n = E * T * V
        bitgen = np.random.PCG64DXSM(20261019)
        tape = sim._uniforms(bitgen, bitgen.state, 0, E, T, (1, V, V, V))
        corr = np.corrcoef(tape[E * T:].reshape(3, n))
        assert np.all(np.abs(corr[np.triu_indices(3, 1)]) <= 4 / math.sqrt(n))

    def test_both_engine_paths_see_common_random_numbers(self, monkeypatch):
        # A plain all-ones plan never draws the policy group; best:V at
        # theta 0 notifies the same volunteers through the protocol, and draws
        # it. Every other group, and so every history, is common to both.
        drawn = []

        def uniforms(bitgen, origin, start, E, T, widths):
            drawn.append(len(widths))
            return draw(bitgen, origin, start, E, T, widths)

        draw = sim._uniforms
        monkeypatch.setattr(sim, "_uniforms", uniforms)
        rng = random.Random(83)
        for variant in ("geometric", "deterministic", "tabulated"):
            inst = random_instance(rng, max_v=4, max_s=3, max_t=9, variant=variant)
            every = make_policy("all", inst)
            best = make_policy(f"best:{inst.V}", inst, theta=0.0)
            assert type(every) is StaticPlanPolicy and type(best) is not StaticPlanPolicy
            static = self.histories(inst, every, 9, 40)
            assert set(drawn) == {4}
            drawn.clear()
            assert self.histories(inst, best, 9, 40) == static, variant
            assert set(drawn) == {5}
            drawn.clear()

    def test_results_do_not_depend_on_the_chunk_size(self, monkeypatch):
        rng = random.Random(53)
        for variant in ("geometric", "deterministic", "tabulated"):
            inst = random_instance(rng, max_v=4, max_s=3, max_t=8, variant=variant)
            for policy in self.policies(inst):
                runs = []
                # one chunk, one episode per chunk, three episodes per chunk
                for budget in (sim._DRAW_BUDGET, 1, 3 * self.words_per_episode(inst)):
                    monkeypatch.setattr(sim, "_DRAW_BUDGET", budget)
                    runs.append((simulate_batched(inst, policy, 23, 9, nbatches=5),
                                 empirical_active_prob(inst, policy, 23, 9).tobytes()))
                assert runs[0] == runs[1] == runs[2], policy.name

    def test_episode_k_alone_replays_episode_k_of_a_longer_run(self, monkeypatch):
        rng = random.Random(59)
        inst = random_instance(rng, max_v=4, max_s=3, max_t=8)
        monkeypatch.setattr(sim, "_DRAW_BUDGET", 4 * self.words_per_episode(inst))
        for policy in self.policies(inst):
            chunks = list(_chunks(inst, policy, 17, 0, 30))
            runs = [(history(chunk, e), credits.tolist())
                    for chunk in chunks for e, credits in enumerate(_credits(chunk))]
            completed, attr = _drive(inst, policy, 30, 17)
            assert completed.tolist() == [sum(credits) for _, credits in runs]
            assert attr.tolist() == np.sum([credits for _, credits in runs], axis=0).tolist()
            for k in (0, 3, 4, 29):
                chunk = alone(inst, policy, 17, k)
                assert (history(chunk), _credits(chunk)[0].tolist()) == runs[k], policy.name

    def test_interleaved_and_nested_runs_keep_their_draws(self, monkeypatch):
        # Runs that overlap on one thread (two chunk generators advanced in
        # turn, a run started from inside a policy's decide) each keep their
        # own uniforms.
        inst = Instance(arrival_rates=np.full((8, 2), 0.4),
                        match_probs=np.array([[0.3, 0.6], [0.5, 0.2], [0.4, 0.4]]),
                        dist=Geometric(0.3))
        half = StaticPlanPolicy("half", np.full((3, 2, 8), 0.5))
        best = make_policy("best:2", inst)
        monkeypatch.setattr(sim, "_DRAW_BUDGET", 3 * self.words_per_episode(inst))
        alone = [[_credits(c).tobytes() for c in _chunks(inst, p, seed, 0, 20)]
                 for p, seed in ((half, 3), (best, 4))]
        pairs = zip(_chunks(inst, half, 3, 0, 20), _chunks(inst, best, 4, 0, 20))
        assert [(_credits(a).tobytes(), _credits(b).tobytes()) for a, b in pairs] == \
            list(zip(*alone))

        class Nesting(StaticPlanPolicy):
            def decide(self, state, t, s, u):
                assert simulate(inst, best, 5, 4) == nested
                decided.append(t)
                return super().decide(state, t, s, u)

        nested = simulate(inst, best, 5, 4)
        decided = []
        assert simulate(inst, Nesting("nesting", half.probs), 20, 3) == simulate(inst, half, 20, 3)
        assert decided  # a subclass is driven through its own decide

    @staticmethod
    def histories(inst, policy, seed, episodes):
        return [(c.start,) + tuple(a.tobytes() for a in c[1:])
                for c in _chunks(inst, policy, seed, 0, episodes)]

    def test_static_plans_match_the_policy_protocol_bit_for_bit(self, monkeypatch):
        # A plain StaticPlanPolicy is compared piece by piece without being
        # called; a delegating wrapper drives the same tensor through
        # new_state, advance, decide and record.
        class Delegating(Policy):
            def __init__(self, inner):
                self.inner = inner

            def new_state(self):
                return self.inner.new_state()

            def advance(self, state, t):
                return self.inner.advance(state, t)

            def decide(self, state, t, s, u):
                return self.inner.decide(state, t, s, u)

            def record(self, state, t, notified):
                return self.inner.record(state, t, notified)

        rng = random.Random(67)
        for variant in ("geometric", "deterministic", "tabulated"):
            for _ in range(2):
                inst = random_instance(rng, max_v=4, max_s=3, max_t=9, variant=variant)
                x_star = select_ex_ante(inst, m=3).solution
                for spec in ("sn", "sdn", "exante", "all"):
                    policy = make_policy(spec, inst, x_star=x_star)
                    assert type(policy) is StaticPlanPolicy
                    budgets = (sim._DRAW_BUDGET, 1, 3 * self.words_per_episode(inst))
                    for budget, piece in [(b, sim._PIECE) for b in budgets] + [(sim._DRAW_BUDGET, 1)]:
                        monkeypatch.setattr(sim, "_DRAW_BUDGET", budget)
                        monkeypatch.setattr(sim, "_PIECE", piece)  # 1: pieces of one period
                        assert self.histories(inst, policy, 9, 23) == \
                            self.histories(inst, Delegating(policy), 9, 23), (variant, spec, budget)

    def test_static_plans_are_not_called(self, monkeypatch):
        inst = Instance(arrival_rates=np.full((6, 2), 0.4),
                        match_probs=np.array([[0.3, 0.6], [0.5, 0.2]]), dist=Geometric(0.3))
        half = StaticPlanPolicy("half", np.full((2, 2, 6), 0.5))
        expected = simulate(inst, half, 30, 2)

        def called(*args):
            raise AssertionError("a plain static plan is not driven through the protocol")

        for method in ("new_state", "advance", "decide", "record"):
            monkeypatch.setattr(StaticPlanPolicy, method, called)
        assert simulate(inst, half, 30, 2) == expected

    def test_other_tensor_shapes_are_rejected_before_any_draw(self, monkeypatch):
        # A plan with more types or periods than the instance, or too few
        # periods, is an error, plain or subclassed, before anything is drawn.
        class Subclass(StaticPlanPolicy):
            pass

        def uniforms(*args):
            raise AssertionError("a mis-shaped plan was drawn for")

        inst = Instance(arrival_rates=np.full((4, 2), 0.4), match_probs=np.full((3, 2), 0.5),
                        dist=Geometric(0.3))
        monkeypatch.setattr(sim, "_uniforms", uniforms)
        for shape in ((3, 3, 4), (3, 2, 9), (3, 2, 3)):
            for cls in (StaticPlanPolicy, Subclass):
                with pytest.raises(ValidationError, match="shape"):
                    simulate(inst, cls("plan", np.full(shape, 0.5)), 50, 1)

    def test_policies_see_common_arrivals(self):
        rng = random.Random(61)
        inst = random_instance(rng, max_v=4, max_s=3, max_t=8)
        arrivals = [np.concatenate([chunk.arrivals for chunk in _chunks(inst, policy, 5, 0, 200)],
                                   axis=1) for policy in self.policies(inst)]
        assert all(np.array_equal(a, arrivals[0]) for a in arrivals)
        assert np.any(arrivals[0] > 0) and np.any(arrivals[0] == 0)

    @pytest.mark.parametrize("dist", [Geometric(0.3), Geometric(0.05), Geometric(1.0),
                                      Deterministic(3), Tabulated((0.1, 0.0, 0.5, 0.4)),
                                      Tabulated((0.5, 0.5, 0.0))], ids=repr)
    def test_vectorized_sampler_matches_the_table(self, dist):
        n, draws = 12, 10**6
        u = np.random.Generator(np.random.Philox(7)).random(draws)
        durations = dist.sample(u)
        assert durations.min() >= 1.0 and np.all(durations == np.floor(durations))
        counts = np.bincount(np.minimum(durations, n + 1).astype(int), minlength=n + 2)
        table = duration_table(dist, n)
        # masses of durations 0..n, then everything beyond n
        expected = np.append(table.pmf, table.sf[n])
        se = np.sqrt(expected * (1.0 - expected) / draws)
        assert np.all(np.abs(counts / draws - expected) <= 4 * se)


class TestActiveProbabilities:
    def test_initially_active_column(self):
        rng = random.Random(23)
        inst = random_instance(rng)
        emp = empirical_active_prob(inst, make_policy("all", inst), 50, seed=2)
        assert np.all(emp[:, 0] == 1.0)

    def test_never_notifying_keeps_everyone_active(self):
        rng = random.Random(29)
        inst = random_instance(rng)
        silent = StaticPlanPolicy("silent", np.zeros((inst.V, inst.S, inst.T)))
        emp = empirical_active_prob(inst, silent, 50, seed=2)
        assert np.all(emp == 1.0)

    def test_activity_reads_the_chunks_without_crediting_them(self, monkeypatch):
        rng = random.Random(41)
        inst = random_instance(rng, max_v=4, max_s=3, max_t=8)
        policy = make_policy("all", inst)
        counts = sum(chunk.active.sum(axis=1).T for chunk in _chunks(inst, policy, 3, 0, 40))

        def refuse(chunk):
            raise AssertionError("empirical_active_prob credited completions")

        monkeypatch.setattr(sim, "_credits", refuse)
        assert empirical_active_prob(inst, policy, 40, seed=3).tolist() == (counts / 40).tolist()

    def test_scaled_down_matches_planned_activity(self):
        rng = random.Random(31)
        inst = random_instance(rng, max_v=3, max_s=3, max_t=6)
        x_star = select_ex_ante(inst, m=3).solution
        policy = make_policy("sdn", inst, x_star=x_star)
        from volnotify.policies import sdn_offline
        beta = sdn_offline(inst, x_star).beta
        n = 20000
        emp = empirical_active_prob(inst, policy, n, seed=77)
        se = np.sqrt(beta * (1.0 - beta) / n)
        assert np.all(np.abs(emp - beta) <= 3 * se + 1e-9)


class TestStaticPlanActivity:
    # What the engine means for a static plan: volunteer v, active at t' with
    # probability a[v, t'], is notified there with probability
    # w[v, t'] = sum_s lambda[t', s] P[v, s, t'] whatever else happened, and
    # then stays out more than e periods with probability sf(e), so
    # a[v, t] = 1 - sum_{t' < t} w[v, t'] a[v, t'] sf(t - t'). Each cell's
    # count of active episodes is binomial. The bound, fixed before the first
    # run: Bonferroni over every cell of the three laws' runs at alpha = 0.001,
    # on exact two-sided binomial tails, so a cell of activity 0 or 1 must
    # match exactly.
    @pytest.mark.parametrize("dist", [Geometric(0.3), Deterministic(3), Tabulated((0.2, 0.0, 0.5, 0.3))],
                             ids=repr)
    def test_empirical_activity_matches_exact_marginal(self, dist):
        from scipy.stats import binom

        rng = random.Random(211)
        V, S, T, n = 3, 2, 10, 20000
        lam = np.array([[rng.random() for _ in range(S)] for _ in range(T)])
        lam *= 0.9 / lam.sum(axis=1, keepdims=True)
        p = np.array([[rng.uniform(0.2, 0.9) for _ in range(S)] for _ in range(V)])
        inst = Instance(arrival_rates=lam, match_probs=p, dist=dist)
        x_star = select_ex_ante(inst, m=4).solution
        sf = duration_table(dist, T).sf
        counts, marginals = [], []
        for seed, spec in enumerate(("sn", "exante")):
            policy = make_policy(spec, inst, x_star=x_star)
            # the engine notifies with a coin below the entry, so entries act clipped to [0, 1]
            w = np.einsum("ts,vst->vt", lam, np.clip(policy.probs, 0.0, 1.0))
            a = np.ones((V, T))
            for t in range(1, T):
                a[:, t] = 1.0 - sum(w[:, tp] * a[:, tp] * sf[t - tp] for tp in range(t))
            counts.append(np.rint(empirical_active_prob(inst, policy, n, seed) * n))
            marginals.append(np.clip(a, 0.0, 1.0))
        k, a = np.array(counts), np.array(marginals)
        tails = np.minimum(1.0, 2.0 * np.minimum(binom.cdf(k, n, a), binom.sf(k - 1, n, a)))
        assert tails.min() >= 0.001 / (3 * tails.size)  # three laws, every cell of each


class TestBeliefFilterExactness:
    def test_filter_matches_empirical_frequency(self):
        # Paired comparison: per episode, the realized active indicator minus
        # the filter's probability given the same notification history has
        # mean zero; check within three standard errors entrywise.
        rng = random.Random(37)
        for _ in range(4):
            inst = random_instance(rng, max_v=3, max_s=3, max_t=6)
            probs = np.full((inst.V, inst.S, inst.T), 0.4)
            policy = StaticPlanPolicy("static", probs)
            n = 4000
            dsum = np.zeros((inst.V, inst.T))
            dsq = np.zeros((inst.V, inst.T))
            for chunk in _chunks(inst, policy, 11, 0, n):
                state = BeliefState.all_active(inst)  # expanded by its first notify
                for t in range(1, inst.T + 1):
                    if t >= 2:
                        state.advance(t)
                    d = chunk.active[t - 1] - state.active
                    dsum[:, t - 1] += d.sum(axis=0)
                    dsq[:, t - 1] += (d * d).sum(axis=0)
                    state.notify(chunk.notified[t - 1], t)
            mean = dsum / n
            var = np.maximum(dsq / n - mean * mean, 0.0)
            se = np.sqrt(var / n)
            assert np.all(np.abs(mean) <= 3 * se + 1e-9)


class TestScaledDownAttributionFloor:
    def test_per_volunteer_attribution_floor(self):
        rng = random.Random(41)
        for _ in range(3):
            inst = random_instance(rng, max_v=3, max_s=3, max_t=6)
            x_star = select_ex_ante(inst, m=3).solution
            policy = make_policy("sdn", inst, x_star=x_star)
            q = inst.dist.mdhr()
            n = 20000
            sums = np.zeros(inst.V)
            sqs = np.zeros(inst.V)
            for chunk in _chunks(inst, policy, 13, 0, n):
                credits = _credits(chunk)
                sums += credits.sum(axis=0)
                sqs += (credits * credits).sum(axis=0)
            for v in range(1, inst.V + 1):
                mean = sums[v - 1] / n
                var = max(sqs[v - 1] / n - mean * mean, 0.0)
                se = math.sqrt(var / n)
                floor = evaluate_fv(inst, x_star, v) / (2.0 - q)
                assert mean + 3 * se >= floor - 1e-9


class TestBruteForce:
    def test_single_period(self):
        inst = Instance(arrival_rates=np.array([[0.7]]), match_probs=np.array([[0.6]]),
                        dist=Deterministic(2))
        assert brute_force_optimal_online(inst) == pytest.approx(0.42, abs=1e-12)

    def test_two_period_instance_saves_for_sure_arrival(self):
        # Arrival of a perfectly-matched task in period 2 is certain; with a
        # 2-period inactivity the optimal policy skips the weak period-1 task.
        eps = 1e-3
        lam = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = np.array([[eps, 1.0]])
        inst = Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))
        assert brute_force_optimal_online(inst) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_variant_matches_closed_form(self):
        eps = 1e-3
        lam = np.zeros((2, 2))
        lam[0, 0] = 1.0
        lam[1, 1] = eps
        p = np.array([[eps, 1.0]])
        inst = Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))
        assert brute_force_optimal_online(inst) == pytest.approx(eps, abs=1e-9)

    def test_unbounded_support_rejected(self):
        with pytest.raises(CapacityError):
            brute_force_optimal_online(make_i4())

    def test_trailing_zero_masses_leave_the_state_space_unchanged(self):
        rng = random.Random(47)
        inst = tiny_deterministic_instance(rng)
        plain = Instance(arrival_rates=inst.arrival_rates, match_probs=inst.match_probs,
                         dist=Tabulated((0.5, 0.5)))
        padded = Instance(arrival_rates=inst.arrival_rates, match_probs=inst.match_probs,
                          dist=Tabulated((0.5, 0.5, 0.0, 0.0, 0.0, 0.0)))
        assert padded.dist.support_max == 2
        # 2^2 joint states either way; counting the zero masses would need 6^2
        assert brute_force_optimal_online(padded, max_states=4) == \
            brute_force_optimal_online(plain, max_states=4)

    def test_state_cap_enforced(self):
        inst = Instance(arrival_rates=np.full((2, 1), 0.5),
                        match_probs=np.full((4, 1), 0.5), dist=Deterministic(100))
        with pytest.raises(CapacityError):
            brute_force_optimal_online(inst)

    def test_sandwich_on_tiny_instances(self):
        rng = random.Random(43)
        for _ in range(2):
            inst = tiny_deterministic_instance(rng)
            x_star = select_ex_ante(inst, m=4).solution
            lp = benchmark_lp(inst).lp_value
            opt = brute_force_optimal_online(inst)
            stats = simulate(inst, make_policy("sn", inst, x_star=x_star), 10000, seed=99)
            assert stats.mean_completed - 3 * stats.std_error <= opt + 1e-9
            assert opt <= lp + 1e-6


class TestNoArrivals:
    # An instance with no arrivals has no arrival slots: the zero-slot
    # branches of benchmark_lp, frank_wolfe_aa and sequential_sq are taken,
    # and no policy ever completes a task.
    @pytest.mark.parametrize("dist", [Geometric(0.25), Deterministic(3), Tabulated((0.5, 0.0, 0.5))], ids=repr)
    def test_every_policy_completes_nothing(self, dist):
        inst = Instance(arrival_rates=np.zeros((4, 2)), match_probs=np.full((3, 2), 0.5), dist=dist)
        ex = select_ex_ante(inst, 5)
        assert (ex.tag, ex.f_value, ex.lp_value) == ("LP", 0.0, 0.0)
        assert not ex.solution.x.any()
        for spec in ("sn", "sdn", "exante", "all", "random:1", "best:1", "upto:0.5", "rolling", "rolling:2"):
            stats = simulate(inst, make_policy(spec, inst, x_star=ex.solution), 50, 3)
            assert stats.mean_completed == 0.0 and stats.attribution == (0.0, 0.0, 0.0), spec
