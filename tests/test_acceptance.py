"""End-to-end acceptance suite for the package's headline guarantees.

Each criterion is one test that prints a PASS line on success; run with

    pytest tests/test_acceptance.py -v -s

Statistical checks use fixed seeds, so the whole suite is deterministic.
"""

import csv
import json
import math
import random
import time

import numpy as np
import pytest

from conftest import closed_form_value, random_instance
from volnotify.bounds import (
    CanonicalInstanceSpec,
    make_instance,
    sn_guarantee,
    verify_dual_certificate,
)
from volnotify.cli import main
from volnotify.core import (
    Deterministic,
    Instance,
    check_feasible,
    evaluate_f,
    evaluate_fv,
)
from volnotify.exante import benchmark_lp, frank_wolfe_aa, select_ex_ante, sequential_sq
from volnotify.policies import make_policy, sdn_offline, sn_offline
from volnotify.sim import brute_force_optimal_online, empirical_active_prob, simulate

PROP_COUNT = 100


def _report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(scope="session")
def prop_set():
    """100 random instances with their benchmark and all ex-ante candidates."""
    rng = random.Random(20250809)
    variants = ("geometric", "deterministic", "tabulated")
    items = []
    start = time.perf_counter()
    for i in range(PROP_COUNT):
        inst = random_instance(rng, variant=variants[i % 3])
        bench = benchmark_lp(inst)
        x_aa = frank_wolfe_aa(inst, m=6)
        x_sq = sequential_sq(inst)
        ex = select_ex_ante(inst, m=6)
        items.append({
            "instance": inst,
            "lp_value": bench.lp_value,
            "x_lp": bench.x_lp,
            "x_aa": x_aa,
            "x_sq": x_sq,
            "ex": ex,
        })
    return items, time.perf_counter() - start


@pytest.fixture(scope="session")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def _run_i4_sims(outdir, suffix):
    """CLI simulation of the three plan policies on the two-period instance."""
    paths = {}
    for policy in ("exante", "sn", "sdn"):
        out = outdir / f"i4_{policy}{suffix}.csv"
        code = main(["simulate", "I4:q=0.1,eps=1e-3", "--policy", policy,
                     "--episodes", "100000", "--seed", "2024", "--m", "5",
                     "--out", str(out)])
        assert code == 0
        paths[policy] = out
    return paths


@pytest.fixture(scope="session")
def i4_artifacts(outdir):
    start = time.perf_counter()
    paths = _run_i4_sims(outdir, "")
    return paths, time.perf_counter() - start


def _write_i2_configs(outdir):
    compare_cfg = outdir / "compare_config.json"
    compare_out = outdir / "compare_i2.csv"
    compare_cfg.write_text(json.dumps({
        "instance": "I2:n=4",
        "policies": ["sn", "sdn", "all", "best:1", "random:1"],
        "episodes": 10000,
        "seed": 707,
        "m": 20,
        "theta": 1.0,
        "out": str(compare_out),
    }))
    perturb_cfg = outdir / "perturb_config.json"
    perturb_cfg.write_text(json.dumps({
        "instance": "I2:n=4",
        "policies": ["sn", "sdn"],
        "episodes": 2000,
        "seed": 707,
        "m": 20,
        "theta": 1.0,
        "out": None,
    }))
    return compare_cfg, compare_out, perturb_cfg


@pytest.fixture(scope="session")
def i2_artifacts(outdir):
    compare_cfg, compare_out, perturb_cfg = _write_i2_configs(outdir)
    assert main(["compare", str(compare_cfg)]) == 0
    perturb_out = outdir / "perturb_i2.csv"
    assert main(["perturb", str(perturb_cfg), "--target", "p", "--width", "0.0",
                 "--replicates", "2", "--out", str(perturb_out)]) == 0
    return {
        "compare_cfg": compare_cfg,
        "compare_csv": compare_out,
        "compare_json": compare_out.with_suffix(".json"),
        "perturb_cfg": perturb_cfg,
        "perturb_csv": perturb_out,
    }


def test_criterion_01_candidate_separation_instances():
    start = time.perf_counter()

    eps = 0.01
    i5 = make_instance(CanonicalInstanceSpec("I5", {"eps": eps}))
    assert evaluate_f(i5, benchmark_lp(i5).x_lp) == pytest.approx(0.75, abs=1e-6)
    assert evaluate_f(i5, frank_wolfe_aa(i5, m=2)) == pytest.approx(0.870, abs=1e-6)
    assert evaluate_f(i5, sequential_sq(i5)) == pytest.approx(0.99, abs=1e-6)
    assert select_ex_ante(i5, m=2).tag == "SQ"

    i6 = make_instance(CanonicalInstanceSpec("I6"))
    assert evaluate_f(i6, benchmark_lp(i6).x_lp) == pytest.approx(1.315, abs=1e-3)
    assert evaluate_f(i6, frank_wolfe_aa(i6, m=5)) == pytest.approx(1.307, abs=1e-3)
    assert evaluate_f(i6, sequential_sq(i6)) == pytest.approx(1.296, abs=1e-3)
    assert select_ex_ante(i6, m=5).tag == "LP"

    assert time.perf_counter() - start < 5.0
    _report(1, "candidate separation on the two small canonical instances")


def test_criterion_02_two_period_closed_forms(i4_artifacts):
    paths, elapsed = i4_artifacts
    q, eps = 0.1, 1e-3
    params = {"q": q, "eps": eps}

    inst = make_instance(CanonicalInstanceSpec("I4", params))
    assert benchmark_lp(inst).lp_value == pytest.approx(
        closed_form_value("I4", "lp", params), abs=1e-6)

    targets = {
        "exante": closed_form_value("I4", "follow_exante", params),  # 0.011
        "sn": closed_form_value("I4", "sn", params),                 # 0.100
        "sdn": closed_form_value("I4", "sdn", params),               # 0.05316
    }
    means = {}
    for policy, out in paths.items():
        with open(out, newline="") as fh:
            row = list(csv.DictReader(fh))[0]
        mean = float(row["mean_completed"])
        se = float(row["std_error"])
        assert abs(mean - targets[policy]) <= 3 * se + 1e-12, policy
        means[policy] = mean
    # the sparsified plan roughly doubles the scaled-down plan here
    assert means["sn"] > 1.7 * means["sdn"]

    assert elapsed < 30.0
    _report(2, "two-period closed forms and simulated means")


def test_criterion_03_ex_ante_guarantee_suite(prop_set):
    items, gen_elapsed = prop_set
    start = time.perf_counter()
    floor_factor = 1.0 - 1.0 / math.e
    variants_seen = set()
    for item in items:
        inst = item["instance"]
        variants_seen.add(type(inst.dist).__name__)
        assert item["ex"].f_value >= floor_factor * item["lp_value"] - 1e-6
        for key in ("x_lp", "x_aa", "x_sq"):
            assert check_feasible(inst, item[key]) == []
        assert check_feasible(inst, item["ex"].solution) == []
        manual_best = max(evaluate_f(inst, item[k]) for k in ("x_lp", "x_aa", "x_sq"))
        assert item["ex"].f_value == pytest.approx(manual_best, abs=1e-12)
    assert variants_seen == {"Geometric", "Deterministic", "Tabulated"}
    assert len(items) == PROP_COUNT
    assert gen_elapsed + (time.perf_counter() - start) < 120.0
    _report(3, "ex-ante guarantee and feasibility on 100 random instances")


def test_criterion_04_value_to_go_floor_and_certificates(prop_set):
    items, _ = prop_set
    start = time.perf_counter()
    for item in items:
        inst = item["instance"]
        x_star = item["ex"].solution
        plan = sn_offline(inst, x_star)
        q = inst.dist.mdhr()
        for v in range(1, inst.V + 1):
            floor = evaluate_fv(inst, x_star, v) / (2.0 - q)
            assert plan.J[v - 1, 0] >= floor - 1e-9
            alpha, ok = verify_dual_certificate(inst, x_star, v)
            assert ok
            assert np.all(alpha >= -1e-9)
    assert time.perf_counter() - start < 60.0
    _report(4, "value-to-go floor and dual certificates on 100 instances")


def test_criterion_05_sparse_policy_empirical_floor(prop_set):
    items, _ = prop_set
    start = time.perf_counter()
    for i, item in enumerate(items[:20]):
        inst = item["instance"]
        policy = make_policy("sn", inst, x_star=item["ex"].solution)
        stats = simulate(inst, policy, 20000, seed=9000 + i)
        floor = sn_guarantee(inst.dist.mdhr()) * item["lp_value"]
        assert stats.mean_completed + 3 * stats.std_error >= floor - 1e-9
    assert time.perf_counter() - start < 120.0
    _report(5, "sparse policy clears its guarantee empirically on 20 instances")


def test_criterion_06_activity_probabilities_match_plan():
    start = time.perf_counter()
    rng = random.Random(606)
    variants = ("geometric", "deterministic", "tabulated")
    for i in range(10):
        inst = random_instance(rng, max_v=4, max_s=3, max_t=8, variant=variants[i % 3])
        x_star = select_ex_ante(inst, m=4).solution
        plan = sdn_offline(inst, x_star)
        q = inst.dist.mdhr()
        assert np.all(plan.beta >= 1.0 / (2.0 - q) - 1e-9)
        policy = make_policy("sdn", inst, x_star=x_star)
        n = 100000
        emp = empirical_active_prob(inst, policy, n, seed=6060 + i)
        se = np.sqrt(plan.beta * (1.0 - plan.beta) / n)
        exact = se == 0.0
        assert np.all(emp[exact] == plan.beta[exact])
        assert np.all(np.abs(emp - plan.beta) <= 3 * se + 1e-12)
    assert time.perf_counter() - start < 120.0
    _report(6, "empirical activity matches the scaled-down plan on 10 instances")


def test_criterion_07_exact_oracle_sandwich():
    start = time.perf_counter()
    rng = random.Random(77)
    for i in range(10):
        lam = np.zeros((4, 2))
        for t in range(4):
            raw = np.array([rng.random(), rng.random()])
            scale = rng.random() / max(raw.sum(), 1e-12)
            lam[t] = raw * min(scale, 1.0 / max(raw.sum(), 1e-12))
        p = np.array([[rng.random(), rng.random()] for _ in range(2)])
        inst = Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(2))

        lp = benchmark_lp(inst).lp_value
        opt = brute_force_optimal_online(inst)
        x_star = select_ex_ante(inst, m=4).solution
        stats = simulate(inst, make_policy("sn", inst, x_star=x_star), 20000, seed=7000 + i)
        assert stats.mean_completed - 3 * stats.std_error <= opt + 1e-9
        assert opt <= lp + 1e-6

    eps = 1e-3
    i1_det = make_instance(CanonicalInstanceSpec("I1", {"q": 0.0, "eps": eps}))
    assert brute_force_optimal_online(i1_det) == pytest.approx(eps, abs=1e-9)

    assert time.perf_counter() - start < 60.0
    _report(7, "exact-oracle sandwich on 10 tiny instances")


def test_criterion_08_bound_curve(outdir):
    out = outdir / "bounds.csv"
    assert main(["bounds", "--grid", "0.05", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 21
    qs = [float(r["q"]) for r in rows]
    kappas = [float(r["kappa"]) for r in rows]
    lowers = [float(r["sn_lower"]) for r in rows]
    assert qs[0] == 0.0 and qs[-1] == 1.0
    assert kappas[0] == 0.334
    assert kappas[-1] == 1.0
    assert all(b >= a - 1e-12 for a, b in zip(kappas, kappas[1:]))
    for low, high, q in zip(lowers, kappas, qs):
        assert high >= low - 1e-9
        assert low == pytest.approx(sn_guarantee(q), abs=1e-9)
    _report(8, "bound curve endpoints, monotonicity, and dominance")


def test_criterion_09_comparison_and_robustness_pipeline(i2_artifacts):
    with open(i2_artifacts["compare_csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    policies = {"sn", "sdn", "all", "best:1", "random:1"}
    assert {r["policy"] for r in rows} == policies
    for r in rows:
        assert set(r) == {"policy", "batch", "episodes", "mean_completed", "ratio"}
        assert int(r["episodes"]) > 0
        assert 0.0 <= float(r["ratio"]) <= 1.0
    assert sum(int(r["episodes"]) for r in rows) == 10000 * len(policies)
    assert sum(1 for r in rows if r["policy"] == "sn") == 25

    summary = json.loads(i2_artifacts["compare_json"].read_text())
    sn = summary["policies"]["sn"]
    all_ = summary["policies"]["all"]
    pooled = math.sqrt(sn["se_ratio"] ** 2 + all_["se_ratio"] ** 2)
    assert sn["mean_ratio"] > all_["mean_ratio"] - 3 * pooled

    with open(i2_artifacts["perturb_csv"], newline="") as fh:
        pert = list(csv.DictReader(fh))
    assert all(r["pct_change"] == "0.00" for r in pert)
    for policy in ("sn", "sdn"):
        reps = [r["replicate"] for r in pert if r["policy"] == policy]
        assert reps == ["1", "2", "mean"]
    _report(9, "comparison and robustness pipelines on the homogeneous instance")


def test_criterion_10_determinism(outdir, i4_artifacts, i2_artifacts):
    paths, _ = i4_artifacts
    rerun = _run_i4_sims(outdir, "_rerun")
    for policy, out in paths.items():
        assert rerun[policy].read_bytes() == out.read_bytes(), policy

    compare_out2 = outdir / "compare_i2_rerun.csv"
    assert main(["compare", str(i2_artifacts["compare_cfg"]),
                 "--out", str(compare_out2)]) == 0
    assert compare_out2.read_bytes() == i2_artifacts["compare_csv"].read_bytes()
    assert compare_out2.with_suffix(".json").read_bytes() == \
        i2_artifacts["compare_json"].read_bytes()

    perturb_out2 = outdir / "perturb_i2_rerun.csv"
    assert main(["perturb", str(i2_artifacts["perturb_cfg"]), "--target", "p",
                 "--width", "0.0", "--replicates", "2", "--out", str(perturb_out2)]) == 0
    assert perturb_out2.read_bytes() == i2_artifacts["perturb_csv"].read_bytes()
    _report(10, "byte-identical artifacts on rerun")
