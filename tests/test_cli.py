import csv
import importlib.util
import math
import json
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

import volnotify
from conftest import package_env, random_instance
from volnotify.bounds import make_instance, parse_canonical_spec
from volnotify.cli import (
    _plan_document,
    ExperimentConfig,
    PerturbationSpec,
    load_instance,
    main,
    perturb_instance,
    run_compare,
    run_robustness,
)
from volnotify.core import (
    Deterministic,
    FractionalSolution,
    Geometric,
    Instance,
    Tabulated,
    ValidationError,
    instance_to_json,
)
from volnotify.exante import solution_to_triples


def write_config(path, **overrides):
    doc = {
        "instance": "I4:q=0.1,eps=1e-3",
        "policies": ["sn", "all"],
        "episodes": 200,
        "seed": 11,
        "m": 5,
        "theta": 1.0,
        "out": None,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


MALFORMED_CONFIGS = [
    "5",
    '["sn"]',
    '{"instance": "I6", "policies": 5, "episodes": 5, "seed": 1}',
    '{"instance": "I6", "policies": ["sn"], "episodes": "five", "seed": 1}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 5, "seed": "one"}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 5, "seed": 1, "m": null}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 5, "seed": 1, "m": 1e400}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 5, "seed": 1, "theta": "high"}',
    '{"instance": 6, "policies": ["sn"], "episodes": 5, "seed": 1}',
    '{"instance": "I6", "policies": [5], "episodes": 5, "seed": 1}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 5, "seed": 1, "out": 5}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 2.7, "seed": 1}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 2, "seed": 1.9}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 2.0, "seed": 1}',
    '{"instance": "I6", "policies": ["sn"], "episodes": "2", "seed": 1}',
    '{"instance": "I6", "policies": ["sn"], "episodes": true, "seed": 1}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 2, "seed": 1, "m": 3.5}',
    '{"instance": "I6", "policies": ["sn"], "episodes": 2, "seed": 1, "m": true}',
    '{"instance": "I6", "policies": ["best:1"], "episodes": 2, "seed": 1, "theta": false}',
]

MALFORMED_INSTANCES = [
    '{"T": "two", "V": 1, "S": 1, "arrivals": [[0.5]], "match": [[0.5]], '
    '"dist": {"type": "deterministic", "d": 2}}',
    '{"T": 1, "V": 1, "S": 1, "arrivals": [[0.5]], "match": [[0.5]], '
    '"dist": {"type": "geometric", "q": "half"}}',
    '{"T": 1, "V": 1, "S": 1, "arrivals": [[0.5]], "match": [[0.5]], '
    '"dist": {"type": "deterministic", "d": "two"}}',
    '{"T": 1, "V": 1, "S": 1, "arrivals": [[0.5]], "match": [[0.5]], '
    '"dist": {"type": "tabulated", "probs": ["x"]}}',
    '{"T": 1, "V": 1, "S": 1, "arrivals": [[NaN]], "match": [[0.5]], '
    '"dist": {"type": "deterministic", "d": 2}}',
    '{"T": 1, "V": 1, "S": 1, "arrivals": [[0.5]], "match": [[NaN]], '
    '"dist": {"type": "deterministic", "d": 2}}',
    '{"T": 1, "V": 1, "S": 1, "arrivals": [[0.5]], "match": [[0.5]], '
    '"dist": {"type": "tabulated", "probs": [NaN, 1.0]}}',
    '{"T": 2.9, "V": 1, "S": 1, "arrivals": [[0.5], [0.5]], "match": [[0.5]], '
    '"dist": {"type": "deterministic", "d": 2.7}}',
    '{"T": 2, "V": 1, "S": 1, "arrivals": [[0.5], [0.5]], "match": [[0.5]], '
    '"dist": {"type": "deterministic", "d": true}}',
]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig(instance="I6", policies=("sn", "best:2"), episodes=100,
                               seed=3, m=7, theta=0.5, out="x.csv")
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert ExperimentConfig.from_json(again.to_json()) == again

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(instance="I6", policies=(), episodes=10, seed=1)
        with pytest.raises(ValidationError):
            ExperimentConfig(instance="I6", policies=("nope",), episodes=10, seed=1)
        with pytest.raises(ValidationError):
            ExperimentConfig(instance="I6", policies=("sn",), episodes=0, seed=1)
        with pytest.raises(ValidationError):
            ExperimentConfig(instance="I6", policies=("sn", "rolling:0"), episodes=10, seed=1)
        for field, value in (("episodes", 2.7), ("episodes", True), ("seed", 1.9),
                             ("seed", "1"), ("m", 3.5), ("m", np.float64(5.0))):
            kwargs = dict(instance="I6", policies=("all",), episodes=2, seed=1)
            kwargs[field] = value
            with pytest.raises(ValidationError):
                ExperimentConfig(**kwargs)
        for theta in (2.0, -0.5, float("nan")):
            with pytest.raises(ValidationError):
                ExperimentConfig(instance="I6", policies=("best:1",), episodes=10, seed=1,
                                 theta=theta)
        with pytest.raises(ValidationError):
            ExperimentConfig.from_json('{"instance": "I6", "policies": ["sn"], '
                                       '"episodes": 5, "seed": 1, "bogus": true}')
        with pytest.raises(ValidationError, match=r"missing fields: \['episodes', 'seed'\]"):
            ExperimentConfig.from_json('{"instance": "I6", "policies": ["sn"]}')
        for text in MALFORMED_CONFIGS:
            with pytest.raises(ValidationError):
                ExperimentConfig.from_json(text)


class TestInstanceLoading:
    def test_canonical(self):
        inst, instance_id = load_instance("i4:q=0.2,eps=0.01")
        assert instance_id == "i4:q=0.2,eps=0.01"
        assert inst.arrival_rates[1, 1] == 0.2

    def test_file(self, tmp_path):
        inst = make_instance(parse_canonical_spec("I6"))
        path = tmp_path / "inst.json"
        path.write_text(instance_to_json(inst))
        loaded, instance_id = load_instance(str(path))
        assert instance_id == "inst"
        assert loaded.match_probs.tolist() == inst.match_probs.tolist()

    def test_unknown(self):
        with pytest.raises(ValidationError):
            load_instance("I9:n=2")


class TestPerturbation:
    def test_zero_width_is_identity(self):
        rng = random.Random(3)
        inst = random_instance(rng)
        spec = PerturbationSpec(target="match_probs", width=0.0, replicates=3, seed=9)
        out = perturb_instance(inst, spec, 0)
        assert out.match_probs.tolist() == inst.match_probs.tolist()
        assert out.arrival_rates.tolist() == inst.arrival_rates.tolist()

    def test_width_bounds_ratios(self):
        rng = random.Random(5)
        inst = random_instance(rng)
        spec = PerturbationSpec(target="match_probs", width=0.1, replicates=2, seed=9)
        out = perturb_instance(inst, spec, 1)
        mask = inst.match_probs > 0
        ratios = out.match_probs[mask] / inst.match_probs[mask]
        assert np.all((ratios >= 0.9 - 1e-12) & (ratios <= 1.1 + 1e-12))
        assert np.all(out.match_probs <= 1.0)

    def test_deterministic_per_replicate(self):
        rng = random.Random(7)
        inst = random_instance(rng)
        spec = PerturbationSpec(target="arrival_rates", width=0.05, replicates=2, seed=4)
        a = perturb_instance(inst, spec, 1)
        b = perturb_instance(inst, spec, 1)
        assert a.arrival_rates.tolist() == b.arrival_rates.tolist()
        c = perturb_instance(inst, spec, 0)
        assert c.arrival_rates.tolist() != a.arrival_rates.tolist()

    def test_row_sum_repair_warns(self):
        import warnings

        inst = make_instance(parse_canonical_spec("I2:n=2"))  # first row sums to 1
        spec = PerturbationSpec(target="arrival_rates", width=0.2, replicates=20, seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outs = [perturb_instance(inst, spec, r) for r in range(20)]
        assert any("rescaling" in str(c.message) for c in caught)
        for out in outs:
            assert np.all(out.arrival_rates.sum(axis=1) <= 1.0 + 1e-9)

    def test_draws_scale_entries_in_row_major_order(self):
        rng = random.Random(13)
        for _ in range(60):
            inst = random_instance(rng, max_v=6, max_s=4, max_t=12)
            target = rng.choice(["match_probs", "arrival_rates"])
            spec = PerturbationSpec(target=target, width=rng.choice([0.0, 0.05, rng.random()]),
                                    replicates=3, seed=rng.randrange(2**64))
            replicate = rng.randrange(3)
            # the entries scaled one at a time, rows then columns
            code = 1 if target == "match_probs" else 2
            draws = random.Random((((spec.seed << 8) | code) << 64) | replicate)
            expected = np.array(getattr(inst, target), copy=True)
            w = spec.width
            for i in range(expected.shape[0]):
                for j in range(expected.shape[1]):
                    expected[i, j] *= 1.0 - w + 2.0 * w * draws.random()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out = perturb_instance(inst, spec, replicate)
            if target == "match_probs":
                expected = np.clip(expected, 0.0, 1.0)
                assert out.match_probs.tobytes() == expected.tobytes()
            else:
                sums = expected.sum(axis=1)
                expected[sums > 1.0] /= sums[sums > 1.0, None]
                assert out.arrival_rates.tobytes() == expected.tobytes()

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            PerturbationSpec(target="durations", width=0.1, replicates=1, seed=1)
        with pytest.raises(ValidationError):
            PerturbationSpec(target="match_probs", width=1.0, replicates=1, seed=1)


class TestCompare:
    def test_schema_and_summary(self, tmp_path):
        cfg = ExperimentConfig(instance="I4:q=0.1,eps=1e-3", policies=("sn", "all"),
                               episodes=100, seed=2, m=3)
        csv_text, summary = run_compare(cfg)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "policy,batch,episodes,mean_completed,ratio"
        # 100 episodes -> 25 batches of 4 for each of the two policies
        assert len(lines) == 1 + 2 * 25
        assert summary["lp_value"] == pytest.approx(0.101, abs=1e-6)
        assert set(summary["policies"]) == {"sn", "all"}

    def test_byte_identical_rerun(self, tmp_path):
        cfg = ExperimentConfig(instance="I5:eps=0.01", policies=("sdn", "best:1"),
                               episodes=120, seed=5, m=2)
        first = run_compare(cfg)
        second = run_compare(cfg)
        assert first[0] == second[0]
        assert json.dumps(first[1], sort_keys=True) == json.dumps(second[1], sort_keys=True)

    def test_two_period_ratios_match_closed_forms(self):
        # sn saves the volunteer (ratio ~ q/(q+eps)), sdn scales down
        # (ratio ~ 1/(2-q)); both recovered from the batch summary.
        q, eps = 0.1, 1e-3
        cfg = ExperimentConfig(instance="I4:q=0.1,eps=1e-3", policies=("sn", "sdn"),
                               episodes=20000, seed=31, m=3)
        _, summary = run_compare(cfg)
        lp = summary["lp_value"]
        targets = {"sn": (q / (q + eps)), "sdn": 1.0 / (2.0 - q)}
        for name, target in targets.items():
            entry = summary["policies"][name]
            assert abs(entry["mean_ratio"] - target) <= 3 * entry["se_ratio"] + 1e-12
        assert abs(targets["sn"] - 0.990) < 1e-3
        assert abs(targets["sdn"] - 0.526) < 1e-3
        assert lp == pytest.approx(0.101, abs=1e-6)

    def test_zero_benchmark_flags_ratio_undefined(self, tmp_path):
        inst_path = tmp_path / "dead.json"
        inst_path.write_text(json.dumps({
            "T": 2, "V": 1, "S": 1,
            "arrivals": [[0.5], [0.5]],
            "match": [[0.0]],
            "dist": {"type": "deterministic", "d": 2},
        }))
        cfg = ExperimentConfig(instance=str(inst_path), policies=("all",),
                               episodes=50, seed=1)
        csv_text, summary = run_compare(cfg)
        assert summary["lp_value"] == 0.0
        assert summary["policies"]["all"]["mean_ratio"] is None
        for line in csv_text.strip().split("\n")[1:]:
            assert line.endswith(",")  # empty ratio field


class TestRobustness:
    def test_zero_width_reports_zero_change(self):
        cfg = ExperimentConfig(instance="I4:q=0.1,eps=1e-3", policies=("sn", "sdn"),
                               episodes=300, seed=8, m=3)
        spec = PerturbationSpec(target="match_probs", width=0.0, replicates=2, seed=8)
        csv_text, rows = run_robustness(cfg, spec)
        assert all(r["pct_change"] == "0.00" for r in rows)
        # schema: R rows per policy plus one mean row
        per_policy = [r for r in rows if r["policy"] == "sn"]
        assert [r["replicate"] for r in per_policy] == [1, 2, "mean"]

    @pytest.mark.filterwarnings("ignore::UserWarning")  # arrival row rescale is expected here
    def test_header(self):
        cfg = ExperimentConfig(instance="I4:q=0.1,eps=1e-3", policies=("sn",),
                               episodes=50, seed=8, m=3)
        spec = PerturbationSpec(target="arrival_rates", width=0.05, replicates=1, seed=8)
        csv_text, _ = run_robustness(cfg, spec)
        assert csv_text.startswith("policy,target,replicate,baseline_mean,perturbed_mean,pct_change\n")
        assert ",lambda," in csv_text

    def test_synthetic_instance_pipeline(self, tmp_path):
        # perturbed plans on a mid-size synthetic instance still produce a
        # full report; magnitudes are instance-specific and not asserted
        rng = random.Random(71)
        lam = np.zeros((20, 4))
        for t in range(20):
            raw = np.array([rng.random() for _ in range(4)])
            lam[t] = raw * (rng.random() / raw.sum())
        p = np.array([[rng.random() for _ in range(4)] for _ in range(5)])
        inst_path = tmp_path / "synth.json"
        from volnotify.core import Instance, Deterministic
        inst = Instance(arrival_rates=lam, match_probs=p, dist=Deterministic(3))
        inst_path.write_text(instance_to_json(inst))

        cfg = ExperimentConfig(instance=str(inst_path), policies=("sn",),
                               episodes=1500, seed=13, m=4)
        spec = PerturbationSpec(target="match_probs", width=0.1, replicates=2, seed=13)
        _, rows = run_robustness(cfg, spec)
        assert [r["replicate"] for r in rows] == [1, 2, "mean"]
        for r in rows:
            assert math.isfinite(float(r["pct_change"]))
            assert r["baseline_mean"] > 0


class TestPlanDocuments:
    @staticmethod
    def documents(x):
        triples = solution_to_triples(FractionalSolution(x))
        yield {"instance": "I2:n=4", "lp_value": 1.25, "solution": triples}
        yield {"instance": "caf\u00e9 \"x\"", "tag": "AA", "f_value": 0.5, "solution": triples}
        # nested values and a look-alike of the spliced line keep json's own layout
        yield {"meta": {"solution": [], "sizes": [1, [2, 3]]}, "note": '\n  "solution": []',
               "aaa": [], "solution": triples, "zzz": {"solution": triples[:2]}}

    def test_layout_is_json_dumps(self):
        rng = np.random.default_rng(17)
        specials = [1e-05, 1e16, 5e-324, 1.0, 0.1, 2.5e-7, 123456789012.5, -3.0]
        tensors = [np.zeros((2, 3, 4))]
        for _ in range(40):
            shape = tuple(rng.integers(1, 6, size=3))
            x = np.where(rng.random(shape) < 0.3, rng.random(shape), 0.0)
            picks = rng.random(shape) < 0.1
            x[picks] = rng.choice(specials, size=int(picks.sum()))
            tensors.append(x)
        tensors.append(np.array([[[np.nan, np.inf, -np.inf, 0.5]]]))
        for x in tensors:
            for doc in self.documents(x):
                assert _plan_document(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert '"solution": []' in _plan_document(next(self.documents(tensors[0])))


class TestMain:
    def test_bench_command(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", "I4:q=0.1,eps=1e-3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lp_value"] == pytest.approx(0.101, abs=1e-6)

    @pytest.mark.parametrize("dist", [Geometric(0.25), Deterministic(3), Tabulated((0.5, 0.0, 0.5))], ids=repr)
    def test_bench_of_exported_instance_without_arrivals(self, tmp_path, dist):
        path, out = tmp_path / "empty.json", tmp_path / "bench.json"
        path.write_text(instance_to_json(Instance(arrival_rates=np.zeros((4, 2)),
                                                  match_probs=np.full((3, 2), 0.5), dist=dist)))
        assert main(["bench", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lp_value"] == 0 and doc["solution"] == []

    def test_exante_command(self, tmp_path):
        out = tmp_path / "exante.json"
        assert main(["exante", "I5:eps=0.01", "--m", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["tag"] == "SQ"
        assert doc["f_value"] == pytest.approx(0.99, abs=1e-9)
        assert {"v": 2, "s": 2, "t": 2, "value": 1.0} in doc["solution"]

    def test_simulate_command_schema(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(["simulate", "I4:q=0.1,eps=1e-3", "--policy", "sdn",
                     "--episodes", "500", "--seed", "4", "--m", "3", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["policy", "instance_id", "episodes", "seed",
                           "mean_completed", "std_error", "lp_value", "ratio"]
        assert rows[1][0] == "sdn"
        assert int(rows[1][2]) == 500

    @pytest.mark.parametrize("probs", [[0.5, 0.5, 0.0], [0.5, 0.4999999995, 0.0]])
    def test_best_one_notifies_every_other_period(self, tmp_path, probs):
        # One volunteer who always responds, a task every period and an
        # inactivity of 1 or 2 periods: at theta = 1 best:1 notifies whenever
        # the belief is back at 1, every other period, so 15 completions in
        # 30 periods. The second law's masses end in a zero and sum to just
        # under 1; its residual 5e-10 returns at duration 3, and a filter that
        # kept it read 2.
        path, out = tmp_path / "instance.json", tmp_path / "sim.csv"
        path.write_text(json.dumps({"T": 30, "V": 1, "S": 1, "arrivals": [[1.0]] * 30, "match": [[1.0]],
                                    "dist": {"type": "tabulated", "probs": probs}}))
        assert main(["simulate", str(path), "--policy", "best:1", "--episodes", "2000",
                     "--seed", "1", "--m", "5", "--out", str(out)]) == 0
        assert float(read_csv(out)[1][4]) == 15.0

    def test_bounds_command(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["bounds", "--grid", "0.25", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["q", "sn_lower", "kappa"]
        assert [r[0] for r in rows[1:]] == ["0", "0.25", "0.5", "0.75", "1"]

    def test_compare_and_perturb_commands(self, tmp_path):
        out = tmp_path / "cmp.csv"
        cfg_path = write_config(tmp_path / "config.json", episodes=100,
                                out=str(out), policies=["sn", "random:1"])
        assert main(["compare", str(cfg_path)]) == 0
        assert out.exists() and (tmp_path / "cmp.json").exists()
        rows = read_csv(out)
        assert rows[0] == ["policy", "batch", "episodes", "mean_completed", "ratio"]

        pert_out = tmp_path / "pert.csv"
        code = main(["perturb", str(cfg_path), "--target", "p", "--width", "0.0",
                     "--replicates", "2", "--out", str(pert_out)])
        assert code == 0
        rows = read_csv(pert_out)
        assert all(r[-1] == "0.00" for r in rows[1:])

    def test_perturb_leaves_compare_csv_alone(self, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        cfg_path = write_config(tmp_path / "config.json", episodes=100, out=str(out))
        assert main(["compare", str(cfg_path)]) == 0
        compared = out.read_bytes()
        capsys.readouterr()
        assert main(["perturb", str(cfg_path), "--target", "p", "--width", "0.1",
                     "--replicates", "1"]) == 0
        assert out.read_bytes() == compared
        assert capsys.readouterr().out.startswith("policy,target,replicate,baseline_mean,")

    def test_export_round_trip(self, tmp_path):
        out = tmp_path / "i6.json"
        assert main(["export", "I6", "--out", str(out)]) == 0
        loaded, _ = load_instance(str(out))
        assert loaded.match_probs[3, 1] == 11.0 / 18.0

    def test_validation_exit_code(self, tmp_path, capsys):
        for policy in ("prioritize", "random:-1", "best:-1", "upto:2", "rolling:0"):
            assert main(["simulate", "I4:q=0.1,eps=1e-3", "--policy", policy,
                         "--episodes", "10", "--seed", "1"]) == 1
        for theta in ("2", "-0.1", "nan"):
            assert main(["simulate", "I4:q=0.2,eps=1e-3", "--policy", "best:1",
                         "--episodes", "10", "--seed", "1", "--theta", theta]) == 1
        assert main(["bench", "I9"]) == 1
        assert "error:" in capsys.readouterr().err
        for inst in ("I1:q=0.5,eps=nan", "I4:q=0.2,eps=nan"):
            assert main(["bench", inst]) == 1
            assert "error:" in capsys.readouterr().err
        assert main(["simulate", "I6", "--policy", "sn", "--episodes", "10", "--seed", "-1",
                     "--m", "3"]) == 1
        assert "error:" in capsys.readouterr().err
        for i, text in enumerate(MALFORMED_CONFIGS):
            cfg_path = tmp_path / f"config{i}.json"
            cfg_path.write_text(text)
            assert main(["compare", str(cfg_path), "--out", str(tmp_path / "c.csv")]) == 1
            assert main(["perturb", str(cfg_path), "--target", "p", "--width", "0.1",
                         "--replicates", "1", "--out", str(tmp_path / "p.csv")]) == 1
            assert "error:" in capsys.readouterr().err
        for i, text in enumerate(MALFORMED_INSTANCES):
            inst_path = tmp_path / f"instance{i}.json"
            inst_path.write_text(text)
            assert main(["bench", str(inst_path)]) == 1
            assert "error:" in capsys.readouterr().err

    def test_one_benchmark_solve_per_command(self, tmp_path, monkeypatch):
        import volnotify.exante as exante

        calls = []

        def counted(lp, match_probs):
            calls.append(match_probs)
            return real(lp, match_probs)

        # Each benchmark solve, benchmark_lp's or select_ex_ante's LP candidate,
        # builds the model once.
        real = exante._Benchmark.model
        monkeypatch.setattr(exante._Benchmark, "model", counted)
        sim = ["simulate", "I4:q=0.2,eps=1e-3", "--episodes", "20", "--seed", "1", "--m", "3"]
        out = ["--out", str(tmp_path / "s.csv")]
        # a bad spec or theta fails before anything is solved
        for policy, theta, code, solves in (("sn", "1", 0, 1), ("best:1", "1", 0, 1),
                                            ("bogus", "1", 1, 0), ("sn", "2", 1, 0)):
            calls.clear()
            assert main(sim + ["--policy", policy, "--theta", theta] + out) == code
            assert len(calls) == solves
        for policies in (["sn", "best:1"], ["best:1"]):
            calls.clear()
            cfg_path = write_config(tmp_path / "config.json", episodes=20, policies=policies,
                                    out=str(tmp_path / "c.csv"))
            assert main(["compare", str(cfg_path)]) == 0
            assert len(calls) == 1

    def test_module_entry_points(self):
        outputs = []
        for module in (["-W", "error", "-m", "volnotify.cli"], ["-m", "volnotify"]):
            proc = subprocess.run([sys.executable, *module, "bounds", "--grid", "0.5"],
                                  capture_output=True, text=True, env=package_env(), timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[0] == "q,sn_lower,kappa"

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        # The parser is built once per process; a failed call must leave
        # nothing behind that changes a later call's exit code or bytes.
        calls = (
            ["simulate", "I4:q=0.2,eps=1e-3", "--policy", "bogus", "--episodes", "10", "--seed", "1"],
            ["bench", "I4:q=0.1,eps=1e-3"],
            ["exante", "I5:eps=0.01", "--m", "2"],
            ["simulate", "I4:q=0.1,eps=1e-3", "--policy", "best:1", "--episodes", "50", "--seed", "3"],
        )
        codes = []
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-m", "volnotify", *argv], capture_output=True,
                                   env=package_env(), timeout=120)
            code = main(list(argv))
            out, err = capsys.readouterr()
            assert (code, out.encode(), err.encode()) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
        assert codes == [1, 0, 0, 0]

    def test_missing_out_for_compare(self, tmp_path):
        cfg_path = write_config(tmp_path / "config.json", out=None)
        assert main(["compare", str(cfg_path)]) == 1

    def test_compare_refuses_a_summary_over_its_csv_or_config(self, tmp_path, monkeypatch):
        # The summary goes to the CSV's stem + ".json": an out ending in .json
        # would be the summary itself, and a config named like the CSV
        # (README's example saved as compare.json) would be the summary.
        monkeypatch.chdir(tmp_path)
        same_csv = write_config(tmp_path / "config.json", out="r.json")
        over_config = write_config(tmp_path / "compare.json", out="compare.csv")
        for cfg_path, argv in ((same_csv, []), (over_config, []),
                               (same_csv, ["--out", str(tmp_path / "config.csv")])):
            before = cfg_path.read_bytes()
            assert main(["compare", str(cfg_path), *argv]) == 1
            assert cfg_path.read_bytes() == before
            assert sorted(p.name for p in tmp_path.iterdir()) == ["compare.json", "config.json"]

    def test_unknown_canonical_parameter_exits_1(self, tmp_path, capsys):
        for spec in ("I2:m=10", "I3:n=3,q=0.9", "I6:n=2"):
            assert main(["bench", spec, "--out", str(tmp_path / "b.json")]) == 1
            assert "allowed:" in capsys.readouterr().err
        assert not (tmp_path / "b.json").exists()

    def test_numeric_fields_use_10_significant_digits(self, tmp_path):
        out = tmp_path / "sim.csv"
        main(["simulate", "I4:q=0.1,eps=1e-3", "--policy", "all",
              "--episodes", "333", "--seed", "6", "--m", "3", "--out", str(out)])
        mean_field = read_csv(out)[1][4]
        assert len(mean_field.replace(".", "").replace("-", "").lstrip("0")) <= 10


class TestTracedNames:
    def test_every_name_the_benchmark_traces_stays_bound(self):
        # bench/spans.py wraps module attributes by name and install reads
        # each one, so a deleted or renamed entry point fails here and not
        # only in a traced benchmark round.
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")
        spec = importlib.util.spec_from_file_location("bench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        instrumentation = spans.Instrumentation(vars(volnotify))
        try:
            instrumentation.install(spans.Tracer())
            wrapped = {f"{module.__name__}.{attr}" for module, attr, _ in instrumentation._saved}
        finally:
            instrumentation.uninstall()
        assert {"volnotify.exante.linprog", "volnotify.exante.solve_lp"} <= wrapped
