"""Command-line surface: benchmarking, ex-ante solving, simulation, comparisons, bounds.

Commands
    bench <instance>                               benchmark value + optimizer (JSON)
    exante <instance> [--m N]                      selected ex-ante solution (JSON)
    simulate <instance> --policy P --episodes N --seed S   one CSV row of statistics
    compare <config>                               per-policy batch CSV + JSON summary
    bounds [--grid STEP]                           hazard-rate bound curve (CSV)
    perturb <config> --target p|lambda --width W --replicates R   robustness CSV
    export <instance>                              the instance as JSON

Instances are JSON files or canonical specs like "I4:q=0.1,eps=1e-3". A run
command (simulate, compare, perturb) checks its whole run, every count, seed,
policy spec and theta, before it solves anything. Exit codes: 0 success, 1
validation error, 2 solver or capacity error. Tabular output is CSV with a
header row and 10-significant-digit decimals; summaries are JSON. Outputs
contain nothing run-dependent, so identical inputs produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import random
import sys
import warnings
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .bounds import PARAMS, kappa_grid, make_instance, parse_canonical_spec
from .core import (
    Instance,
    ValidationError,
    instance_from_json,
    instance_to_json,
    json_int,
    json_real,
)
from .exante import DEFAULT_STEP_COUNT, LpError, benchmark_lp, select_ex_ante, solution_to_triples
from .policies import PLAN_POLICIES, make_policy, parse_policy_spec
from .sim import CapacityError, simulate, simulate_batched

__all__ = [
    "ExperimentConfig",
    "PerturbationSpec",
    "load_instance",
    "perturb_instance",
    "run_compare",
    "run_robustness",
    "main",
]

COMPARE_COLUMNS = ["policy", "batch", "episodes", "mean_completed", "ratio"]
SIMULATE_COLUMNS = ["policy", "instance_id", "episodes", "seed",
                    "mean_completed", "std_error", "lp_value", "ratio"]
ROBUSTNESS_COLUMNS = ["policy", "target", "replicate",
                      "baseline_mean", "perturbed_mean", "pct_change"]
BOUNDS_COLUMNS = ["q", "sn_lower", "kappa"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


# One triple of solution_to_triples as json.dumps(doc, indent=2, sort_keys=True)
# lays it out one level below the document.
_TRIPLE = '    {\n      "s": %d,\n      "t": %d,\n      "v": %d,\n      "value": %s\n    }'


def _plan_document(doc: dict) -> str:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n" for a doc whose "solution" holds triples.

    CPython's json writes with its C encoder only when indent is None, so
    json lays out the document around an empty "solution" and the triples,
    tens of thousands on a large instance, are formatted here in its layout,
    a non-finite value in its spelling. Only a top-level key starts a line
    with two spaces and a quote, so the splice cannot land in another value.
    """
    text = json.dumps({**doc, "solution": []}, indent=2, sort_keys=True) + "\n"
    if not doc["solution"]:
        return text
    triples = ",\n".join([
        _TRIPLE % (d["s"], d["t"], d["v"],
                   repr(d["value"]) if math.isfinite(d["value"]) else json.dumps(d["value"]))
        for d in doc["solution"]])
    return text.replace('\n  "solution": []', '\n  "solution": [\n' + triples + "\n  ]", 1)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of a simulate, compare or perturb run, checked whole; round-trips through JSON unchanged."""

    instance: str
    policies: tuple
    episodes: int
    seed: int
    m: int = DEFAULT_STEP_COUNT
    theta: float = 1.0
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        if not all(isinstance(v, str) for v in (self.instance, *self.policies)):
            raise ValidationError("config instance and policies must be strings")
        if self.out is not None and not isinstance(self.out, str):
            raise ValidationError(f"config out must be a path string, got {self.out!r}")
        if not self.policies:
            raise ValidationError("config needs at least one policy")
        for text in self.policies:
            parse_policy_spec(text)
        for name, least, most in (("episodes", 1, None), ("seed", 0, 2**64 - 1), ("m", 1, None)):
            object.__setattr__(self, name, json_int(getattr(self, name), name, least, most))
        object.__setattr__(self, "theta", json_real(self.theta, "theta", 0, 1))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid config JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ValidationError("config JSON must be an object")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(doc) - set(defaults)
        if unknown:
            raise ValidationError(f"unknown config fields: {sorted(unknown)}")
        missing = [name for name, default in defaults.items() if default is MISSING and name not in doc]
        if missing:
            raise ValidationError(f"config missing fields: {missing}")
        values = {**defaults, **doc}
        if not isinstance(values["policies"], list):
            raise ValidationError(f"config policies must be a JSON list of policy specs, "
                                  f"got {values['policies']!r}")
        return cls(**values)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass(frozen=True)
class PerturbationSpec:
    """Multiplicative uniform noise on one model primitive.

    Each targeted entry is scaled by an independent draw from
    [1 - width, 1 + width]; replicates index independent perturbations.
    """

    target: str  # "match_probs" or "arrival_rates"
    width: float
    replicates: int
    seed: int

    def __post_init__(self):
        if self.target not in ("match_probs", "arrival_rates"):
            raise ValidationError(f"unknown perturbation target {self.target!r}")
        object.__setattr__(self, "width", json_real(self.width, "perturbation width"))
        if not 0.0 <= self.width < 1.0:
            raise ValidationError(f"perturbation width must lie in [0, 1), got {self.width}")
        object.__setattr__(self, "replicates", json_int(self.replicates, "replicates", 1))
        object.__setattr__(self, "seed", json_int(self.seed, "seed", 0, 2**64 - 1))


def load_instance(source: str) -> tuple[Instance, str]:
    """Load an instance from a JSON file path or a canonical spec string."""
    if os.path.isfile(source):
        with open(source, "r", encoding="utf-8") as fh:
            inst = instance_from_json(fh.read())
        stem = os.path.splitext(os.path.basename(source))[0]
        return inst, stem
    if source.strip().partition(":")[0].upper() not in PARAMS:
        raise ValidationError(f"no instance file {source!r}, and not a canonical instance "
                              f"({', '.join(PARAMS)})")
    return make_instance(parse_canonical_spec(source)), source.strip()


def perturb_instance(instance: Instance, spec: PerturbationSpec, replicate: int) -> Instance:
    """Perturbed copy of one primitive; deterministic in (seed, target, replicate).

    Match probabilities are clamped back into [0, 1]. An arrival row pushed
    above total mass 1 is rescaled to sum exactly 1, with a warning, since
    such rows no longer describe a single-arrival period.
    """
    replicate = json_int(replicate, "replicate", 0, spec.replicates - 1)
    code = 1 if spec.target == "match_probs" else 2
    rng = random.Random((((spec.seed << 8) | code) << 64) | replicate)
    lam = np.array(instance.arrival_rates, copy=True)
    p = np.array(instance.match_probs, copy=True)
    target = p if spec.target == "match_probs" else lam
    w = spec.width
    draws = np.array([rng.random() for _ in range(target.size)]).reshape(target.shape)  # row-major
    target *= 1.0 - w + 2.0 * w * draws
    if spec.target == "match_probs":
        np.clip(p, 0.0, 1.0, out=p)
    else:
        sums = lam.sum(axis=1)
        for t in np.nonzero(sums > 1.0)[0]:
            warnings.warn(
                f"perturbed arrival row {t + 1} sums to {sums[t]:.6g}; rescaling to 1")
            lam[t] /= sums[t]
    return Instance(arrival_rates=lam, match_probs=p, dist=instance.dist)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _build_policies(instance: Instance, config: ExperimentConfig):
    """config's policies on instance and the ex-ante selection they share (None without a plan kind)."""
    plans = any(parse_policy_spec(text)[0] in PLAN_POLICIES for text in config.policies)
    ex = select_ex_ante(instance, config.m) if plans else None
    return [make_policy(text, instance, ex.solution if ex else None, config.theta)
            for text in config.policies], ex


def run_compare(config: ExperimentConfig) -> tuple[str, dict]:
    """Simulate every configured policy against the shared benchmark value.

    Episodes are partitioned into up to 25 batches to expose the spread of
    the per-policy ratios. Returns the CSV text (one row per policy and
    batch) and a JSON-ready summary with per-policy mean ratios.
    """
    instance, instance_id = load_instance(config.instance)
    policies, ex = _build_policies(instance, config)
    lp_value = ex.lp_value if ex else benchmark_lp(instance).lp_value
    rows = []
    summary_policies = {}
    for policy in policies:
        stats, batches = simulate_batched(
            instance, policy, config.episodes, config.seed, nbatches=25, lp_value=lp_value)
        rows += [dict(b, policy=policy.name) for b in batches]
        summary_policies[policy.name] = {
            "mean_completed": stats.mean_completed,
            "std_error": stats.std_error,
            "mean_ratio": stats.ratio,
            "se_ratio": stats.std_error / lp_value if lp_value > 0 else None,
        }
    summary = {
        "instance": instance_id,
        "lp_value": lp_value,
        "episodes": config.episodes,
        "seed": config.seed,
        "policies": summary_policies,
    }
    return _csv_text(COMPARE_COLUMNS, rows), summary


def run_robustness(config: ExperimentConfig, spec: PerturbationSpec) -> tuple[str, list]:
    """Measure how plans built from misestimated primitives fare in the true world.

    For every policy and replicate, the offline plan is computed on the
    perturbed instance and then simulated on the true instance with the
    baseline's seed; the report lists the percent change in mean completions
    per replicate plus a mean row per policy.
    """
    instance, _ = load_instance(config.instance)
    baseline = {}
    for policy in _build_policies(instance, config)[0]:
        stats = simulate(instance, policy, config.episodes, config.seed)
        baseline[policy.name] = stats.mean_completed

    perturbed_means: dict[str, list[float]] = {name: [] for name in baseline}
    for replicate in range(spec.replicates):
        shifted = perturb_instance(instance, spec, replicate)
        for policy in _build_policies(shifted, config)[0]:
            stats = simulate(instance, policy, config.episodes, config.seed)
            perturbed_means[policy.name].append(stats.mean_completed)

    target_label = "p" if spec.target == "match_probs" else "lambda"
    rows = []
    for name, base in baseline.items():
        means = perturbed_means[name]
        pcts = [100.0 * (mean - base) / base if base > 0 else 0.0 for mean in means]
        reports = [*zip(range(1, len(means) + 1), means, pcts),
                   ("mean", sum(means) / len(means), sum(pcts) / len(pcts))]
        rows += [dict(zip(ROBUSTNESS_COLUMNS, (name, target_label, replicate, base, mean, f"{pct:.2f}")))
                 for replicate, mean, pct in reports]
    return _csv_text(ROBUSTNESS_COLUMNS, rows), rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_bench(args) -> None:
    instance, instance_id = load_instance(args.instance)
    result = benchmark_lp(instance)
    doc = {
        "instance": instance_id,
        "lp_value": float(f"{result.lp_value:.12g}"),
        "solution": solution_to_triples(result.x_lp),
    }
    _write(args.out, _plan_document(doc))


def _cmd_exante(args) -> None:
    instance, instance_id = load_instance(args.instance)
    result = select_ex_ante(instance, args.m)
    doc = {
        "instance": instance_id,
        "tag": result.tag,
        "f_value": float(f"{result.f_value:.12g}"),
        "solution": solution_to_triples(result.solution),
    }
    _write(args.out, _plan_document(doc))


def _cmd_simulate(args) -> None:
    config = ExperimentConfig(args.instance, (args.policy,), args.episodes, args.seed, args.m, args.theta)
    instance, instance_id = load_instance(config.instance)
    (policy,), ex = _build_policies(instance, config)
    lp_value = ex.lp_value if ex else benchmark_lp(instance).lp_value
    stats = simulate(instance, policy, config.episodes, config.seed, lp_value=lp_value)
    row = {
        "policy": policy.name,
        "instance_id": instance_id,
        "episodes": stats.episodes,
        "seed": stats.seed,
        "mean_completed": stats.mean_completed,
        "std_error": stats.std_error,
        "lp_value": lp_value,
        "ratio": stats.ratio,
    }
    _write(args.out, _csv_text(SIMULATE_COLUMNS, [row]))


def _cmd_compare(args) -> None:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(fh.read())
    out = args.out or config.out
    if out is None:
        raise ValidationError("compare needs an output path (config 'out' or --out)")
    summary_path = os.path.splitext(out)[0] + ".json"
    if os.path.realpath(summary_path) in (os.path.realpath(out), os.path.realpath(args.config)):
        raise ValidationError(f"the summary {summary_path!r} would overwrite the CSV or the config")
    csv_text, summary = run_compare(config)
    _write(out, csv_text)
    _write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")


def _cmd_bounds(args) -> None:
    rows = kappa_grid(args.grid)
    _write(args.out, _csv_text(BOUNDS_COLUMNS, rows))


def _cmd_perturb(args) -> None:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = ExperimentConfig.from_json(fh.read())
    target = "match_probs" if args.target == "p" else "arrival_rates"
    spec = PerturbationSpec(
        target=target,
        width=args.width,
        replicates=args.replicates,
        seed=args.pseed if args.pseed is not None else config.seed,
    )
    csv_text, _ = run_robustness(config, spec)
    _write(args.out, csv_text)  # never config.out: that is compare's CSV


def _cmd_export(args) -> None:
    instance, _ = load_instance(args.instance)
    _write(args.out, instance_to_json(instance, indent=2) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built once per process; main finds each command's _cmd_ function by name."""
    parser = _Parser(prog="volnotify",
                     description="Volunteer notification policies and simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("bench", help="solve the benchmark program")
    p.add_argument("instance")
    add_out(p)

    p = sub.add_parser("exante", help="compute the selected ex-ante solution")
    p.add_argument("instance")
    p.add_argument("--m", type=int, default=DEFAULT_STEP_COUNT, help="conditional-gradient step count")
    add_out(p)

    p = sub.add_parser("simulate", help="simulate one policy")
    p.add_argument("instance")
    p.add_argument("--policy", required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, default=DEFAULT_STEP_COUNT)
    p.add_argument("--theta", type=float, default=1.0)
    add_out(p)

    p = sub.add_parser("compare", help="simulate the configured policies in batches")
    p.add_argument("config")
    add_out(p)

    p = sub.add_parser("bounds", help="emit the hazard-rate bound curve")
    p.add_argument("--grid", type=float, default=0.05)
    add_out(p)

    p = sub.add_parser("perturb", help="robustness to misestimated primitives")
    p.add_argument("config")
    p.add_argument("--target", choices=("p", "lambda"), required=True)
    p.add_argument("--width", type=float, required=True)
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--pseed", type=int, default=None,
                   help="perturbation seed (default: config seed)")
    add_out(p)

    p = sub.add_parser("export", help="write an instance as JSON")
    p.add_argument("instance")
    add_out(p)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        globals()[f"_cmd_{args.command}"](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LpError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
