"""volnotify benchmark: one command, three workloads, every metric with its unit.

Usage (from the repository root):

    python3 bench/run.py --workload plan|sim-static|sim-belief --seed N \
        --seconds S --trace 0|1

The seed generates the inputs the program receives: the tiny oracle
instances and episode seeds on ``plan``, the episode seeds on the simulation
workloads (their instances are fixed, so every seed asks for the same work).
Set-up runs three times and ``setup_s`` is the median. The timed section
repeats rounds (every op of the workload once, in order) while another round
still fits in ``--seconds``; the first round is a warm-up and is not timed.
Every op is checked against the paper's invariants (see workloads.py) and
every round must produce the same results digest.

Every time is taken relative to a reference kernel (reference.py) timed just
before and just after each op and each set-up, and reported in reference
seconds: the ratio times the kernel's time on an unloaded host. A shared
host's speed drifts by up to 1.6x in phases of tens of seconds; it cancels in
the ratio. A timing is the median of its ratios over the timed rounds. The
raw wall times are printed on an ``info raw`` line before the result.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics: counts come from
one traced round (and must repeat in every traced round), span times are
medians over traced rounds in plain seconds, and episode rates come from the
untraced rounds, in reference seconds as end to end. The
spans of the first traced round are written to .bench_out/spans-<workload>.npz.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
report failed ops with their reasons, the results digest and sample counts.
METRICS.md defines each metric and the end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types

import reference
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 3
POLICIES = ("sn", "sdn", "exante", "all", "best:2", "random:2", "upto:0.8", "rolling")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "plan_s.p50": "s",
    "plan_s.tail": "s",
    "episodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def per_layer_units() -> dict:
    units = {
        "exante.solve_lp.calls": "count", "exante.solve_lp.s": "s", "exante.linprog.s": "s",
        "exante.lp.iterations": "count", "exante.lp.failed": "count",
        "exante.lp.rows.max": "count", "exante.lp.cols.max": "count",
        "exante.lp.nnz.max": "count", "exante.lp.dense_mb.max": "MB",
        "exante.benchmark_lp.calls": "count", "exante.benchmark_lp.s": "s",
        "exante.benchmark_lp.self_s": "s",
        "exante.select_ex_ante.calls": "count", "exante.select_ex_ante.s": "s",
        "exante.frank_wolfe_aa.s": "s", "exante.frank_wolfe_aa.self_s": "s",
        "exante.frank_wolfe_aa.oracle_calls": "count",
        "exante.frank_wolfe_aa.s_per_oracle_call": "s",
        "exante.sequential_sq.s": "s",
        "policies.sn_offline.s": "s", "policies.sdn_offline.s": "s",
        "policies.make_policy.s": "s",
        "policies.advance.calls": "count", "policies.advance.s": "s",
        "policies.decide.calls": "count", "policies.decide.s": "s",
        "policies.record.s": "s", "policies.belief.pending.mean": "count",
        "policies.rolling.window_lps": "count", "policies.rolling.hit_ratio": "ratio",
        "sim.episodes": "count", "sim.simulate.s": "s", "sim.simulate_batched.s": "s",
        "sim.empirical_active_prob.s": "s", "sim.engine.self_s": "s",
    }
    for spec in POLICIES:
        units[f"sim.episodes_per_s.{spec.replace(':', '-')}"] = "1/s"
    units.update({
        "sim.oracle.calls": "count", "sim.oracle.s": "s", "sim.oracle.states": "count",
        "core.check_feasible.calls": "count", "core.check_feasible.s": "s",
        "core.evaluate_f.calls": "count", "core.evaluate_f.s": "s",
        "core.instance_from_json.calls": "count", "core.instance_from_json.s": "s",
        "bounds.verify_dual_certificate.calls": "count", "bounds.verify_dual_certificate.s": "s",
        "cli.main.calls": "count", "cli.main.s": "s", "cli.main.self_s": "s",
        "trace.wall_s": "s", "trace.overhead_frac": "ratio", "trace.unattributed_s": "s",
    })
    for layer in spans.LAYERS:
        units[f"trace.self_s.{layer}"] = "s"
    units["failed_frac"] = "ratio"
    return units


def fix_mmap_threshold() -> None:
    """Pin glibc's mmap threshold at its 128 KiB default.

    glibc raises the threshold whenever a large mapped block is freed, after
    which large arrays may reuse heap pages instead; which one happens shifts
    with the address-space layout, so the peak memory of the same set-up
    jumped between 551 and 593 MB from run to run. With the threshold fixed,
    every large array is mapped and unmapped, and the peak is that of live
    memory. Elsewhere than glibc this does nothing.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass


def load_package():
    if not os.path.isfile(os.path.join(SRC, "volnotify", "__init__.py")):
        raise SystemExit(f"error: package source not found under {SRC}")
    sys.path.insert(0, SRC)
    mods = {name: importlib.import_module(f"volnotify.{name}") for name in spans.LAYERS}
    return types.SimpleNamespace(**mods)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the package, as every CLI run pays it."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import volnotify"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, SRC], check=True, timeout=120)
    return time.perf_counter() - t0


class RoundRecord:
    """One round: ``wall`` leaves out the reference kernel, ``elapsed`` includes it;
    ``refs[i]`` is the mean kernel time just before and just after op i (untraced
    rounds only)."""

    def __init__(self, traced, wall, elapsed, latencies, refs, drives, logs, summary):
        self.traced = traced
        self.wall = wall
        self.elapsed = elapsed
        self.latencies = latencies
        self.refs = refs
        self.drives = drives
        self.logs = logs
        self.summary = summary

    def digest(self) -> str:
        h = hashlib.sha256()
        for log in self.logs:
            h.update(repr((log.label, log.results, log.failures)).encode())
        return h.hexdigest()


def run_round(vn, ops, tracer=None, instrumentation=None) -> RoundRecord:
    rnd = workloads.Round(vn, tracer)
    logs, latencies, kernel = [], [], []
    kernel_wall = 0.0  # time spent in the reference kernel, warm-up call included

    def time_kernel():
        nonlocal kernel_wall
        t = time.perf_counter()
        kernel.append(reference.seconds())
        kernel_wall += time.perf_counter() - t

    if tracer is not None:
        instrumentation.install(tracer)
    try:
        t_start = time.perf_counter()
        root = tracer.open(tracer.name_id("bench.round")) if tracer else None
        if tracer is None:
            time_kernel()
        for i, op in enumerate(ops):
            if tracer:
                tracer.current_op = i
                span = tracer.open(tracer.name_id("bench.op"))
            t0 = time.perf_counter()
            logs.append(op.run(rnd))
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(span)
            else:
                time_kernel()
        if tracer:
            tracer.current_op = -1
            tracer.close(root)
        elapsed = time.perf_counter() - t_start
    finally:
        if tracer is not None:
            instrumentation.uninstall()
    summary = None
    if tracer is not None:
        summary = spans.summarize(tracer, {i for i, op in enumerate(ops) if op.policy == "rolling"})
    refs = [(a + b) / 2.0 for a, b in zip(kernel, kernel[1:])] or None
    return RoundRecord(tracer is not None, elapsed - kernel_wall, elapsed, latencies, refs,
                       rnd.drives, logs, summary)


def _geomean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def episode_rates(rounds, ops) -> dict:
    """Median driver time per (op, driver) over untraced rounds, in reference seconds,
    -> episodes per reference second, keyed by policy."""
    index = {op.label: i for i, op in enumerate(ops)}
    ratios: dict = {}
    for r in rounds:
        for label, driver, episodes, secs in r.drives:
            ratios.setdefault((label, driver, episodes), []).append(secs / r.refs[index[label]])
    rates: dict = {}
    for (label, driver, episodes), values in ratios.items():
        secs = statistics.median(values) * reference.REFERENCE_S
        rates.setdefault(ops[index[label]].policy, []).append(episodes / secs)
    return rates


def op_latencies(rounds, n_ops) -> list:
    """Each op's median latency over untraced rounds, in reference seconds, sorted."""
    return sorted(statistics.median(r.latencies[i] / r.refs[i] for r in rounds)
                  * reference.REFERENCE_S for i in range(n_ops))


def tail(sorted_values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (the maximum below eleven)."""
    n = len(sorted_values)
    if n <= 10:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def end_to_end(setup_times, rounds, ops, failed) -> dict:
    lat = op_latencies(rounds, len(ops))
    rates = episode_rates(rounds, ops)
    tail_value, tail_pct = tail(lat)
    print(f"info ops={len(ops)} timed rounds={len(rounds)} plan_s.tail=p{tail_pct:.0f} "
          f"of {len(lat)} per-op latencies; setup reps={len(setup_times)}")
    raw_lat = [statistics.median(r.latencies[i] for r in rounds) for i in range(len(ops))]
    refs = [x for r in rounds for x in r.refs]
    raw_setup = statistics.median(s for s, _ in setup_times)
    print(f"info raw wall_s={sum(raw_lat):.6g} setup_s={raw_setup:.6g} "
          f"reference_s median={statistics.median(refs):.6g} min={min(refs):.6g} "
          f"max={max(refs):.6g} (nominal {reference.REFERENCE_S})")
    return {
        "setup_s": statistics.median(s / ref for s, ref in setup_times) * reference.REFERENCE_S,
        "wall_s": sum(lat),
        "plan_s.p50": statistics.median(lat),
        "plan_s.tail": tail_value,
        "episodes_per_s": _geomean([v for vs in rates.values() for v in vs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (len(ops) - failed) / len(ops),
    }


def per_layer(traced, untraced, ops, failed) -> tuple[dict, bool]:
    """Per-layer metrics; also reports whether every traced round repeated the same counts."""
    sums = [r.summary for r in traced]

    def med(fn):
        return statistics.median(fn(s) for s in sums)

    def s_of(name):
        return med(lambda s: s["s"].get(name, 0.0))

    def self_of(name):
        return med(lambda s: s["self_s"].get(name, 0.0))

    first = sums[0]

    def calls_of(name):
        return first["calls"].get(name, 0)

    c = first["counters"]
    episodes = sum(e for _, _, e, _ in traced[0].drives)
    rolling_decides = first["rolling_decides"]
    aa_calls = first["aa_oracle_calls"]
    v = {
        "exante.solve_lp.calls": calls_of("exante.solve_lp"),
        "exante.solve_lp.s": s_of("exante.solve_lp"),
        "exante.linprog.s": s_of("exante.linprog"),
        "exante.lp.iterations": c["lp_nit"],
        "exante.lp.failed": c["lp_failed"],
        "exante.lp.rows.max": c["lp_rows"],
        "exante.lp.cols.max": c["lp_cols"],
        "exante.lp.nnz.max": c["lp_nnz"],
        "exante.lp.dense_mb.max": c["lp_dense_mb"],
        "exante.benchmark_lp.calls": calls_of("exante.benchmark_lp"),
        "exante.benchmark_lp.s": s_of("exante.benchmark_lp"),
        "exante.benchmark_lp.self_s": self_of("exante.benchmark_lp"),
        "exante.select_ex_ante.calls": calls_of("exante.select_ex_ante"),
        "exante.select_ex_ante.s": s_of("exante.select_ex_ante"),
        "exante.frank_wolfe_aa.s": s_of("exante.frank_wolfe_aa"),
        "exante.frank_wolfe_aa.self_s": self_of("exante.frank_wolfe_aa"),
        "exante.frank_wolfe_aa.oracle_calls": aa_calls,
        "exante.frank_wolfe_aa.s_per_oracle_call":
            med(lambda s: s["aa_oracle_s"] / s["aa_oracle_calls"] if s["aa_oracle_calls"] else 0.0),
        "exante.sequential_sq.s": s_of("exante.sequential_sq"),
        "policies.sn_offline.s": s_of("policies.sn_offline"),
        "policies.sdn_offline.s": s_of("policies.sdn_offline"),
        "policies.make_policy.s": s_of("policies.make_policy"),
        "policies.advance.calls": calls_of("policies.advance"),
        "policies.advance.s": s_of("policies.advance"),
        "policies.decide.calls": calls_of("policies.decide"),
        "policies.decide.s": s_of("policies.decide"),
        "policies.record.s": s_of("policies.record"),
        "policies.belief.pending.mean": c["pending_mean"],
        "policies.rolling.window_lps": first["window_lps"],
        "policies.rolling.hit_ratio":
            1.0 - first["window_lps"] / rolling_decides if rolling_decides else 0.0,
        "sim.episodes": episodes,
        "sim.simulate.s": s_of("sim.simulate"),
        "sim.simulate_batched.s": s_of("sim.simulate_batched"),
        "sim.empirical_active_prob.s": s_of("sim.empirical_active_prob"),
        "sim.engine.self_s": med(lambda s: s["engine_self_s"]),
    }
    rates = episode_rates(untraced, ops)
    for spec in POLICIES:
        v[f"sim.episodes_per_s.{spec.replace(':', '-')}"] = _geomean(rates.get(spec, []))
    v.update({
        "sim.oracle.calls": calls_of("sim.oracle"),
        "sim.oracle.s": s_of("sim.oracle"),
        "sim.oracle.states": c["oracle_states"],
        "core.check_feasible.calls": calls_of("core.check_feasible"),
        "core.check_feasible.s": s_of("core.check_feasible"),
        "core.evaluate_f.calls": calls_of("core.evaluate_f"),
        "core.evaluate_f.s": s_of("core.evaluate_f"),
        "core.instance_from_json.calls": calls_of("core.instance_from_json"),
        "core.instance_from_json.s": s_of("core.instance_from_json"),
        "bounds.verify_dual_certificate.calls": calls_of("bounds.verify_dual_certificate"),
        "bounds.verify_dual_certificate.s": s_of("bounds.verify_dual_certificate"),
        "cli.main.calls": calls_of("cli.main"),
        "cli.main.s": s_of("cli.main"),
        "cli.main.self_s": self_of("cli.main"),
        "trace.wall_s": med(lambda s: s["wall_s"]),
        "trace.overhead_frac": statistics.median(r.wall for r in traced)
        / statistics.median(r.wall for r in untraced) - 1.0,
        "trace.unattributed_s": med(lambda s: s["unattributed_s"]),
    })
    for layer in spans.LAYERS:
        v[f"trace.self_s.{layer}"] = med(lambda s: s["layer_self_s"][layer])
    v["failed_frac"] = failed / len(ops)
    counts_repeat = all(
        s["calls"] == first["calls"] and s["counters"] == c and s["window_lps"] == first["window_lps"]
        for s in sums[1:])
    return v, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan", "sim-static", "sim-belief"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    fix_mmap_threshold()
    vn = load_package()
    workload = workloads.WORKLOADS[args.workload](vn, args.seed, os.path.join(OUT_DIR, "inputs"))
    setup_times = []  # (seconds, mean reference time before and after)
    for _ in range(SETUP_REPS):
        ref_before = reference.seconds()
        imports = import_seconds()
        t0 = time.perf_counter()
        ops = workload.setup()
        secs = imports + time.perf_counter() - t0
        setup_times.append((secs, (ref_before + reference.seconds()) / 2.0))

    # Round 0 is an untimed warm-up; with --trace 1, odd rounds are traced, so
    # at least one traced and one timed untraced round follow it.
    min_rounds = 3 if args.trace else 2
    rounds: list[RoundRecord] = []
    first_tracer = None
    instrumentation = spans.Instrumentation(vars(vn))
    t_start = time.perf_counter()
    while True:
        tracer = None
        if args.trace and len(rounds) % 2 == 1:
            tracer = spans.Tracer()
            first_tracer = first_tracer or tracer
        rounds.append(run_round(vn, ops, tracer, instrumentation))
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= min_rounds and elapsed + rounds[-1].elapsed > args.seconds:
            break
    timed = [r for r in rounds[1:] if not r.traced]

    digests = {r.digest() for r in rounds}
    failures: dict = {}
    for r in rounds:
        for log in r.logs:
            for step, reason in log.failures:
                failures.setdefault((log.label, step, reason), None)
    violations = sum(log.violations for log in rounds[0].logs)
    failed_ops = {label for label, _, _ in failures}
    for label, step, reason in failures:
        print(f"FAIL {args.workload} op={label} step={step}: {reason}")
    print(f"info digest={sorted(digests)[0][:16]} rounds_agree={len(digests) == 1} "
          f"gate_violations={violations} failed_ops={len(failed_ops)}/{len(ops)}")

    # Failed ops (a raise or a violated invariant) are counted in ``failed`` and
    # printed above; ``correct`` asks that every round, traced or not, produced
    # the same results.
    correct = len(digests) == 1
    if args.trace:
        traced = [r for r in rounds if r.traced]
        metrics, counts_repeat = per_layer(traced, timed, ops, len(failed_ops))
        correct = correct and counts_repeat
        os.makedirs(OUT_DIR, exist_ok=True)
        first_tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}.npz"))
        units = per_layer_units()
    else:
        metrics = end_to_end(setup_times, timed, ops, len(failed_ops))
        units = END_TO_END
    out = {
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
