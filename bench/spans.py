"""Outside-in tracing of volnotify's layers, installed from the benchmark's own files.

No source file of the package changes. ``Instrumentation.install`` replaces
every module attribute through which a caller reads a layer entry point with
a wrapper that records a span, and ``uninstall`` puts the originals back, so
untraced rounds run the unmodified program. Policy callbacks are timed by
``PolicyProxy``, a delegating ``Policy`` the benchmark hands to the simulator
in traced rounds only.

A span is (name, start, end, parent, op id). Spans are kept in memory as flat
arrays and reduced per round by ``summarize``; self time is a span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

LAYERS = ("core", "exante", "policies", "sim", "bounds", "cli")

# (span name, modules whose attribute of that name callers read).  A module
# that imports a function by name keeps its own binding, so each binding is
# wrapped: cli binds benchmark_lp, select_ex_ante, simulate, ...; policies
# reads exante.benchmark_lp through the module; exante reads solve_lp,
# linprog and evaluate_f as globals.
WRAPPED = (
    ("core.check_feasible", "check_feasible", ("core", "policies", "bounds")),
    ("core.evaluate_f", "evaluate_f", ("core", "exante")),
    ("core.instance_from_json", "instance_from_json", ("core", "cli")),
    ("exante.benchmark_lp", "benchmark_lp", ("exante", "cli")),
    ("exante.select_ex_ante", "select_ex_ante", ("exante", "cli")),
    ("exante.frank_wolfe_aa", "frank_wolfe_aa", ("exante",)),
    ("exante.sequential_sq", "sequential_sq", ("exante",)),
    ("exante.solve_lp", "solve_lp", ("exante",)),
    ("policies.sn_offline", "sn_offline", ("policies",)),
    ("policies.sdn_offline", "sdn_offline", ("policies",)),
    ("policies.make_policy", "make_policy", ("policies", "cli")),
    ("sim.simulate", "simulate", ("sim", "cli")),
    ("sim.simulate_batched", "simulate_batched", ("sim", "cli")),
    ("sim.empirical_active_prob", "empirical_active_prob", ("sim",)),
    ("sim.oracle", "brute_force_optimal_online", ("sim",)),
    ("bounds.verify_dual_certificate", "verify_dual_certificate", ("bounds",)),
    ("bounds.make_instance", "make_instance", ("bounds", "cli")),
    ("cli.main", "main", ("cli",)),
)
SIM_DRIVERS = ("sim.simulate", "sim.simulate_batched", "sim.empirical_active_prob")


class Tracer:
    """In-memory span store for one traced round plus the counters read at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.current_op = -1
        self.lp_nit = 0
        self.lp_failed = 0
        self.lp_rows = 0
        self.lp_cols = 0
        self.lp_nnz = 0
        self.lp_dense_mb = 0.0
        self.oracle_states = 0
        self.pending_sum = 0
        self.pending_samples = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.current)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.current = idx
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.current = self.parent[idx]

    def record_lp(self, res, a_ub, n_cols: int) -> None:
        self.lp_nit += int(getattr(res, "nit", 0) or 0)
        if res.status != 0:
            self.lp_failed += 1
        if a_ub is None:
            return
        rows = a_ub.shape[0]
        self.lp_rows = max(self.lp_rows, rows)
        self.lp_cols = max(self.lp_cols, n_cols)
        self.lp_dense_mb = max(self.lp_dense_mb, rows * n_cols * 8 / 1e6)
        if rows * n_cols > self.lp_nnz:  # nnz can only beat the max if the shape allows it
            nnz = a_ub.nnz if hasattr(a_ub, "nnz") else int(np.count_nonzero(a_ub))
            self.lp_nnz = max(self.lp_nnz, nnz)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    traced.__wrapped__ = fn
    return traced


def _wrap_linprog(tracer: Tracer, fn):
    nid = tracer.name_id("exante.linprog")

    def traced(c, *args, **kwargs):
        idx = tracer.open(nid)
        try:
            res = fn(c, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.record_lp(res, kwargs.get("A_ub"), np.size(c))
        return res

    traced.__wrapped__ = fn
    return traced


def _wrap_oracle(tracer: Tracer, fn):
    traced = _wrap(tracer, "sim.oracle", fn)

    def counted(instance, *args, **kwargs):
        tau_max = instance.dist.support_max
        if tau_max is not None:
            tracer.oracle_states += tau_max ** instance.V
        return traced(instance, *args, **kwargs)

    counted.__wrapped__ = fn
    return counted


class Instrumentation:
    """Installs and removes the span wrappers on the package's module attributes."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: list = []

    def install(self, tracer: Tracer) -> None:
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        for span_name, attr, owners in WRAPPED:
            for owner in owners:
                module = self.modules[owner]
                original = getattr(module, attr)
                if span_name == "sim.oracle":
                    wrapper = _wrap_oracle(tracer, original)
                else:
                    wrapper = _wrap(tracer, span_name, original)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        exante = self.modules["exante"]
        self._saved.append((exante, "linprog", exante.linprog))
        exante.linprog = _wrap_linprog(tracer, exante.linprog)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _pending_entries(state) -> int | None:
    pending = getattr(state, "pending", None)
    if pending is None:
        return None
    return sum(len(p) if isinstance(p, dict) else int(np.count_nonzero(p)) for p in pending)


def make_policy_proxy(base_cls, tracer: Tracer, inner):
    """Delegating policy that records a span around each simulator callback."""

    advance_id = tracer.name_id("policies.advance")
    decide_id = tracer.name_id("policies.decide")
    record_id = tracer.name_id("policies.record")

    class PolicyProxy(base_cls):
        name = inner.name

        def new_state(self):
            return inner.new_state()

        def advance(self, state, t):
            entries = _pending_entries(state)
            if entries is not None:
                tracer.pending_sum += entries
                tracer.pending_samples += 1
            idx = tracer.open(advance_id)
            try:
                return inner.advance(state, t)
            finally:
                tracer.close(idx)

        def decide(self, state, t, s, rng):
            idx = tracer.open(decide_id)
            try:
                return inner.decide(state, t, s, rng)
            finally:
                tracer.close(idx)

        def record(self, state, t, notified0):
            idx = tracer.open(record_id)
            try:
                return inner.record(state, t, notified0)
            finally:
                tracer.close(idx)

    return PolicyProxy()


def summarize(tracer: Tracer, rolling_ops: set) -> dict:
    """Reduce one traced round's spans to per-name and per-layer totals.

    Returns {"calls": {name: n}, "s": {name: inclusive s}, "self_s": {name: s},
    "layer_self_s": {layer: s}, "unattributed_s": s, "wall_s": s, "counters": {...},
    ...}.
    Spans named ``bench.*`` are the benchmark's own (round and op roots); their
    self time is the part of the traced wall that no layer span covers.
    """
    n = len(tracer.name)
    name = np.frombuffer(tracer.name, dtype=np.int32)[:n]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[:n]
    op = np.frombuffer(tracer.op, dtype=np.int32)[:n]
    dur = np.frombuffer(tracer.end)[:n] - np.frombuffer(tracer.start)[:n]
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    names = tracer.names
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    selfs = np.bincount(name, weights=self_time, minlength=k)
    out = {
        "calls": {names[i]: int(calls[i]) for i in range(k)},
        "s": {names[i]: float(incl[i]) for i in range(k)},
        "self_s": {names[i]: float(selfs[i]) for i in range(k)},
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    for i in range(k):
        layer = names[i].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += float(selfs[i])
        else:
            unattributed += float(selfs[i])
    out["layer_self_s"] = layer_self
    out["unattributed_s"] = unattributed
    out["wall_s"] = float(dur[parent < 0].sum())

    def ids(span_name):
        return names.index(span_name) if span_name in names else -2

    solve, aa = ids("exante.solve_lp"), ids("exante.frank_wolfe_aa")
    in_aa = (name == solve) & has_parent & (name[np.maximum(parent, 0)] == aa)
    out["aa_oracle_calls"] = int(in_aa.sum())
    out["aa_oracle_s"] = float(dur[in_aa].sum())
    decide, bench_lp = ids("policies.decide"), ids("exante.benchmark_lp")
    out["window_lps"] = int(((name == bench_lp) & has_parent
                             & (name[np.maximum(parent, 0)] == decide)).sum())
    rolling = np.isin(op, np.array(sorted(rolling_ops), dtype=np.int32))
    out["rolling_decides"] = int(((name == decide) & rolling).sum())
    out["engine_self_s"] = sum(out["self_s"].get(d, 0.0) for d in SIM_DRIVERS)
    out["counters"] = {
        "lp_nit": tracer.lp_nit, "lp_failed": tracer.lp_failed, "lp_rows": tracer.lp_rows,
        "lp_cols": tracer.lp_cols, "lp_nnz": tracer.lp_nnz, "lp_dense_mb": tracer.lp_dense_mb,
        "oracle_states": tracer.oracle_states,
        "pending_mean": tracer.pending_sum / tracer.pending_samples
        if tracer.pending_samples else 0.0,
    }
    return out
