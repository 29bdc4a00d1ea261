"""In-memory spans around calls into dqdsim's public functions.

`Tracer.install()` replaces each traced function, in every loaded `dqdsim`
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent) and the layer's counts. `uninstall()` puts the
originals back, so untraced calls run the program unchanged. Spans stay in
memory; `layer_metrics()` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) of every traced call; "Class.method" patches a method.
TARGETS = (
    ("device", "solve_poisson"),
    ("device", "bulk_charge"),
    ("schrodinger", "solve_eigenstates"),
    ("schrodinger", "quantum_charge"),
    ("schrodinger", "self_consistent_solve"),
    ("noise", "sample_noise"),
    ("noise", "perturbed_spin_params"),
    ("dots", "zeeman_splittings"),
    ("dots", "exchange_energy"),
    ("dots", "coulomb_kernel"),
    ("dots", "dot_occupations"),
    ("dynamics", "evolve"),
    ("dynamics", "gate_fidelity"),
    ("kernels", "propagate_affine"),
    ("cli", "build_protocol"),
    ("cli", "write_outputs"),
    ("cli", "NoisyTableFactory.table_for"),
)

# Per-sample failure boundaries: exceptions leaving these are counted by class.
FAILURE_BOUNDARIES = ("noise.perturbed_spin_params", "dynamics.evolve")
FAILURE_CLASSES = ("NumericalError", "NonConvergenceError", "GeometryError",
                   "ModelValidityError", "ConfigurationError", "other")

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

# name -> (unit, better); the traced run reports exactly these.
LAYER_METRICS = {}


def _metric(name, unit, better):
    LAYER_METRICS[name] = (unit, better)


for _layer in ("device.solve_poisson", "device.bulk_charge",
               "schrodinger.quantum_charge", "noise.sample_noise",
               "dots.zeeman_splittings", "dots.exchange_energy",
               "dots.dot_occupations", "cli.NoisyTableFactory.table_for",
               "dynamics.evolve.rwa", "dynamics.evolve.lab",
               "cli.build_protocol", "cli.write_outputs",
               "schrodinger.self_consistent_solve", "kernels.propagate_affine",
               "schrodinger.solve_eigenstates", "noise.perturbed_spin_params",
               "dynamics.gate_fidelity"):
    _metric(f"{_layer}.calls", "count", "lower")
    _metric(f"{_layer}.self_s", "s", "lower")
for _layer in ("schrodinger.solve_eigenstates", "noise.perturbed_spin_params"):
    _metric(f"{_layer}.ms_p50", "ms", "lower")
    _metric(f"{_layer}.ms_tail", "ms", "lower")
    _metric(f"{_layer}.tail_pct", "%", "higher")
_metric("dynamics.gate_fidelity.ms_p50", "ms", "lower")
_metric("schrodinger.self_consistent_solve.wall_s", "s", "lower")
_metric("schrodinger.self_consistent_solve.iterations", "count", "lower")
_metric("dots.coulomb_kernel.miss_s", "s", "lower")
_metric("dynamics.evolve.exponentials", "count", "lower")
_metric("kernels.propagate_affine.exponentials", "count", "lower")
_metric("kernels.propagate_affine.us_per_exp", "us", "lower")
_metric("kernels.propagate_affine.max_batch", "count", "lower")
_metric("cli.write_outputs.bytes", "bytes", "lower")
for _cls in FAILURE_CLASSES:
    _metric(f"noise.failures.{_cls}", "count", "lower")
_metric("noise.ok_ratio", "ratio", "higher")
_metric("runner.calls", "count", "lower")
_metric("runner.self_s", "s", "lower")
_metric("runner.coverage", "ratio", "higher")
_metric("trace_overhead_s", "s", "lower")


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans. `spans` are (start, end, parent_index)."""
    children = defaultdict(list)
    for i, (_, _, parent) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted((max(spans[c][0], start), min(spans[c][1], end))
                             for c in children[i]):
            c0 = max(c0, reach)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(math.ceil(p * n / 100.0 - 1e-9), 1)


def tail_percentile(n: int):
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND of `n`
    samples beyond it, or None when even the median has too few."""
    ok = [p for p in TAIL_LADDER if n - _rank(p, n) >= MIN_BEYOND]
    return ok[-1] if ok else None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, attrs]
        self.stack = []
        self.failures = Counter()
        self._patched = []
        self._seen_kernels = []

    # -- recording ----------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name):
        """Record one span; yields the span's attribute dict."""
        idx = len(self.spans)
        span = [name, time.perf_counter(), None,
                self.stack[-1] if self.stack else None, {}]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            yield span[4]
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def call(self, name, fn, args, kwargs, on_result=None, boundary=False):
        with self.span(name) as attrs:
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if boundary:
                    cls = type(exc).__name__
                    self.failures[cls if cls in FAILURE_CLASSES else "other"] += 1
                raise
        if on_result is not None:
            on_result(attrs, args, kwargs, result)
        return result

    # -- installation -------------------------------------------------------
    def install(self):
        for module, attr in TARGETS:
            mod = sys.modules[f"dqdsim.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, orig,
                            self._wrap(f"{module}.{attr}", orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(f"{module}.{attr}", orig)
            for name, other in list(sys.modules.items()):
                if name == "dqdsim" or name.startswith("dqdsim."):
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._patch(other, key, orig, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched = []

    def _patch(self, owner, key, orig, wrapper):
        self._patched.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        on_result = getattr(self, "_on_" + name.replace(".", "_"), None)
        boundary = name in FAILURE_BOUNDARIES
        if name == "dynamics.evolve":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                integ = kwargs.get("integrator", args[2] if len(args) > 2 else "rwa")
                return tracer.call(f"{name}.{integ}", fn, args, kwargs,
                                   on_result, boundary)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, on_result, boundary)
        return wrapper

    # -- per-layer counts recorded from call results ------------------------
    def _on_dynamics_evolve(self, attrs, args, kwargs, result):
        attrs["exponentials"] = result.n_exponentials

    def _on_kernels_propagate_affine(self, attrs, args, kwargs, result):
        coefs = kwargs.get("coefs", args[2] if len(args) > 2 else ())
        attrs["exponentials"] = len(coefs)

    def _on_schrodinger_self_consistent_solve(self, attrs, args, kwargs, result):
        attrs["iterations"] = result.iterations

    def _on_cli_write_outputs(self, attrs, args, kwargs, result):
        out = kwargs.get("out_path", args[0] if args else None)
        attrs["bytes"] = os.path.getsize(out) + os.path.getsize(out + ".json")

    def _on_dots_coulomb_kernel(self, attrs, args, kwargs, result):
        # the kernel is cached on the grid; a new array object is a miss
        if not any(k is result for k in self._seen_kernels):
            self._seen_kernels.append(result)
            attrs["miss"] = True

    # -- aggregation --------------------------------------------------------
    def layer_metrics(self, untraced_wall_s=None, traced_wall_s=None) -> dict:
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        calls, self_s, total_s = Counter(), defaultdict(float), defaultdict(float)
        durations = defaultdict(list)
        attr_sum, batch = Counter(), 0
        miss_s = 0.0
        for (name, t0, t1, _, attrs), own in zip(self.spans, selfs):
            calls[name] += 1
            self_s[name] += own
            total_s[name] += t1 - t0
            durations[name].append(t1 - t0)
            for key in ("exponentials", "iterations", "bytes"):
                if key in attrs:
                    attr_sum[(name, key)] += attrs[key]
            if name == "kernels.propagate_affine":
                batch = max(batch, attrs["exponentials"])
            if attrs.get("miss"):
                miss_s += t1 - t0

        m = {}
        for key in LAYER_METRICS:
            layer, _, stat = key.rpartition(".")
            if stat == "calls":
                m[key] = calls[layer]
            elif stat == "self_s":
                m[key] = self_s[layer]
            elif stat == "wall_s":
                m[key] = total_s[layer]
            elif stat in ("ms_p50", "ms_tail", "tail_pct"):
                d = durations[layer]
                p = 50.0 if stat == "ms_p50" else tail_percentile(len(d))
                if stat == "tail_pct":
                    m[key] = p or 0.0
                else:
                    m[key] = 1e3 * percentile(d, p) if d and p else 0.0
        m["schrodinger.self_consistent_solve.iterations"] = attr_sum[
            ("schrodinger.self_consistent_solve", "iterations")]
        m["dots.coulomb_kernel.miss_s"] = miss_s
        m["dynamics.evolve.exponentials"] = (
            attr_sum[("dynamics.evolve.rwa", "exponentials")]
            + attr_sum[("dynamics.evolve.lab", "exponentials")])
        n_exp = attr_sum[("kernels.propagate_affine", "exponentials")]
        m["kernels.propagate_affine.exponentials"] = n_exp
        m["kernels.propagate_affine.us_per_exp"] = (
            1e6 * self_s["kernels.propagate_affine"] / n_exp if n_exp else 0.0)
        m["kernels.propagate_affine.max_batch"] = batch
        m["cli.write_outputs.bytes"] = attr_sum[("cli.write_outputs", "bytes")]
        for cls in FAILURE_CLASSES:
            m[f"noise.failures.{cls}"] = self.failures[cls]
        samples = calls["cli.NoisyTableFactory.table_for"]
        failed = sum(self.failures.values())
        m["noise.ok_ratio"] = (max(samples - failed, 0) / samples
                               if samples else 1.0)
        m["runner.calls"] = calls["runner"]
        m["runner.self_s"] = self_s["runner"]
        m["runner.coverage"] = (1.0 - self_s["runner"] / total_s["runner"]
                                if total_s["runner"] else 0.0)
        m["trace_overhead_s"] = (
            statistics.median(traced_wall_s) - statistics.median(untraced_wall_s)
            if traced_wall_s and untraced_wall_s else 0.0)
        return m
