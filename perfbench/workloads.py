"""Workloads: generated configs, set-up, one timed iteration and its checks.

Each workload drives `dqdsim.cli.RUNNERS` in-process on a config generated
from the benchmark seed. An iteration is one call of each of the workload's
runners; its outputs are kept and checked after the timed loop.
"""

from __future__ import annotations

import contextlib
import os
import sys
import traceback

import checks


def call_runner(cli, name, exp):
    """Run one experiment as the CLI would; returns (exit code, CSV text).

    An exception leaving the runner is reported and counts as a non-zero
    exit, as it does in `cli.main`.
    """
    try:
        code = cli.RUNNERS[name](exp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None, ""
    with open(exp.out) as fh:
        return code, fh.read()


class NoiseMC:
    """noise-sweep of cnot_multi on the shipped device, RWA integrator."""

    name = "noise-mc"
    min_iterations = 3
    # 18 perturbed_spin_params calls per runner call; p90 needs 100 samples
    traced_iterations = 6
    sigmas = (1e-3, 0.1, 5.0)
    n_samples = 3
    v_m_mv = (400.0, 408.0)

    def __init__(self, workdir, seed):
        self.cfg = os.path.join(workdir, "noise_mc.cfg")
        self.out = os.path.join(workdir, "noise_mc.csv")
        with open(self.cfg, "w") as fh:
            fh.write(
                f"[experiment]\nseed = {seed}\nthreads = 1\nintegrator = rwa\n"
                "[device]\nfile = default\n"
                "[noise-sweep]\nprotocol = cnot_multi\n"
                f"sigma_uev = {','.join(repr(s) for s in self.sigmas)}\n"
                f"n_samples = {self.n_samples}\n"
                f"v_m_weak_mv = {self.v_m_mv[0]}\n"
                f"v_m_strong_mv = {self.v_m_mv[1]}\ntau_tr_ns = 5\n")
        self.ops_per_iteration = len(self.sigmas) * self.n_samples
        self.setup_ops = len(self.v_m_mv)

    def setup(self, cli):
        exp = cli.Experiment(self.cfg, out=self.out)
        exp.device()
        for v in self.v_m_mv:
            exp.solution_at(v)
        return exp

    def iterate(self, cli, exp, span=contextlib.nullcontext):
        with span("runner"):
            return [call_runner(cli, "noise-sweep", exp)]

    def setup_failures(self, cli, exp, span=contextlib.nullcontext) -> int:
        """Operating points that miss the 5a anchors or, at Pinit (the
        device's default V_L, V_R at 400 mV), the 5b (1,1) occupation.
        The occupation call is the only one recorded under `span`; the
        runners do not call dots.dot_occupations."""
        from dqdsim import dots

        spec, mat, _, grid, _, coulomb = exp.device()
        params = {}
        for v in self.v_m_mv:
            p = exp.device_spin_params(v)
            params[v] = {"e_zl_hz": p.e_zl_hz, "e_zr_hz": p.e_zr_hz,
                         "j_hz": p.j_hz}
        missed = checks.anchor_failures(params)
        pinit = self.v_m_mv[0]
        with span("dots.dot_occupations"):
            occupation = dots.dot_occupations(exp.solution_at(pinit), grid,
                                              spec, mat, coulomb)
        if occupation != (1, 1):
            missed.add(pinit)
        return len(missed)

    def failures(self, cli, exp, outputs) -> int:
        ref = checks.csv_body(outputs[0][0][1])
        failed = 0
        for ((code, text),) in outputs:
            if code != 0 or checks.csv_body(text) != ref:
                failed += self.ops_per_iteration
            else:
                failed += checks.noise_sweep_failures(text, self.sigmas,
                                                      self.n_samples)
        return failed


class LabGates:
    """Direct mode, lab-frame integrator: `gate` of cnot_multi at 408 mV
    with its trajectory, and `transition-sweep` at 412 mV with a 1 ns ramp
    (its 355k-exponential segment is the workload's largest kernel batch)."""

    name = "lab-gates"
    min_iterations = 3        # an iteration takes 5 to 9 s
    traced_iterations = 2
    taus_ns = (1.0,)

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.cfg = os.path.join(workdir, "lab_gates.cfg")
        with open(self.cfg, "w") as fh:
            fh.write(
                f"[experiment]\nseed = {seed}\nthreads = 1\n"
                "[gate]\nprotocol = cnot_multi\nv_m_weak_mv = 400\n"
                "v_m_strong_mv = 408\ntau_tr_ns = 5\nsample_ns = 0.25\n"
                "[transition-sweep]\n"
                f"tau_tr_ns = {','.join(repr(t) for t in self.taus_ns)}\n"
                "v_m_weak_mv = 400\nv_m_strong_mv = 412\nsigma_uev = 0\n")
        self.ops_per_iteration = 1 + len(self.taus_ns)
        self.setup_ops = 0

    def _experiments(self, cli, integrator):
        return [cli.Experiment(self.cfg, integrator=integrator,
                               out=os.path.join(self.workdir,
                                                f"{integrator}_{name}.csv"))
                for name in ("gate", "sweep")]

    def setup_failures(self, cli, exps, span=contextlib.nullcontext) -> int:
        return 0

    def setup(self, cli):
        exps = self._experiments(cli, "lab")
        exps[0].params_table()
        return exps

    def iterate(self, cli, exps, span=contextlib.nullcontext):
        out = []
        for name, exp in zip(("gate", "transition-sweep"), exps):
            with span("runner"):
                out.append(call_runner(cli, name, exp))
        return out

    def failures(self, cli, exps, outputs) -> int:
        rwa_out = self.iterate(cli, self._experiments(cli, "rwa"))
        rwa = checks.gate_fidelities(rwa_out[0][1], rwa_out[1][1])
        refs = [checks.csv_body(text) for _, text in outputs[0]]
        keys = [("gate",)] + [("tau", t) for t in self.taus_ns]
        failed = 0
        for (g_code, g_text), (s_code, s_text) in outputs:
            if (g_code != 0 or s_code != 0
                    or [checks.csv_body(g_text), checks.csv_body(s_text)] != refs):
                failed += self.ops_per_iteration
            else:
                lab = checks.gate_fidelities(g_text, s_text)
                failed += checks.lab_gate_failures(lab, rwa, keys)
        return failed


WORKLOADS = {w.name: w for w in (NoiseMC, LabGates)}
