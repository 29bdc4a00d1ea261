"""dqd-sim: command-line experiment runner.

Experiments: stability, j-sweep, gate, noise-sweep, transition-sweep,
fluct-stats. Each reads a structured-text config file, runs deterministically
under a fixed seed, and writes a CSV (with a '#'-prefixed metadata header)
plus a JSON sidecar with identical content. Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 partial results written.

Config schema (INI):
  [experiment]  seed, out, integrator (lab|rwa)
  [device]      file = <device cfg path> | default
  [params]      table = "v_m_mv e_zl_hz e_zr_hz j_hz; ..."   (direct mode)
  [stability]   v_l_mv, v_r_mv ("start:stop:step"), v_m_mv, v_b_mv
  [j-sweep]     v_m_mv = start:stop:step
  [gate]        protocol, v_m_weak_mv, v_m_strong_mv, tau_tr_ns, sample_ns
  [noise-sweep] protocol, sigma_uev (comma list), n_samples, v_m_weak_mv,
                v_m_strong_mv, tau_tr_ns
  [transition-sweep] tau_tr_ns (comma list), v_m_strong_mv, sigma_uev,
                n_samples
  [fluct-stats] sigma_uev (comma list), n_samples, v_m_mv

Device-backed experiments load the `[device]` file once as a `dots.Device`
(`Experiment.device`); its `solution_at` and `spin_params` give every
operating point and spin parameter the experiments use.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .dots import charge_stability, load_device
from .dynamics import CNOT_DOWN, cnot_matrix, cz_matrix, evolve, gate_fidelity, ry_matrix
from .errors import ConfigurationError, DqdError, NumericalError
from .noise import (
    NoiseConfig,
    SampleFailures,
    fluctuation_stats,
    perturbed_spin_params,
    sample_noise,
)
from .params import ParamsTable, SpinParams, paper_table
from .protocols import (
    cnot_multi_schedule,
    cnot_single_schedule,
    cz_schedule,
    schedule_ry,
    u_gate_schedule,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4


def _parse_range(txt: str) -> np.ndarray:
    """'start:stop:step' (inclusive of stop within half a step) or comma list."""
    txt = txt.strip()
    if ":" in txt:
        a, b, s = (float(t) for t in txt.split(":"))
        n = int(math.floor((b - a) / s + 0.5)) + 1
        return a + s * np.arange(n)
    return np.array([float(t) for t in txt.split(",")])


def default_device_path() -> str:
    return str(resources.files("dqdsim").joinpath("data/device_default.cfg"))


class Experiment:
    """Parsed experiment configuration plus lazily-built device objects."""

    def __init__(self, path, seed=None, out=None, integrator=None,
                 resume=False):
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read experiment config {path}") from exc
        cp = configparser.ConfigParser()
        try:
            cp.read_string(raw.decode("utf-8"), source=str(path))
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigurationError(
                f"malformed experiment config {path}: {exc}") from exc
        self.cp = cp
        self.config_hash = hashlib.sha256(raw).hexdigest()[:16]
        exp = cp["experiment"] if cp.has_section("experiment") else {}
        self.seed = int(seed if seed is not None else exp.get("seed", "1"))
        self.out = str(out if out is not None else exp.get("out", "result.csv"))
        self.integrator = str(integrator if integrator is not None
                              else exp.get("integrator", "rwa"))
        self.resume = bool(resume)
        self._device = None

    def resume_rows(self, experiment: str) -> dict:
        """Previously written rows of `experiment`, parsed as floats and
        keyed by their first column.

        Rows are deterministic functions of (config, seed, integrator), so
        reusing them reproduces the uninterrupted run exactly. A file
        written by another experiment, or under another config hash, seed
        or integrator, raises ConfigurationError.
        """
        if not self.resume:
            return {}
        try:
            with open(self.out) as fh:
                text = fh.read().splitlines()
        except OSError:
            return {}
        header = dict(l[1:].strip().split(" = ", 1) for l in text
                      if l.startswith("#") and " = " in l)
        for key, want in (("experiment", experiment),
                          ("config_hash", self.config_hash),
                          ("seed", str(self.seed)),
                          ("integrator", self.integrator)):
            if header.get(key) != want:
                raise ConfigurationError(
                    f"cannot resume from {self.out}: its {key} is "
                    f"{header.get(key)!r}, this run's is {want!r}")
        lines = [l for l in text if l and not l.startswith("#")]
        out = {}
        for line in lines[1:]:
            try:
                row = tuple(float(p) for p in line.split(","))
            except ValueError:
                continue
            out[row[0]] = row
        return out

    # -- direct-mode parameter table ---------------------------------------
    def params_table(self) -> ParamsTable:
        if self.cp.has_section("params") and self.cp["params"].get("table"):
            rows = [r.split() for r in self.cp["params"]["table"].split(";") if r.strip()]
            arr = np.array([[float(v) for v in r] for r in rows])
            return ParamsTable(arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3])
        return paper_table()

    # -- device-backed objects ----------------------------------------------
    def device(self):
        if self._device is None:
            sec = self.cp["device"] if self.cp.has_section("device") else {}
            path = sec.get("file", "default")
            if path == "default":
                path = default_device_path()
            self._device = load_device(path)
        return self._device

    def solution_at(self, v_m_mv: float):
        return self.device().solution_at(v_m_mv)

    def device_spin_params(self, v_m_mv: float) -> SpinParams:
        return self.device().spin_params(self.solution_at(v_m_mv))


def write_outputs(out_path: str, header_cols: list, rows: list, meta: dict):
    """CSV with '#' metadata header + machine-readable JSON sidecar.

    Both files are written to temporary files beside their targets and
    renamed into place only once both are complete, so a failed write
    leaves the previous outputs intact and no temporary file behind.
    """
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(",".join(header_cols))
    for r in rows:
        lines.append(",".join(_fmt(v) for v in r))
    body = "\n".join(lines) + "\n"
    sidecar = {"meta": meta, "columns": header_cols,
               "rows": [[_jsonable(v) for v in r] for r in rows]}
    texts = ((out_path, body),
             (out_path + ".json", json.dumps(sidecar, indent=1, sort_keys=True)))
    pending = []
    try:
        for path, text in texts:
            tmp = f"{path}.{os.getpid()}.tmp"
            pending.append((tmp, path))
            with open(tmp, "w") as fh:
                fh.write(text)
    except BaseException:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise
    for tmp, path in pending:
        os.replace(tmp, path)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _meta(exp: Experiment, experiment: str) -> dict:
    return {
        "experiment": experiment,
        "config_hash": exp.config_hash,
        "seed": exp.seed,
        "version": __version__,
        "integrator": exp.integrator,
    }


# ---------------------------------------------------------------------------
# Protocol construction shared by gate/noise/transition experiments
# ---------------------------------------------------------------------------

def build_protocol(name: str, table, v_weak: float, v_strong: float,
                   tau_tr_ns: float):
    """Compile a named protocol; returns (schedule, ideal unitary)."""
    p_weak = table(v_weak)
    p_strong = table(v_strong)
    if name == "ry_pi_left":
        return schedule_ry("L", math.pi, p_weak), ry_matrix("L", math.pi)
    if name == "ry_pi_right":
        return schedule_ry("R", math.pi, p_weak), ry_matrix("R", math.pi)
    if name == "cnot_single":
        return cnot_single_schedule(p_strong), cnot_matrix("R")
    if name == "cnot_multi":
        return cnot_multi_schedule(p_weak, p_strong, tau_tr_ns), CNOT_DOWN
    if name == "cz":
        return cz_schedule(p_weak, p_strong, tau_tr_ns), cz_matrix()
    if name == "u":
        return (u_gate_schedule(p_strong, tau_tr_ns, v_m_weak_mv=v_weak),
                cz_matrix())
    raise ConfigurationError(f"unknown protocol {name!r}")


class NoisyTableFactory:
    """Per-sample perturbed parameter tables from the device pipeline.

    `solutions` maps each V_M node (mV) to its converged solution on
    `device`, a `dots.Device`. One quasi-static noise field per sample
    perturbs the solution at every node; the spin parameters of each
    perturbed solution form the sample's interpolation table.
    """

    def __init__(self, device, solutions: dict):
        self.device = device
        self.solutions = solutions
        self.v_m_nodes = sorted(solutions)

    def _table(self, params) -> ParamsTable:
        return ParamsTable(self.v_m_nodes, [p.e_zl_hz for p in params],
                           [p.e_zr_hz for p in params],
                           [p.j_hz for p in params])

    def clean_table(self) -> ParamsTable:
        return self._table([self.device.spin_params(self.solutions[v])
                            for v in self.v_m_nodes])

    def table_for(self, cfg: NoiseConfig, sample_index: int) -> ParamsTable:
        noise = sample_noise(self.device.grid, cfg, sample_index)
        return self._table([perturbed_spin_params(self.device,
                                                  self.solutions[v], noise)
                            for v in self.v_m_nodes])


def _fidelity_samples(schedule, ideal, factory, cfg: NoiseConfig,
                      integrator: str):
    """(mean, std, n) of the gate fidelity over the noise samples of `cfg`
    (common random numbers); failed samples follow `SampleFailures`."""
    failures = SampleFailures(cfg.n_samples)
    vals = []
    for i in range(1, cfg.n_samples + 1):
        try:
            res = evolve(schedule, factory.table_for(cfg, i),
                         integrator=integrator)
            vals.append(gate_fidelity(res.u, ideal))
        except DqdError as exc:
            failures.add(exc)
    arr = np.asarray(vals)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std, arr.size


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_stability(exp: Experiment) -> int:
    sec = exp.cp["stability"]
    dev = exp.device()
    diagram = charge_stability(
        dev.spec, dev.mat,
        _parse_range(sec["v_l_mv"]), _parse_range(sec["v_r_mv"]),
        float(sec.get("v_m_mv", "400")), float(sec.get("v_b_mv", "200")),
        grid=dev.grid,
    )
    rows = []
    for j, vr in enumerate(diagram.v_r_mv):
        for i, vl in enumerate(diagram.v_l_mv):
            rows.append((float(vl), float(vr),
                         int(diagram.n_l[j, i]), int(diagram.n_r[j, i])))
    write_outputs(exp.out, ["v_l_mv", "v_r_mv", "n_l", "n_r"], rows,
                  _meta(exp, "stability"))
    return EXIT_OK


def run_j_sweep(exp: Experiment) -> int:
    sec = exp.cp["j-sweep"] if exp.cp.has_section("j-sweep") else {}
    v_ms = _parse_range(sec.get("v_m_mv", "400:412:2"))
    rows = []
    for vm in v_ms:
        p = exp.device_spin_params(float(vm))
        rows.append((float(vm), p.e_zl_ghz, p.e_zr_ghz, p.j_hz))
    write_outputs(exp.out, ["v_m_mv", "e_zl_ghz", "e_zr_ghz", "j_hz"], rows,
                  _meta(exp, "j-sweep"))
    return EXIT_OK


def run_gate(exp: Experiment) -> int:
    sec = exp.cp["gate"]
    table = exp.params_table()
    v_w = float(sec.get("v_m_weak_mv", "400"))
    v_s = float(sec.get("v_m_strong_mv", "408"))
    schedule, ideal = build_protocol(sec["protocol"], table, v_w, v_s,
                                     float(sec.get("tau_tr_ns", "5")))
    res = evolve(schedule, table, integrator=exp.integrator,
                 sample_every_ns=float(sec.get("sample_ns", "0.25")))
    fid = gate_fidelity(res.u, ideal)
    rows = []
    for t, amps in zip(res.trajectory_t_ns, res.trajectory_amps):
        probs = np.abs(amps) ** 2
        row = [float(t)] + [float(p) for p in probs]
        for a in amps:
            row += [float(a.real), float(a.imag)]
        rows.append(tuple(row))
    cols = (["t_ns", "p_uu", "p_ud", "p_du", "p_dd"]
            + [f"{p}_{s}" for s in ("uu", "ud", "du", "dd") for p in ("re", "im")])
    meta = _meta(exp, "gate")
    meta["protocol"] = sec["protocol"]
    meta["fidelity_percent"] = f"{fid:.6f}"
    meta["total_time_ns"] = f"{schedule.total_time_ns:.4f}"
    write_outputs(exp.out, cols, rows, meta)
    return EXIT_OK


def run_noise_sweep(exp: Experiment) -> int:
    sec = exp.cp["noise-sweep"]
    sigmas = _parse_range(sec["sigma_uev"])
    n_samples = int(sec.get("n_samples", "1000"))
    v_w = float(sec.get("v_m_weak_mv", "400"))
    v_s = float(sec.get("v_m_strong_mv", "408"))
    tau_tr = float(sec.get("tau_tr_ns", "5"))
    dev = exp.device()
    factory = NoisyTableFactory(
        dev, {v: dev.solution_at(v) for v in (v_w, v_s)})
    table = factory.clean_table()
    schedule, ideal = build_protocol(sec["protocol"], table, v_w, v_s, tau_tr)
    done = exp.resume_rows("noise-sweep")
    rows = []
    for sg in sigmas:
        if float(sg) in done:
            rows.append(done[float(sg)])
            continue
        if sg == 0.0:
            res = evolve(schedule, table, integrator=exp.integrator)
            rows.append((float(sg), gate_fidelity(res.u, ideal), 0.0, 1))
            continue
        cfg = NoiseConfig(sigma_uev=float(sg), seed=exp.seed,
                          n_samples=n_samples)
        rows.append((float(sg), *_fidelity_samples(
            schedule, ideal, factory, cfg, exp.integrator)))
    meta = _meta(exp, "noise-sweep")
    meta["protocol"] = sec["protocol"]
    write_outputs(exp.out, ["sigma_uev", "fidelity_mean_percent",
                            "fidelity_std_percent", "n"], rows, meta)
    return EXIT_OK


def run_transition_sweep(exp: Experiment) -> int:
    sec = exp.cp["transition-sweep"]
    taus = _parse_range(sec["tau_tr_ns"])
    v_w = float(sec.get("v_m_weak_mv", "400"))
    v_s = float(sec.get("v_m_strong_mv", "412"))
    sigma = float(sec.get("sigma_uev", "1e-3"))
    n_samples = int(sec.get("n_samples", "20"))
    device_mode = exp.cp.has_section("device")
    rows = []
    if device_mode:
        dev = exp.device()
        factory = NoisyTableFactory(
            dev, {v: dev.solution_at(v) for v in (v_w, v_s)})
        table = factory.clean_table()
    else:
        factory = None
        table = exp.params_table()
    done = exp.resume_rows("transition-sweep")
    for tau in taus:
        if float(tau) in done:
            rows.append(done[float(tau)])
            continue
        schedule, ideal = build_protocol("cnot_multi", table, v_w, v_s,
                                         float(tau))
        if factory is None or sigma == 0.0:
            res = evolve(schedule, table, integrator=exp.integrator)
            rows.append((float(tau), gate_fidelity(res.u, ideal), 0.0, 1))
        else:
            cfg = NoiseConfig(sigma_uev=sigma, seed=exp.seed,
                              n_samples=n_samples)
            rows.append((float(tau), *_fidelity_samples(
                schedule, ideal, factory, cfg, exp.integrator)))
    meta = _meta(exp, "transition-sweep")
    meta["sigma_uev"] = sigma
    write_outputs(exp.out, ["tau_tr_ns", "fidelity_mean_percent",
                            "fidelity_std_percent", "n"], rows, meta)
    return EXIT_OK


def run_fluct_stats(exp: Experiment) -> int:
    sec = exp.cp["fluct-stats"]
    sigmas = _parse_range(sec["sigma_uev"])
    n_samples = int(sec.get("n_samples", "1000"))
    v_m = float(sec.get("v_m_mv", "400"))
    dev = exp.device()
    sol = dev.solution_at(v_m)
    rows = []
    for sg in sigmas:
        cfg = NoiseConfig(sigma_uev=float(sg), seed=exp.seed,
                          n_samples=n_samples)
        rows.extend(fluctuation_stats(dev, sol, cfg).to_csv_rows())
    meta = _meta(exp, "fluct-stats")
    meta["v_m_mv"] = v_m
    write_outputs(exp.out, ["sigma_uev", "quantity", "mean_hz", "std_hz", "n"],
                  rows, meta)
    return EXIT_OK


RUNNERS = {
    "stability": run_stability,
    "j-sweep": run_j_sweep,
    "gate": run_gate,
    "noise-sweep": run_noise_sweep,
    "transition-sweep": run_transition_sweep,
    "fluct-stats": run_fluct_stats,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="dqd-sim",
                                 description="DQD spin-qubit experiment runner")
    ap.add_argument("experiment", choices=sorted(RUNNERS))
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--integrator", choices=("lab", "rwa"), default=None)
    ap.add_argument("--resume", action="store_true",
                    help="reuse rows already present in the output file")
    args = ap.parse_args(argv)
    try:
        exp = Experiment(args.config, seed=args.seed, out=args.out,
                         integrator=args.integrator, resume=args.resume)
        return RUNNERS[args.experiment](exp)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DqdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
