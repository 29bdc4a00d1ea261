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
from .device import DeviceBiases, build_grid, load_device_config
from .dots import (
    DEFAULT_COULOMB_LENGTH_NM,
    MagnetFieldMap,
    charge_stability,
    exchange_energy,
    find_dots,
    zeeman_splittings,
)
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
from .schrodinger import self_consistent_solve

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
        self._solutions = {}

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
            spec, mat, biases, extra = load_device_config(path)
            grid = build_grid(spec)
            from .dots import field_map_from_config
            fmap = field_map_from_config(extra.get("field_map", {}),
                                         spec.width_nm)
            coulomb = float(extra.get("exchange", {}).get(
                "coulomb_length_nm", DEFAULT_COULOMB_LENGTH_NM))
            self._device = (spec, mat, biases, grid, fmap, coulomb)
        return self._device

    def solution_at(self, v_m_mv: float):
        key = round(v_m_mv, 6)
        if key not in self._solutions:
            spec, mat, biases, grid, fmap, coulomb = self.device()
            b = DeviceBiases(v_b=biases.v_b, v_l=biases.v_l,
                             v_m=v_m_mv * 1e-3, v_r=biases.v_r,
                             drain_bias_v=biases.drain_bias_v)
            sol = self_consistent_solve(spec, mat, b, grid=grid)
            self._solutions[key] = sol
        return self._solutions[key]

    def device_spin_params(self, v_m_mv: float) -> SpinParams:
        spec, mat, biases, grid, fmap, coulomb = self.device()
        sol = self.solution_at(v_m_mv)
        e_zl, e_zr = zeeman_splittings(sol, fmap, grid)
        j = exchange_energy(sol, grid, mat, coulomb)
        return SpinParams(e_zl_hz=e_zl, e_zr_hz=e_zr, j_hz=j, v_m_mv=v_m_mv)


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

    One quasi-static noise field per sample perturbs the converged solutions
    at every required V_M node; the spin parameters recomputed from each
    perturbed solution form the sample's interpolation table.
    """

    def __init__(self, exp: Experiment, v_m_nodes):
        self.v_m_nodes = sorted(set(round(v, 6) for v in v_m_nodes))
        spec, mat, biases, grid, fmap, coulomb = exp.device()
        self.grid, self.mat, self.fmap, self.coulomb = grid, mat, fmap, coulomb
        self.solutions = {v: exp.solution_at(v) for v in self.v_m_nodes}

    def clean_table(self) -> ParamsTable:
        e_z = [zeeman_splittings(self.solutions[v], self.fmap, self.grid)
               for v in self.v_m_nodes]
        j = [exchange_energy(self.solutions[v], self.grid, self.mat,
                             self.coulomb) for v in self.v_m_nodes]
        return ParamsTable(self.v_m_nodes, [e[0] for e in e_z],
                           [e[1] for e in e_z], j)

    def table_for(self, cfg: NoiseConfig, sample_index: int) -> ParamsTable:
        noise = sample_noise(self.grid, cfg, sample_index)
        ps = []
        for v in self.v_m_nodes:
            ps.append(perturbed_spin_params(self.solutions[v], noise,
                                            self.fmap, self.grid, self.mat,
                                            self.coulomb))
        return ParamsTable(self.v_m_nodes, [p.e_zl_hz for p in ps],
                           [p.e_zr_hz for p in ps], [p.j_hz for p in ps])


def _fidelity_samples(exp, schedule, ideal, factory, sigma_uev, n_samples):
    """Mean/std gate fidelity over noise samples (common random numbers)."""
    cfg = NoiseConfig(sigma_uev=sigma_uev, seed=exp.seed, n_samples=n_samples)
    failures = SampleFailures(n_samples)

    vals = []
    for i in range(1, n_samples + 1):
        try:
            res = evolve(schedule, factory.table_for(cfg, i),
                         integrator=exp.integrator)
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
    spec, mat, biases, grid, fmap, coulomb = exp.device()
    diagram = charge_stability(
        spec, mat,
        _parse_range(sec["v_l_mv"]), _parse_range(sec["v_r_mv"]),
        float(sec.get("v_m_mv", "400")), float(sec.get("v_b_mv", "200")),
        grid=grid, coulomb_length_nm=coulomb,
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
    factory = NoisyTableFactory(exp, [v_w, v_s])
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
        mean, std, n = _fidelity_samples(exp, schedule, ideal, factory,
                                         float(sg), n_samples)
        rows.append((float(sg), mean, std, n))
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
        factory = NoisyTableFactory(exp, [v_w, v_s])
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
            mean, std, n = _fidelity_samples(exp, schedule, ideal, factory,
                                             sigma, n_samples)
            rows.append((float(tau), mean, std, n))
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
    spec, mat, biases, grid, fmap, coulomb = exp.device()
    sol = exp.solution_at(v_m)
    rows = []
    for sg in sigmas:
        cfg = NoiseConfig(sigma_uev=float(sg), seed=exp.seed,
                          n_samples=n_samples)
        st = fluctuation_stats(spec, mat, sol.biases, fmap, cfg, grid=grid,
                               solution=sol, coulomb_length_nm=coulomb)
        rows.extend(st.to_csv_rows())
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
