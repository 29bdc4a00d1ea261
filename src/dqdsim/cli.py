"""dqd-sim: command-line experiment runner.

Experiments: stability, j-sweep, gate, noise-sweep, transition-sweep,
fluct-stats. Each reads a structured-text config file, runs deterministically
under a fixed seed, and writes a CSV (with a '#'-prefixed metadata header)
plus a JSON sidecar with identical content. Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 i/o error; earlier outputs
left intact (but for the one case `write_outputs` names).

Config schema (INI):
  [experiment]  seed, out, integrator (lab|rwa)
  [device]      file = <device cfg path> | default
  [params]      table = "v_m_mv e_zl_hz e_zr_hz j_hz; ..."   (direct mode)
  [stability]   v_l_mv, v_r_mv ("start:stop:step"), v_m_mv, v_b_mv
                (the last two default to the device file's biases)
  [j-sweep]     v_m_mv = start:stop:step
  [gate]        protocol, v_m_weak_mv, v_m_strong_mv, tau_tr_ns, sample_ns
  [noise-sweep] protocol, sigma_uev (comma list), n_samples, v_m_weak_mv,
                v_m_strong_mv, tau_tr_ns
  [transition-sweep] tau_tr_ns (comma list), v_m_strong_mv, sigma_uev,
                n_samples (sigma_uev must be 0, its default, without
                a [device])
  [fluct-stats] sigma_uev (comma list), n_samples, v_m_mv (default: the
                device file's)

Device-backed experiments load the `[device]` file once as a `dots.Device`
(`Experiment.device`); its `solution_at` and `spin_params` give every
operating point and spin parameter the experiments use.

Noise runs use the one Monte Carlo loop in `noise`, one run for every
sigma of a sweep. A device-mode transition-sweep shares each sample's
noise table across its tau_TR; a failed sample is dropped for every gate
it serves, and a row that dropped samples writes one stderr line of
failure counts by class.
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
from .dynamics import CNOT_DOWN, CNOT_UP, cz_matrix, evolve, gate_fidelity, ry_matrix
from .errors import ConfigurationError, DqdError, NumericalError, raise_first
from .noise import (NoiseConfig, NoisyTableFactory, fidelity_samples,
                    fluctuation_stats)
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
EXIT_IO = 4


def _parse_range(txt: str) -> np.ndarray:
    """'start:stop:step' (inclusive of stop within half a step) or comma list."""
    if ":" in txt:
        a, b, s = (float(t) for t in txt.split(":"))
        n = int(math.floor((b - a) / s + 0.5)) + 1
        return a + s * np.arange(n)
    return np.array([float(t) for t in txt.split(",")])


def _nonnegative(parse):
    """`parse` for durations in ns, which must be >= 0 (a tau_TR of 0 is
    the sudden limit)."""
    def checked(txt: str):
        value = parse(txt)
        if not np.all(np.asarray(value) >= 0.0):
            raise ValueError("durations must be >= 0")
        return value
    return checked


def _positive(txt: str) -> float:
    """A trajectory stride in ns, which must be > 0."""
    stride = float(txt)
    if not stride > 0.0:
        raise ValueError("the stride must be > 0")
    return stride


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
        self.seed = (int(seed) if seed is not None
                     else self.value("experiment", "seed", "1", int))
        self.out = str(out if out is not None else exp.get("out", "result.csv"))
        self.integrator = str(integrator if integrator is not None
                              else exp.get("integrator", "rwa"))
        self.resume = bool(resume)
        self._device = None

    def value(self, section: str, key: str, default=None, kind=float):
        """`[section] key` parsed by `kind`; a missing or malformed value
        is a ConfigurationError."""
        txt = self.cp.get(section, key, fallback=default)
        if txt is None:
            raise ConfigurationError(f"[{section}] {key} is required")
        try:
            return kind(txt)
        except (ValueError, ArithmeticError) as exc:
            raise ConfigurationError(
                f"[{section}] {key} = {txt!r}: {exc}") from exc

    def resume_rows(self, experiment: str) -> dict:
        """Previously written rows of `experiment`, keyed by their first
        column, read from the JSON sidecar, which holds them exactly.

        Rows are deterministic functions of (config, seed, integrator,
        version), so reusing them reproduces both files of the
        uninterrupted run byte for byte. A sidecar that is not JSON, or
        that was written by another experiment or under another config
        hash, seed, integrator or package version, raises
        ConfigurationError.
        """
        if not self.resume:
            return {}
        path = self.out + ".json"
        try:
            with open(path) as fh:
                sidecar = json.load(fh)
        except OSError:
            return {}
        except ValueError as exc:
            raise ConfigurationError(f"cannot resume from {path}: {exc}"
                                     ) from exc
        meta = sidecar.get("meta", {}) if isinstance(sidecar, dict) else {}
        for key, want in (("experiment", experiment),
                          ("config_hash", self.config_hash),
                          ("seed", self.seed),
                          ("integrator", self.integrator),
                          ("version", __version__)):
            if meta.get(key) != want:
                raise ConfigurationError(
                    f"cannot resume from {path}: its {key} is "
                    f"{meta.get(key)!r}, this run's is {want!r}")
        return {row[0]: tuple(row) for row in sidecar["rows"]}

    # -- direct-mode parameter table ---------------------------------------
    def params_table(self) -> ParamsTable:
        if self.cp.has_section("params") and self.cp["params"].get("table"):
            txt = self.cp["params"]["table"]
            try:
                arr = np.array([[float(v) for v in r.split()]
                                for r in txt.split(";") if r.strip()])
            except ValueError as exc:
                raise ConfigurationError(f"[params] table: {exc}") from exc
            if arr.ndim != 2 or arr.shape[1] != 4:
                raise ConfigurationError(
                    "[params] table rows must be 4 numbers: "
                    "v_m_mv e_zl_hz e_zr_hz j_hz")
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
        return raise_first(self.device().spin_params(
            [self.solution_at(v_m_mv)]))[0]


def write_outputs(out_path: str, header_cols: list, rows: list, meta: dict):
    """CSV with '#' metadata header + machine-readable JSON sidecar.

    Both files are written to temporary files beside their targets and
    renamed into place only once both are complete: the JSON sidecar, which
    `--resume` reads, first, then the CSV. A failed write or a failed first
    rename leaves the previous outputs intact; any failure leaves no
    temporary file behind. Only when the CSV's own rename fails is the new
    sidecar already in place beside the previous CSV.
    """
    texts = ((out_path + ".json", _sidecar_text(header_cols, rows, meta)),
             (out_path, _csv_text(header_cols, rows, meta)))
    pending = []
    try:
        for path, text in texts:
            tmp = f"{path}.{os.getpid()}.tmp"
            pending.append((tmp, path))
            with open(tmp, "w") as fh:
                fh.write(text)
        for tmp, path in pending:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _csv_text(header_cols: list, rows: list, meta: dict) -> str:
    """The CSV: '#' metadata lines, the header, then each row's values as
    `_fmt` writes them, through one %-format per row signature (the types
    of its values)."""
    lines = [f"# {k} = {v}" for k, v in meta.items()]
    lines.append(",".join(header_cols))
    formats = {}
    for r in rows:
        r = tuple(r)
        sig = tuple(map(type, r))
        fmt = formats.get(sig)
        if fmt is None:
            fmt = formats[sig] = ",".join(
                "%.10g" if issubclass(t, float) else "%s" for t in sig)
        lines.append(fmt % r)
    return "\n".join(lines) + "\n"


def _sidecar_text(header_cols: list, rows: list, meta: dict) -> str:
    """`json.dumps({"meta", "columns", "rows"}, indent=1, sort_keys=True,
    default=_json_scalar)`, with each row (a flat sequence of scalars)
    encoded by the C encoder: its separators give the values the indented
    layout of a list two levels deep."""
    head = json.dumps({"meta": meta, "columns": header_cols}, indent=1,
                      sort_keys=True, default=_json_scalar)
    encode = json.JSONEncoder(separators=(",\n   ", ": "),
                              default=_json_scalar).encode
    body = ",\n  ".join("[\n   " + encode(r)[1:-1] + "\n  ]" if len(r) else "[]"
                         for r in rows)
    # "rows" sorts after "columns" and "meta": it closes the object
    return (head[:-2] + ',\n "rows": '
            + ("[\n  " + body + "\n ]" if rows else "[]") + "\n}")


def _json_scalar(v):
    """A NumPy scalar as the Python number `json` writes."""
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


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
        return cnot_single_schedule(p_strong), CNOT_UP
    if name == "cnot_multi":
        return cnot_multi_schedule(p_weak, p_strong, tau_tr_ns), CNOT_DOWN
    if name == "cz":
        return cz_schedule(p_weak, p_strong, tau_tr_ns), cz_matrix()
    if name == "u":
        return u_gate_schedule(p_strong, tau_tr_ns, v_weak), cz_matrix()
    raise ConfigurationError(f"unknown protocol {name!r}")


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_stability(exp: Experiment) -> int:
    v_l = exp.value("stability", "v_l_mv", kind=_parse_range)
    v_r = exp.value("stability", "v_r_mv", kind=_parse_range)
    dev = exp.device()
    v_m = exp.value("stability", "v_m_mv", repr(dev.biases.v_m * 1e3))
    v_b = exp.value("stability", "v_b_mv", repr(dev.biases.v_b * 1e3))
    diagram = charge_stability(dev, v_l, v_r, v_m, v_b)
    rows = []
    for j, vr in enumerate(diagram.v_r_mv):
        for i, vl in enumerate(diagram.v_l_mv):
            rows.append((float(vl), float(vr),
                         int(diagram.n_l[j, i]), int(diagram.n_r[j, i])))
    write_outputs(exp.out, ["v_l_mv", "v_r_mv", "n_l", "n_r"], rows,
                  _meta(exp, "stability"))
    return EXIT_OK


def run_j_sweep(exp: Experiment) -> int:
    v_ms = exp.value("j-sweep", "v_m_mv", "400:412:2", _parse_range)
    rows = []
    for vm in v_ms:
        p = exp.device_spin_params(float(vm))
        rows.append((float(vm), p.e_zl_ghz, p.e_zr_ghz, p.j_hz))
    write_outputs(exp.out, ["v_m_mv", "e_zl_ghz", "e_zr_ghz", "j_hz"], rows,
                  _meta(exp, "j-sweep"))
    return EXIT_OK


def run_gate(exp: Experiment) -> int:
    protocol = exp.value("gate", "protocol", kind=str)
    v_w = exp.value("gate", "v_m_weak_mv", "400")
    v_s = exp.value("gate", "v_m_strong_mv", "408")
    tau_tr = exp.value("gate", "tau_tr_ns", "5", _nonnegative(float))
    sample_ns = exp.value("gate", "sample_ns", "0.25", _positive)
    table = exp.params_table()
    schedule, ideal = build_protocol(protocol, table, v_w, v_s, tau_tr)
    res = evolve(schedule, [table], integrator=exp.integrator,
                 sample_every_ns=sample_ns)
    raise_first(res.failures)
    fid = gate_fidelity(res.u, ideal)[0]
    amps = np.ascontiguousarray(res.trajectory_amps)
    # t, the four populations, then (re, im) of each amplitude
    rows = np.column_stack([res.trajectory_t_ns, np.abs(amps) ** 2,
                            amps.view(float)]).tolist()
    cols = (["t_ns", "p_uu", "p_ud", "p_du", "p_dd"]
            + [f"{p}_{s}" for s in ("uu", "ud", "du", "dd") for p in ("re", "im")])
    meta = _meta(exp, "gate")
    meta["protocol"] = protocol
    meta["fidelity_percent"] = f"{fid:.6f}"
    meta["total_time_ns"] = f"{schedule.total_time_ns:.4f}"
    write_outputs(exp.out, cols, rows, meta)
    return EXIT_OK


def _report_failures(name: str, value: float, n_samples: int, failures):
    """One stderr line for a row whose noise samples were partly dropped."""
    if failures:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(failures.items()))
        print(f"{name}={_fmt(value)}: {sum(failures.values())}/{n_samples} "
              f"samples failed ({counts})", file=sys.stderr)


def _fidelity_sweep(exp: Experiment, name: str, column: str, keys: list,
                    gate_for, cfg_for, table, factory, meta: dict) -> int:
    """One fidelity row per new key: `gate_for(key)` on the clean `table`
    if `cfg_for(key)` is None, else over the samples of that config. The
    configs of a sweep share seed and n_samples, so one Monte Carlo run
    serves them all, each sample drawn once; it evaluates every pending
    gate under every pending config (a runner varies one or the other)."""
    rows = exp.resume_rows(name)
    pending = {key: (gate_for(key), cfg_for(key)) for key in keys
               if key not in rows}
    gates = {id(gate[0]): gate for gate, cfg in pending.values()
             if cfg is not None}
    cfgs = list(dict.fromkeys(cfg for _, cfg in pending.values()
                              if cfg is not None))
    results = {}
    if cfgs:
        results = dict(zip(cfgs, fidelity_samples(
            factory, cfgs, list(gates.values()), exp.integrator)))
    for key, ((schedule, ideal), cfg) in pending.items():
        if cfg is None:
            res = evolve(schedule, [table], integrator=exp.integrator)
            raise_first(res.failures)
            rows[key] = (key, float(gate_fidelity(res.u, ideal)[0]), 0.0, 1)
            continue
        stats, failures = results[cfg]
        _report_failures(column, key, cfg.n_samples, failures)
        rows[key] = (key, *stats[list(gates).index(id(schedule))])
    write_outputs(exp.out, [column, "fidelity_mean_percent",
                            "fidelity_std_percent", "n"],
                  [rows[key] for key in keys], {**_meta(exp, name), **meta})
    return EXIT_OK


def run_noise_sweep(exp: Experiment) -> int:
    protocol = exp.value("noise-sweep", "protocol", kind=str)
    sigmas = exp.value("noise-sweep", "sigma_uev", kind=_parse_range)
    n_samples = exp.value("noise-sweep", "n_samples", "1000", int)
    v_w = exp.value("noise-sweep", "v_m_weak_mv", "400")
    v_s = exp.value("noise-sweep", "v_m_strong_mv", "408")
    tau_tr = exp.value("noise-sweep", "tau_tr_ns", "5", _nonnegative(float))
    factory = NoisyTableFactory(exp.device(), (v_w, v_s))
    table = factory.clean_table()
    gate = build_protocol(protocol, table, v_w, v_s, tau_tr)
    return _fidelity_sweep(
        exp, "noise-sweep", "sigma_uev", sigmas.tolist(), lambda sg: gate,
        lambda sg: NoiseConfig(sg, exp.seed, n_samples) if sg else None,
        table, factory, {"protocol": protocol})


def run_transition_sweep(exp: Experiment) -> int:
    taus = exp.value("transition-sweep", "tau_tr_ns",
                     kind=_nonnegative(_parse_range))
    v_w = exp.value("transition-sweep", "v_m_weak_mv", "400")
    v_s = exp.value("transition-sweep", "v_m_strong_mv", "412")
    n_samples = exp.value("transition-sweep", "n_samples", "20", int)
    factory = cfg = None
    if exp.cp.has_section("device"):
        sigma = exp.value("transition-sweep", "sigma_uev", "1e-3")
        factory = NoisyTableFactory(exp.device(), (v_w, v_s))
        table = factory.clean_table()
        if sigma != 0.0:
            cfg = NoiseConfig(sigma, exp.seed, n_samples)
    else:
        # direct mode has no noise model: its rows are noiseless
        sigma = exp.value("transition-sweep", "sigma_uev", "0")
        if sigma != 0.0:
            raise ConfigurationError(
                f"[transition-sweep] sigma_uev = {sigma:g} needs a [device]; "
                "direct mode has no noise model")
        table = exp.params_table()
    return _fidelity_sweep(
        exp, "transition-sweep", "tau_tr_ns", taus.tolist(),
        lambda tau: build_protocol("cnot_multi", table, v_w, v_s, tau),
        lambda tau: cfg, table, factory, {"sigma_uev": sigma})


def run_fluct_stats(exp: Experiment) -> int:
    sigmas = exp.value("fluct-stats", "sigma_uev", kind=_parse_range)
    n_samples = exp.value("fluct-stats", "n_samples", "1000", int)
    dev = exp.device()
    v_m = exp.value("fluct-stats", "v_m_mv", repr(dev.biases.v_m * 1e3))
    sol = dev.solution_at(v_m)
    cfgs = [NoiseConfig(sigma_uev=float(sg), seed=exp.seed,
                        n_samples=n_samples) for sg in sigmas]
    rows = []
    for sg, st in zip(sigmas, fluctuation_stats(dev, sol, cfgs)):
        _report_failures("sigma_uev", float(sg), n_samples, st.failures)
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
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
