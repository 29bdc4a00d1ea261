"""Output checks and the CSV parsing they need.

An operation is a noise sample, a bias point or a gate; an operation whose
output check fails counts as failed, as does every operation of a runner
call that did not exit 0. Each criterion named here is one of the
acceptance criteria in tests/test_acceptance.py.
"""

from __future__ import annotations

import math

# criterion 5a: V_M [mV] -> quantity -> (anchor, relative tolerance)
ANCHORS = {
    400.0: {"e_zl_hz": (18.309e9, 0.01), "e_zr_hz": (18.453e9, 0.01),
            "j_hz": (75.6e3, 0.20)},
    408.0: {"j_hz": (19.3e6, 0.20)},
}
LAB_RWA_TOL_POINTS = 0.01                        # criterion 9


def csv_body(text: str) -> str:
    """The CSV without its '#' metadata header."""
    return "".join(l for l in text.splitlines(keepends=True)
                   if not l.startswith("#"))


def csv_meta(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, val = line[2:].partition(" = ")
            out[key] = val
    return out


def csv_rows(text: str) -> list[dict]:
    lines = csv_body(text).splitlines()
    if not lines:
        return []
    cols = lines[0].split(",")
    return [dict(zip(cols, l.split(","))) for l in lines[1:] if l]


def _float(txt) -> float:
    try:
        return float(txt)
    except (TypeError, ValueError):
        return math.nan


def noise_sweep_failures(text, sigmas, n_samples: int) -> int:
    """Samples lost per sigma: a missing or malformed row loses them all,
    otherwise the `n` column must equal the samples attempted."""
    by_sigma = {_float(r.get("sigma_uev")): r for r in csv_rows(text)}
    failed = 0
    for sg in sigmas:
        row = by_sigma.get(float(sg))
        fid = _float(row.get("fidelity_mean_percent")) if row else math.nan
        n = _float(row.get("n")) if row else math.nan
        if not (0.0 <= fid <= 100.0) or not n == n_samples:
            failed += n_samples
    return failed


def gate_fidelities(gate_text: str, sweep_text: str) -> dict:
    """Fidelity per gate: the `gate` run's header value and one per
    transition-sweep row, keyed by ("gate",) and ("tau", tau_ns)."""
    out = {("gate",): _float(csv_meta(gate_text).get("fidelity_percent"))}
    for r in csv_rows(sweep_text):
        out[("tau", _float(r.get("tau_tr_ns")))] = _float(
            r.get("fidelity_mean_percent"))
    return out


def lab_gate_failures(lab: dict, rwa: dict, keys) -> int:
    """Gates among `keys` whose lab-frame fidelity is missing or further
    than LAB_RWA_TOL_POINTS from the rotating-frame run of the same config."""
    return sum(1 for key in keys
               if not abs(lab.get(key, math.nan) - rwa.get(key, math.nan))
               <= LAB_RWA_TOL_POINTS)


def anchor_failures(params: dict) -> set:
    """V_M of the bias points whose spin parameters miss the criterion 5a
    anchors; `params` maps V_M in mV to a dict of e_zl_hz, e_zr_hz, j_hz."""
    return {v_m for v_m, anchors in ANCHORS.items()
            if not all(abs(params[v_m][q] - ref) <= tol * ref
                       for q, (ref, tol) in anchors.items())}
