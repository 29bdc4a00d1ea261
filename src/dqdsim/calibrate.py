"""Calibration of a device file against the reference anchors.

    python -m dqdsim.calibrate [DEVICE] > calibrated.cfg

reads DEVICE (the shipped `data/device_default.cfg` when omitted) and writes
the calibrated device file to stdout. Three quantities are re-fitted, in
this order, at the file's own biases:

1. the Schottky barrier height Phi_B, so that the dots hold 1.9 electrons
   (the summed subband line density over `DOT_LENGTH_NM`), within 0.08;
2. the right edge of gate R, so that the detuning of the localized pair is
   within 2 ueV of zero; gate B2 moves with that edge, so the R-B2 gap
   stays fixed;
3. the two-plateau micromagnet field map, solved exactly from the Zeeman
   anchors at 400 mV with the transition width `[field_map] width_nm`.

Everything else in the file (stack, the other gates, grid, materials,
biases, `[exchange] coulomb_length_nm`) is the design being calibrated. To
re-calibrate, edit a copy of the file and run the command on it.

Each fit is a secant that stops at its start point when that is already
within tolerance, so a calibrated file is a fixed point: the command
reproduces it byte for byte. The anchor report goes to stderr: E_Z at
400 mV, and J at 400 and 408 mV with the file's Coulomb length. Exit codes:
0 all anchors met, 1 an anchor missed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

import numpy as np

from .cli import EXIT_CONFIG, default_device_path
from .constants import ZEEMAN_HZ_PER_T
from .device import (
    build_grid,
    device_config_text,
    load_device_config,
    parse_device_config,
)
from .dots import (
    DOT_LENGTH_NM,
    Device,
    MagnetFieldMap,
    field_map_from_config,
    find_dots,
    localized_pair,
)
from .errors import ConfigurationError, raise_first

ANCHOR_E_ZL_HZ = 18.309e9
ANCHOR_E_ZR_HZ = 18.453e9
ANCHOR_J400_HZ = 75.6e3
ANCHOR_J408_HZ = 19.3e6
E_Z_REL_TOL = 0.01
J_REL_TOL = 0.20

FILLING_ELECTRONS = 1.9
FILLING_TOL = 0.08
PHI_B_STEP_EV = -0.004           # second secant point, from the file's Phi_B
PHI_B_RANGE_EV = (0.38, 0.50)
DETUNING_TOL_UEV = 2.0
R_EDGE_STEP = -0.04              # second secant point, in units of R's width
R_EDGE_RANGE = (0.5, 1.5)        # R's width, in units of its input width


def secant(f, x0, x1, target, tol, lo, hi, max_steps):
    """Solve f(x) = target by secant steps clipped to [lo, hi].

    Returns (x, f(x)) for the last point evaluated. When |f(x0) - target|
    is below `tol`, that is x0 and f is called once. Otherwise the steps
    start from (x0, x1) and stop within `tol`, when the last two values
    coincide, or after `max_steps` steps.
    """
    y0 = f(x0)
    if abs(y0 - target) < tol:
        return x0, y0
    y1 = f(x1)
    for _ in range(max_steps):
        if abs(y1 - target) < tol or y1 == y0:
            break
        x2 = float(np.clip(x1 + (target - y1) * (x1 - x0) / (y1 - y0), lo, hi))
        x0, y0 = x1, y1
        x1, y1 = x2, f(x2)
    return x1, y1


def calibrate_field_map(solution, grid, transition_width_nm: float):
    """Solve the two-plateau B_Z(x) exactly for the Zeeman anchors.

    B(x) = B_L + (B_R - B_L) s(x) with a tanh transition under the middle
    gate. The dot-averaged fields are linear in (B_L, B_R), so the two
    anchor equations solve exactly; flat plateaus at the dots keep the
    splittings first-order insensitive to noise-driven dot motion (a linear
    gradient converts centroid jitter of the soft dots into E_Z noise well
    above the acceptance bound). Returns (map, `[field_map]` section).
    """
    x_mid = find_dots(solution, grid).barrier_x_nm
    s_x = 0.5 * (1.0 + np.tanh((grid.x - x_mid) / transition_width_nm))
    (phi_l,), (phi_r,), _ = localized_pair([solution], grid)
    s_l, s_r = (float((w / w.sum() * s_x).sum())
                for w in ((phi**2).sum(axis=0) for phi in (phi_l, phi_r)))
    b_targets = np.array([ANCHOR_E_ZL_HZ, ANCHOR_E_ZR_HZ]) / ZEEMAN_HZ_PER_T
    a = np.array([[1.0 - s_l, s_l], [1.0 - s_r, s_r]])
    b_left, b_right = np.linalg.solve(a, b_targets)
    params = {
        "profile": "plateaus",
        "b_left_tesla": f"{b_left:.10f}",
        "b_right_tesla": f"{b_right:.10f}",
        "x_mid_nm": f"{x_mid:.4f}",
        "width_nm": f"{transition_width_nm:.4f}",
    }
    fmap = MagnetFieldMap.from_plateaus(b_left, b_right, x_mid,
                                        transition_width_nm,
                                        -1.0, grid.spec.width_nm + 1.0)
    return fmap, params


def right_gate_span(spec) -> tuple[float, float]:
    for e in spec.electrodes:
        if e.name == "R":
            return e.span_nm
    raise ConfigurationError("the calibration fits gate R; the device has none")


def with_right_edge(spec, edge_nm: float):
    """`spec` with gate R ending at `edge_nm` and B2 shifted along."""
    r0, r1 = right_gate_span(spec)
    shift = edge_nm - r1
    moved = {"R": (r0, edge_nm)}
    for e in spec.electrodes:
        if e.name == "B2":
            moved["B2"] = (e.span_nm[0] + shift, e.span_nm[1] + shift)
    return replace(spec, electrodes=tuple(
        replace(e, span_nm=moved.get(e.name, e.span_nm))
        for e in spec.electrodes))


def calibrate(spec, mat, biases, extra):
    """Fit Phi_B, R's right edge and the field map; measure the anchors.

    Returns (device file text, report lines, whether every anchor is met).
    `extra` holds the file's other sections; `[field_map] width_nm` and
    `[exchange] coulomb_length_nm` are read from it.
    """
    try:
        width_nm = float(extra["field_map"]["width_nm"])
        coulomb = float(extra["exchange"]["coulomb_length_nm"])
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(
            f"device file lacks a valid {exc!r} for the calibration") from exc
    grid_for = functools.cache(build_grid)
    v_m_mv = biases.v_m * 1e3

    def device(spec, mat, fmap=None):
        # solutions are memoized on the grid, which is shared per geometry
        return Device(spec, mat, biases, grid_for(spec), fmap, coulomb)

    def filling(phi_b):
        sol = device(spec, replace(mat, schottky_barrier_ev=phi_b)
                     ).solution_at(v_m_mv)
        return float(sol.occupancies_per_nm.sum() * DOT_LENGTH_NM)

    phi0 = mat.schottky_barrier_ev
    phi_b, n_e = secant(filling, phi0, phi0 + PHI_B_STEP_EV,
                        FILLING_ELECTRONS, FILLING_TOL, *PHI_B_RANGE_EV,
                        max_steps=5)
    mat = replace(mat, schottky_barrier_ev=phi_b)

    def detuning_uev(edge_nm):
        dev = device(with_right_edge(spec, edge_nm), mat)
        _, _, (h2,) = localized_pair([dev.solution_at(v_m_mv)], dev.grid)
        return (h2[0, 0] - h2[1, 1]) * 1e6

    r0, r1 = right_gate_span(spec)
    w_r = r1 - r0
    edge, eps_uev = secant(detuning_uev, r1, r1 + R_EDGE_STEP * w_r, 0.0,
                           DETUNING_TOL_UEV,
                           *(r0 + k * w_r for k in R_EDGE_RANGE), max_steps=4)
    # the map and the anchors are solved on the geometry as the file
    # states it (spans are written to 6 significant digits), so that a
    # calibrated file is a fixed point
    spec, mat, _, _ = parse_device_config(
        device_config_text(with_right_edge(spec, edge), mat, biases))
    sol400 = device(spec, mat).solution_at(400.0)
    _, fm_params = calibrate_field_map(sol400, grid_for(spec), width_nm)
    extra = {**extra, "field_map": fm_params}
    dev = device(spec, mat, field_map_from_config(fm_params, spec.width_nm))
    p400, p408 = raise_first(dev.spin_params([sol400, dev.solution_at(408.0)]))

    report = [f"Phi_B {phi_b!r} eV: filling {n_e:.4f} electrons "
              f"(target {FILLING_ELECTRONS} +- {FILLING_TOL})",
              f"R right edge {edge:.6g} nm: detuning {eps_uev:.3f} ueV "
              f"(target 0 +- {DETUNING_TOL_UEV})"]
    ok = True
    for name, got, want, rel_tol in (
            ("E_ZL(400 mV)", p400.e_zl_hz, ANCHOR_E_ZL_HZ, E_Z_REL_TOL),
            ("E_ZR(400 mV)", p400.e_zr_hz, ANCHOR_E_ZR_HZ, E_Z_REL_TOL),
            ("J(400 mV)", p400.j_hz, ANCHOR_J400_HZ, J_REL_TOL),
            ("J(408 mV)", p408.j_hz, ANCHOR_J408_HZ, J_REL_TOL)):
        met = abs(got - want) <= rel_tol * want
        ok &= met
        report.append(f"[{'PASS' if met else 'FAIL'}] {name} = {got:.2f} Hz "
                      f"(anchor {want:.6g} Hz +- {rel_tol:.0%})")
    return device_config_text(spec, mat, biases, extra), report, ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m dqdsim.calibrate",
        description="Re-fit a device file to the reference anchors; the "
                    "calibrated file goes to stdout, the report to stderr.")
    ap.add_argument("device", nargs="?", default=None,
                    help="device file (default: the shipped device)")
    args = ap.parse_args(argv)
    try:
        text, report, ok = calibrate(
            *load_device_config(args.device or default_device_path()))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write(text)
    print("\n".join(report), file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
