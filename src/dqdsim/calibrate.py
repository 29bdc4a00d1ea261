"""Calibration fixture for the default device.

The geometry file shipped with the package was produced by this module: the
lateral gate layout and the stack set the exchange anchors, the Schottky
barrier height balances the (1,1) filling at the reference bias point, and
the micromagnet field profile is solved exactly from the two Zeeman targets.

Entry points:
  calibrate_field_map   exact (B0, gradient) from the Zeeman anchors
  refine_schottky       secant on Phi_B for the target electron filling
  refine_spacer         secant on the spacer thickness for the J(400) anchor
  verify_anchors        measure the four anchors on a device file

Run `python -m dqdsim.calibrate <device.cfg>` to re-verify a device file.
"""

from __future__ import annotations

import sys

import numpy as np

from .constants import ZEEMAN_HZ_PER_T
from .device import (
    DeviceBiases,
    DeviceSpec,
    Layer,
    MaterialParams,
    build_grid,
    load_device_config,
)
from .dots import (
    DEFAULT_COULOMB_LENGTH_NM,
    MagnetFieldMap,
    exchange_energy,
    find_dots,
    localized_pair,
    orbital_centroid_x,
    zeeman_splittings,
)
from .schrodinger import self_consistent_solve

ANCHOR_E_ZL_HZ = 18.309e9
ANCHOR_E_ZR_HZ = 18.453e9
ANCHOR_J400_HZ = 75.6e3
ANCHOR_J408_HZ = 19.3e6

PINIT = dict(v_b=0.2, v_l=0.54, v_r=0.57)


def pinit_biases(v_m_v: float = 0.400) -> DeviceBiases:
    return DeviceBiases(v_m=v_m_v, **PINIT)


def solve_operating_point(spec, mat, v_m_v=0.400, grid=None, **kw):
    """Self-consistent solve at the reference biases with V_M overridden."""
    grid = grid or build_grid(spec)
    return self_consistent_solve(spec, mat, pinit_biases(v_m_v), grid=grid, **kw)


def dot_centroids(solution, grid) -> tuple[float, float]:
    """Lateral density centroids of the two localized dot orbitals (nm)."""
    phi_a, phi_b, _ = localized_pair(solution, grid)
    cx = [orbital_centroid_x(phi, grid) for phi in (phi_a, phi_b)]
    return (min(cx), max(cx))


def calibrate_field_map(spec: DeviceSpec, mat: MaterialParams,
                        *, grid=None, solution=None,
                        transition_width_nm: float = 15.0):
    """Solve the two-plateau B_Z(x) exactly for the Zeeman anchors.

    B(x) = B_L + (B_R - B_L) s(x) with a tanh transition under the middle
    gate. The dot-averaged fields are linear in (B_L, B_R), so the two
    anchor equations solve exactly; flat plateaus at the dots keep the
    splittings first-order insensitive to noise-driven dot motion (a linear
    gradient converts centroid jitter of the soft dots into E_Z noise well
    above the acceptance bound). Returns (map, parameter dict).
    """
    from .dots import find_dots, localized_pair

    grid = grid or build_grid(spec)
    if solution is None:
        solution = solve_operating_point(spec, mat, grid=grid)
    regions = find_dots(solution, grid)
    x_mid = regions.barrier_x_nm
    phi_a, phi_b, _ = localized_pair(solution, grid)
    weights = []
    for phi in (phi_a, phi_b):
        w = (phi**2).sum(axis=0)
        weights.append((float((w * grid.x).sum() / w.sum()), w / w.sum()))
    weights.sort(key=lambda t: t[0])
    s_x = 0.5 * (1.0 + np.tanh((grid.x - x_mid) / transition_width_nm))
    s_l = float((weights[0][1] * s_x).sum())
    s_r = float((weights[1][1] * s_x).sum())
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
                                        -1.0, spec.width_nm + 1.0)
    return fmap, params


def total_filling(solution, coulomb_length_nm: float) -> float:
    return float(solution.occupancies_per_nm.sum() * coulomb_length_nm)


def refine_schottky(make_spec, phi0: float, phi1: float, *,
                    target_electrons: float = 1.9, tol: float = 0.1,
                    coulomb_length_nm: float = DEFAULT_COULOMB_LENGTH_NM,
                    max_steps: int = 5):
    """Secant on the Schottky barrier height for the (1,1) filling.

    `make_spec(phi_b)` returns (DeviceSpec, MaterialParams) for a candidate
    barrier height; the target is ~2 electrons integrated over the dot pair.
    """
    def fill(phi):
        spec, mat = make_spec(phi)
        sol = self_consistent_solve(spec, mat, pinit_biases())
        return total_filling(sol, coulomb_length_nm)

    n0, n1 = fill(phi0), fill(phi1)
    for _ in range(max_steps):
        if abs(n1 - target_electrons) < tol or n1 == n0:
            break
        phi2 = phi1 + (target_electrons - n1) * (phi1 - phi0) / (n1 - n0)
        phi2 = float(np.clip(phi2, 0.30, 0.60))
        phi0, n0 = phi1, n1
        phi1, n1 = phi2, fill(phi2)
    return phi1, n1


def measure_j(spec: DeviceSpec, mat: MaterialParams, v_m_v: float,
              coulomb_length_nm: float = DEFAULT_COULOMB_LENGTH_NM,
              grid=None) -> float:
    grid = grid or build_grid(spec)
    sol = solve_operating_point(spec, mat, v_m_v, grid=grid)
    return exchange_energy(sol, grid, mat, coulomb_length_nm)


def refine_spacer(make_spec, s0: float, s1: float, *,
                  target_j_hz: float = ANCHOR_J400_HZ, rel_tol: float = 0.08,
                  max_steps: int = 6):
    """Secant on the spacer thickness, matching ln J(400) to the anchor.

    `make_spec(spacer_nm)` returns (DeviceSpec, MaterialParams); the spacer
    sets the smoothing of the inter-dot barrier and therefore ln J almost
    linearly over the relevant window.
    """
    def lnj(s):
        spec, mat = make_spec(s)
        return np.log(measure_j(spec, mat, 0.400))

    target = np.log(target_j_hz)
    y0, y1 = lnj(s0), lnj(s1)
    for _ in range(max_steps):
        if abs(y1 - target) < rel_tol or y1 == y0:
            break
        s2 = s1 + (target - y1) * (s1 - s0) / (y1 - y0)
        s0, y0 = s1, y1
        s1, y1 = float(s2), lnj(float(s2))
    return s1, float(np.exp(y1))


def verify_anchors(device_cfg_path, *, e_z_rel_tol: float = 0.01,
                   j_rel_tol: float = 0.20) -> dict:
    """Measure the four anchors on a device file; returns the report dict."""
    from .dots import field_map_from_config

    spec, mat, biases, extra = load_device_config(device_cfg_path)
    grid = build_grid(spec)
    fmap = field_map_from_config(extra.get("field_map", {}), spec.width_nm)
    coulomb = float(extra.get("exchange", {}).get("coulomb_length_nm",
                                                  DEFAULT_COULOMB_LENGTH_NM))
    sol400 = solve_operating_point(spec, mat, grid=grid)
    e_zl, e_zr = zeeman_splittings(sol400, fmap, grid)
    j400 = exchange_energy(sol400, grid, mat, coulomb)
    j408 = measure_j(spec, mat, 0.408, coulomb, grid=grid)
    report = {
        "e_zl_hz": e_zl, "e_zr_hz": e_zr, "j400_hz": j400, "j408_hz": j408,
        "n_dots": find_dots(sol400, grid).n_dots,
        "pass_e_zl": abs(e_zl - ANCHOR_E_ZL_HZ) <= e_z_rel_tol * ANCHOR_E_ZL_HZ,
        "pass_e_zr": abs(e_zr - ANCHOR_E_ZR_HZ) <= e_z_rel_tol * ANCHOR_E_ZR_HZ,
        "pass_j400": abs(j400 - ANCHOR_J400_HZ) <= j_rel_tol * ANCHOR_J400_HZ,
        "pass_j408": abs(j408 - ANCHOR_J408_HZ) <= j_rel_tol * ANCHOR_J408_HZ,
    }
    report["pass_all"] = all(report[k] for k in
                             ("pass_e_zl", "pass_e_zr", "pass_j400", "pass_j408"))
    return report


def main(argv=None):
    argv = argv if argv is not None else sys.argv[1:]
    if not argv:
        from .cli import default_device_path
        argv = [default_device_path()]
    report = verify_anchors(argv[0])
    for k, v in report.items():
        print(f"{k:12s} {v}")
    return 0 if report["pass_all"] else 1


if __name__ == "__main__":
    sys.exit(main())
