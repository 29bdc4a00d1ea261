"""Effective-mass eigenstates in the quantum well and the self-consistent loop.

The eigenproblem H = -(hbar^2/2) div(1/m* grad) + V is restricted to the
Quantum region (the buried Si well), with a hard wall on the region boundary.
Masses are anisotropic: `mass_lateral` acts along x, `mass_vertical` along
the growth direction. The well is a single rectangular block of cells, so the
discrete operator is assembled once per grid and reused with new potentials.

Occupation statistics treat each 2D eigenstate as a 1D subband that is free
along the long [001] axis of the device; the resulting line density times
|psi|^2 is the 3D electron density fed back into the Poisson solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from .constants import HBAR2_OVER_2M0, K_B_EV
from .device import (
    NM3_PER_CM3,
    DeviceBiases,
    DeviceSpec,
    Grid,
    MaterialParams,
    build_grid,
    bulk_charge,
    device_config_text,
    fermi_minus_half,
    parse_device_config,
    solve_poisson,
)
from .errors import ConfigurationError, NonConvergenceError, NumericalError

log = logging.getLogger("dqdsim")

# A continuation stage whose residual has set no new minimum for this many
# iterations is abandoned: it would only run on to the cap, and a failed
# stage is discarded anyway.
STALL_WINDOW = 50

# A warm-started eigensolve shifts this far below the start's ground energy.
WARM_SHIFT_BELOW_GROUND_EV = 1e-3


@dataclass
class Spectrum:
    """Lowest eigenpairs on the Quantum region.

    wavefunctions[i] is a full-grid (ny, nx) real array, zero outside the
    region, normalized so sum(|psi|^2) dx dy = 1 (units nm^-1).
    """

    energies_ev: np.ndarray
    wavefunctions: np.ndarray          # (n_states, ny, nx)
    n_states: int

    def check_orthonormal(self, dx: float, dy: float, tol: float = 1e-10) -> float:
        flat = self.wavefunctions.reshape(self.n_states, -1)
        gram = flat @ flat.T * dx * dy
        err = float(np.max(np.abs(gram - np.eye(self.n_states))))
        if err > tol:
            raise NumericalError(f"eigenvectors not orthonormal: {err:.2e}")
        return err


def well_rows(grid: Grid) -> tuple[int, int]:
    """Row range [j0, j1) of the Quantum region."""
    rows = np.nonzero(grid.quantum_mask.any(axis=1))[0]
    if rows.size == 0:
        raise ConfigurationError("grid has no Quantum region")
    return int(rows[0]), int(rows[-1]) + 1


def _well_kinetic(grid: Grid, mat: MaterialParams) -> sp.csr_matrix:
    """Hard-wall kinetic operator on the well block (cached per grid)."""
    key = ("kinetic", mat.mass_lateral, mat.mass_vertical)
    if key in grid._cache:
        return grid._cache[key]
    j0, j1 = well_rows(grid)
    nr, nx = j1 - j0, grid.nx
    tx = HBAR2_OVER_2M0 / (mat.mass_lateral * grid.dx**2)
    ty = HBAR2_OVER_2M0 / (mat.mass_vertical * grid.dy**2)

    def idx(r, i):
        return r * nx + i

    n = nr * nx
    diag = np.full(n, 2.0 * tx + 2.0 * ty)  # interior + mirror wall terms
    rows, cols, vals = [], [], []
    rr, ii = np.meshgrid(np.arange(nr), np.arange(nx - 1), indexing="ij")
    a, b = idx(rr, ii).ravel(), idx(rr, ii + 1).ravel()
    rows += [a, b]
    cols += [b, a]
    vals += [np.full(a.size, -tx)] * 2
    rr, ii = np.meshgrid(np.arange(nr - 1), np.arange(nx), indexing="ij")
    a, b = idx(rr, ii).ravel(), idx(rr + 1, ii).ravel()
    rows += [a, b]
    cols += [b, a]
    vals += [np.full(a.size, -ty)] * 2
    # mirror-ghost wall: boundary cells get an extra +t toward the wall face
    diag2 = diag.copy().reshape(nr, nx)
    diag2[:, 0] += tx
    diag2[:, -1] += tx
    diag2[0, :] += ty
    diag2[-1, :] += ty
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(diag2.ravel())
    kin = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    grid._cache[key] = kin
    return kin


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Deterministic eigenvector sign: largest-magnitude entry positive."""
    out = vecs.copy()
    for k in range(out.shape[1]):
        imax = int(np.argmax(np.abs(out[:, k])))
        if out[imax, k] < 0:
            out[:, k] = -out[:, k]
    return out


def _column_major_kinetic(grid: Grid, mat: MaterialParams):
    """The well's kinetic operator with cells ordered column by column
    (bandwidth = well rows): (order, CSR matrix, upper band storage).
    Cached per grid."""
    key = ("kinetic-column-major", mat.mass_lateral, mat.mass_vertical)
    if key not in grid._cache:
        j0, j1 = well_rows(grid)
        nr, nx = j1 - j0, grid.nx
        order = np.arange(nr * nx).reshape(nr, nx).T.ravel()
        kin = _well_kinetic(grid, mat)[order][:, order].tocsr()
        band = np.zeros((nr + 1, nr * nx))
        for k in range(nr + 1):
            band[nr - k, k:] = kin.diagonal(k)
        grid._cache[key] = (order, kin, band)
    return grid._cache[key]


def shifted_well_cholesky(band: np.ndarray, v: np.ndarray,
                          shift: float) -> np.ndarray:
    """Upper banded Cholesky factor of H - shift on the column-ordered well,
    H = kinetic `band` + diag(v). Raises LinAlgError unless every eigenvalue
    of H lies above `shift`."""
    ab = band.copy()
    ab[-1] += v - shift
    return cholesky_banded(ab, check_finite=False)


def solve_eigenstates(potential_ev: np.ndarray, grid: Grid, mat: MaterialParams,
                      n_states: int, method: str = "auto",
                      start: Spectrum | None = None) -> Spectrum:
    """Lowest eigenpairs of the effective-mass Hamiltonian on the well.

    Parameters
    ----------
    potential_ev : full-grid (ny, nx) electron potential energy, eV.
    method : "auto" | "sparse" | "dense". The dense branch is the test
        oracle for small problems and the fallback for tiny grids.
    start : a spectrum of a nearby potential with the same `n_states`, for
        a warm start of the sparse solve.

    The sparse solve is ARPACK in shift-invert mode, with (H - sigma)^-1
    applied through a banded Cholesky factor of the column-ordered well.
    Cold, sigma = min(V) - 5 meV and the start vector is uniform; H - sigma
    is then always positive definite. Warm, sigma lies
    `WARM_SHIFT_BELOW_GROUND_EV` below the start's ground energy and the
    start vector is the sum of its states. The factorization succeeds only
    when every eigenvalue lies above sigma, so either way ARPACK returns
    the lowest `n_states`; when it fails, the solve runs cold and logs the
    fallback at DEBUG on the `dqdsim` logger.
    """
    if n_states < 2:
        raise ConfigurationError("n_states must be >= 2")
    if not np.all(np.isfinite(potential_ev)):
        raise ConfigurationError("potential contains non-finite entries")
    j0, j1 = well_rows(grid)
    v = potential_ev[j0:j1, :].ravel()
    n = v.size
    if n_states >= n:
        raise ConfigurationError("n_states exceeds the Quantum-region size")

    if method == "auto":
        method = "dense" if n <= 400 else "sparse"
    if method == "dense":
        h = _well_kinetic(grid, mat) + sp.diags(v)
        w, vecs = np.linalg.eigh(h.toarray())
        w, vecs = w[:n_states], vecs[:, :n_states]
    elif method == "sparse":
        order, kin, band = _column_major_kinetic(grid, mat)
        v = v[order]
        chol = None
        if start is not None and start.n_states == n_states:
            sigma = float(start.energies_ev[0]) - WARM_SHIFT_BELOW_GROUND_EV
            try:
                chol = shifted_well_cholesky(band, v, sigma)
            except LinAlgError:
                log.debug("warm eigensolve fell back to a cold start: an "
                          "eigenvalue lies below the shift %.6e eV", sigma)
            else:
                v0 = start.wavefunctions[:, j0:j1, :].reshape(
                    n_states, -1).sum(axis=0)[order]
        if chol is None:
            sigma = float(v.min()) - 5e-3
            chol = shifted_well_cholesky(band, v, sigma)
            v0 = np.full(n, 1.0 / np.sqrt(n))  # fixed start vector: determinism
        # in shift-invert mode ARPACK applies only OPinv; h gives it the shape
        h = spla.LinearOperator((n, n), matvec=lambda x: kin @ x + v * x,
                                dtype=float)
        op_inv = spla.LinearOperator(
            (n, n), matvec=lambda x: cho_solve_banded((chol, False), x,
                                                      check_finite=False),
            dtype=float)
        try:
            w, vecs_c = spla.eigsh(h, k=n_states, sigma=sigma, which="LM",
                                   v0=v0, tol=0, maxiter=1000, OPinv=op_inv)
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(
                "eigensolver did not converge",
                diagnostics={"converged": len(getattr(exc, "eigenvalues", [])),
                             "requested": n_states},
            ) from exc
        vecs = np.empty_like(vecs_c)
        vecs[order] = vecs_c
        idx = np.argsort(w)
        w, vecs = w[idx], vecs[:, idx]
    else:
        raise ConfigurationError(f"unknown eigensolver method {method!r}")

    return well_spectrum(w, vecs, grid)


def well_spectrum(energies_ev: np.ndarray, vecs: np.ndarray,
                  grid: Grid) -> Spectrum:
    """Spectrum from unit-norm eigenvectors on the well block (columns, in
    the block's row-major cell order): deterministic signs, continuum
    normalization and zero padding to the full grid."""
    j0, j1 = well_rows(grid)
    n_states = vecs.shape[1]
    vecs = _fix_signs(vecs)
    vecs /= np.sqrt(grid.dx * grid.dy)  # continuum normalization, nm^-1
    full = np.zeros((n_states, grid.ny, grid.nx))
    full[:, j0:j1, :] = vecs.T.reshape(n_states, j1 - j0, grid.nx)
    return Spectrum(energies_ev=energies_ev, wavefunctions=full,
                    n_states=n_states)


def localized_pair_from(wavefunctions: np.ndarray, energies_ev: np.ndarray,
                        grid: Grid):
    """Maximally localized combinations of the two lowest well states.

    Diagonalizes the lateral position operator in the two-state subspace;
    returns (phi_left, phi_right, h2) with phi on the well block and h2 the
    effective 2x2 Hamiltonian (eV) in the localized basis, ordered left to
    right.
    """
    j0, j1 = well_rows(grid)
    psi = [wavefunctions[k][j0:j1, :] for k in (0, 1)]
    da = grid.dx * grid.dy
    x_op = np.empty((2, 2))
    for a in range(2):
        for b in range(2):
            x_op[a, b] = (psi[a] * psi[b] * grid.x[None, :]).sum() * da
    pos, w = np.linalg.eigh(0.5 * (x_op + x_op.T))
    order = np.argsort(pos)
    w = w[:, order]
    phi = [w[0, c] * psi[0] + w[1, c] * psi[1] for c in range(2)]
    h2 = w.T @ np.diag(energies_ev[:2]) @ w
    return phi[0], phi[1], h2


def pinned_quantum_charge(spectrum: Spectrum, grid: Grid,
                          occupations: tuple[float, float],
                          length_nm: float) -> np.ndarray:
    """Quantum charge with Coulomb-blockade-pinned dot occupation, cm^-3.

    In the (1,1) operating regime the electron number per dot is locked by
    the addition energy; each dot's charge is its occupation spread over the
    localized ground orbital and over the [001] dot extent. Grand-canonical
    filling (quantum_charge) is still what detects the regime boundaries in
    bias sweeps.
    """
    phi_l, phi_r, _ = localized_pair_from(spectrum.wavefunctions,
                                          spectrum.energies_ev, grid)
    j0, j1 = well_rows(grid)
    n_nm3 = np.zeros((grid.ny, grid.nx))
    n_nm3[j0:j1, :] = (occupations[0] * phi_l**2
                       + occupations[1] * phi_r**2) / length_nm
    return n_nm3 / NM3_PER_CM3


def subband_line_density(energies_ev: np.ndarray, e_fermi_ev: float,
                         temperature_k: float, mat: MaterialParams) -> np.ndarray:
    """Electrons per nm of [001] length in each 2D subband.

    N_i = g sqrt(2 m_t kT) / (2 sqrt(pi) hbar) * F_{-1/2}((E_F - E_i)/kT),
    g = spin x valley degeneracy.
    """
    kt = K_B_EV * temperature_k
    eta = (e_fermi_ev - np.asarray(energies_ev)) / kt
    g = 2.0 * mat.valley_degeneracy
    k_th = np.sqrt(mat.mass_transport * kt / HBAR2_OVER_2M0)  # sqrt(2mkT)/hbar
    return g * k_th / (2.0 * np.sqrt(np.pi)) * fermi_minus_half(eta)


def quantum_charge(spectrum: Spectrum, e_fermi_ev: float, temperature_k: float,
                   grid: Grid, mat: MaterialParams) -> np.ndarray:
    """Quantum-region electron density (cm^-3) from occupied subbands."""
    occ = subband_line_density(spectrum.energies_ev, e_fermi_ev,
                               temperature_k, mat)
    n_nm3 = np.tensordot(occ, spectrum.wavefunctions**2, axes=(0, 0))
    return n_nm3 / NM3_PER_CM3


class ScfStage(NamedTuple):
    """One fixed-temperature stage of the self-consistent loop."""

    temperature_k: float
    iterations: int
    converged: bool
    abandoned: bool


@dataclass
class ConvergedSolution:
    potential_ev: np.ndarray
    charge_cm3: np.ndarray
    spectrum: Spectrum
    biases: DeviceBiases
    iterations: int
    final_update_norm_ev: float
    occupancies_per_nm: np.ndarray     # line density per eigenstate
    stages: tuple[ScfStage, ...] = ()
    update_history_ev: list[float] = field(default_factory=list)  # all stages


def _scf_fixed_t(grid: Grid, mat: MaterialParams, biases: DeviceBiases,
                 t_k: float, u0: np.ndarray, n_states: int, mixing: float,
                 tol_ev: float, max_iter: int, eig_method: str,
                 pin_occupation=None, pin_length_nm=60.0,
                 stall_window: int | None = None):
    """One damped fixed-point stage at a fixed temperature.

    The update norm is the undamped residual max|G(u) - u| with
    G(u) = poisson(charge(u)), so the stopping point does not depend on the
    mixing factor. With `stall_window`, the stage is abandoned once its
    residual has set no new minimum for that many iterations. Every
    eigensolve after the stage's first is warm-started from the previous
    iteration's spectrum.

    Returns (u, charge, spectrum, resid, history, stage). When the stage
    does not converge, u is the last iterate and charge and spectrum are
    None.
    """
    u = u0
    history = []
    beta = mixing
    best, best_it = np.inf, 0
    spectrum = None
    for it in range(1, max_iter + 1):
        spectrum = solve_eigenstates(u, grid, mat, n_states, method=eig_method,
                                     start=spectrum)
        if pin_occupation is None:
            qcharge = quantum_charge(spectrum, mat.fermi_level_ev, t_k, grid, mat)
        else:
            qcharge = pinned_quantum_charge(spectrum, grid, pin_occupation,
                                            pin_length_nm)
        charge = bulk_charge(u, grid, mat, t_k) + qcharge
        u_new = solve_poisson(grid, mat, biases, charge)
        resid = float(np.max(np.abs(u_new - u)))
        history.append(resid)
        if resid <= tol_ev:
            return (u, charge, spectrum, resid, history,
                    ScfStage(t_k, it, True, False))
        # adaptive safeguard: shrink the step while the residual grows
        if resid > 1.5 * best and beta > 0.01:
            beta = max(beta * 0.5, 0.01)
        if resid < best:
            best, best_it = resid, it
        elif stall_window is not None and it - best_it >= stall_window:
            log.debug("SCF stage at %g K abandoned after %d iterations: "
                      "best residual %.3e eV at iteration %d",
                      t_k, it, best, best_it)
            return u, None, None, resid, history, ScfStage(t_k, it, False, True)
        u = u + beta * (u_new - u)
    return u, None, None, resid, history, ScfStage(t_k, max_iter, False, False)


def self_consistent_solve(spec: DeviceSpec, mat: MaterialParams,
                          biases: DeviceBiases, *, grid: Grid | None = None,
                          n_states: int = 6, mixing: float = 0.1,
                          tol_ev: float = 1e-6, max_iter: int = 600,
                          start_potential: np.ndarray | None = None,
                          eig_method: str = "auto",
                          pin_occupation: tuple[float, float] | None = None,
                          pin_length_nm: float = 60.0) -> ConvergedSolution:
    """Alternate Poisson and charge models with damped potential mixing.

    A cold start descends through a short temperature continuation
    (40 K -> 8 K -> T): occupations are steep at 1.5 K and the hot stages
    provide a well-behaved warm start. A continuation stage is abandoned
    when it hits `max_iter` or when its residual has set no new minimum for
    `STALL_WINDOW` iterations; the next stage then starts from the last
    converged potential. The final stage always runs at the device
    temperature with exact Fermi-Dirac occupation and the 1 ueV max-norm
    tolerance. It is never cut short: at `max_iter` (if that is >= 50) it
    is retried once with heavy damping, and NonConvergenceError (with the
    residual history and stage records) is raised when a cap ends it.

    The solution records every stage as a `ScfStage` and the residual
    history of all stages in order; `iterations` is their total.

    With `pin_occupation` = (n_left, n_right) the quantum charge is the
    Coulomb-blockade-pinned model (fixed electron number per dot, spread
    over the localized ground orbitals and the [001] extent `pin_length_nm`)
    instead of the grand-canonical reservoir filling. Operating-point solves
    in the (1,1) regime use this; bias-sweep occupancy detection does not.
    """
    if not 0.0 < mixing <= 0.5:
        raise ConfigurationError("mixing factor must lie in (0, 0.5]")
    grid = grid or build_grid(spec)
    t_dev = spec.temperature_k
    stages, history = [], []

    def stage(t_k, u0, beta, tol, cap, stall_window=None):
        u, charge, spectrum, resid, hist, record = _scf_fixed_t(
            grid, mat, biases, t_k, u0, n_states, beta, tol, cap, eig_method,
            pin_occupation, pin_length_nm, stall_window)
        history.extend(hist)
        stages.append(record)
        return u, charge, spectrum, resid, record

    if start_potential is not None:
        u = start_potential
    else:
        u = solve_poisson(grid, mat, biases, np.zeros((grid.ny, grid.nx)))
        for t_stage in (40.0, 8.0):
            if t_stage <= t_dev:
                continue
            u_stage, *_, done = stage(t_stage, u, mixing, max(tol_ev, 2e-5),
                                      max_iter, STALL_WINDOW)
            if done.converged:
                u = u_stage

    u_fin, charge, spectrum, resid, done = stage(t_dev, u, mixing, tol_ev,
                                                 max_iter)
    if not done.converged and max_iter >= 50:
        # oscillating filling transitions: one retry with heavy damping,
        # warm-started from the last iterate
        u_fin, charge, spectrum, resid, done = stage(
            t_dev, u_fin, 0.02, tol_ev, 3 * max_iter)
    if not done.converged:
        raise NonConvergenceError(
            f"self-consistent loop hit the iteration cap "
            f"(last update {resid:.3e} eV)",
            diagnostics={"update_history_ev": history, "stages": stages},
        )
    occ = subband_line_density(spectrum.energies_ev, mat.fermi_level_ev,
                               t_dev, mat)
    return ConvergedSolution(
        potential_ev=u_fin, charge_cm3=charge, spectrum=spectrum,
        biases=biases, iterations=sum(st.iterations for st in stages),
        final_update_norm_ev=resid, occupancies_per_nm=occ,
        stages=tuple(stages), update_history_ev=history,
    )


# ---------------------------------------------------------------------------
# Snapshot serialization
# ---------------------------------------------------------------------------

SNAPSHOT_VERSION = 1


def save_snapshot(path, solution: ConvergedSolution, spec: DeviceSpec,
                  mat: MaterialParams, extra: dict | None = None) -> None:
    """Versioned binary snapshot a downstream run can reload without re-solving."""
    # reuse the text schema for geometry metadata
    cfg_text = device_config_text(spec, mat, solution.biases, extra)
    np.savez_compressed(
        path,
        version=np.int64(SNAPSHOT_VERSION),
        potential_ev=solution.potential_ev,
        charge_cm3=solution.charge_cm3,
        energies_ev=solution.spectrum.energies_ev,
        wavefunctions=solution.spectrum.wavefunctions,
        occupancies_per_nm=solution.occupancies_per_nm,
        biases=np.array([solution.biases.v_b, solution.biases.v_l,
                         solution.biases.v_m, solution.biases.v_r,
                         solution.biases.drain_bias_v]),
        iterations=np.int64(solution.iterations),
        final_update_norm_ev=np.float64(solution.final_update_norm_ev),
        device_config=np.array(cfg_text),
    )


def load_snapshot(path):
    """Returns (solution, spec, mat, extra) from a snapshot file.

    The snapshot keeps the iteration total but not the stage records or the
    residual history; the loaded solution has those empty.
    """
    with np.load(path, allow_pickle=False) as z:
        if int(z["version"]) != SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"snapshot version {int(z['version'])} not supported"
            )
        spec, mat, biases, extra = parse_device_config(str(z["device_config"]))
        vb, vl, vm, vr, eps = z["biases"]
        biases = DeviceBiases(v_b=float(vb), v_l=float(vl), v_m=float(vm),
                              v_r=float(vr), drain_bias_v=float(eps))
        spectrum = Spectrum(
            energies_ev=z["energies_ev"].copy(),
            wavefunctions=z["wavefunctions"].copy(),
            n_states=int(z["energies_ev"].shape[0]),
        )
        solution = ConvergedSolution(
            potential_ev=z["potential_ev"].copy(),
            charge_cm3=z["charge_cm3"].copy(),
            spectrum=spectrum,
            biases=biases,
            iterations=int(z["iterations"]),
            final_update_norm_ev=float(z["final_update_norm_ev"]),
            occupancies_per_nm=z["occupancies_per_nm"].copy(),
        )
    return solution, spec, mat, extra
