"""Effective-mass eigenstates in the quantum well and the self-consistent loop.

The eigenproblem H = -(hbar^2/2) div(1/m* grad) + V is restricted to the
Quantum region (the buried Si well), with a hard wall on the region boundary.
Masses are anisotropic: `mass_lateral` acts along x, `mass_vertical` along
the growth direction. The well is a single rectangular block of cells, so the
discrete operator is assembled once per grid and reused with new potentials.

One format holds a well state: a `Spectrum` keeps its states on the well
block, shape (n_states, well rows, nx). The eigensolvers order the block's
cells column by column (`to_solver_order`), which makes the operator banded
with bandwidth = well rows (`well_kinetic`); `well_spectrum` turns solver
eigenvectors back into block states. `quantum_charge` is the one place a
density is embedded into the full grid.

Occupation statistics treat each 2D eigenstate as a 1D subband that is free
along the long [001] axis of the device; the resulting line density times
|psi|^2 is the 3D electron density fed back into the Poisson solver.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
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
    fermi_minus_half,
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

# Anderson mixing: the number of residual differences it fits, and the
# residual below which it extrapolates (above it the step is purely damped).
# Undamped, always-on Anderson mixing blew up from 2.2e-2 eV on the shipped
# device, so the start stays at or below 10 meV.
ANDERSON_DEPTH = 5
ANDERSON_START_EV = 1e-2

# A cold solve's continuation stage only seeds the final stage, which starts
# ~2e-2 eV away from the continuation's solution however tightly that is
# converged: the stage stops at this residual.
SEED_TOL_EV = 1e-3

# The self-consistent solve: well states it keeps, the ceiling of its
# damping factor, its max-norm tolerance on the undamped residual, and the
# iteration cap of each stage. Read at call time.
N_STATES = 6
MIXING = 0.1
TOL_EV = 1e-6
MAX_ITER = 600

# Every constant above that a solve reads at call time.
SCF_SETTINGS = ("N_STATES", "MIXING", "TOL_EV", "MAX_ITER", "ANDERSON_DEPTH",
                "ANDERSON_START_EV", "SEED_TOL_EV", "STALL_WINDOW",
                "WARM_SHIFT_BELOW_GROUND_EV")


def scf_settings() -> tuple:
    """(name, value) of each of `SCF_SETTINGS` as they stand now: what a
    memo of solutions must key on besides the solve's arguments."""
    return tuple((name, globals()[name]) for name in SCF_SETTINGS)


@dataclass
class Spectrum:
    """Lowest eigenpairs on the Quantum region.

    wavefunctions[i] is a real (well rows, nx) array on the well block,
    rows `well_rows(grid)` of the grid, normalized so sum(|psi|^2) dx dy = 1
    (units nm^-1).
    """

    energies_ev: np.ndarray
    wavefunctions: np.ndarray          # (n_states, well rows, nx)

    @property
    def n_states(self) -> int:
        return self.energies_ev.size


def well_rows(grid: Grid) -> tuple[int, int]:
    """Row range [j0, j1) of the Quantum region."""
    rows = np.nonzero(grid.quantum_mask.any(axis=1))[0]
    if rows.size == 0:
        raise ConfigurationError("grid has no Quantum region")
    return int(rows[0]), int(rows[-1]) + 1


def to_solver_order(a: np.ndarray) -> np.ndarray:
    """Well-block arrays (..., rows, cols) flattened to the eigensolvers'
    cell order, column by column: (..., rows * cols). `well_spectrum`
    holds the inverse."""
    return np.swapaxes(a, -1, -2).reshape(a.shape[:-2] + (-1,))


def well_kinetic(grid: Grid, mat: MaterialParams):
    """Hard-wall kinetic operator on the well block in solver order, as
    (CSR matrix, upper band storage for `cholesky_banded`). Cached per grid.

    Five-point stencil; a boundary cell gets an extra +t toward each wall
    face (mirror ghost). Vertical neighbours are adjacent in solver order,
    so the bandwidth is the number of well rows, and the coupling across
    the end of each column is zero.
    """
    key = ("kinetic", mat.mass_lateral, mat.mass_vertical)
    if key not in grid._cache:
        j0, j1 = well_rows(grid)
        nr, nx = j1 - j0, grid.nx
        tx = HBAR2_OVER_2M0 / (mat.mass_lateral * grid.dx**2)
        ty = HBAR2_OVER_2M0 / (mat.mass_vertical * grid.dy**2)
        diag = np.full((nr, nx), 2.0 * tx + 2.0 * ty)
        diag[:, 0] += tx
        diag[:, -1] += tx
        diag[0, :] += ty
        diag[-1, :] += ty
        band = np.zeros((nr + 1, nr * nx))
        band[nr] = to_solver_order(diag)
        band[nr - 1, 1:] = -ty
        band[nr - 1, ::nr] = 0.0       # no coupling across a column's end
        band[0, nr:] = -tx
        offsets = range(1, nr + 1)
        upper = [band[nr - k, k:] for k in offsets]
        kin = sp.diags([band[nr]] + upper + upper,
                       [0, *offsets, *(-k for k in offsets)], format="csr")
        grid._cache[key] = (kin, band)
    return grid._cache[key]


def weyl_floor(energies_ev, u: np.ndarray, u_ref: np.ndarray, grid: Grid):
    """Lower bounds on the well levels of the potential `u`, given the
    levels `energies_ev` of `u_ref`: each lowered by the most negative
    change u - u_ref over the well, when there is one. By Weyl's inequality
    (Horn & Johnson, Matrix Analysis, Thm 4.3.1) the k-th level of u lies
    at or above the k-th bound."""
    j0, j1 = well_rows(grid)
    return energies_ev + min(0.0, float((u[j0:j1] - u_ref[j0:j1]).min()))


def shifted_well_cholesky(band: np.ndarray, v: np.ndarray,
                          shift: float) -> np.ndarray:
    """Upper banded Cholesky factor of H - shift in solver order,
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

    Both branches solve H = `well_kinetic` + diag(V) in solver order; they
    differ only in the eigensolver. The sparse solve is ARPACK in
    shift-invert mode, with (H - sigma)^-1 applied through a banded
    Cholesky factor. Cold, sigma = min(V) - 5 meV and the start vector is
    uniform; H - sigma is then always positive definite. Warm, sigma lies
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
    v = to_solver_order(potential_ev[j0:j1])
    n = v.size
    if n_states >= n:
        raise ConfigurationError("n_states exceeds the Quantum-region size")

    kin, band = well_kinetic(grid, mat)
    if method == "auto":
        method = "dense" if n <= 400 else "sparse"
    if method == "dense":
        w, vecs = np.linalg.eigh(kin.toarray() + np.diag(v))
        w, vecs = w[:n_states], vecs[:, :n_states]
    elif method == "sparse":
        chol = None
        if start is not None and start.n_states == n_states:
            sigma = float(start.energies_ev[0]) - WARM_SHIFT_BELOW_GROUND_EV
            try:
                chol = shifted_well_cholesky(band, v, sigma)
            except LinAlgError:
                log.debug("warm eigensolve fell back to a cold start: an "
                          "eigenvalue lies below the shift %.6e eV", sigma)
            else:
                v0 = to_solver_order(start.wavefunctions).sum(axis=0)
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
            w, vecs = spla.eigsh(h, k=n_states, sigma=sigma, which="LM",
                                 v0=v0, tol=0, maxiter=1000, OPinv=op_inv)
        except spla.ArpackNoConvergence as exc:
            raise NumericalError(
                "eigensolver did not converge",
                diagnostics={"converged": len(getattr(exc, "eigenvalues", [])),
                             "requested": n_states},
            ) from exc
        idx = np.argsort(w)
        w, vecs = w[idx], vecs[:, idx]
    else:
        raise ConfigurationError(f"unknown eigensolver method {method!r}")

    return well_spectrum(w, vecs, grid)


def well_spectrum(energies_ev: np.ndarray, vecs: np.ndarray,
                  grid: Grid) -> Spectrum:
    """Spectrum from unit-norm eigenvectors, the columns of `vecs` in solver
    order: states on the well block, each with its first largest-magnitude
    entry (row-major) positive, in continuum normalization."""
    j0, j1 = well_rows(grid)
    states = np.ascontiguousarray(
        np.swapaxes(vecs.T.reshape(-1, grid.nx, j1 - j0), -1, -2))
    for psi in states:                  # deterministic sign
        if psi.flat[np.argmax(np.abs(psi))] < 0:
            psi *= -1.0
    states /= np.sqrt(grid.dx * grid.dy)  # continuum normalization, nm^-1
    return Spectrum(energies_ev=energies_ev, wavefunctions=states)


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
    """Electron density (cm^-3) of the occupied subbands on the full grid,
    zero outside the well rows."""
    occ = subband_line_density(spectrum.energies_ev, e_fermi_ev,
                               temperature_k, mat)
    j0, j1 = well_rows(grid)
    n_nm3 = np.zeros((grid.ny, grid.nx))
    n_nm3[j0:j1] = np.tensordot(occ, spectrum.wavefunctions**2, axes=(0, 0))
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
                 t_k: float, u0: np.ndarray, mixing: float,
                 tol_ev: float, max_iter: int,
                 stall_window: int | None = None,
                 spectrum: Spectrum | None = None):
    """One damped, Anderson-accelerated fixed-point stage at a fixed
    temperature.

    The update norm is the undamped residual max|f| with f = G(u) - u and
    G(u) = poisson(charge(u)), so the stopping point does not depend on the
    mixing factor. While the residual is at or above `ANDERSON_START_EV`
    the step is the damped u + beta f. Below it the step is Walker-Ni
    Anderson mixing, u + beta f - (dU + beta dF) gamma, with gamma the
    least-squares fit of f on the last `ANDERSON_DEPTH` residual
    differences dF (dU the matching iterate differences). The history is
    cleared whenever the residual exceeds 1.5 times its best, which also
    halves beta (down to 0.01), or rises back above `ANDERSON_START_EV`.
    Each residual that sets a new minimum grows beta by 1.5, up to
    `mixing`, so a halved beta recovers while the residual falls. With
    `stall_window`, the stage is abandoned once its residual has set no new
    minimum for that many iterations.

    `spectrum`, when given, is the spectrum of `u0`; the first iteration
    then uses it instead of solving. Every other eigensolve is
    warm-started from the previous iteration's spectrum, with its energies
    lowered to their `weyl_floor` on the new potential, so the warm shift
    stays below the new ground state and the factorization never falls
    back to a cold solve.

    Returns (u, charge, spectrum, resid, history, stage). When the stage
    does not converge, u is the last iterate and charge and spectrum are
    None.
    """
    u = u0
    history = []
    beta = mixing
    best, best_it = np.inf, 0
    depth = ANDERSON_DEPTH
    d_u = np.empty((depth,) + u0.shape)     # ring buffers of differences
    d_f = np.empty((depth,) + u0.shape)
    n_diff, prev = 0, None                  # prev: last (u, f) below start
    u_spectrum = u0                         # the potential of `spectrum`
    for it in range(1, max_iter + 1):
        if it > 1 or spectrum is None:
            if spectrum is not None:
                spectrum = replace(spectrum, energies_ev=weyl_floor(
                    spectrum.energies_ev, u, u_spectrum, grid))
            spectrum = solve_eigenstates(u, grid, mat, N_STATES,
                                         start=spectrum)
            u_spectrum = u
        charge = (bulk_charge(u, grid, mat, t_k)
                  + quantum_charge(spectrum, mat.fermi_level_ev, t_k, grid, mat))
        f = solve_poisson(grid, mat, biases, charge) - u
        resid = float(np.max(np.abs(f)))
        history.append(resid)
        if resid <= tol_ev:
            return (u, charge, spectrum, resid, history,
                    ScfStage(t_k, it, True, False))
        # adaptive safeguard: while the residual grows, shrink the step and
        # restart the Anderson history; while it falls, let the step recover
        if resid > 1.5 * best:
            n_diff, prev = 0, None
            if beta > 0.01:
                beta = max(beta * 0.5, 0.01)
        if resid < best:
            best, best_it = resid, it
            beta = min(mixing, 1.5 * beta)
        elif stall_window is not None and it - best_it >= stall_window:
            log.debug("SCF stage at %g K abandoned after %d iterations: "
                      "best residual %.3e eV at iteration %d",
                      t_k, it, best, best_it)
            return u, None, None, resid, history, ScfStage(t_k, it, False, True)
        if resid >= ANDERSON_START_EV or depth == 0:
            n_diff, prev = 0, None
            u = u + beta * f
            continue
        if prev is not None:
            slot = n_diff % depth
            np.subtract(u, prev[0], out=d_u[slot])
            np.subtract(f, prev[1], out=d_f[slot])
            n_diff += 1
        prev = (u, f)
        m = min(n_diff, depth)
        step = u + beta * f
        if m:
            flat = d_f[:m].reshape(m, -1)
            gamma = np.linalg.lstsq(flat @ flat.T, flat @ f.ravel(),
                                    rcond=None)[0]
            step -= np.tensordot(gamma, d_u[:m], axes=1)
            step -= beta * np.tensordot(gamma, d_f[:m], axes=1)
        u = step
    return u, None, None, resid, history, ScfStage(t_k, max_iter, False, False)


def self_consistent_solve(spec: DeviceSpec, mat: MaterialParams,
                          biases: DeviceBiases, *, grid: Grid | None = None,
                          start_potential: np.ndarray | None = None
                          ) -> ConvergedSolution:
    """Alternate Poisson and charge models with damped, Anderson-accelerated
    potential mixing.

    A cold start descends through a one-step temperature continuation
    (40 K -> T): occupations are steep at 1.5 K and the hot stage provides
    a well-behaved warm start. That stage only seeds the final one, so it
    stops at `SEED_TOL_EV` (1 meV), and the final stage's first iteration
    reuses its last spectrum, which was solved on exactly that potential:
    a cold solve makes one cold eigensolve. The continuation stage is
    abandoned when it hits `max_iter` or when its residual has set no new
    minimum for `STALL_WINDOW` iterations; the final stage then starts
    from the charge-free potential. Every stage mixes damped steps with
    Anderson extrapolation once its residual is below `ANDERSON_START_EV`
    (10 meV), with a damping factor up to `MIXING` (0.1) that halves when
    the residual jumps and recovers while it falls; see `_scf_fixed_t`.
    The final stage always runs at the device temperature with exact
    Fermi-Dirac occupation and the `TOL_EV` (1 ueV) max-norm tolerance.
    It is never cut short: at `MAX_ITER` (if that is >= 50) it is retried
    once with heavy damping, and NonConvergenceError (with the residual
    history and stage records) is raised when a cap ends it. The solve
    keeps the `N_STATES` lowest well states.

    The solution records every stage as a `ScfStage` and the residual
    history of all stages in order; `iterations` is their total.
    """
    grid = grid or build_grid(spec)
    t_dev = spec.temperature_k
    mixing, tol_ev, max_iter = MIXING, TOL_EV, MAX_ITER
    stages, history = [], []

    def stage(t_k, u0, beta, tol, cap, stall_window=None, spectrum=None):
        u, charge, spectrum, resid, hist, record = _scf_fixed_t(
            grid, mat, biases, t_k, u0, beta, tol, cap, stall_window,
            spectrum)
        history.extend(hist)
        stages.append(record)
        return u, charge, spectrum, resid, record

    u_spectrum = None                   # the spectrum of u, when known
    if start_potential is not None:
        u = start_potential
    else:
        u = solve_poisson(grid, mat, biases, np.zeros((grid.ny, grid.nx)))
        if t_dev < 40.0:
            u_stage, _, stage_spectrum, _, done = stage(
                40.0, u, mixing, max(tol_ev, SEED_TOL_EV), max_iter,
                STALL_WINDOW)
            if done.converged:
                u, u_spectrum = u_stage, stage_spectrum

    u_fin, charge, spectrum, resid, done = stage(t_dev, u, mixing, tol_ev,
                                                 max_iter, spectrum=u_spectrum)
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
