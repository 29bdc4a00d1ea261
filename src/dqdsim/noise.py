"""Quasi-static charge-noise sampling and parameter-fluctuation statistics.

A noise realization is one i.i.d. zero-mean Gaussian energy offset per grid
cell, drawn from a counter-based generator keyed by (seed, sample_index) so
any sample is reproducible in isolation and sweeps parallelize without
sequence coupling. The same standard-normal field scaled by sigma serves a
whole sigma sweep (common random numbers), which keeps fidelity-vs-sigma
curves smooth sample by sample.

Each sample re-solves the single-particle eigenproblem on the frozen
converged potential plus the noise field (no self-consistent re-loop: the
noise scale is micro-eV against a many-meV landscape, and re-running the
loop for every sample would dominate the Monte Carlo cost), then maps the
perturbed solution to its spin parameters with `Device.spin_params`. Both
entry points take the device and a converged solution on it
(`Device.solution_at`): `perturbed_spin_params` for one noise field,
`fluctuation_stats` for a whole run.

The per-sample eigensolve is a block inverse iteration warm-started from
the clean solution's states (subspace iteration with a Rayleigh-Ritz step,
Saad, Numerical Methods for Large Eigenvalue Problems, ch. 5). H - s, with
the shift s just below the clean ground energy, is positive definite and
banded once the well block is ordered column by column, so one banded
Cholesky factorization serves every iteration. The iteration stops when
the Ritz residual of the two lowest states, the only ones that feed E_Z
and J, is below `RESIDUAL_TOL_EV`. When H - s is not positive definite or
the bound is not met within `MAX_BLOCK_ITERATIONS`, the sample falls back
to the cold shift-invert solve `solve_eigenstates` and logs the reason at
DEBUG on the `dqdsim` logger.

Per-sample failures follow one rule everywhere (`SampleFailures`): every
per-sample `DqdError` except a `ConfigurationError` is counted by class and
skipped, and the run aborts once more than max(1, `MAX_FAILURE_FRACTION`
* n) of its n samples have failed.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded

from .device import Grid, MaterialParams
from .dots import Device
from .errors import ConfigurationError, DqdError, NumericalError
from .params import SpinParams
from .schrodinger import (
    ConvergedSolution,
    Spectrum,
    _column_major_kinetic,
    shifted_well_cholesky,
    solve_eigenstates,
    well_rows,
    well_spectrum,
)

log = logging.getLogger("dqdsim")

UEV_EV = 1e-6

# Per-sample eigensolve: the shift sits this far below the clean ground
# energy, and the iteration stops once the Ritz residual |H x - theta x| of
# the two lowest (unit-norm) states is below the tolerance. Each iteration
# cuts that residual about tenfold on the shipped device.
SHIFT_BELOW_GROUND_EV = 3e-4
RESIDUAL_TOL_EV = 1e-12
MAX_BLOCK_ITERATIONS = 10

# Most per-sample failures a Monte Carlo run tolerates, as a fraction of its
# samples; one failure is always tolerated.
MAX_FAILURE_FRACTION = 0.01


@dataclass(frozen=True)
class NoiseConfig:
    sigma_uev: float
    seed: int
    n_samples: int = 1

    def __post_init__(self):
        if self.sigma_uev < 0:
            raise ConfigurationError("noise sigma must be >= 0")
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be >= 1")


@dataclass
class NoiseField:
    values_ev: np.ndarray
    seed: int
    sample_index: int
    sigma_uev: float


def standard_normal_field(grid: Grid, seed: int, sample_index: int) -> np.ndarray:
    """Unit-variance field for (seed, sample_index); independent per key."""
    bits = np.random.Philox(key=[np.uint64(seed & (2**64 - 1)),
                                 np.uint64(sample_index)])
    return np.random.Generator(bits).standard_normal((grid.ny, grid.nx))


def sample_noise(grid: Grid, cfg: NoiseConfig, sample_index: int) -> NoiseField:
    """One noise realization in eV; sigma = 0 yields the exact zero field."""
    if cfg.sigma_uev == 0.0:
        vals = np.zeros((grid.ny, grid.nx))
    else:
        vals = (cfg.sigma_uev * UEV_EV) * standard_normal_field(
            grid, cfg.seed, sample_index
        )
    return NoiseField(values_ev=vals, seed=cfg.seed,
                      sample_index=sample_index, sigma_uev=cfg.sigma_uev)


def _perturbed_spectrum(solution: ConvergedSolution, u: np.ndarray,
                        grid: Grid, mat: MaterialParams,
                        sample_index: int) -> Spectrum:
    """Lowest eigenpairs on the potential u, a small perturbation of the
    solution's: block inverse iteration from the solution's states, with
    `solve_eigenstates` as the fallback.

    The Cholesky factorization of H - s succeeds only when every eigenvalue
    lies above the shift s, so the iterates can only converge to the lowest
    states; an eigenvalue below s (or any other failed factorization) and
    a residual bound not met within the cap fall back.
    """
    n_states = solution.spectrum.n_states
    j0, j1 = well_rows(grid)
    order, kin, band = _column_major_kinetic(grid, mat)
    v = u[j0:j1, :].ravel()[order]
    shift = solution.spectrum.energies_ev[0] - SHIFT_BELOW_GROUND_EV
    try:
        chol = shifted_well_cholesky(band, v, shift)
    except LinAlgError:
        reason = "H - s is not positive definite"
    else:
        clean = solution.spectrum.wavefunctions[:, j0:j1, :]
        x = clean.reshape(n_states, -1).T[order] * np.sqrt(grid.dx * grid.dy)
        for _ in range(MAX_BLOCK_ITERATIONS):
            x = np.linalg.qr(cho_solve_banded((chol, False), x,
                                              check_finite=False))[0]
            hx = kin @ x + v[:, None] * x
            theta, rot = np.linalg.eigh(x.T @ hx)
            x, hx = x @ rot, hx @ rot
            resid = np.linalg.norm(hx[:, :2] - x[:, :2] * theta[:2], axis=0)
            if resid.max() <= RESIDUAL_TOL_EV:
                vecs = np.empty_like(x)
                vecs[order] = x
                return well_spectrum(theta, vecs, grid)
        reason = (f"residual {resid.max():.2e} eV after "
                  f"{MAX_BLOCK_ITERATIONS} iterations")
    log.debug("noise sample %d: block inverse iteration fell back to "
              "solve_eigenstates: %s", sample_index, reason)
    return solve_eigenstates(u, grid, mat, n_states)


def perturbed_spin_params(device: Device, solution: ConvergedSolution,
                          noise: NoiseField) -> SpinParams:
    """Spin parameters of `solution`'s potential disturbed by `noise`."""
    if noise.values_ev.shape != solution.potential_ev.shape:
        raise ConfigurationError("noise field shape does not match the grid")
    u = solution.potential_ev + noise.values_ev
    try:
        if noise.values_ev.any():
            spectrum = _perturbed_spectrum(solution, u, device.grid,
                                           device.mat, noise.sample_index)
        else:  # the zero field leaves the solution's own spectrum exact
            spectrum = solution.spectrum
    except NumericalError as exc:
        exc.diagnostics["sample_index"] = noise.sample_index
        raise
    return device.spin_params(
        replace(solution, potential_ev=u, spectrum=spectrum))


class SampleFailures:
    """Per-sample failures of one Monte Carlo run, counted by class.

    `add` counts a per-sample `DqdError`. A `ConfigurationError` is re-raised
    at once: no other sample would fare better. Once more than
    max(1, MAX_FAILURE_FRACTION * n_samples) samples have failed, `add`
    raises NumericalError with the counts in its diagnostics.
    """

    def __init__(self, n_samples: int):
        self.n_samples = n_samples
        self.by_class = Counter()

    @property
    def count(self) -> int:
        return sum(self.by_class.values())

    def add(self, exc: DqdError) -> None:
        if isinstance(exc, ConfigurationError):
            raise exc
        self.by_class[type(exc).__name__] += 1
        if self.count > max(1.0, MAX_FAILURE_FRACTION * self.n_samples):
            raise NumericalError(
                f"{self.count}/{self.n_samples} noise samples failed",
                diagnostics={"failures": dict(self.by_class)},
            ) from exc


@dataclass
class FluctStats:
    sigma_uev: float
    v_m_mv: float
    n_samples: int
    n_failures: int
    stats: dict            # quantity -> {mean, std, min, max} in Hz
    samples: np.ndarray    # (n_ok, 3) columns E_ZL, E_ZR, J in Hz

    def to_csv_rows(self):
        rows = []
        for q in ("E_ZL", "E_ZR", "J"):
            s = self.stats[q]
            rows.append((self.sigma_uev, q, s["mean"], s["std"],
                         self.n_samples - self.n_failures))
        return rows


def _aggregate(sigma_uev, v_m_mv, n_samples, n_failures, rows) -> FluctStats:
    arr = np.asarray(rows, dtype=float)
    stats = {}
    for j, q in enumerate(("E_ZL", "E_ZR", "J")):
        col = arr[:, j]
        stats[q] = {
            "mean": float(col.mean()),
            "std": float(col.std(ddof=1)) if col.size > 1 else 0.0,
            "min": float(col.min()),
            "max": float(col.max()),
        }
    return FluctStats(sigma_uev=sigma_uev, v_m_mv=v_m_mv, n_samples=n_samples,
                      n_failures=n_failures, stats=stats, samples=arr)


def fluctuation_stats(device: Device, solution: ConvergedSolution,
                      cfg: NoiseConfig) -> FluctStats:
    """Per-quantity {mean, std, min, max} over n noise samples of a
    converged solution on `device`.

    Per-sample failures are counted and skipped under the `SampleFailures`
    rule. Deterministic for a fixed (seed, n_samples).
    """
    if cfg.n_samples < 2:
        raise ConfigurationError("fluctuation statistics need n_samples >= 2")
    rows = []
    failures = SampleFailures(cfg.n_samples)
    for i in range(1, cfg.n_samples + 1):
        noise = sample_noise(device.grid, cfg, i)
        try:
            p = perturbed_spin_params(device, solution, noise)
        except DqdError as exc:
            failures.add(exc)
            continue
        rows.append((p.e_zl_hz, p.e_zr_hz, p.j_hz))
    return _aggregate(cfg.sigma_uev, solution.biases.v_m * 1e3,
                      cfg.n_samples, failures.count, rows)
