"""Quasi-static charge noise: sampling, parameter spreads, gate fidelities.

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
perturbed solution to its spin parameters with `Device.spin_params`.
`perturbed_spin_params` does this for a stack of noise fields on a
converged solution (`Device.solution_at`);
`NoisyTableFactory.table_for` does it at every V_M node of a gate and
returns each sample's parameter table.

The per-sample eigensolve is a block inverse iteration warm-started from
the clean solution's states (subspace iteration with a Rayleigh-Ritz step,
Saad, Numerical Methods for Large Eigenvalue Problems, ch. 5), on the
well block in the solver's column-by-column cell order
(`schrodinger.to_solver_order`), where H - s is banded, so one banded
Cholesky factorization serves every iteration. The shift is
s = E0 + min(0, min dV) - `SHIFT_BELOW_GROUND_EV`, with E0 the clean
ground energy and dV the noise on the well cells. By Weyl's inequality
(`schrodinger.weyl_floor`) no eigenvalue of H0 + dV lies below
E0 + min dV, so H - s is positive definite, while s sits as close
to the perturbed ground level as that bound allows: the lowest states
converge at the rate (E1 - s)/(E6 - s) per iteration. On the shipped
device a sample takes 1 iteration at sigma = 1e-3 ueV, 2 at 0.1 ueV and
3-4 at 5 ueV. The iteration stops when the Ritz residual of the two
lowest states, the only ones that feed E_Z and J, is below
`RESIDUAL_TOL_EV`. When H - s is not positive definite or the bound is
not met within `MAX_BLOCK_ITERATIONS`, the sample falls back to the cold
shift-invert solve `solve_eigenstates` and logs the reason at DEBUG on
the `dqdsim` logger.

Every Monte Carlo run is one loop, `_monte_carlo`, entered through
`fluctuation_stats` or `fidelity_samples` with the configs of a run: the
sigmas of a sweep, sharing seed and n_samples. Sample indices run in
chunks whose fields, every sigma's of every index, form one stack of at
most `MC_STACK_SAMPLES` members (a bound on memory only). Each index's unit
field is drawn once per run and scaled to every sigma. Each member's
eigensolve runs alone; the spin map (`Device.spin_params`), `evolve` and
`gate_fidelity` take only stacks and run once per stack, operating point
and gate. Each gives every member the value it gets in a stack of one,
bit for bit, or, in its place, the DqdError that drops it, so a row does
not depend on which sigmas share its run. A sample that fails
(`SampleFailures`) is counted once against its sigma and dropped for
every gate it serves; the rest of its stack proceeds.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_solve_banded, qr

from .device import Grid, MaterialParams
from .dots import Device
from .dynamics import evolve, gate_fidelity
from .errors import ConfigurationError, DqdError, NumericalError, raise_first
from .params import ParamsTable, SpinParams
from .schrodinger import (
    ConvergedSolution,
    Spectrum,
    shifted_well_cholesky,
    solve_eigenstates,
    to_solver_order,
    well_kinetic,
    well_rows,
    well_spectrum,
    weyl_floor,
)

log = logging.getLogger("dqdsim")

UEV_EV = 1e-6

# Per-sample eigensolve: the shift sits this far below the Weyl bound on
# the perturbed ground energy, and the iteration stops once the Ritz
# residual |H x - theta x| of the two lowest (unit-norm) states is below
# the tolerance.
SHIFT_BELOW_GROUND_EV = 1e-6
RESIDUAL_TOL_EV = 1e-12
MAX_BLOCK_ITERATIONS = 10

# Most noise fields in one stack of a Monte Carlo run, over all its sigmas.
# Only bounds memory: a stack holds one field (the whole grid) per member
# and, per operating point, one perturbed solution per member, and a
# sample's results do not depend on its stack.
MC_STACK_SAMPLES = 64

# Most per-sample failures a Monte Carlo run tolerates, as a fraction of its
# samples; one failure is always tolerated unless no sample would be left.
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
    sample_index: int


def standard_normal_field(grid: Grid, seed: int, sample_index: int) -> np.ndarray:
    """Unit-variance field for (seed, sample_index); independent per key."""
    bits = np.random.Philox(key=[np.uint64(seed & (2**64 - 1)),
                                 np.uint64(sample_index)])
    return np.random.Generator(bits).standard_normal((grid.ny, grid.nx))


def _scaled(unit: np.ndarray, cfg: NoiseConfig, sample_index: int
            ) -> NoiseField:
    """The unit field `unit` scaled to `cfg`'s sigma, in eV."""
    if cfg.sigma_uev == 0.0:
        return NoiseField(np.zeros_like(unit), sample_index)
    return NoiseField((cfg.sigma_uev * UEV_EV) * unit, sample_index)


def sample_noise(grid: Grid, cfg: NoiseConfig, sample_index: int) -> NoiseField:
    """One noise realization in eV; sigma = 0 yields the exact zero field."""
    return _scaled(standard_normal_field(grid, cfg.seed, sample_index), cfg,
                   sample_index)


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
    kin, band = well_kinetic(grid, mat)
    v = to_solver_order(u[j0:j1])
    shift = (weyl_floor(solution.spectrum.energies_ev[0], u,
                        solution.potential_ev, grid)
             - SHIFT_BELOW_GROUND_EV)
    try:
        chol = shifted_well_cholesky(band, v, shift)
    except LinAlgError:
        reason = "H - s is not positive definite"
    else:
        x = (to_solver_order(solution.spectrum.wavefunctions).T
             * np.sqrt(grid.dx * grid.dy))
        for _ in range(MAX_BLOCK_ITERATIONS):
            x = qr(cho_solve_banded((chol, False), x, check_finite=False),
                   mode="economic", overwrite_a=True, check_finite=False)[0]
            hx = kin @ x + v[:, None] * x
            theta, rot = np.linalg.eigh(x.T @ hx)
            # residuals (H - theta_k) x rot_k of the two lowest Ritz pairs
            r = hx @ rot[:, :2] - x @ (rot[:, :2] * theta[:2])
            resid = np.sqrt(np.einsum("ij,ij->j", r, r))
            x = x @ rot
            if resid.max() <= RESIDUAL_TOL_EV:
                return well_spectrum(theta, x, grid)
        reason = (f"residual {resid.max():.2e} eV after "
                  f"{MAX_BLOCK_ITERATIONS} iterations")
    log.debug("noise sample %d: block inverse iteration fell back to "
              "solve_eigenstates: %s", sample_index, reason)
    return solve_eigenstates(u, grid, mat, n_states)


def perturbed_spin_params(device: Device, solution: ConvergedSolution,
                          fields) -> list:
    """Spin parameters of `solution`'s potential disturbed by each noise
    field of a stack.

    The result lines up with `fields`: each sample's SpinParams or, in its
    place, the DqdError that dropped it. Each sample's eigensolve runs
    alone, then the spin map runs once over the stack
    (`Device.spin_params`).
    """
    out, perturbed = [], []
    for field in fields:
        try:
            perturbed.append(_perturbed_solution(device, solution, field))
            out.append(None)
        except DqdError as exc:
            out.append(exc)
    params = iter(device.spin_params(perturbed))
    return [next(params) if exc is None else exc for exc in out]


def _perturbed_solution(device: Device, solution: ConvergedSolution,
                        noise: NoiseField) -> ConvergedSolution:
    """`solution` with its potential disturbed by `noise` and the lowest
    states of the disturbed potential."""
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
    return replace(solution, potential_ev=u, spectrum=spectrum)


class SampleFailures:
    """Per-sample failures of one Monte Carlo run, counted by class.

    `add` counts a per-sample `DqdError`. A `ConfigurationError` is re-raised
    at once: no other sample would fare better. Once more than
    max(1, MAX_FAILURE_FRACTION * n_samples) samples, or all of them, have
    failed, `add` raises NumericalError with the counts in its diagnostics.
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
        if self.count > min(max(1.0, MAX_FAILURE_FRACTION * self.n_samples),
                            self.n_samples - 1):
            raise NumericalError(
                f"{self.count}/{self.n_samples} noise samples failed",
                diagnostics={"failures": dict(self.by_class)},
            ) from exc


def _monte_carlo(grid: Grid, cfgs, evaluate) -> list:
    """For each config of a run, the rows that `evaluate` gives its
    samples, as an (n_ok, k) array, and the failure counts by class.

    The configs share (seed, n_samples) and differ in sigma. Sample
    indices 1..n run in chunks of at most `MC_STACK_SAMPLES` fields (every
    config's field of every index in the chunk); each index's unit field
    is drawn once and scaled to every config's sigma. `evaluate` maps the
    chunk's stack of fields to one row, or the DqdError that dropped the
    sample, per field; a dropped sample counts against its config's
    `SampleFailures`, which keeps one row or raises.
    """
    cfgs = list(cfgs)
    if len({(c.seed, c.n_samples) for c in cfgs}) != 1:
        raise ConfigurationError(
            "the configs of a Monte Carlo run share one seed and n_samples")
    seed, n = cfgs[0].seed, cfgs[0].n_samples
    failures = [SampleFailures(n) for _ in cfgs]
    rows = [[] for _ in cfgs]
    per_chunk = max(MC_STACK_SAMPLES // len(cfgs), 1)
    for start in range(1, n + 1, per_chunk):
        indices = range(start, min(start + per_chunk, n + 1))
        units = [standard_normal_field(grid, seed, i) for i in indices]
        fields = [_scaled(z, cfg, i) for cfg in cfgs
                  for z, i in zip(units, indices)]
        results = iter(evaluate(fields))
        for fails, out in zip(failures, rows):
            for row in (next(results) for _ in indices):
                if isinstance(row, DqdError):
                    fails.add(row)
                else:
                    out.append(row)
    return [(np.asarray(r, dtype=float), dict(f.by_class))
            for r, f in zip(rows, failures)]


def _std(col: np.ndarray) -> float:
    return float(col.std(ddof=1)) if col.size > 1 else 0.0


class NoisyTableFactory:
    """Per-sample perturbed parameter tables from the device pipeline.

    At each V_M node (mV) of `v_m_nodes`, one quasi-static noise field per
    sample perturbs the converged solution on `device` (a `dots.Device`);
    the spin parameters of the perturbed solutions form the sample's
    interpolation table.
    """

    def __init__(self, device: Device, v_m_nodes):
        self.device = device
        self.v_m_nodes = sorted(v_m_nodes)
        self.solutions = {v: device.solution_at(v) for v in self.v_m_nodes}

    def _table(self, params) -> ParamsTable:
        cols = zip(*((p.e_zl_hz, p.e_zr_hz, p.j_hz) for p in params))
        return ParamsTable(self.v_m_nodes, *cols)

    def clean_table(self) -> ParamsTable:
        return self._table(raise_first(self.device.spin_params(
            [self.solutions[v] for v in self.v_m_nodes])))

    def table_for(self, fields) -> list:
        """The tables of a stack of samples, one noise field each: per
        sample its ParamsTable or, in its place, the DqdError that dropped
        it (at the lowest node that failed)."""
        per_node = [perturbed_spin_params(self.device, self.solutions[v],
                                          fields) for v in self.v_m_nodes]
        out = []
        for params in zip(*per_node):
            failed = [p for p in params if isinstance(p, DqdError)]
            try:
                out.append(failed[0] if failed else self._table(params))
            except DqdError as exc:
                out.append(exc)
        return out


def fidelity_samples(factory: NoisyTableFactory, cfgs, gates,
                     integrator: str) -> list:
    """Per config of a run (configs that share seed and n_samples): one
    (mean, std, n) of the fidelity (percent) per (schedule, ideal) of
    `gates`, all evolved on each sample's `factory.table_for` table, and
    the failure counts by class.

    Each gate is evolved, and its fidelity taken, once per stack of
    samples; a sample that fails at one gate is dropped for all.
    """
    def evaluate(fields):
        tables = factory.table_for(fields)
        out = [t if isinstance(t, DqdError) else [] for t in tables]
        for schedule, ideal in gates:
            live = [k for k, o in enumerate(out)
                    if not isinstance(o, DqdError)]
            if not live:
                break
            res = evolve(schedule, [tables[k] for k in live], integrator)
            for k, exc in zip(live, res.failures):
                if exc is not None:
                    out[k] = exc
            ok = [j for j, exc in enumerate(res.failures) if exc is None]
            if ok:
                for j, fid in zip(ok, gate_fidelity(res.u[ok], ideal)):
                    out[live[j]].append(float(fid))
        return out

    return [([(float(col.mean()), _std(col), col.size) for col in arr.T],
             failures)
            for arr, failures in _monte_carlo(factory.device.grid, cfgs,
                                              evaluate)]


@dataclass
class FluctStats:
    sigma_uev: float
    v_m_mv: float
    n_samples: int
    failures: dict         # exception class name -> count
    stats: dict            # quantity -> {mean, std, min, max} in Hz
    samples: np.ndarray    # (n_ok, 3) columns E_ZL, E_ZR, J in Hz

    def to_csv_rows(self):
        return [(self.sigma_uev, q, self.stats[q]["mean"],
                 self.stats[q]["std"], len(self.samples))
                for q in ("E_ZL", "E_ZR", "J")]


def fluctuation_stats(device: Device, solution: ConvergedSolution,
                      cfgs) -> list:
    """Per config of a run (configs that share seed and n_samples), the
    per-quantity {mean, std, min, max} over its n noise samples of a
    converged solution on `device`.

    Per-sample failures are counted and skipped under the `SampleFailures`
    rule. Deterministic for a fixed (seed, n_samples).
    """
    cfgs = list(cfgs)
    if any(cfg.n_samples < 2 for cfg in cfgs):
        raise ConfigurationError("fluctuation statistics need n_samples >= 2")

    def evaluate(fields):
        return [p if isinstance(p, DqdError) else (p.e_zl_hz, p.e_zr_hz, p.j_hz)
                for p in perturbed_spin_params(device, solution, fields)]

    out = []
    for cfg, (arr, failures) in zip(cfgs, _monte_carlo(device.grid, cfgs,
                                                       evaluate)):
        stats = {q: {"mean": float(col.mean()), "std": _std(col),
                     "min": float(col.min()), "max": float(col.max())}
                 for q, col in zip(("E_ZL", "E_ZR", "J"), arr.T)}
        out.append(FluctStats(cfg.sigma_uev, solution.biases.v_m * 1e3,
                              cfg.n_samples, failures, stats, arr))
    return out
