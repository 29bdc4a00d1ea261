"""Dot-level quantities from a converged solution.

Covers dot localization, the charge-stability map, Zeeman splittings from the
micromagnet field profile, and the exchange coupling. Exchange follows a
two-site estimate built from the two lowest well orbitals: a position-operator
rotation yields maximally localized left/right orbitals, whose effective
2x2 Hamiltonian gives the tunnel coupling t and detuning eps; on-site and
inter-site Coulomb integrals U and V come from grid quadrature of a
finite-length screened Coulomb kernel ([001] extent of the dots enters as the
averaging length). J is the singlet-triplet gap of the detuned two-site
model, which reduces to 4 t^2/(U - V) at zero detuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .constants import COULOMB_EV_NM, EV_TO_HZ, ZEEMAN_HZ_PER_T
from .device import DeviceBiases, DeviceSpec, Grid, MaterialParams, build_grid
from .errors import ConfigurationError, GeometryError, ModelValidityError
from .schrodinger import (
    ConvergedSolution,
    self_consistent_solve,
    well_rows,
)

DEFAULT_COULOMB_LENGTH_NM = 60.0


class MagnetFieldMap:
    """Lateral profile B_Z(x) of the micromagnet field, tesla.

    Tabulated samples with monotone cubic interpolation; must cover the
    device extent with positive values.
    """

    def __init__(self, x_nm, b_tesla):
        x = np.asarray(x_nm, dtype=float)
        b = np.asarray(b_tesla, dtype=float)
        if x.size < 2 or x.size != b.size:
            raise ConfigurationError("field map needs >= 2 (x, B) samples")
        order = np.argsort(x)
        self.x_nm = x[order]
        self.b_tesla = b[order]
        if not np.all(np.isfinite(self.b_tesla)) or np.any(self.b_tesla <= 0):
            raise ConfigurationError("B_Z must be finite and positive")
        self._interp = PchipInterpolator(self.x_nm, self.b_tesla)

    @classmethod
    def from_gradient(cls, b0_tesla: float, gradient_t_per_nm: float,
                      x0_nm: float, x1_nm: float, n: int = 33):
        x = np.linspace(x0_nm, x1_nm, n)
        return cls(x, b0_tesla + gradient_t_per_nm * x)

    @classmethod
    def from_plateaus(cls, b_left_tesla: float, b_right_tesla: float,
                      x_mid_nm: float, width_nm: float,
                      x0_nm: float, x1_nm: float, n: int = 401):
        """Two-plateau profile: flat at the dots, tanh transition under the
        middle gate. Flat plateaus decouple the Zeeman splittings from
        noise-driven dot motion."""
        x = np.linspace(x0_nm, x1_nm, n)
        s = 0.5 * (1.0 + np.tanh((x - x_mid_nm) / width_nm))
        return cls(x, b_left_tesla + (b_right_tesla - b_left_tesla) * s)

    @classmethod
    def from_file(cls, path):
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigurationError("field map file must have two columns (x_nm, B_tesla)")
        return cls(data[:, 0], data[:, 1])

    def to_file(self, path):
        np.savetxt(path, np.column_stack([self.x_nm, self.b_tesla]),
                   header="x_nm B_tesla")

    def covers(self, x0: float, x1: float) -> bool:
        return self.x_nm[0] <= x0 and self.x_nm[-1] >= x1

    def __call__(self, x_nm):
        return self._interp(np.asarray(x_nm, dtype=float))


def field_map_from_config(section: dict, device_width_nm: float) -> MagnetFieldMap:
    """Build a field map from a device-file [field_map] section.

    Keys: either `file` (two-column text), or `profile = plateaus` with
    b_left_tesla, b_right_tesla, x_mid_nm, width_nm, or the linear-gradient
    pair b0_tesla, gradient_tesla_per_nm.
    """
    if "file" in section:
        return MagnetFieldMap.from_file(section["file"])
    if section.get("profile", "linear") == "plateaus":
        return MagnetFieldMap.from_plateaus(
            float(section["b_left_tesla"]), float(section["b_right_tesla"]),
            float(section["x_mid_nm"]), float(section["width_nm"]),
            -1.0, device_width_nm + 1.0,
        )
    return MagnetFieldMap.from_gradient(
        float(section.get("b0_tesla", 0.65)),
        float(section.get("gradient_tesla_per_nm", 5e-5)),
        -1.0, device_width_nm + 1.0,
    )


@dataclass
class DotRegions:
    n_dots: int
    minima_x_nm: tuple[float, ...]
    barrier_x_nm: float | None
    barrier_index: int | None          # lateral cell index of the cut
    profile_ev: np.ndarray             # 1D well-averaged potential


def well_profile(solution: ConvergedSolution, grid: Grid) -> np.ndarray:
    j0, j1 = well_rows(grid)
    return solution.potential_ev[j0:j1, :].mean(axis=0)


def find_dots(solution: ConvergedSolution, grid: Grid,
              min_depth_ev: float = 2e-5) -> DotRegions:
    """Locate 0, 1 or 2 potential valleys in the well and the inter-dot cut.

    Valleys are kept by topographic prominence: a local minimum counts when
    the saddle separating it from every deeper kept valley lies at least
    `min_depth_ev` above it. This ignores micro-eV noise wiggles while
    keeping genuinely shallow inter-dot barriers. More than two surviving
    valleys raises GeometryError.
    """
    prof = well_profile(solution, grid)
    n = prof.size
    minima = [i for i in range(1, n - 1)
              if prof[i] <= prof[i - 1] and prof[i] < prof[i + 1]]
    strong: list[int] = []
    for i in sorted(minima, key=lambda k: prof[k]):
        prominent = True
        for j in strong:
            lo, hi = (i, j) if i < j else (j, i)
            saddle = prof[lo:hi + 1].max()
            if saddle - prof[i] < min_depth_ev:
                prominent = False
                break
        if prominent:
            strong.append(i)
    strong.sort()
    if len(strong) > 2:
        raise GeometryError(f"unexpected regime: {len(strong)} potential valleys")
    if len(strong) < 2:
        x = tuple(float(grid.x[i]) for i in strong)
        return DotRegions(len(strong), x, None, None, prof)
    i_l, i_r = strong
    i_bar = i_l + int(np.argmax(prof[i_l:i_r + 1]))
    return DotRegions(
        2, (float(grid.x[i_l]), float(grid.x[i_r])),
        float(grid.x[i_bar]), int(i_bar), prof,
    )


def orbital_centroid_x(psi: np.ndarray, grid: Grid) -> float:
    w = (psi**2).sum(axis=0)
    return float((w * grid.x).sum() / w.sum())


def assign_orbitals(solution: ConvergedSolution, grid: Grid,
                    regions: DotRegions) -> np.ndarray:
    """Dot index (0 = left, 1 = right) per orbital, by density centroid;
    orbitals straddling the barrier are classified by majority mass."""
    if regions.n_dots != 2:
        raise GeometryError("orbital assignment needs two dots")
    out = np.empty(solution.spectrum.n_states, dtype=int)
    x_bar = regions.barrier_x_nm
    for k in range(solution.spectrum.n_states):
        psi = solution.spectrum.wavefunctions[k]
        cx = orbital_centroid_x(psi, grid)
        if abs(cx - x_bar) >= grid.dx:
            out[k] = 0 if cx < x_bar else 1
        else:
            mass_left = (psi**2).sum(axis=0)[grid.x < x_bar].sum()
            out[k] = 0 if mass_left > 0.5 * (psi**2).sum() else 1
    return out


def zeeman_splittings(solution: ConvergedSolution, field_map: MagnetFieldMap,
                      grid: Grid, regions: DotRegions | None = None
                      ) -> tuple[float, float]:
    """(E_ZL, E_ZR) in Hz: g mu_B / h times the density-weighted B_Z.

    The ground orbital of each dot is the maximally localized combination of
    the two lowest well states, which reduces to the eigenstates themselves
    once the dots are detuned and handles the symmetric case where both
    eigenstates straddle the barrier.
    """
    if regions is None:
        regions = find_dots(solution, grid)
    if regions.n_dots != 2:
        raise GeometryError("Zeeman splittings need two dots")
    if not field_map.covers(grid.x[0], grid.x[-1]):
        raise ConfigurationError("field map does not cover the device extent")
    phi_a, phi_b, _ = localized_pair(solution, grid)
    b_x = field_map(grid.x)
    vals = []
    for phi in (phi_a, phi_b):
        w = (phi**2).sum(axis=0)
        ez = float(ZEEMAN_HZ_PER_T * (w * b_x).sum() * grid.dx * grid.dy)
        vals.append((orbital_centroid_x(phi, grid), ez))
    vals.sort()
    return vals[0][1], vals[1][1]


# ---------------------------------------------------------------------------
# Exchange coupling
# ---------------------------------------------------------------------------

def _segment_coulomb(rho_nm: np.ndarray, length_nm: float) -> np.ndarray:
    """Mutual energy (units of 1/nm) of two unit-charge parallel [001]
    segments of length L at lateral distance rho, per charge pair."""
    r = rho_nm / length_nm
    return (2.0 / length_nm) * (np.arcsinh(1.0 / r) - np.sqrt(1.0 + r**2) + r)


def coulomb_kernel(grid: Grid, mat: MaterialParams,
                   length_nm: float = DEFAULT_COULOMB_LENGTH_NM) -> np.ndarray:
    """Screened Coulomb kernel over Quantum-region cells, as the real 2D FFT
    of its generator (eV).

    On the uniform well grid the pair energy depends only on the cell offset
    (dj, di), |dj| < nr rows and |di| < nx columns, so applying the kernel is
    a linear convolution with that generator. Its (2 nr - 1, 2 nx - 1)
    offsets are laid out circularly on a (2 nr, 2 nx) array, so a circular
    convolution with the zero-padded field equals the linear one on the
    well block. Cached on the grid; every pair distance is softened by half
    a cell diagonal.
    """
    key = ("coulomb", mat.permittivity_si, length_nm)
    if key in grid._cache:
        return grid._cache[key]
    j0, j1 = well_rows(grid)
    nr, nx = j1 - j0, grid.nx
    off_y = np.r_[0:nr, -nr:0] * grid.dy
    off_x = np.r_[0:nx, -nx:0] * grid.dx
    soft = 0.25 * (grid.dx**2 + grid.dy**2)
    rho = np.sqrt(off_y[:, None] ** 2 + off_x[None, :] ** 2 + soft)
    gen = (COULOMB_EV_NM / mat.permittivity_si) * _segment_coulomb(rho, length_nm)
    k = np.fft.rfft2(gen)
    grid._cache[key] = k
    return k


def two_body_integral(kernel: np.ndarray, f1: np.ndarray, f2: np.ndarray,
                      grid: Grid) -> float:
    """(f1 | K | f2) with cell-area weights; f are well-region fields and
    `kernel` is `coulomb_kernel`'s transform."""
    shape = (2 * f2.shape[0], 2 * f2.shape[1])
    k_f2 = np.fft.irfft2(kernel * np.fft.rfft2(f2, shape), shape)
    da = grid.dx * grid.dy
    return float((f1 * k_f2[:f2.shape[0], :f2.shape[1]]).sum() * da * da)


@dataclass
class ExchangeDetails:
    j_hz: float
    t_hz: float
    detuning_hz: float
    u_ev: float
    v_ev: float
    u_l_ev: float
    u_r_ev: float


def localized_pair(solution: ConvergedSolution, grid: Grid):
    """Maximally localized (left, right) combinations of the two lowest well
    orbitals; returns (phi_l, phi_r, h2) with h2 the effective 2x2
    Hamiltonian in the localized basis (eV)."""
    from .schrodinger import localized_pair_from

    sp = solution.spectrum
    return localized_pair_from(sp.wavefunctions, sp.energies_ev, grid)


def exchange_energy(solution: ConvergedSolution, grid: Grid,
                    mat: MaterialParams,
                    coulomb_length_nm: float = DEFAULT_COULOMB_LENGTH_NM,
                    details: bool = False):
    """Two-site singlet-triplet exchange J in Hz (>= 0).

    Singlet sector {S(1,1), S(2,0), S(0,2)} of the two-site model:
        diag(V, U_L + eps, U_R - eps) + sqrt(2) t off-diagonal couplings,
    with eps the localized-orbital detuning; J = E_T - E_S with E_T = V.
    Raises ModelValidityError when U - V <= 0.
    """
    phi_l, phi_r, h2 = localized_pair(solution, grid)
    t_ev = abs(h2[0, 1])
    eps_ev = h2[0, 0] - h2[1, 1]
    kern = coulomb_kernel(grid, mat, coulomb_length_nm)
    rho_l, rho_r = phi_l**2, phi_r**2
    u_l = two_body_integral(kern, rho_l, rho_l, grid)
    u_r = two_body_integral(kern, rho_r, rho_r, grid)
    v = two_body_integral(kern, rho_l, rho_r, grid)
    u = 0.5 * (u_l + u_r)
    if u - v <= 0.0:
        raise ModelValidityError(
            f"two-site model invalid: U - V = {(u - v) * 1e3:.3f} meV <= 0"
        )
    h_s = np.array([
        [0.0, np.sqrt(2.0) * t_ev, np.sqrt(2.0) * t_ev],
        [np.sqrt(2.0) * t_ev, (u_l - v) + eps_ev, 0.0],
        [np.sqrt(2.0) * t_ev, 0.0, (u_r - v) - eps_ev],
    ])
    e_s = float(np.linalg.eigvalsh(h_s)[0])
    j_hz = max(-e_s, 0.0) * EV_TO_HZ
    if details:
        return ExchangeDetails(
            j_hz=j_hz, t_hz=t_ev * EV_TO_HZ, detuning_hz=eps_ev * EV_TO_HZ,
            u_ev=u, v_ev=v, u_l_ev=u_l, u_r_ev=u_r,
        )
    return j_hz


# ---------------------------------------------------------------------------
# Charge stability
# ---------------------------------------------------------------------------

@dataclass
class StabilityDiagram:
    v_l_mv: np.ndarray
    v_r_mv: np.ndarray
    n_l: np.ndarray          # (len(v_r), len(v_l)) integer occupations
    n_r: np.ndarray

    def regimes(self) -> set:
        return set(zip(self.n_l.ravel().tolist(), self.n_r.ravel().tolist()))

    def occupation_at(self, v_l_mv: float, v_r_mv: float) -> tuple[int, int]:
        i = int(np.argmin(np.abs(self.v_l_mv - v_l_mv)))
        j = int(np.argmin(np.abs(self.v_r_mv - v_r_mv)))
        return int(self.n_l[j, i]), int(self.n_r[j, i])

    def to_csv(self) -> str:
        lines = ["v_l_mv,v_r_mv,n_l,n_r"]
        for j, vr in enumerate(self.v_r_mv):
            for i, vl in enumerate(self.v_l_mv):
                lines.append(f"{vl:.6g},{vr:.6g},{self.n_l[j, i]},{self.n_r[j, i]}")
        return "\n".join(lines) + "\n"


def dot_occupations(solution: ConvergedSolution, grid: Grid, spec: DeviceSpec,
                    mat: MaterialParams,
                    coulomb_length_nm: float = DEFAULT_COULOMB_LENGTH_NM
                    ) -> tuple[int, int]:
    """Integer electron count per dot (0 or 1 in the operating window).

    The line density of each occupied subband is attributed to a dot by the
    orbital's majority side and integrated over the [001] dot extent; a dot
    counts as occupied above half an electron.
    """
    regions = find_dots(solution, grid)
    lam = np.zeros(2)
    occ = solution.occupancies_per_nm
    if regions.n_dots == 0:
        return (0, 0)
    if regions.n_dots == 1:
        side = 0 if regions.minima_x_nm[0] < grid.spec.width_nm / 2 else 1
        lam[side] = occ.sum()
    else:
        # split each subband's line density by probability mass per side,
        # which handles delocalized symmetric/antisymmetric pairs smoothly
        left = grid.x < regions.barrier_x_nm
        for k in range(solution.spectrum.n_states):
            w = (solution.spectrum.wavefunctions[k] ** 2).sum(axis=0)
            frac_left = w[left].sum() / w.sum()
            lam[0] += occ[k] * frac_left
            lam[1] += occ[k] * (1.0 - frac_left)
    n = np.minimum((lam * coulomb_length_nm >= 0.5).astype(int), 1)
    return int(n[0]), int(n[1])


def charge_stability(spec: DeviceSpec, mat: MaterialParams,
                     v_l_mv, v_r_mv, v_m_mv: float, v_b_mv: float,
                     *, grid: Grid | None = None,
                     coulomb_length_nm: float = DEFAULT_COULOMB_LENGTH_NM,
                     **solve_kwargs) -> StabilityDiagram:
    """Occupation map over a (V_L, V_R) window at fixed V_M, V_B."""
    v_l_mv = np.asarray(v_l_mv, dtype=float)
    v_r_mv = np.asarray(v_r_mv, dtype=float)
    if v_l_mv.size == 0 or v_r_mv.size == 0:
        raise ConfigurationError("stability ranges must be non-empty")
    grid = grid or build_grid(spec)
    n_l = np.zeros((v_r_mv.size, v_l_mv.size), dtype=int)
    n_r = np.zeros_like(n_l)
    start = None
    for j, vr in enumerate(v_r_mv):
        row_start = start
        for i, vl in enumerate(v_l_mv):
            biases = DeviceBiases(v_b=v_b_mv * 1e-3, v_l=vl * 1e-3,
                                  v_m=v_m_mv * 1e-3, v_r=vr * 1e-3)
            sol = self_consistent_solve(spec, mat, biases, grid=grid,
                                        start_potential=row_start,
                                        **solve_kwargs)
            row_start = sol.potential_ev
            if i == 0:
                start = sol.potential_ev
            n_l[j, i], n_r[j, i] = dot_occupations(
                sol, grid, spec, mat, coulomb_length_nm
            )
    return StabilityDiagram(v_l_mv=v_l_mv, v_r_mv=v_r_mv, n_l=n_l, n_r=n_r)
