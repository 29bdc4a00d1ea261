"""Dot-level quantities from a converged solution.

Covers dot localization, the charge-stability map, Zeeman splittings from the
micromagnet field profile, and the exchange coupling. Exchange follows a
two-site estimate built from the two lowest well orbitals: a position-operator
rotation yields maximally localized left/right orbitals, whose effective
2x2 Hamiltonian gives the tunnel coupling t and detuning eps; on-site and
inter-site Coulomb integrals U and V come from grid quadrature of a
finite-length screened Coulomb kernel ([001] extent of the dots enters as the
averaging length, the device file's required `[exchange]
coulomb_length_nm`). J is the singlet-triplet gap of the detuned two-site
model, which reduces to 4 t^2/(U - V) at zero detuning.

`load_device` returns a `Device`: the device file's model, which gives the
converged solution at a middle-gate bias (`Device.solution_at`) and maps a
stack of solutions to their spin parameters (`Device.spin_params`). Every
function of the spin map takes a stack and returns values that line up
with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .constants import COULOMB_EV_NM, EV_TO_HZ, ZEEMAN_HZ_PER_T
from .device import (
    DeviceBiases,
    DeviceSpec,
    Grid,
    MaterialParams,
    build_grid,
    load_device_config,
)
from .errors import (ConfigurationError, DqdError, GeometryError,
                     ModelValidityError)
from .params import SpinParams
from .schrodinger import (
    ConvergedSolution,
    scf_settings,
    self_consistent_solve,
    well_rows,
)

# [001] extent of one dot (nm): the length over which a dot's line density
# counts its electrons, both for the occupation map and for the filling the
# calibration fits. The Coulomb kernel's averaging length is a separate,
# per-device value (`[exchange] coulomb_length_nm`).
DOT_LENGTH_NM = 60.0

# A potential valley counts as a dot when the saddle separating it from
# every deeper one lies at least this far above it (eV).
MIN_VALLEY_DEPTH_EV = 2e-5

# Samples of the analytic field-map profiles over the device extent.
GRADIENT_SAMPLES = 33
PLATEAU_SAMPLES = 401


def _pchip_edge(h0, h1, m0, m1):
    """End-point derivative of PCHIP: the one-sided three-point estimate,
    kept in shape (Moler, Numerical Computing with MATLAB, pchiptx.m)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Power-form coefficients (4, n - 1) of the monotone cubic (PCHIP)
    through (x, y), x strictly increasing: on [x_i, x_i+1] the curve is
    sum_k c[k, i] s^(3-k), s = x - x_i. Interior derivatives are the
    Fritsch-Butland weighted harmonic mean of the neighbouring slopes, or
    0 where those differ in sign or one is 0; the scheme and the
    floating-point operations are scipy's `PchipInterpolator`'s."""
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(y, m[0])
    if y.size > 2:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        flat = ((np.sign(m[1:]) != np.sign(m[:-1]))
                | (m[1:] == 0) | (m[:-1] == 0))
        d[1:-1] = 0.0
        d[1:-1][~flat] = 1.0 / whmean[~flat]
        d[0] = _pchip_edge(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_edge(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


class MagnetFieldMap:
    """Lateral profile B_Z(x) of the micromagnet field, tesla.

    Tabulated samples with monotone cubic (PCHIP) interpolation, extended
    beyond the samples by the end intervals' cubics; must cover the device
    extent with positive values.
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
        if not (np.all(np.isfinite(self.x_nm))
                and np.all(np.diff(self.x_nm) > 0)):
            raise ConfigurationError(
                "field map x must be finite and without repeats")
        self._coefs = _pchip_coefficients(self.x_nm, self.b_tesla)

    @classmethod
    def from_gradient(cls, b0_tesla: float, gradient_t_per_nm: float,
                      x0_nm: float, x1_nm: float):
        x = np.linspace(x0_nm, x1_nm, GRADIENT_SAMPLES)
        return cls(x, b0_tesla + gradient_t_per_nm * x)

    @classmethod
    def from_plateaus(cls, b_left_tesla: float, b_right_tesla: float,
                      x_mid_nm: float, width_nm: float,
                      x0_nm: float, x1_nm: float):
        """Two-plateau profile: flat at the dots, tanh transition under the
        middle gate. Flat plateaus decouple the Zeeman splittings from
        noise-driven dot motion."""
        x = np.linspace(x0_nm, x1_nm, PLATEAU_SAMPLES)
        s = 0.5 * (1.0 + np.tanh((x - x_mid_nm) / width_nm))
        return cls(x, b_left_tesla + (b_right_tesla - b_left_tesla) * s)

    @classmethod
    def from_file(cls, path):
        data = np.loadtxt(path)
        if data.ndim != 2 or data.shape[1] != 2:
            raise ConfigurationError("field map file must have two columns (x_nm, B_tesla)")
        return cls(data[:, 0], data[:, 1])

    def covers(self, x0: float, x1: float) -> bool:
        return self.x_nm[0] <= x0 and self.x_nm[-1] >= x1

    def __call__(self, x_nm):
        x = np.asarray(x_nm, dtype=float)
        # the interval [x_i, x_i+1) holding x (the last one closed), or the
        # end interval of an x outside
        i = np.clip(np.searchsorted(self.x_nm, x, side="right") - 1,
                    0, self.x_nm.size - 2)
        s = x - self.x_nm[i]
        c = self._coefs[:, i]
        return c[3] + c[2] * s + c[1] * (s * s) + c[0] * (s * s * s)


def field_map_from_config(section: dict, device_width_nm: float) -> MagnetFieldMap:
    """Build a field map from a device-file [field_map] section.

    Keys: either `file` (two-column text), or `profile = plateaus` with
    b_left_tesla, b_right_tesla, x_mid_nm, width_nm, or `profile = linear`
    with b0_tesla, gradient_tesla_per_nm. Any other profile, or none,
    raises ConfigurationError naming it. Every key of the chosen profile
    is required; a missing one raises KeyError.
    """
    if "file" in section:
        return MagnetFieldMap.from_file(section["file"])
    profile = section.get("profile")
    if profile == "plateaus":
        return MagnetFieldMap.from_plateaus(
            float(section["b_left_tesla"]), float(section["b_right_tesla"]),
            float(section["x_mid_nm"]), float(section["width_nm"]),
            -1.0, device_width_nm + 1.0,
        )
    if profile == "linear":
        return MagnetFieldMap.from_gradient(
            float(section["b0_tesla"]), float(section["gradient_tesla_per_nm"]),
            -1.0, device_width_nm + 1.0,
        )
    raise ConfigurationError(
        f"[field_map] profile = {profile!r}: expected plateaus or linear, "
        "or a file")


class Device(NamedTuple):
    """A device file's model: geometry, materials, the file's biases, the
    grid built from the geometry, the micromagnet field map and the Coulomb
    kernel's averaging length (nm)."""

    spec: DeviceSpec
    mat: MaterialParams
    biases: DeviceBiases
    grid: Grid
    field_map: MagnetFieldMap
    coulomb_length_nm: float

    def solution_at(self, v_m_mv: float) -> ConvergedSolution:
        """Cold self-consistent solution at the file's biases with V_M
        replaced by `v_m_mv` (mV).

        Memoized on the grid under (spec, materials, biases) and the SCF
        constants the solve reads at call time (`scf_settings`), every
        input of the solve, so devices that share a grid never share a
        solution of another input.
        """
        biases = replace(self.biases, v_m=v_m_mv * 1e-3)
        key = ("solution", self.spec, self.mat, biases, scf_settings())
        if key not in self.grid._cache:
            self.grid._cache[key] = self_consistent_solve(
                self.spec, self.mat, biases, grid=self.grid)
        return self.grid._cache[key]

    def spin_params(self, solutions) -> list:
        """(E_ZL, E_ZR, J) of each solution of a stack on this device.

        The spin map runs once over the stack (noise samples of one
        operating point, say). The result lines up with it: each member's
        SpinParams, bit for bit the ones it gets in a stack of one, or, in
        its place, the DqdError that drops it: a GeometryError when
        `find_dots` does not see two dots, a ModelValidityError when
        U - V <= 0. A field map that does not cover the device raises
        ConfigurationError for the whole call once any member has two dots.
        """
        out = [_geometry_error(sol, self.grid) for sol in solutions]
        live = [k for k, exc in enumerate(out) if exc is None]
        if not live:
            return out
        sols = [solutions[k] for k in live]
        pair = localized_pair(sols, self.grid)
        e_zl, e_zr = zeeman_splittings(pair, self.field_map, self.grid)
        j_hz = exchange_energy(pair, self.grid, self.mat,
                               self.coulomb_length_nm)
        for k, a, b, j, sol in zip(live, e_zl, e_zr, j_hz, sols):
            out[k] = j if isinstance(j, DqdError) else SpinParams(
                e_zl_hz=float(a), e_zr_hz=float(b), j_hz=j,
                v_m_mv=sol.biases.v_m * 1e3)
        return out


def load_device(path) -> Device:
    """Read a device file into a `Device`.

    The field map comes from `[field_map]` and the Coulomb length from
    `[exchange] coulomb_length_nm`; both are required. A file that cannot
    be read or parsed, or that lacks either, raises ConfigurationError.
    """
    spec, mat, biases, extra = load_device_config(path)
    try:
        fmap = field_map_from_config(extra["field_map"], spec.width_nm)
        coulomb = float(extra["exchange"]["coulomb_length_nm"])
    except (KeyError, OSError, ValueError) as exc:
        raise ConfigurationError(
            f"malformed device file {path}: {exc!r}") from exc
    return Device(spec, mat, biases, build_grid(spec), fmap, coulomb)


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


def find_dots(solution: ConvergedSolution, grid: Grid) -> DotRegions:
    """Locate 0, 1 or 2 potential valleys in the well and the inter-dot cut.

    Valleys are kept by topographic prominence: a local minimum counts when
    the saddle separating it from every deeper kept valley lies at least
    `MIN_VALLEY_DEPTH_EV` above it. This ignores micro-eV noise wiggles while
    keeping genuinely shallow inter-dot barriers. More than two surviving
    valleys raises GeometryError.
    """
    prof = well_profile(solution, grid)
    inner = prof[1:-1]
    minima = 1 + np.flatnonzero((inner <= prof[:-2]) & (inner < prof[2:]))
    strong: list[int] = []
    for i in sorted(minima.tolist(), key=lambda k: prof[k]):
        prominent = True
        for j in strong:
            lo, hi = (i, j) if i < j else (j, i)
            saddle = prof[lo:hi + 1].max()
            if saddle - prof[i] < MIN_VALLEY_DEPTH_EV:
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


def _geometry_error(solution: ConvergedSolution, grid: Grid):
    """None when `find_dots` sees two dots in `solution`, else the
    GeometryError that keeps it from the spin map."""
    try:
        n_dots = find_dots(solution, grid).n_dots
    except GeometryError as exc:
        return exc
    return None if n_dots == 2 else GeometryError(
        f"the spin map needs two dots, not {n_dots}")


def zeeman_splittings(pair, field_map: MagnetFieldMap, grid: Grid):
    """(E_ZL, E_ZR) in Hz, arrays over a stack of solutions whose
    `localized_pair` is `pair`: g mu_B / h times the density-weighted B_Z.

    The ground orbital of each dot is the maximally localized combination of
    the two lowest well states, which reduces to the eigenstates themselves
    once the dots are detuned and handles the symmetric case where both
    eigenstates straddle the barrier; `localized_pair` orders them left to
    right.
    """
    if not field_map.covers(grid.x[0], grid.x[-1]):
        raise ConfigurationError("field map does not cover the device extent")
    phi_l, phi_r, _ = pair
    b_x = field_map(grid.x)
    e_zl, e_zr = (ZEEMAN_HZ_PER_T * ((phi**2).sum(axis=-2) * b_x).sum(axis=-1)
                  * grid.dx * grid.dy for phi in (phi_l, phi_r))
    return e_zl, e_zr


# ---------------------------------------------------------------------------
# Exchange coupling
# ---------------------------------------------------------------------------

def _segment_coulomb(rho_nm: np.ndarray, length_nm: float) -> np.ndarray:
    """Mutual energy (units of 1/nm) of two unit-charge parallel [001]
    segments of length L at lateral distance rho, per charge pair."""
    r = rho_nm / length_nm
    return (2.0 / length_nm) * (np.arcsinh(1.0 / r) - np.sqrt(1.0 + r**2) + r)


def coulomb_kernel(grid: Grid, mat: MaterialParams,
                   length_nm: float) -> np.ndarray:
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


def coulomb_integrals(kernel: np.ndarray, fields, grid: Grid) -> np.ndarray:
    """Matrix of (f_a | K | f_b), with cell-area weights, over the
    well-region `fields`; `kernel` is `coulomb_kernel`'s transform. Fields
    of shape (..., F, rows, cols) give one (F, F) matrix per leading index.

    One real 2D FFT per field, zero-padded to the kernel's shape: by
    Parseval, (f_a | K | f_b) = sum_k w_k Re(conj(F_a) K F_b)_k / N over the
    half spectrum, with w = 1 on the columns that are their own mirror
    image (zero and Nyquist) and 2 elsewhere.
    """
    fields = np.asarray(fields)
    lead = fields.shape[:-2]
    nr, nx = fields.shape[-2:]
    shape = (2 * nr, 2 * nx)
    f = np.fft.rfft2(fields, shape)
    w = np.full(f.shape[-1], 2.0)
    w[[0, -1]] = 1.0
    # Re(conj(a) b) summed is the dot product of the (re, im) pairs
    pairs = f.reshape(lead + (-1,)).view(float)
    weighted = (f * (kernel * w)).reshape(lead + (-1,)).view(float)
    gram = pairs @ np.swapaxes(weighted, -1, -2)
    da = grid.dx * grid.dy
    return gram * (da * da / (shape[0] * shape[1]))


def localized_pair(solutions, grid: Grid):
    """Maximally localized (left, right) combinations of the two lowest well
    orbitals of each solution of a stack.

    Diagonalizes the lateral position operator in the two-state subspace;
    returns (phi_l, phi_r, h2) with phi on the well block and h2 the
    effective 2x2 Hamiltonian in the localized basis (eV), each with a
    leading axis over the stack. The pair is ordered by the position
    eigenvalue, which is each orbital's centroid, so left to right.
    """
    psi = np.stack([sol.spectrum.wavefunctions[:2] for sol in solutions])
    energies = np.stack([sol.spectrum.energies_ev[:2] for sol in solutions])
    da = grid.dx * grid.dy
    x_op = np.empty((len(solutions), 2, 2))
    for a in range(2):
        for b in range(2):
            x_op[:, a, b] = (psi[:, a] * psi[:, b]
                             * grid.x[None, :]).sum(axis=(-2, -1)) * da
    pos, w = np.linalg.eigh(0.5 * (x_op + np.swapaxes(x_op, -1, -2)))
    w = np.take_along_axis(w, np.argsort(pos, axis=-1)[:, None, :], axis=-1)
    phi = [w[:, 0, c, None, None] * psi[:, 0] + w[:, 1, c, None, None] * psi[:, 1]
           for c in range(2)]
    diag = np.zeros((len(solutions), 2, 2))
    diag[:, [0, 1], [0, 1]] = energies
    h2 = np.swapaxes(w, -1, -2) @ diag @ w
    return phi[0], phi[1], h2


def exchange_energy(pair, grid: Grid, mat: MaterialParams,
                    coulomb_length_nm: float) -> list:
    """Two-site singlet-triplet exchange J in Hz (>= 0) of each solution of
    a stack, from the stack's `localized_pair` `pair`.

    Singlet sector {S(1,1), S(2,0), S(0,2)} of the two-site model:
        diag(V, U_L + eps, U_R - eps) + sqrt(2) t off-diagonal couplings,
    with eps the localized-orbital detuning; J = E_T - E_S with E_T = V.
    The result lines up with the stack: a member whose U - V <= 0 holds,
    in place of its J, a ModelValidityError.
    """
    phi_l, phi_r, h2 = pair
    t_ev = np.abs(h2[..., 0, 1])
    eps_ev = h2[..., 0, 0] - h2[..., 1, 1]
    kern = coulomb_kernel(grid, mat, coulomb_length_nm)
    gram = coulomb_integrals(kern, np.stack([phi_l**2, phi_r**2], axis=-3),
                             grid)
    u_l, v, u_r = gram[..., 0, 0], gram[..., 0, 1], gram[..., 1, 1]
    u = 0.5 * (u_l + u_r)
    s2t = np.sqrt(2.0) * t_ev
    h_s = np.zeros(np.shape(t_ev) + (3, 3))
    h_s[..., 0, 1] = h_s[..., 0, 2] = h_s[..., 1, 0] = h_s[..., 2, 0] = s2t
    h_s[..., 1, 1] = (u_l - v) + eps_ev
    h_s[..., 2, 2] = (u_r - v) - eps_ev
    e_s = np.linalg.eigvalsh(h_s)[..., 0]
    j_hz = np.maximum(-e_s, 0.0) * EV_TO_HZ
    return [ModelValidityError(
                f"two-site model invalid: U - V = {d * 1e3:.3f} meV <= 0")
            if d <= 0.0 else float(j) for j, d in zip(j_hz, u - v)]


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


def dot_occupations(solution: ConvergedSolution, grid: Grid, spec: DeviceSpec,
                    mat: MaterialParams, length_nm: float = DOT_LENGTH_NM
                    ) -> tuple[int, int]:
    """Integer electron count per dot (0 or 1 in the operating window).

    The line density of each occupied subband is split between the dots by
    its probability mass on each side of the barrier and integrated over
    the [001] dot extent `length_nm`; a dot counts as occupied above half
    an electron.
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
    n = np.minimum((lam * length_nm >= 0.5).astype(int), 1)
    return int(n[0]), int(n[1])


def charge_stability(device: Device, v_l_mv, v_r_mv, v_m_mv: float,
                     v_b_mv: float) -> StabilityDiagram:
    """Occupation map over a (V_L, V_R) window at fixed V_M, V_B: each point
    is solved at the device file's biases with those four replaced."""
    v_l_mv = np.asarray(v_l_mv, dtype=float)
    v_r_mv = np.asarray(v_r_mv, dtype=float)
    if v_l_mv.size == 0 or v_r_mv.size == 0:
        raise ConfigurationError("stability ranges must be non-empty")
    n_l = np.zeros((v_r_mv.size, v_l_mv.size), dtype=int)
    n_r = np.zeros_like(n_l)
    start = None
    for j, vr in enumerate(v_r_mv):
        row_start = start
        for i, vl in enumerate(v_l_mv):
            biases = replace(device.biases, v_b=v_b_mv * 1e-3, v_l=vl * 1e-3,
                             v_m=v_m_mv * 1e-3, v_r=vr * 1e-3)
            sol = self_consistent_solve(device.spec, device.mat, biases,
                                        grid=device.grid,
                                        start_potential=row_start)
            row_start = sol.potential_ev
            if i == 0:
                start = sol.potential_ev
            n_l[j, i], n_r[j, i] = dot_occupations(sol, device.grid,
                                                   device.spec, device.mat)
    return StabilityDiagram(v_l_mv=v_l_mv, v_r_mv=v_r_mv, n_l=n_l, n_r=n_r)
