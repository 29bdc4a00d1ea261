"""Device geometry, materials and the 2D variable-permittivity Poisson solver.

The simulation domain is a 2D vertical slice of a gated Si/SiGe
heterostructure: x is the lateral coordinate (nm, [100]), y the growth
coordinate (nm, [010], measured downward from the top surface). Cell-centered
finite volumes with harmonic permittivity averaging at material interfaces.

Boundary conditions:
  * top-surface electrode segments: Dirichlet, u = Phi_B - V_gate (electron
    potential energy, eV), blended per cell by the fraction of the cell face
    the electrode covers so spans are continuous quantities;
  * source/drain reservoir segments on the left/right boundary: Dirichlet
    with Phi_B = 0 (ohmic 2DEG contacts), source grounded, drain at -eps;
  * everywhere else: zero normal flux (Neumann).

The permittivity depends on depth only, so the operator is separable but
for the Dirichlet couplings of the top cells outside full electrode cover
and of the source/drain cells. `PoissonProblem` solves the separable part
by a DCT along x and tridiagonal solves along y, and corrects for those
few capacitance cells with a small dense system; it keeps no sparse
factor, which would hold ~20x the memory of everything it does keep.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields

import numpy as np
from scipy.fft import dct, idct
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dpttrf, dpttrs

from .constants import K_B_EV, Q_OVER_EPS0_EV_NM
from .errors import ConfigurationError

NM3_PER_CM3 = 1e-21  # density conversion: n[nm^-3] = n[cm^-3] * 1e-21

REGION_BULK = 0
REGION_QUANTUM = 1

ELECTRODE_NAMES = ("B1", "L", "M", "R", "B2")


@dataclass(frozen=True)
class Layer:
    material: str                 # "Si" or "SiGe"
    thickness_nm: float

    def __post_init__(self):
        if self.material not in ("Si", "SiGe"):
            raise ConfigurationError(f"unknown material {self.material!r}")
        if self.thickness_nm <= 0:
            raise ConfigurationError("layer thickness must be > 0")


@dataclass(frozen=True)
class Electrode:
    name: str
    span_nm: tuple[float, float]  # interval on the top surface

    def __post_init__(self):
        if self.name not in ELECTRODE_NAMES:
            raise ConfigurationError(f"electrode name must be one of {ELECTRODE_NAMES}")
        x0, x1 = self.span_nm
        if not x1 > x0:
            raise ConfigurationError("electrode span must have positive width")


@dataclass(frozen=True)
class DeviceSpec:
    layers: tuple[Layer, ...]
    electrodes: tuple[Electrode, ...]
    width_nm: float
    dx_nm: float
    dy_nm: float
    temperature_k: float
    # depth interval of the ohmic source/drain segments on the side boundaries
    source_drain_depth_nm: tuple[float, float] | None = None

    def __post_init__(self):
        if self.width_nm <= 0 or self.dx_nm <= 0 or self.dy_nm <= 0:
            raise ConfigurationError("domain width and grid steps must be > 0")
        if self.temperature_k <= 0:
            raise ConfigurationError("temperature must be > 0")
        spans = sorted(e.span_nm for e in self.electrodes)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            if b0 < a1:
                raise ConfigurationError("electrode spans must be disjoint")
        for x0, x1 in spans:
            if x0 < 0.0 or x1 > self.width_nm:
                raise ConfigurationError("electrode span outside the domain")

    @property
    def height_nm(self) -> float:
        return sum(l.thickness_nm for l in self.layers)

    def well_depth_interval(self) -> tuple[float, float]:
        """Depth interval (nm) of the quantum-well layer (buried Si)."""
        y0 = 0.0
        for i, layer in enumerate(self.layers):
            y1 = y0 + layer.thickness_nm
            if _is_well_layer(self.layers, i):
                return (y0, y1)
            y0 = y1
        raise ConfigurationError("no buried Si quantum-well layer in the stack")


@dataclass(frozen=True)
class MaterialParams:
    """Material constants of the Si/SiGe stack.

    The defaults are part of the model: literature values for strained Si
    on relaxed Si0.7Ge0.3 (relative permittivities, the 150 meV
    conduction-band offset, the Delta_2 effective masses and valley
    degeneracy, the bulk density-of-states mass) and a grounded source
    reservoir. A device file still states every field; its Schottky
    barrier is the value the calibration fits.
    """

    permittivity_si: float = 11.7
    permittivity_sige: float = 13.0
    # conduction-band offset of the SiGe barrier above the strained Si well, eV
    conduction_band_offset_ev: float = 0.15
    # effective masses in units of m0; lateral = in-plane [100],
    # vertical = growth-direction [010], transport = free [001] direction
    mass_lateral: float = 0.19
    mass_vertical: float = 0.916
    mass_transport: float = 0.19
    dos_mass_bulk: float = 1.06       # density-of-states mass incl. 6 valleys
    valley_degeneracy: int = 2        # low-lying Delta_2 valleys of the well
    schottky_barrier_ev: float = 0.30  # Ti/Au on Si
    fermi_level_ev: float = 0.0        # grounded source reservoir reference

    def __post_init__(self):
        if min(self.mass_lateral, self.mass_vertical, self.mass_transport) <= 0:
            raise ConfigurationError("effective masses must be > 0")
        if min(self.permittivity_si, self.permittivity_sige) <= 1.0:
            raise ConfigurationError("relative permittivities must exceed 1")
        if self.schottky_barrier_ev < 0:
            raise ConfigurationError("Schottky barrier must be >= 0")


@dataclass(frozen=True)
class DeviceBiases:
    """Gate and drain biases, volts; a device file states each one."""

    v_b: float            # both barrier gates
    v_l: float
    v_m: float
    v_r: float
    drain_bias_v: float

    def __post_init__(self):
        vals = (self.v_b, self.v_l, self.v_m, self.v_r, self.drain_bias_v)
        if not all(np.isfinite(v) for v in vals):
            raise ConfigurationError("all biases must be finite")
        if self.drain_bias_v < 0:
            raise ConfigurationError("drain bias must be >= 0")

    def for_electrode(self, name: str) -> float:
        return {"B1": self.v_b, "B2": self.v_b,
                "L": self.v_l, "M": self.v_m, "R": self.v_r}[name]


def _is_well_layer(layers: tuple[Layer, ...], i: int) -> bool:
    """A quantum-well layer is Si bounded by SiGe above and below."""
    if layers[i].material != "Si":
        return False
    if i == 0 or i == len(layers) - 1:
        return False
    return layers[i - 1].material == "SiGe" and layers[i + 1].material == "SiGe"


class Grid:
    """Tensor-product rectangular grid with per-cell material/region tags.

    Arrays are indexed [j, i] with j the vertical (y, downward) and i the
    lateral (x) cell index. Cell centers sit at (i + 1/2) dx, (j + 1/2) dy.
    """

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self.dx = spec.dx_nm
        self.dy = spec.dy_nm
        self.nx = int(round(spec.width_nm / self.dx))
        self.ny = int(round(spec.height_nm / self.dy))
        if abs(self.nx * self.dx - spec.width_nm) > 1e-9 * spec.width_nm:
            raise ConfigurationError("domain width must be a multiple of dx")
        if abs(self.ny * self.dy - spec.height_nm) > 1e-9 * spec.height_nm:
            raise ConfigurationError("stack height must be a multiple of dy")
        self.x = (np.arange(self.nx) + 0.5) * self.dx
        self.y = (np.arange(self.ny) + 0.5) * self.dy

        # per-cell layer index and tags, assigned by cell-center depth
        edges = np.cumsum([0.0] + [l.thickness_nm for l in spec.layers])
        self.layer_index = np.searchsorted(edges, self.y, side="right") - 1
        for li, layer in enumerate(spec.layers):
            n_cells = int(np.count_nonzero(self.layer_index == li))
            if n_cells < 2:
                raise ConfigurationError(
                    f"grid too coarse: layer {li} ({layer.material}, "
                    f"{layer.thickness_nm} nm) resolved by {n_cells} < 2 cells"
                )
        self.material = np.array(
            [spec.layers[li].material for li in self.layer_index]
        )
        region_per_layer = np.array(
            [REGION_QUANTUM if _is_well_layer(spec.layers, i) else REGION_BULK
             for i in range(len(spec.layers))]
        )
        self.region = np.repeat(
            region_per_layer[self.layer_index][:, None], self.nx, axis=1
        )

        # fraction of each top-row cell face covered by each electrode
        self.electrode_cover = {}
        for el in spec.electrodes:
            x0, x1 = el.span_nm
            lo = np.clip(x1 - np.arange(self.nx) * self.dx, 0.0, self.dx)
            hi = np.clip(x0 - np.arange(self.nx) * self.dx, 0.0, self.dx)
            self.electrode_cover[el.name] = (lo - hi) / self.dx

        # source/drain segments on the side boundaries (by cell-center depth);
        # default: around the 2DEG in the well, or the full side if no well
        if spec.source_drain_depth_nm is None:
            try:
                w0, w1 = spec.well_depth_interval()
                sd = (w0 - 2.0, w1 + 10.0)
            except ConfigurationError:
                sd = (0.0, spec.height_nm)
        else:
            sd = spec.source_drain_depth_nm
        self.sd_mask = (self.y >= sd[0]) & (self.y <= sd[1])
        if not self.sd_mask.any():
            raise ConfigurationError("source/drain segments resolve to no cells")

        self.quantum_mask = self.region == REGION_QUANTUM
        # the surface layer is the gate-contact layer: inside the Schottky
        # depletion region, it carries no mobile charge
        self.depleted_mask = np.repeat(
            (self.layer_index == 0)[:, None], self.nx, axis=1
        )
        self.n_cells = self.nx * self.ny
        self._cache: dict = {}

    def cell_permittivity(self, mat: MaterialParams) -> np.ndarray:
        eps = np.where(self.material == "Si",
                       mat.permittivity_si, mat.permittivity_sige)
        return np.repeat(eps[:, None], self.nx, axis=1)


def build_grid(spec: DeviceSpec) -> Grid:
    """Build the rectangular grid with material and Quantum/Bulk tags."""
    return Grid(spec)


# ---------------------------------------------------------------------------
# Poisson operator
# ---------------------------------------------------------------------------

def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


class PoissonProblem:
    """The SPD operator A = -div(eps grad u) of a fixed grid + materials,
    with a direct solve that keeps no sparse factor.

    The permittivity is constant along each grid row, so A = B + P D P^T
    with a separable base B = L_x (x) diag(eps_j / dx^2) + I (x) T_y: L_x
    is the 1-D Neumann Laplacian, and T_y is tridiagonal in y with the
    whole top face Dirichlet (and the bottom face with `dirichlet_all`).
    D holds the diagonal differences on the k capacitance cells, where A's
    Dirichlet coupling differs from B's: the partly covered and gap cells
    of the top row and the source/drain cells of the sides. An orthonormal
    DCT-II along x diagonalizes L_x, so B is solved by one tridiagonal
    LDL^T solve per DCT mode along y; the capacitance correction (Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 7, 627 (1970)) then gives
        u = B^-1 b - B^-1 P z,  (I + D G) z = D P^T B^-1 b,
    with G = P^T B^-1 P built once from per-mode solves at the rows the
    cells lie in. Kept are the tridiagonal factors and the k x k LU: on
    the shipped grid 0.6 MB, against 12 MB for a sparse LU of A. The
    operator depends only on geometry, permittivities and the boundary
    layout; bias values and space charge enter the right-hand side, so one
    problem serves every bias point and noise sample.
    """

    def __init__(self, grid: Grid, mat: MaterialParams,
                 dirichlet_top_weight: np.ndarray | None = None,
                 dirichlet_all: bool = False):
        self.grid = grid
        nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
        eps = grid.cell_permittivity(mat)[:, 0]
        if dirichlet_top_weight is None:
            dirichlet_top_weight = sum(grid.electrode_cover.values())

        # Dirichlet couplings to boundary faces (half-cell distance): the
        # electrode-covered fraction of each top face and the source/drain
        # segments of the sides, or with `dirichlet_all` every face
        top = 2.0 * eps[0] / dy**2
        self._top_coeff = np.clip(dirichlet_top_weight, 0.0, 1.0) * top
        self._bottom_coeff = np.full(
            nx, 2.0 * eps[-1] / dy**2 if dirichlet_all else 0.0)
        sides = np.ones(ny, dtype=bool) if dirichlet_all else grid.sd_mask
        self._side_coeff = np.where(sides, 2.0 * eps / dx**2, 0.0)

        # B per DCT mode m: lam_m eps_j / dx^2 + T_y, in (mode, row) order,
        # with lam_m the eigenvalues of L_x
        ey = _harmonic(eps[:-1], eps[1:]) / dy**2
        ty = np.append(ey, 0.0) + np.append(0.0, ey)
        ty[0] += top
        ty[-1] += self._bottom_coeff[0]
        lam = 4.0 * np.sin(0.5 * np.pi * np.arange(nx) / nx) ** 2
        self._d, self._e, _ = dpttrf(
            (lam[:, None] * (eps / dx**2) + ty).ravel(),
            np.tile(np.append(-ey, 0.0), nx)[:-1])

        # the capacitance cells and D
        delta = np.zeros((ny, nx))
        delta[0] += self._top_coeff - top
        delta[:, [0, -1]] += self._side_coeff[:, None]
        self._cells = np.flatnonzero(delta)
        self._delta = delta.ravel()[self._cells]
        # G[a, b] = sum_m Q[m, i_a] Q[m, i_b] T_m^-1[j_a, j_b], with Q the
        # DCT basis; one unit right-hand side per row j of the cells gives
        # T_m^-1[:, j] for all modes at once, and G's columns at row j
        rows, cols = np.divmod(self._cells, nx)
        q = dct(np.eye(nx)[cols], norm="ortho", axis=1).T
        g = np.empty((rows.size, rows.size))
        for j in np.unique(rows):
            unit = np.zeros((nx, ny))
            unit[:, j] = 1.0
            tinv, _ = dpttrs(self._d, self._e, unit.ravel())
            at = rows == j
            g[:, at] = np.einsum("ma,mb->ab",
                                 q * tinv.reshape(nx, ny)[:, rows], q[:, at])
        self._capacitance = lu_factor(np.eye(rows.size)
                                      + self._delta[:, None] * g)

    def _solve_base(self, b: np.ndarray) -> np.ndarray:
        """B^-1 b for b of shape (ny, nx)."""
        nx, ny = self.grid.nx, self.grid.ny
        modes, _ = dpttrs(self._d, self._e,
                          dct(b, norm="ortho", axis=1).T.ravel())
        return idct(modes.reshape(nx, ny).T, norm="ortho", axis=1)

    def rhs(self, charge_nm3: np.ndarray,
            u_top: np.ndarray, u_left: np.ndarray, u_right: np.ndarray,
            u_bottom: np.ndarray | None = None) -> np.ndarray:
        b = Q_OVER_EPS0_EV_NM * charge_nm3.astype(float).copy()
        b[0, :] += self._top_coeff * u_top
        b[:, 0] += self._side_coeff * u_left
        b[:, -1] += self._side_coeff * u_right
        if u_bottom is not None:
            b[-1, :] += self._bottom_coeff * u_bottom
        return b.ravel()

    def solve_rhs(self, b: np.ndarray) -> np.ndarray:
        y = self._solve_base(b.reshape(self.grid.ny, self.grid.nx))
        z = np.zeros(y.size)
        z[self._cells] = lu_solve(self._capacitance,
                                  self._delta * y.ravel()[self._cells])
        return y - self._solve_base(z.reshape(y.shape))


def _poisson_problem(grid: Grid, mat: MaterialParams) -> PoissonProblem:
    key = ("poisson", mat)
    if key not in grid._cache:
        grid._cache[key] = PoissonProblem(grid, mat)
    return grid._cache[key]


def boundary_values(grid: Grid, mat: MaterialParams, biases: DeviceBiases):
    """Electron potential energy (eV) on the Dirichlet boundary pieces."""
    # electrodes: u = Phi_B - V_gate; overlapping cover is disjoint by spec
    u_top = np.zeros(grid.nx)
    wsum = np.zeros(grid.nx)
    for name, cover in grid.electrode_cover.items():
        u_top += cover * (mat.schottky_barrier_ev - biases.for_electrode(name))
        wsum += cover
    with np.errstate(invalid="ignore"):
        u_top = np.where(wsum > 0, u_top / np.maximum(wsum, 1e-300), 0.0)
    # ohmic reservoirs: Phi_B = 0, source grounded, drain at -eps
    u_left = np.zeros(grid.ny)
    u_right = np.full(grid.ny, -biases.drain_bias_v)
    return u_top, u_left, u_right


def solve_poisson(grid: Grid, mat: MaterialParams, biases: DeviceBiases,
                  charge_cm3: np.ndarray) -> np.ndarray:
    """Solve -div(eps grad u) = (q/eps0) n for the electron potential energy.

    Parameters
    ----------
    charge_cm3 : (ny, nx) electron density in cm^-3.

    Returns
    -------
    (ny, nx) potential-energy field u in eV. Deterministic for fixed inputs.
    """
    if charge_cm3.shape != (grid.ny, grid.nx):
        raise ConfigurationError("charge field shape does not match the grid")
    if not np.all(np.isfinite(charge_cm3)):
        raise ConfigurationError("charge field contains non-finite entries")
    prob = _poisson_problem(grid, mat)
    u_top, u_left, u_right = boundary_values(grid, mat, biases)
    b = prob.rhs(charge_cm3 * NM3_PER_CM3, u_top, u_left, u_right)
    return prob.solve_rhs(b)


# ---------------------------------------------------------------------------
# Fermi-Dirac integrals and semiclassical bulk charge
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def _fermi_integral(eta: np.ndarray, order: float) -> np.ndarray:
    """F_j(eta) = (1/Gamma(j+1)) int_0^inf x^j / (1 + exp(x - eta)) dx.

    Vectorized composite Gauss-Legendre after x = s^2, which removes the
    x^(-1/2) endpoint singularity for j = -1/2. Non-degenerate series for
    eta << 0 keeps the bulk branch cheap at cryogenic temperatures. Below
    eta = -40 every term after the first is under half an ulp of it
    (e^-40 < 2^-54), so the series is exactly exp(eta); evaluating it there
    would only push z^k into the subnormal range.
    """
    from math import gamma

    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    tail = eta < -40.0
    out[tail] = np.exp(eta[tail])
    series = (eta < -8.0) & ~tail
    if series.any():
        z = np.exp(eta[series])
        acc = np.zeros_like(z)
        for k in range(1, 9):
            acc += (-1) ** (k - 1) * z**k / k ** (order + 1.0)
        out[series] = acc
    rest = ~(tail | series)
    if rest.any():
        e = eta[rest]
        s_max = np.sqrt(np.maximum(e, 0.0) + 42.0)
        # composite GL in s on [0, s_max], 10 panels
        n_panel = 10
        edges = np.linspace(0.0, 1.0, n_panel + 1)
        total = np.zeros_like(e)
        for p in range(n_panel):
            a = edges[p] * s_max
            bnd = edges[p + 1] * s_max
            s = 0.5 * (bnd - a)[:, None] * _GL_NODES[None, :] + 0.5 * (bnd + a)[:, None]
            f = s ** (2.0 * order + 1.0) / (1.0 + np.exp(s**2 - e[:, None]))
            total += (bnd - a) * 0.5 * 2.0 * (f * _GL_WEIGHTS[None, :]).sum(axis=1)
        out[rest] = total / gamma(order + 1.0)
    return out


def fermi_half(eta) -> np.ndarray:
    return _fermi_integral(np.asarray(eta, dtype=float), 0.5)


def fermi_minus_half(eta) -> np.ndarray:
    return _fermi_integral(np.asarray(eta, dtype=float), -0.5)


def conduction_band_edge(grid: Grid, mat: MaterialParams,
                         potential_ev: np.ndarray) -> np.ndarray:
    """E_c(x, y) = u + band offset of the local material (Si well = 0)."""
    offset = np.where(grid.material == "Si", 0.0, mat.conduction_band_offset_ev)
    return potential_ev + offset[:, None]


def effective_dos_nm3(mat: MaterialParams, temperature_k: float) -> float:
    """Bulk effective conduction-band DOS N_c(T) in nm^-3."""
    from .constants import HBAR2_OVER_2M0
    kt = K_B_EV * temperature_k
    # N_c = 2 (m_d kT / (2 pi hbar^2))^(3/2), with hbar^2/(2 m0) in eV nm^2
    lam2 = HBAR2_OVER_2M0 / (mat.dos_mass_bulk * kt)  # (thermal length)^2 / (4 pi)
    return 2.0 / (4.0 * np.pi * lam2) ** 1.5


def bulk_charge(potential_ev: np.ndarray, grid: Grid, mat: MaterialParams,
                temperature_k: float) -> np.ndarray:
    """Semiclassical 3D electron density on Bulk cells, cm^-3.

    n = N_c(T) F_{1/2}((E_F - E_c)/kT); Quantum cells are zeroed and left to
    the quantum solver, and the gate-contact surface layer is held depleted.
    """
    if not np.all(np.isfinite(potential_ev)):
        raise ConfigurationError("potential contains non-finite entries")
    kt = K_B_EV * temperature_k
    ec = conduction_band_edge(grid, mat, potential_ev)
    keep = ~(grid.quantum_mask | grid.depleted_mask)
    n_nm3 = np.zeros_like(ec)
    n_nm3[keep] = effective_dos_nm3(mat, temperature_k) * fermi_half(
        (mat.fermi_level_ev - ec[keep]) / kt)
    return n_nm3 / NM3_PER_CM3


# ---------------------------------------------------------------------------
# Device file I/O
# ---------------------------------------------------------------------------

def load_device_config(path) -> tuple[DeviceSpec, MaterialParams, DeviceBiases, dict]:
    """Read and parse a device file; see `parse_device_config`. A file that
    cannot be read or parsed raises ConfigurationError."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read device file {path}") from exc
    try:
        return parse_device_config(text, source=str(path))
    except (configparser.Error, KeyError, IndexError, TypeError,
            ValueError) as exc:
        raise ConfigurationError(
            f"malformed device file {path}: {exc!r}") from exc


def _from_section(cp: configparser.ConfigParser, section: str, cls):
    """The dataclass `cls` from `[section]`, which states each of its
    fields, parsed by the field's annotated type: a missing key raises
    KeyError, an unknown one ConfigurationError."""
    sec = cp[section]
    unknown = set(sec) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigurationError(f"unknown keys in [{section}]: {sorted(unknown)}")
    return cls(**{f.name: (int if f.type == "int" else float)(sec[f.name])
                  for f in fields(cls)})


def parse_device_config(text: str, source: str = "<string>"
                        ) -> tuple[DeviceSpec, MaterialParams, DeviceBiases, dict]:
    """Parse the key/value device schema; returns (spec, materials, biases, extra).

    Schema (INI, units in key names):
      [layers]   ordered entries "name = material thickness_nm"
      [electrodes] "B1 = x0_nm x1_nm" ... for B1, L, M, R, B2
      [grid]     width_nm, dx_nm, dy_nm, temperature_k; optionally
                 source_drain_depth_nm = y0_nm y1_nm
      [materials] every MaterialParams field
      [biases]   every DeviceBiases field: v_b, v_l, v_m, v_r, drain_bias_v
                 (volts)
      [field_map] profile = plateaus with b_left_tesla, b_right_tesla,
                 x_mid_nm, width_nm; or profile = linear with b0_tesla,
                 gradient_tesla_per_nm; or file = path (required by
                 `dots.load_device`)
      [exchange] coulomb_length_nm
    Every [grid], [materials] and [biases] key is required but
    source_drain_depth_nm: a missing one raises KeyError, an unknown
    [materials] or [biases] key ConfigurationError. Extra sections are
    returned verbatim in `extra`.
    """
    cp = configparser.ConfigParser()
    cp.read_string(text, source=source)

    layers = []
    for name, val in cp.items("layers"):
        parts = val.split()
        if len(parts) != 2:
            raise ConfigurationError(
                f"[layers] {name} = {val!r}: expected 'material thickness_nm'")
        layers.append(Layer(parts[0], float(parts[1])))
    electrodes = []
    for name, val in cp.items("electrodes"):
        x0, x1 = (float(t) for t in val.split())
        electrodes.append(Electrode(name.upper(), (x0, x1)))

    g = cp["grid"]
    sd = None
    if "source_drain_depth_nm" in g:
        a, b = (float(t) for t in g["source_drain_depth_nm"].split())
        sd = (a, b)
    spec = DeviceSpec(
        layers=tuple(layers),
        electrodes=tuple(electrodes),
        width_nm=float(g["width_nm"]),
        dx_nm=float(g["dx_nm"]),
        dy_nm=float(g["dy_nm"]),
        temperature_k=float(g["temperature_k"]),
        source_drain_depth_nm=sd,
    )
    mat = _from_section(cp, "materials", MaterialParams)
    biases = _from_section(cp, "biases", DeviceBiases)

    extra = {
        s: dict(cp.items(s))
        for s in cp.sections()
        if s not in ("layers", "electrodes", "grid", "materials", "biases")
    }
    return spec, mat, biases, extra


def device_config_text(spec: DeviceSpec, mat: MaterialParams,
                       biases: DeviceBiases, extra: dict | None = None) -> str:
    """The device file `load_device_config` reads, as text."""
    cp = configparser.ConfigParser()
    cp["layers"] = {
        f"layer{i}": f"{l.material} {l.thickness_nm:.6g}"
        for i, l in enumerate(spec.layers)
    }
    cp["electrodes"] = {
        e.name: f"{e.span_nm[0]:.6g} {e.span_nm[1]:.6g}" for e in spec.electrodes
    }
    grid_sec = {
        "width_nm": f"{spec.width_nm:.6g}",
        "dx_nm": f"{spec.dx_nm:.6g}",
        "dy_nm": f"{spec.dy_nm:.6g}",
        "temperature_k": f"{spec.temperature_k:.6g}",
    }
    if spec.source_drain_depth_nm is not None:
        grid_sec["source_drain_depth_nm"] = (
            f"{spec.source_drain_depth_nm[0]:.6g} {spec.source_drain_depth_nm[1]:.6g}"
        )
    cp["grid"] = grid_sec
    for sec, values in (("materials", mat), ("biases", biases)):
        cp[sec] = {f.name: repr(getattr(values, f.name))
                   for f in fields(values)}
    for sec, items in (extra or {}).items():
        cp[sec] = {k: str(v) for k, v in items.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
