"""Independent reference computations used only by the test suite."""

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.optimize import minimize

from dqdsim.constants import COULOMB_EV_NM, EV_TO_HZ, HBAR2_OVER_2M0
from dqdsim.dots import _segment_coulomb, localized_pair
from dqdsim.schrodinger import well_rows


def fermi_integral_quadrature(eta: float, order: float) -> float:
    """Direct numerical quadrature of the Fermi-Dirac integral."""
    val, _ = quad(lambda x: x**order / (1.0 + math.exp(x - eta)),
                  0.0, max(eta, 0.0) + 60.0, limit=400)
    return val / math.gamma(order + 1.0)


def row_major_well_kinetic(grid, mat):
    """Hard-wall kinetic operator on the well block, cells in row-major
    order, assembled pair by pair from the five-point stencil; a boundary
    cell gets an extra +t toward each wall face (mirror ghost)."""
    j0, j1 = well_rows(grid)
    nr, nx = j1 - j0, grid.nx
    tx = HBAR2_OVER_2M0 / (mat.mass_lateral * grid.dx**2)
    ty = HBAR2_OVER_2M0 / (mat.mass_vertical * grid.dy**2)
    idx = np.arange(nr * nx).reshape(nr, nx)
    rows, cols, vals = [], [], []
    for a, b, t in ((idx[:, :-1], idx[:, 1:], tx), (idx[:-1], idx[1:], ty)):
        rows += [a.ravel(), b.ravel()]
        cols += [b.ravel(), a.ravel()]
        vals += [np.full(a.size, -t)] * 2
    diag = np.full((nr, nx), 2.0 * tx + 2.0 * ty)
    diag[:, 0] += tx
    diag[:, -1] += tx
    diag[0, :] += ty
    diag[-1, :] += ty
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nr * nx, nr * nx))


def dense_coulomb_kernel(grid, mat, length_nm):
    """Pairwise screened Coulomb matrix over Quantum-region cells (eV), built
    from the cell-center coordinates; every pair distance is softened by
    half a cell diagonal."""
    j0, j1 = well_rows(grid)
    xx, yy = np.meshgrid(grid.x, grid.y[j0:j1])
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    rho = np.sqrt(d2 + 0.25 * (grid.dx**2 + grid.dy**2))
    return (COULOMB_EV_NM / mat.permittivity_si) * _segment_coulomb(rho, length_nm)


def dense_two_body_integral(kernel, f1, f2, grid):
    """(f1 | K | f2) with cell-area weights, by a dense matrix-vector product."""
    da = grid.dx * grid.dy
    return float(f1.ravel() @ (kernel @ f2.ravel()) * da * da)


def ci_singlet_triplet_j(solution, grid, mat, coulomb_length_nm):
    """Two-electron CI on the localized 2-orbital basis: J = E_T - E_S (Hz).

    Uses the full set of one- and two-body integrals of the two-site basis
    (direct, exchange and density-assisted terms), independent of the
    runtime Hubbard truncation.
    """
    phi_l, phi_r, h2 = localized_pair(solution, grid)
    kern = dense_coulomb_kernel(grid, mat, coulomb_length_nm)
    rl, rr, lr = phi_l**2, phi_r**2, phi_l * phi_r
    ull = dense_two_body_integral(kern, rl, rl, grid)
    urr = dense_two_body_integral(kern, rr, rr, grid)
    ulr = dense_two_body_integral(kern, rl, rr, grid)     # (LL|RR)
    x = dense_two_body_integral(kern, lr, lr, grid)       # (LR|LR)
    dal = dense_two_body_integral(kern, lr, rl, grid)     # (LR|LL)
    dar = dense_two_body_integral(kern, lr, rr, grid)     # (LR|RR)
    hll, hrr, hlr = h2[0, 0], h2[1, 1], h2[0, 1]
    e_t = hll + hrr + ulr - x
    hs = np.array([
        [hll + hrr + ulr + x, math.sqrt(2) * (hlr + dal), math.sqrt(2) * (hlr + dar)],
        [math.sqrt(2) * (hlr + dal), 2 * hll + ull, x],
        [math.sqrt(2) * (hlr + dar), x, 2 * hrr + urr],
    ])
    e_s = np.linalg.eigvalsh(hs)[0]
    return (e_t - e_s) * EV_TO_HZ


def two_qubit_stabilizer_states() -> np.ndarray:
    """The 60 two-qubit stabilizer states (a state 2-design), shape (60, 4).

    Generated as the orbit of |00> under the Clifford group generated by
    {H, S} per qubit and CZ, deduplicated up to global phase.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    s = np.diag([1.0, 1j])
    eye = np.eye(2, dtype=complex)
    gens = [np.kron(h, eye), np.kron(eye, h), np.kron(s, eye),
            np.kron(eye, s), np.diag([1.0, 1, 1, -1]).astype(complex)]
    start = np.zeros(4, dtype=complex)
    start[0] = 1.0

    def key(psi):
        idx = np.argmax(np.abs(psi) > 1e-9)
        norm = psi / psi[idx]
        return tuple(np.round(norm, 6).view(float))

    seen = {key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for psi in frontier:
            for g in gens:
                phi = g @ psi
                k = key(phi)
                if k not in seen:
                    seen[k] = phi
                    nxt.append(phi)
        frontier = nxt
    states = np.array(list(seen.values()))
    assert states.shape[0] == 60, states.shape
    return states


def average_fidelity_2design(u_actual: np.ndarray, u_ideal: np.ndarray) -> float:
    """Brute-force average gate fidelity: state fidelity averaged over the
    stabilizer-state 2-design, in percent."""
    states = two_qubit_stabilizer_states()
    m = u_ideal.conj().T @ u_actual
    vals = [abs(np.vdot(psi, m @ psi)) ** 2 for psi in states]
    return 100.0 * float(np.mean(vals))


def frame_optimized_fidelity_nelder_mead(u_actual: np.ndarray,
                                         u_ideal: np.ndarray) -> float:
    """Average gate fidelity in percent, maximized over pre- and post-gate
    virtual-Z angles of both qubits by eight Nelder-Mead searches (zero
    angles and seven seeded random starts)."""
    a = np.conj(u_ideal) * u_actual
    z_l = np.array([1.0, 1.0, -1.0, -1.0])
    z_r = np.array([1.0, -1.0, 1.0, -1.0])

    def neg_abs_trace(x):
        al, be, ga, de = x
        post = np.exp(0.5j * (al * z_l + be * z_r))
        pre = np.exp(0.5j * (ga * z_l + de * z_r))
        return -abs(np.einsum("j,jk,k->", post, a, pre))

    best = -abs(a.sum())
    starts = [np.zeros(4)]
    rng = np.random.default_rng(7)
    starts += [rng.uniform(0.0, 2.0 * np.pi, size=4) for _ in range(7)]
    for x0 in starts:
        res = minimize(neg_abs_trace, x0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000})
        best = min(best, res.fun)
    return 100.0 * ((best**2 / 4 + 1.0) / 5.0)
