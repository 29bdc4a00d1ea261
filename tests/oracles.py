"""Independent reference computations used only by the test suite."""

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize

from dqdsim.constants import COULOMB_EV_NM, EV_TO_HZ, HBAR2_OVER_2M0
from dqdsim.dots import _segment_coulomb, localized_pair
from dqdsim.schrodinger import well_rows


def pchip_field(fmap, x_nm) -> np.ndarray:
    """B_Z of a `MagnetFieldMap` at x_nm by scipy's PchipInterpolator
    through the map's samples."""
    return PchipInterpolator(fmap.x_nm, fmap.b_tesla)(x_nm)


def fermi_integral_quadrature(eta: float, order: float) -> float:
    """Direct numerical quadrature of the Fermi-Dirac integral."""
    val, _ = quad(lambda x: x**order / (1.0 + math.exp(x - eta)),
                  0.0, max(eta, 0.0) + 60.0, limit=400)
    return val / math.gamma(order + 1.0)


def poisson_matrix(grid, mat, top_weight=None, dirichlet_all=False):
    """The operator -div(eps grad u) that `device.PoissonProblem` solves,
    as a CSR matrix assembled face by face from the five-point stencil
    with harmonic face permittivities; each Dirichlet face couples at
    half a cell. `top_weight` is the Dirichlet fraction of each top face
    (default: the electrode cover); `dirichlet_all` makes every face
    Dirichlet."""
    nx, ny, dx, dy = grid.nx, grid.ny, grid.dx, grid.dy
    eps = grid.cell_permittivity(mat)
    if top_weight is None:
        top_weight = sum(grid.electrode_cover.values())
    idx = np.arange(nx * ny).reshape(ny, nx)
    rows, cols, vals = [], [], []
    diag = np.zeros((ny, nx))

    def harmonic(a, b):
        return 2.0 * a * b / (a + b)

    for a, b, w in ((idx[:, :-1], idx[:, 1:],
                     harmonic(eps[:, :-1], eps[:, 1:]) / dx**2),
                    (idx[:-1], idx[1:], harmonic(eps[:-1], eps[1:]) / dy**2)):
        rows += [a.ravel(), b.ravel()]
        cols += [b.ravel(), a.ravel()]
        vals += [-w.ravel(), -w.ravel()]
        np.add.at(diag.ravel(), a.ravel(), w.ravel())
        np.add.at(diag.ravel(), b.ravel(), w.ravel())
    diag[0, :] += np.clip(top_weight, 0.0, 1.0) * 2.0 * eps[0, :] / dy**2
    sides = np.ones(ny, dtype=bool) if dirichlet_all else grid.sd_mask
    diag[sides, 0] += 2.0 * eps[sides, 0] / dx**2
    diag[sides, -1] += 2.0 * eps[sides, -1] / dx**2
    if dirichlet_all:
        diag[-1, :] += 2.0 * eps[-1, :] / dy**2
    rows.append(idx.ravel())
    cols.append(idx.ravel())
    vals.append(diag.ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nx * ny, nx * ny))


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
    (phi_l,), (phi_r,), (h2,) = localized_pair([solution], grid)
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


def sequential_trajectory(schedule, source, integrator: str, stride_ns: float,
                          dt_factor: float = 200.0):
    """(t_ns, amplitudes) of `evolve(schedule, [source], integrator,
    dt_factor, sample_every_ns=stride_ns)`, rebuilt row by row with the
    products taken one factor at a time.

    Each segment is compiled and stepped on the grid `evolve` uses. A mark
    in a stepped segment maps the state by R_i Q_j P^n: n whole drive
    periods, j steps into the next period and i steps into the rest, where
    Q_j and R_i multiply the step exponentials one by one and P^n is a
    chain of n products. P itself is the kernel's period product, as in
    `evolve`: a P multiplied out one factor at a time differs from it at
    round-off, which ~900 powers amplify past 1e-12. A mark in a constant segment takes the exact
    exponential to the mark. Each segment starts from the state its
    predecessors' propagators, as `evolve` computes them, give. A row is
    kept when its time reaches the next mark after the last kept row; the
    final state closes the trajectory.
    """
    from dqdsim.dynamics import (PS, STATE_DD, _Affine, _cf4_coefs,
                                 _compile_segment, _expm_h, _stepped,
                                 rot_to_lab, rz_matrix)
    from dqdsim.kernels import propagate_affine, step_exponentials

    def prefixes(gen, coefs, dt_s, last):
        exps = step_exponentials(gen.h_base[0], gen.h_coef, coefs[:2 * last],
                                 0.5 * dt_s)
        out = [np.eye(4, dtype=complex)]
        for e in exps:
            out.append(e @ out[-1])
        return out[::2]              # after each whole CF4 step

    stride_ps = int(round(stride_ns * 1000.0))
    segments = list(schedule.segments)
    nodes = {v for s in segments for v in (s.v_m_mv, s.ramp_from_mv)
             if v is not None}
    params = [{v: source(v) for v in nodes}]
    events = sorted(schedule.vz_events, key=lambda e: e[0])
    psi = np.zeros(4, dtype=complex)
    psi[STATE_DD] = 1.0
    times, amps = [0.0], [psi]
    next_ps = stride_ps

    def record(time_ps, state):
        nonlocal next_ps
        if time_ps >= next_ps:
            times.append(time_ps * 1e-3)
            amps.append(state)
            while next_ps <= time_ps:
                next_ps += stride_ps

    t_ps = 0
    for seg in segments:
        while events and events[0][0] <= t_ps:
            _, target, angle = events.pop(0)
            psi = rz_matrix(target, angle) @ psi
        gen = _compile_segment(seg, t_ps * PS, params, [source], integrator,
                               schedule.frame_freq_hz)
        dur_s = seg.duration_ps * PS
        first_ps = (t_ps // stride_ps + 1) * stride_ps
        marks_s = (np.arange(first_ps, t_ps + seg.duration_ps, stride_ps)
                   - t_ps) * PS
        if not isinstance(gen, _Affine):
            for mark_s in marks_s:
                record(t_ps + int(round(mark_s / PS)),
                       _expm_h(gen[0], mark_s) @ psi)
            psi = _expm_h(gen[0], dur_s) @ psi
            t_ps += seg.duration_ps
            record(t_ps, psi)
            continue
        f_cap, gamma = gen.f_cap[0], gen.gammas[0]
        period = gen.period_s or 0.0
        n_per, m = 0, 0
        dt_s = 1.0 / (dt_factor * f_cap)
        if gen.period_s is None:
            n_rest = max(int(math.ceil(dur_s / dt_s)), 1)
        else:
            n_per = int(dur_s // period)
            m = int(math.ceil(dt_factor * f_cap * period))
            dt_s = period / m
            n_rest = int(math.ceil(max(dur_s - n_per * period, 0.0) / dt_s))
        dt_rest = (dur_s - n_per * period) / n_rest if n_rest else 0.0
        pre_r = prefixes(gen, _cf4_coefs(gamma, t_ps * PS + n_per * period,
                                         dt_rest, n_rest), dt_rest, n_rest)
        pre_p = [np.eye(4, dtype=complex)]
        powers = [np.eye(4, dtype=complex)]
        if n_per:
            coefs = _cf4_coefs(gamma, t_ps * PS, dt_s, m)
            pre_p = prefixes(gen, coefs, dt_s, m)
            p = propagate_affine(gen.h_base, gen.h_coef, coefs,
                                 [0.5 * dt_s], [coefs.size])[0]
            for _ in range(n_per):
                powers.append(p @ powers[-1])

        def lab(mat, t_s):
            return rot_to_lab(mat, t_s, gen.frame_hz) if gen.frame_hz else mat

        n_p = n_per * m
        for step in sorted({min(math.ceil(mark / dt_s), n_p)
                            if mark <= n_per * period
                            else n_p + min(max(math.ceil(
                                (mark - n_per * period) / dt_rest), 1), n_rest)
                            for mark in marks_s}):
            if step >= n_p + n_rest:
                continue
            n, j = divmod(min(step, n_p), max(m, 1))
            i = max(step - n_p, 0)
            t_s = n * period + j * dt_s + i * dt_rest
            record(t_ps + int(round(t_s / PS)),
                   lab(pre_r[i] @ pre_p[j] @ powers[n], t_s) @ psi)
        psi = _stepped(gen, t_ps * PS, dur_s, dt_factor, np.empty(0),
                       None)[0][0] @ psi
        t_ps += seg.duration_ps
        record(t_ps, psi)
    if times[-1] < t_ps * 1e-3:
        times.append(t_ps * 1e-3)
        amps.append(psi)
    return np.array(times), np.array(amps)
