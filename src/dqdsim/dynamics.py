"""Two-spin Hamiltonian, time evolution and gate fidelity.

Basis order is (|uu>, |ud>, |du>, |dd>) with the left qubit first and
u = spin-up = logical 1. All Hamiltonians are in frequency units (Hz); the
Schrodinger equation integrated is dU/dt = -i 2 pi H(t) U.

Static part:   H0 = (E_ZL/2) sz x I + (E_ZR/2) I x sz + J (S1.S2 - I/4)
Drive part:    B_o cos(2 pi w_D t + theta) * sy on each driven qubit, i.e.
               the on-resonance Rabi frequency equals B_o and a pi rotation
               takes 1/(2 B_o).

Two integrators:
  LabFrame      exact per-step 4x4 exponentials of the full H(t) on a
                fourth-order commutator-free (two-exponential) scheme;
                reference oracle, step-capped at 1/(200 max E_Z).
  RotatingFrame frame co-rotating with the drive for both spins; the RWA
                Hamiltonian is piecewise constant except on bias ramps, so
                drive and hold segments cost one exponential each.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError, ScheduleError
from .kernels import propagate_affine
from .params import SpinParams

SQRT3 = math.sqrt(3.0)
# commutator-free 4th-order scheme: Gauss nodes and exponent weights
CF4_NODES = (0.5 - SQRT3 / 6.0, 0.5 + SQRT3 / 6.0)
CF4_ALPHAS = (0.25 + SQRT3 / 6.0, 0.25 - SQRT3 / 6.0)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

SZ_L = np.kron(SZ, I2)
SZ_R = np.kron(I2, SZ)
SY_L = np.kron(SY, I2)
SY_R = np.kron(I2, SY)
SX_L = np.kron(SX, I2)
SX_R = np.kron(I2, SX)
# Heisenberg coupling S1.S2 - I/4 (frequency units when multiplied by J)
HEIS = 0.25 * (np.kron(SX, SX) + np.kron(SY, SY) + np.kron(SZ, SZ)) - 0.25 * np.eye(4)

SZ_TOT_DIAG = np.array([1.0, 0.0, 0.0, -1.0])  # (sz_L + sz_R)/2 eigenvalues

BASIS_LABELS = ("uu", "ud", "du", "dd")
STATE_DD = 3

UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class DrivePulse:
    rabi_hz: float                 # B_o, on-resonance Rabi frequency
    freq_hz: float                 # w_D
    phase_rad: float = 0.0         # theta
    target: str = "L"              # "L", "R" or "both"
    active: bool = True

    def __post_init__(self):
        if self.rabi_hz < 0:
            raise ConfigurationError("Rabi frequency must be >= 0")
        if self.target not in ("L", "R", "both"):
            raise ConfigurationError("drive target must be L, R or both")


def drive_operator(target: str, axis: str = "y") -> np.ndarray:
    """Pauli `axis` ("x" or "y") on the driven qubit(s) of `target`."""
    left, right = (SY_L, SY_R) if axis == "y" else (SX_L, SX_R)
    if target == "L":
        return left
    if target == "R":
        return right
    return left + right


def static_hamiltonian(p: SpinParams) -> np.ndarray:
    return (0.5 * p.e_zl_hz * SZ_L + 0.5 * p.e_zr_hz * SZ_R
            + p.j_hz * HEIS).astype(complex)


def build_hamiltonian(p: SpinParams, d: DrivePulse | None, t_s: float) -> np.ndarray:
    """Lab-frame H(t)/h in Hz; Hermitian by construction."""
    h = static_hamiltonian(p)
    if d is not None and d.active and d.rabi_hz > 0:
        h = h + (d.rabi_hz * math.cos(2.0 * math.pi * d.freq_hz * t_s + d.phase_rad)
                 ) * drive_operator(d.target)
    return h


def rwa_hamiltonian(p: SpinParams, d: DrivePulse | None, frame_freq_hz: float) -> np.ndarray:
    """Time-independent Hamiltonian in the frame rotating at `frame_freq_hz`
    for both spins, counter-rotating terms dropped."""
    h = (0.5 * (p.e_zl_hz - frame_freq_hz) * SZ_L
         + 0.5 * (p.e_zr_hz - frame_freq_hz) * SZ_R
         + p.j_hz * HEIS).astype(complex)
    if d is not None and d.active and d.rabi_hz > 0:
        if abs(d.freq_hz - frame_freq_hz) > 1e-6:
            raise ScheduleError("drive frequency differs from the schedule frame")
        op = (math.cos(d.phase_rad) * drive_operator(d.target)
              - math.sin(d.phase_rad) * drive_operator(d.target, "x"))
        h = h + 0.5 * d.rabi_hz * op
    return h


def rz_matrix(target: str, angle_rad: float) -> np.ndarray:
    r = np.diag([np.exp(-0.5j * angle_rad), np.exp(+0.5j * angle_rad)])
    return np.kron(r, I2) if target == "L" else np.kron(I2, r)


def ry_matrix(target: str, angle_rad: float) -> np.ndarray:
    c, s = math.cos(angle_rad / 2.0), math.sin(angle_rad / 2.0)
    r = np.array([[c, -s], [s, c]], dtype=complex)
    return np.kron(r, I2) if target == "L" else np.kron(I2, r)


def cz_matrix() -> np.ndarray:
    return np.diag([-1.0 + 0j, 1.0, 1.0, 1.0])


def cnot_matrix(control: str = "R") -> np.ndarray:
    """CNOT flipping the other (target) qubit when the control is |up> = |1>."""
    u = np.zeros((4, 4), dtype=complex)
    if control == "R":
        # control-up states are uu (0) and du (2)
        u[0, 2] = u[2, 0] = 1.0
        u[1, 1] = u[3, 3] = 1.0
    else:
        u[0, 1] = u[1, 0] = 1.0
        u[2, 2] = u[3, 3] = 1.0
    return u


# CNOT flipping the left qubit when the right one is |down>: the gate that
# the three-step protocol compiles (ud <-> dd)
CNOT_DOWN = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                     dtype=complex)


def rot_to_lab(u_rot: np.ndarray, total_time_s: float, frame_freq_hz: float) -> np.ndarray:
    """Transform a rotating-frame propagator (frame at t=0 aligned with the
    lab) back to the lab frame."""
    phases = np.exp(-2j * np.pi * frame_freq_hz * total_time_s * SZ_TOT_DIAG)
    return phases[:, None] * u_rot


def unitarity_defect(u: np.ndarray) -> float:
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


# ---------------------------------------------------------------------------
# Schedule evolution
# ---------------------------------------------------------------------------

PS = 1e-12


@dataclass
class UnitaryResult:
    u: np.ndarray
    frame: str                       # "lab" or "rwa"
    frame_freq_hz: float
    total_time_ns: float
    dt_ns: float                     # largest step used in stepped stretches
    n_exponentials: int
    unitarity_defect: float
    trajectory_t_ns: np.ndarray | None = None
    trajectory_amps: np.ndarray | None = None   # (n_samples, 4) amplitudes

    def to_lab(self) -> np.ndarray:
        if self.frame == "lab":
            return self.u
        return rot_to_lab(self.u, self.total_time_ns * 1e-9, self.frame_freq_hz)


def _cf4_coefs(gamma_fn, t0_s: float, dt_s: float, n_steps: int) -> np.ndarray:
    """Coefficient sequence for the affine kernel: two exponentials per step,
    each of duration dt/2, with effective coefficients 2(a1 g1 + a2 g2) and
    2(a2 g1 + a1 g2)."""
    k = np.arange(n_steps)
    t1 = t0_s + (k + CF4_NODES[0]) * dt_s
    t2 = t0_s + (k + CF4_NODES[1]) * dt_s
    g1 = gamma_fn(t1)
    g2 = gamma_fn(t2)
    a1, a2 = CF4_ALPHAS
    c = np.empty(2 * n_steps)
    c[0::2] = 2.0 * (a1 * g1 + a2 * g2)
    c[1::2] = 2.0 * (a2 * g1 + a1 * g2)
    return c


def _expm_h(h: np.ndarray, t_s: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-2j * np.pi * t_s * w)[None, :]) @ v.conj().T


@dataclass(frozen=True)
class _Affine:
    """Generator h_base + gamma(t) h_coef of a stepped segment, with steps
    capped at 1/(dt_factor f_cap). Drives are cut into chunks at the
    sampling stride (`at_stride`); a ramp is always one batch."""
    h_base: np.ndarray
    h_coef: np.ndarray
    gamma: Callable[[np.ndarray], np.ndarray]   # t [s] -> coefficient
    f_cap: float
    at_stride: bool


def _compile_segment(seg, t0_s: float, params_source, integrator: str,
                     frame_freq: float) -> np.ndarray | _Affine:
    """A segment's constant Hamiltonian (RWA hold or drive, lab-frame hold)
    or its affine generator (ramp in either frame, lab-frame drive)."""
    p_hold = params_source(seg.v_m_mv)
    if seg.ramp_from_mv is not None:
        # linear V_M ramp; J follows the calibrated curve (log-linear in
        # V_M, hence near-exponential in time); E_Z held at the start
        # point, whose drift over the step is a few MHz at most
        p0 = params_source(seg.ramp_from_mv)
        shift = frame_freq if integrator == "rwa" else 0.0
        h_base = (0.5 * (p0.e_zl_hz - shift) * SZ_L
                  + 0.5 * (p0.e_zr_hz - shift) * SZ_R)
        v0, v1, dur_s = seg.ramp_from_mv, seg.v_m_mv, seg.duration_ps * PS

        def gamma(ts):
            frac = np.clip((ts - t0_s) / dur_s, 0.0, 1.0)
            return params_source.j_of_vm(v0 + (v1 - v0) * frac)

        if integrator == "rwa":
            f_cap = max(p_hold.j_hz, p0.j_hz,
                        abs(p0.e_zl_hz - frame_freq), abs(p0.e_zr_hz - frame_freq))
        else:
            f_cap = max(p0.e_zl_hz, p0.e_zr_hz)
        return _Affine(h_base, HEIS, gamma, f_cap, at_stride=False)
    if integrator == "rwa":
        return rwa_hamiltonian(p_hold, seg.drive, frame_freq)
    d = seg.drive
    if d is None or not d.active or d.rabi_hz == 0.0:
        return static_hamiltonian(p_hold)

    def gamma_drive(ts):
        return d.rabi_hz * np.cos(2.0 * math.pi * d.freq_hz * ts + d.phase_rad)

    return _Affine(static_hamiltonian(p_hold), drive_operator(d.target),
                   gamma_drive, max(p_hold.e_zl_hz, p_hold.e_zr_hz, d.freq_hz),
                   at_stride=True)


def evolve(schedule, params_source, integrator: str = "rwa",
           dt_factor: float = 200.0, sample_every_ns: float | None = None,
           initial_state: int = STATE_DD) -> UnitaryResult:
    """Integrate a pulse schedule into a 4x4 propagator.

    Parameters
    ----------
    schedule : PulseSchedule (duck-typed: segments, vz_events, frame_freq_hz)
    params_source : callable V_M[mV] -> SpinParams; a schedule with bias
        ramps also needs its vectorized `j_of_vm(v_m_mv_array)`, as a
        ParamsTable provides, for J along the ramp.
    integrator : "rwa" (production) or "lab" (reference oracle)
    sample_every_ns : if set, record the state trajectory from
        `initial_state` at this stride and at the end of the schedule.

    Rotating-frame steps are capped at 1/(dt_factor max(J, B_o, detunings)),
    lab-frame steps at 1/(dt_factor max(E_ZL, E_ZR)); segments with constant
    H cost a single exact exponential (one per stride when sampling).
    """
    if integrator not in ("rwa", "lab"):
        raise ConfigurationError(f"unknown integrator {integrator!r}")
    segments = list(schedule.segments)
    if not segments:
        raise ScheduleError("empty schedule")
    for seg in segments:
        if seg.duration_ps <= 0:
            raise ScheduleError("segment durations must be > 0")
        if seg.ramp_from_mv is not None and seg.drive is not None:
            raise ScheduleError("segments cannot ramp and drive simultaneously")

    frame_freq = schedule.frame_freq_hz
    drives = [s.drive for s in segments if s.drive is not None and s.drive.active]
    for d in drives:
        if abs(d.freq_hz - frame_freq) > 1e-6:
            raise ScheduleError(
                "all driven segments must share the schedule frame frequency"
            )

    generators = []
    t_ps = 0
    for seg in segments:
        generators.append(_compile_segment(seg, t_ps * PS, params_source,
                                           integrator, frame_freq))
        t_ps += seg.duration_ps

    events = sorted(schedule.vz_events, key=lambda e: e[0])
    ev_idx = 0

    u = np.eye(4, dtype=complex)
    t_ps = 0
    n_exp = 0
    dt_max_s = 0.0

    sampling = sample_every_ns is not None
    psi = None
    traj_t: list[float] = []
    traj_a: list[np.ndarray] = []
    if sampling:
        psi = np.zeros(4, dtype=complex)
        psi[initial_state] = 1.0
        traj_t.append(0.0)
        traj_a.append(psi.copy())
        stride_ps = max(int(round(sample_every_ns * 1000.0)), 1)
        next_sample_ps = stride_ps

    def apply(mat: np.ndarray, t_after_ps: int):
        nonlocal u, t_ps, psi, next_sample_ps
        u = mat @ u
        t_ps = t_after_ps
        if sampling:
            psi = mat @ psi
            if t_ps >= next_sample_ps:
                traj_t.append(t_ps * 1e-3)
                traj_a.append(psi.copy())
                while next_sample_ps <= t_ps:
                    next_sample_ps += stride_ps

    def apply_events_at(time_ps: int):
        nonlocal ev_idx, u, psi
        while ev_idx < len(events) and events[ev_idx][0] <= time_ps:
            _, target, angle = events[ev_idx]
            m = rz_matrix(target, angle)
            u = m @ u
            if sampling:
                psi = m @ psi
            ev_idx += 1

    for seg, gen in zip(segments, generators):
        apply_events_at(t_ps)
        seg_end_ps = t_ps + seg.duration_ps
        if isinstance(gen, _Affine):
            dur_s = seg.duration_ps * PS
            dt_s = 1.0 / (dt_factor * gen.f_cap)
            n_steps = max(int(math.ceil(dur_s / dt_s)), 1)
            dt_s = dur_s / n_steps
            dt_max_s = max(dt_max_s, dt_s)
            coefs = _cf4_coefs(gen.gamma, t_ps * PS, dt_s, n_steps)
            n_exp += coefs.size
            ends = [n_steps]
            if sampling and gen.at_stride:
                # chunks end at the first step at or after each stride from
                # the segment start, where constant segments end their pieces
                marks_s = np.arange(stride_ps, seg.duration_ps, stride_ps) * PS
                ends = np.unique(np.append(np.ceil(marks_s / dt_s).astype(int),
                                           n_steps))
            seg_start_ps, done = t_ps, 0
            for end in ends:
                # the clock is the rounded cumulative time, so chunk
                # rounding does not accumulate
                apply(propagate_affine(gen.h_base, gen.h_coef,
                                       coefs[2 * done:2 * end], 0.5 * dt_s),
                      seg_start_ps + int(round(end * dt_s / PS)))
                done = end
        else:
            piece_ps = stride_ps if sampling else seg.duration_ps
            while t_ps < seg_end_ps:
                step = min(piece_ps, seg_end_ps - t_ps)
                apply(_expm_h(gen, step * PS), t_ps + step)
                n_exp += 1

    if sampling and traj_t[-1] < t_ps * 1e-3:
        # the gate time is not a multiple of the stride: end on the final state
        traj_t.append(t_ps * 1e-3)
        traj_a.append(psi.copy())
    apply_events_at(t_ps)

    defect = unitarity_defect(u)
    if defect > UNITARITY_TOL:
        raise NumericalError(f"unitarity drift {defect:.2e} exceeds {UNITARITY_TOL}",
                             diagnostics={"defect": defect})
    total_ns = t_ps * 1e-3
    return UnitaryResult(
        u=u, frame=integrator,
        frame_freq_hz=frame_freq, total_time_ns=total_ns,
        dt_ns=dt_max_s * 1e9, n_exponentials=n_exp, unitarity_defect=defect,
        trajectory_t_ns=np.array(traj_t) if sampling else None,
        trajectory_amps=np.array(traj_a) if sampling else None,
    )


# ---------------------------------------------------------------------------
# Conditional resonances of the static Hamiltonian
# ---------------------------------------------------------------------------

def labeled_eigenstates(p: SpinParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenenergies (uu, ud-like, du-like, dd) of the static Hamiltonian,
    and the |ud>-like and |du>-like eigenvectors, labeled by dominant weight."""
    h = static_hamiltonian(p).real
    w, v = np.linalg.eigh(h[1:3, 1:3])
    ud_like = 0 if abs(v[0, 0]) >= abs(v[0, 1]) else 1
    du_like = 1 - ud_like
    vec_ud = np.zeros(4)
    vec_ud[1:3] = v[:, ud_like]
    vec_du = np.zeros(4)
    vec_du[1:3] = v[:, du_like]
    energies = np.array([h[0, 0], w[ud_like], w[du_like], h[3, 3]])
    return energies, vec_ud, vec_du


def conditional_resonances(p: SpinParams) -> dict:
    """Transition frequencies and drive matrix elements of the 4-level system.

    Keys: f_<q>_ctrl_<s> for target qubit q in {l, r} and the other qubit's
    state s in {up, down}; m_<q>_ctrl_<s> are |<f| sy_q |i>| matrix elements.
    """
    (e_uu, e_ud, e_du, e_dd), vec_ud, vec_du = labeled_eigenstates(p)
    uu = np.array([1.0, 0, 0, 0])
    dd = np.array([0, 0, 0, 1.0])

    def melem(op, a, b):
        return abs(a @ (op @ b))

    return {
        # left-qubit flips: du <-> uu (control right = up), dd <-> ud
        "f_l_ctrl_up": e_uu - e_du,
        "f_l_ctrl_down": e_ud - e_dd,
        "m_l_ctrl_up": melem(SY_L, uu, vec_du),
        "m_l_ctrl_down": melem(SY_L, vec_ud, dd),
        # right-qubit flips: ud <-> uu (control left = up), dd <-> du
        "f_r_ctrl_up": e_uu - e_ud,
        "f_r_ctrl_down": e_du - e_dd,
        "m_r_ctrl_up": melem(SY_R, uu, vec_ud),
        "m_r_ctrl_down": melem(SY_R, vec_du, dd),
    }


# ---------------------------------------------------------------------------
# Average gate fidelity
# ---------------------------------------------------------------------------

def _check_unitary(u: np.ndarray, name: str):
    if u.shape != (4, 4):
        raise ConfigurationError(f"{name} must be 4x4")
    if unitarity_defect(u) > 1e-8:
        raise ConfigurationError(f"{name} is not unitary to 1e-8")


def _avg_fidelity_from_trace(tr_abs: float, d: int = 4) -> float:
    return (tr_abs**2 / d + 1.0) / (d + 1.0)


Z_L = SZ_L.diagonal().real
Z_R = SZ_R.diagonal().real
# starts of the frame ascent: zeros, then seven fixed uniform draws
FRAME_STARTS = np.vstack([np.zeros(4), np.random.default_rng(7).uniform(
    0.0, 2.0 * np.pi, size=(7, 4))])
FRAME_TOL = 1e-15
FRAME_MAX_SWEEPS = 10_000


def _best_angle(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Per row of w, the angle t maximizing |sum_j w_j exp(0.5i t z_j)|:
    the sum is p e^{it/2} + q e^{-it/2}, largest at t = arg q - arg p."""
    p = w[:, z > 0].sum(axis=1)
    q = w[:, z < 0].sum(axis=1)
    return np.angle(q) - np.angle(p)


def gate_fidelity(u_actual: np.ndarray, u_ideal: np.ndarray,
                  frame_opt: bool = True) -> float:
    """Average gate fidelity in percent.

    F_avg = (|Tr(U_ideal^+ U)|^2 / d + 1) / (d + 1), d = 4, globally phase
    invariant. With `frame_opt` the ideal gate is pre- and post-composed with
    single-qubit virtual-Z rotations, matching the experimental convention of
    tracking qubit phases in software, and |Tr| is maximized over their four
    angles by exact coordinate ascent: with three angles fixed the trace is
    p e^{it/2} + q e^{-it/2} in the fourth, whose modulus peaks at
    t = arg q - arg p. The ascent runs on all of `FRAME_STARTS` at once (zero
    angles and seven fixed random points, against local maxima) until no
    start gains more than `FRAME_TOL` in |Tr| per sweep.
    """
    _check_unitary(u_actual, "u_actual")
    _check_unitary(u_ideal, "u_ideal")
    a = np.conj(u_ideal) * u_actual   # Tr = sum_jk A_jk with phase factors
    if not frame_opt:
        return 100.0 * _avg_fidelity_from_trace(abs(a.sum()))

    x = FRAME_STARTS.copy()           # angles (post L, post R, pre L, pre R)

    def ph(i, z):
        return np.exp(0.5j * x[:, i, None] * z)

    def abs_trace():
        return np.abs(np.einsum("sj,jk,sk->s", ph(0, Z_L) * ph(1, Z_R), a,
                                ph(2, Z_L) * ph(3, Z_R)))

    best = abs_trace()
    for _ in range(FRAME_MAX_SWEEPS):
        rows = (ph(2, Z_L) * ph(3, Z_R)) @ a.T     # sum_k A_jk pre_k
        x[:, 0] = _best_angle(ph(1, Z_R) * rows, Z_L)
        x[:, 1] = _best_angle(ph(0, Z_L) * rows, Z_R)
        cols = (ph(0, Z_L) * ph(1, Z_R)) @ a       # sum_j post_j A_jk
        x[:, 2] = _best_angle(ph(3, Z_R) * cols, Z_L)
        x[:, 3] = _best_angle(ph(2, Z_L) * cols, Z_R)
        value = abs_trace()
        gain = np.max(value - best)
        best = np.maximum(best, value)
        if gain <= FRAME_TOL:
            break
    return 100.0 * _avg_fidelity_from_trace(float(best.max()))
