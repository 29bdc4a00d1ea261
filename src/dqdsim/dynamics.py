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
                reference oracle. A drive is stepped on a grid of m steps
                per drive period T = 1/w_D, within 1/(200 max(E_Z, w_D)),
                so every period has the same steps: its N whole periods
                are the one-period product P to the N-th power, and only
                the rest of the segment is stepped out. A bias ramp carries
                no drive and commutes with total S_z, so it is the
                rotating-frame ramp times the frame's phase, exactly.
  RotatingFrame frame co-rotating with the drive for both spins; the RWA
                Hamiltonian is piecewise constant except on bias ramps, so
                drive and hold segments cost one exponential each.
So in the lab frame a drive costs O(one drive period) of step exponentials
and a ramp its rotating-frame steps, not O(duration x E_Z).

A sampled trajectory takes its rows from batched stacks. The kernel returns
the prefix products of a stepped stretch with its propagator, from the same
step exponentials. A row's map is R_i Q_j P^n (i steps of the rest, j of a
period, n whole periods), gathered for all rows at once, with P^n by binary
powering over the stack of rows, as `np.linalg.matrix_power` gives the
segment's P^N; the lab frame's phases multiply the stack in one broadcast,
and each segment's rows are one (k, 4, 4) @ psi. Rows are assembled in
chunks of at most `kernels.CHUNK_STEPS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DqdError, NumericalError, ScheduleError
from .kernels import CHUNK_STEPS, propagate_affine
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

STATE_DD = 3

UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class DrivePulse:
    rabi_hz: float                 # B_o, on-resonance Rabi frequency
    freq_hz: float                 # w_D
    phase_rad: float = 0.0         # theta
    target: str = "L"              # "L", "R" or "both"

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
    if d is not None and d.rabi_hz > 0:
        h = h + (d.rabi_hz * math.cos(2.0 * math.pi * d.freq_hz * t_s + d.phase_rad)
                 ) * drive_operator(d.target)
    return h


def rwa_hamiltonian(p: SpinParams, d: DrivePulse | None, frame_freq_hz: float) -> np.ndarray:
    """Time-independent Hamiltonian in the frame rotating at `frame_freq_hz`
    for both spins, counter-rotating terms dropped."""
    h = (0.5 * (p.e_zl_hz - frame_freq_hz) * SZ_L
         + 0.5 * (p.e_zr_hz - frame_freq_hz) * SZ_R
         + p.j_hz * HEIS).astype(complex)
    if d is not None and d.rabi_hz > 0:
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


# CNOT flipping the left qubit when the right one is |up> = |1>: the gate
# that the single-step protocol compiles (uu <-> du)
CNOT_UP = np.array([[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]],
                   dtype=complex)

# CNOT flipping the left qubit when the right one is |down>: the gate that
# the three-step protocol compiles (ud <-> dd)
CNOT_DOWN = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]],
                     dtype=complex)


def rot_to_lab(u_rot: np.ndarray, total_time_s, frame_freq_hz: float) -> np.ndarray:
    """Transform a rotating-frame propagator (frame at t=0 aligned with the
    lab) back to the lab frame: one time for a propagator or a stack of
    them, or one time per propagator of a stack (k, 4, 4)."""
    phases = np.exp(-2j * np.pi * frame_freq_hz * np.asarray(total_time_s)[..., None]
                    * SZ_TOT_DIAG)
    return phases[..., :, None] * u_rot


def unitarity_defect(u: np.ndarray) -> np.ndarray:
    """max |U^+ U - I| of each matrix of a stack u (..., n, n)."""
    return np.abs(np.swapaxes(u.conj(), -1, -2) @ u
                  - np.eye(u.shape[-1])).max(axis=(-2, -1))


# ---------------------------------------------------------------------------
# Schedule evolution
# ---------------------------------------------------------------------------

PS = 1e-12


@dataclass
class UnitaryResult:
    u: np.ndarray                    # (B, 4, 4): one per member of the stack
    frame: str                       # "lab" or "rwa"
    frame_freq_hz: float
    total_time_ns: float
    dt_ns: float                     # largest step used in stepped stretches
    # exponential factors of the ordered product `u` stands for: one per
    # constant segment, two per CF4 step (a drive's whole periods each
    # count their 2m, though P^N computes them once); summed over a stack
    n_exponentials: int
    unitarity_defect: np.ndarray     # (B,)
    # lines up with the stack: None, or the DqdError that dropped the
    # member (its u is NaN)
    failures: list
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


def _expm_h(h: np.ndarray, t_s) -> np.ndarray:
    """exp(-i 2 pi t h) for a time t, per matrix of a stack h, or, for one
    h, the stack over an array of times."""
    w, v = np.linalg.eigh(h)
    phase = np.exp(-2j * np.pi * np.asarray(t_s)[..., None] * w)
    return (v * phase[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


@dataclass(frozen=True)
class _Affine:
    """Generators h_base[b] + gamma_b(t) h_coef of a stepped segment, one
    per member b of a stack, with member b's steps capped at
    1/(dt_factor f_cap[b]). A lab-frame drive repeats every `period_s`; a
    ramp compiled in the frame rotating at `frame_hz` is returned to the
    lab by that frame's phase (zero: no phase)."""
    h_base: np.ndarray                          # (B, 4, 4)
    h_coef: np.ndarray
    gammas: list            # per member: t [s] -> coefficient
    f_cap: list             # per member, Hz
    period_s: float | None = None
    frame_hz: float = 0.0


def _ramp_gamma(j_of_vm, v0: float, v1: float, t0_s: float, dur_s: float):
    def gamma(ts):
        frac = np.clip((ts - t0_s) / dur_s, 0.0, 1.0)
        return j_of_vm(v0 + (v1 - v0) * frac)
    return gamma


def _compile_segment(seg, t0_s: float, params: list, sources: list,
                     integrator: str, frame_freq: float) -> np.ndarray | _Affine:
    """A segment's constant Hamiltonians (RWA hold or drive, lab-frame
    hold), stacked over the members, or their affine generators (ramp in
    either frame, lab-frame drive). `params[b]` maps each V_M of the
    schedule to member b's SpinParams; `sources[b]` is its source."""
    p_hold = [p[seg.v_m_mv] for p in params]
    if seg.ramp_from_mv is not None:
        # linear V_M ramp; J follows the calibrated curve (log-linear in
        # V_M, hence near-exponential in time); E_Z held at the start
        # point, whose drift over the step is a few MHz at most. The ramp
        # carries no drive and commutes with total S_z, so in the lab frame
        # it is exactly the rotating-frame ramp times the frame's phase.
        p0 = [p[seg.ramp_from_mv] for p in params]
        h_base = np.stack([0.5 * (q.e_zl_hz - frame_freq) * SZ_L
                           + 0.5 * (q.e_zr_hz - frame_freq) * SZ_R
                           for q in p0])
        gammas = [_ramp_gamma(src.j_of_vm, seg.ramp_from_mv, seg.v_m_mv,
                              t0_s, seg.duration_ps * PS) for src in sources]
        f_cap = [max(ph.j_hz, q.j_hz, abs(q.e_zl_hz - frame_freq),
                     abs(q.e_zr_hz - frame_freq))
                 for ph, q in zip(p_hold, p0)]
        return _Affine(h_base, HEIS, gammas, f_cap,
                       frame_hz=frame_freq if integrator == "lab" else 0.0)
    if integrator == "rwa":
        return np.stack([rwa_hamiltonian(p, seg.drive, frame_freq)
                         for p in p_hold])
    d = seg.drive
    h_static = np.stack([static_hamiltonian(p) for p in p_hold])
    if d is None or d.rabi_hz == 0.0:
        return h_static

    def gamma_drive(ts):
        return d.rabi_hz * np.cos(2.0 * math.pi * d.freq_hz * ts + d.phase_rad)

    return _Affine(h_static, drive_operator(d.target),
                   [gamma_drive] * len(params),
                   [max(p.e_zl_hz, p.e_zr_hz, d.freq_hz) for p in p_hold],
                   period_s=1.0 / abs(d.freq_hz) if d.freq_hz else None)


def _propagate(gen: _Affine, seqs: list, ends: np.ndarray):
    """The members' products of their (coefficients, step) CF4 sequences,
    and the products of the first k CF4 steps for each k of `ends` (empty
    but for a stack of one)."""
    coefs = [c for c, _ in seqs]
    return propagate_affine(gen.h_base, gen.h_coef, np.concatenate(coefs),
                            [0.5 * dt for _, dt in seqs],
                            [c.size for c in coefs], 2 * ends)


def _matrix_powers(p: np.ndarray, n: np.ndarray) -> np.ndarray:
    """p^n for each entry of the integer array `n`, (n.size, 4, 4): binary
    powering over the stack, the scheme of `np.linalg.matrix_power`."""
    out = np.broadcast_to(np.eye(4, dtype=complex), (n.size, 4, 4)).copy()
    n = n.copy()
    while n.any():
        odd = np.flatnonzero(n & 1)
        # a stack times one matrix is one (4k, 4) x (4, 4) product
        out[odd] = (out[odd].reshape(-1, 4) @ p).reshape(-1, 4, 4)
        n >>= 1
        p = p @ p
    return out


def _chunks(n: int):
    """Slices of at most `CHUNK_STEPS` over n rows."""
    return (slice(c, c + CHUNK_STEPS) for c in range(0, n, CHUNK_STEPS))


def _stepped(gen: _Affine, t0_s: float, dur_s: float, dt_factor: float,
             marks_s: np.ndarray, psi: np.ndarray | None):
    """Propagate a stepped segment that starts at `t0_s`, for each member.

    Returns the members' propagators (B, 4, 4), their number of CF4
    exponential factors (summed), their largest step, and, for a stack of
    one, the rows of the stride marks `marks_s` (seconds from the segment
    start): for each mark, the first step end at or after it, if it lies
    before the segment's end, once, as its time (s) and the state there
    from the state `psi` at the segment's start, (k,) and (k, 4).

    A periodic drive takes m equal steps per period, the fewest within the
    member's cap, so every period has the same coefficients: its N whole
    periods are the period product P raised to the N-th power (binary
    powering), and the rest of the segment takes the fewest equal steps no
    longer than the period's. Any other segment is that rest alone, within
    the cap. A row after n whole periods, j steps of the next and i steps
    of the rest maps the state by R_i Q_j P^n, of which R_i or Q_j is the
    identity: the prefix products R_i and Q_j come from the kernel with
    the segment's propagator, and P^n by binary powering over the stack of
    rows.
    """
    period = gen.period_s or 0.0
    n_per = int(dur_s // period) if gen.period_s is not None else 0
    plans = []                  # per member: (m, dt, n_rest, dt_rest)
    rests, periods = [], []
    for gamma, f_cap in zip(gen.gammas, gen.f_cap):
        m = 0
        dt_s = 1.0 / (dt_factor * f_cap)
        if gen.period_s is None:
            n_rest = max(int(math.ceil(dur_s / dt_s)), 1)
        else:
            m = int(math.ceil(dt_factor * f_cap * period))
            dt_s = period / m
            n_rest = int(math.ceil(max(dur_s - n_per * period, 0.0) / dt_s))
        dt_rest = (dur_s - n_per * period) / n_rest if n_rest else 0.0
        plans.append((m, dt_s, n_rest, dt_rest))
        rests.append((_cf4_coefs(gamma, t0_s + n_per * period, dt_rest,
                                 n_rest), dt_rest))
        if n_per:
            periods.append((_cf4_coefs(gamma, t0_s, dt_s, m), dt_s))

    sampled = marks_s.size > 0
    ends_i = ends_j = np.empty(0, dtype=int)
    if sampled:
        # global index of the first step end at or after each mark, split
        # into whole periods n, steps j into the next period, and steps i
        # into the rest
        m, dt_s, n_rest, dt_rest = plans[0]
        n_p = n_per * m
        steps = np.empty(marks_s.size, dtype=int)
        in_p = marks_s <= n_per * period
        steps[in_p] = np.minimum(np.ceil(marks_s[in_p] / dt_s), n_p)
        steps[~in_p] = n_p + np.clip(np.ceil(
            (marks_s[~in_p] - n_per * period) / dt_rest), 1, n_rest)
        steps = np.unique(steps[steps < n_p + n_rest])
        n_of, j_of = np.divmod(np.minimum(steps, n_p), max(m, 1))
        i_of = np.maximum(steps - n_p, 0)
        ends_j, j_row = np.unique(j_of, return_inverse=True)
        ends_i, i_row = np.unique(i_of, return_inverse=True)
    u, pre_i = _propagate(gen, rests, ends_i)
    pre_j = np.eye(4, dtype=complex)[None]
    if n_per:
        p, pre_j = _propagate(gen, periods, ends_j)
        u = u @ np.linalg.matrix_power(p, n_per)
    if gen.frame_hz:
        u = rot_to_lab(u, dur_s, gen.frame_hz)

    rows_s, states = np.empty(0), np.empty((0, 4), dtype=complex)
    if sampled:
        rows_s = n_of * period + j_of * dt_s + i_of * dt_rest
        # a row is in the rest (i > 0, j = 0, n = N) or not (i = 0): its
        # left factor, R_i or Q_j, from one stack of both
        lefts = np.concatenate([pre_j, pre_i])
        left_row = np.where(i_of > 0, pre_j.shape[0] + i_row, j_row)
        states = np.empty((steps.size, 4), dtype=complex)
        for rows in _chunks(steps.size):
            maps = lefts[left_row[rows]]
            if n_per:
                maps = maps @ _matrix_powers(p[0], n_of[rows])
            if gen.frame_hz:
                maps = rot_to_lab(maps, rows_s[rows], gen.frame_hz)
            states[rows] = maps @ psi
    n_exp = sum(2 * (n_per * m + n_rest) for m, _, n_rest, _ in plans)
    dt_max = max(dt_s if n_per else dt_rest for _, dt_s, _, dt_rest in plans)
    return u, n_exp, dt_max, rows_s, states


def evolve(schedule, sources: list, integrator: str = "rwa",
           dt_factor: float = 200.0, sample_every_ns: float | None = None
           ) -> UnitaryResult:
    """Integrate a pulse schedule into a 4x4 propagator per member of a
    stack of parameter sources.

    Parameters
    ----------
    schedule : PulseSchedule (duck-typed: segments, vz_events, frame_freq_hz)
    sources : list of callables V_M[mV] -> SpinParams (noise samples of one
        schedule, say), evolved at once: `u` is (B, 4, 4), each member's
        the `u` it gives in a stack of one, bit for bit. A schedule with
        bias ramps also needs each source's vectorized
        `j_of_vm(v_m_mv_array)`, as a ParamsTable provides, for J along
        the ramp. A member whose parameter lookup raises a DqdError or
        whose unitarity drifts holds that error in its place in `failures`
        (its `u` is NaN).
    integrator : "rwa" (production) or "lab" (reference oracle)
    sample_every_ns : if set, record the state trajectory from |dd>
        (`STATE_DD`) at the stride marks k * sample_every_ns from t = 0
        and at the end of the schedule. A mark's row falls on the first
        step end at or after it: the mark itself in a constant segment,
        the next step end in a stepped one, or the segment's end. Rows do
        not enter the propagator: sampled and unsampled `u` are equal.
        For a stack of one; a stride that rounds to 0 ps raises
        ConfigurationError.

    Ramp steps (both frames) are capped at 1/(dt_factor max(J, detunings
    from the frame)), lab-frame drive steps at 1/(dt_factor max(E_ZL, E_ZR,
    w_D)) on a grid commensurate with the drive period; segments with
    constant H cost a single exact exponential. `n_exponentials` counts the
    exponential factors of the ordered product that `u` stands for (a
    periodic drive's N whole periods count N times), whatever way it was
    multiplied out.
    """
    if integrator not in ("rwa", "lab"):
        raise ConfigurationError(f"unknown integrator {integrator!r}")
    sampling = sample_every_ns is not None
    if sampling and len(sources) != 1:
        raise ConfigurationError("a trajectory is sampled for a stack of one")
    segments = list(schedule.segments)
    if not segments:
        raise ScheduleError("empty schedule")
    for seg in segments:
        if seg.duration_ps <= 0:
            raise ScheduleError("segment durations must be > 0")
        if seg.ramp_from_mv is not None and seg.drive is not None:
            raise ScheduleError("segments cannot ramp and drive simultaneously")

    frame_freq = schedule.frame_freq_hz
    drives = [s.drive for s in segments if s.drive is not None]
    for d in drives:
        if abs(d.freq_hz - frame_freq) > 1e-6:
            raise ScheduleError(
                "all driven segments must share the schedule frame frequency"
            )

    # every member's parameters at every V_M of the schedule
    v_nodes = list(dict.fromkeys(v for seg in segments
                                 for v in (seg.v_m_mv, seg.ramp_from_mv)
                                 if v is not None))
    failures, params = [], []
    for src in sources:
        try:
            params.append({v: src(v) for v in v_nodes})
            failures.append(None)
        except DqdError as exc:
            failures.append(exc)
    alive = [k for k, exc in enumerate(failures) if exc is None]
    live_sources = [sources[k] for k in alive]

    generators, t_ps = [], 0
    for seg in segments if alive else ():
        generators.append(_compile_segment(seg, t_ps * PS, params,
                                           live_sources, integrator,
                                           frame_freq))
        t_ps += seg.duration_ps

    u = np.broadcast_to(np.eye(4, dtype=complex), (len(alive), 4, 4)).copy()
    n_exp = 0
    dt_max_s = 0.0

    events = sorted(schedule.vz_events, key=lambda e: e[0])
    ev_idx = 0
    t_ps = 0

    psi = None
    traj_t, traj_a = [], []
    marks_ps = np.empty(0, dtype=int)
    if sampling:
        stride_ps = int(round(sample_every_ns * 1000.0))
        if stride_ps < 1:
            raise ConfigurationError(
                f"trajectory stride {sample_every_ns!r} ns rounds to 0 ps")
        psi = np.zeros(4, dtype=complex)
        psi[STATE_DD] = 1.0
        traj_t.append(np.zeros(1))
        traj_a.append(psi[None])
        # the stride bucket (time // stride) of the last row offered
        bucket = 0

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
        if sampling:
            # the stride marks inside the segment, on one grid from t = 0
            first_ps = (t_ps // stride_ps + 1) * stride_ps
            marks_ps = np.arange(first_ps, t_ps + seg.duration_ps,
                                 stride_ps) - t_ps
        if isinstance(gen, _Affine):
            mat, n, dt_s, rows_s, states = _stepped(
                gen, t_ps * PS, seg.duration_ps * PS, dt_factor,
                marks_ps * PS, psi)
            dt_max_s = max(dt_max_s, dt_s)
        else:
            mat, n = _expm_h(gen, seg.duration_ps * PS), len(gen)
            rows_s = marks_ps * PS
            states = np.empty((rows_s.size, 4), dtype=complex)
            for rows in _chunks(rows_s.size):
                states[rows] = _expm_h(gen[0], rows_s[rows]) @ psi
        n_exp += n
        u = mat @ u
        if sampling:
            psi = mat[0] @ psi
            # the clock is each row's time within the segment, rounded, so
            # rounding does not accumulate; the segment's end closes it
            times_ps = np.append(t_ps + np.round(rows_s / PS).astype(int),
                                 t_ps + seg.duration_ps)
            # a row is kept if a stride mark lies after the row offered
            # before it and at or before its own time: its bucket is newer
            # (offered times never decrease)
            buckets = times_ps // stride_ps
            keep = np.diff(buckets, prepend=bucket) > 0
            bucket = buckets[-1]
            traj_t.append(times_ps[keep] * 1e-3)
            traj_a.append(np.vstack([states, psi])[keep])
        t_ps += seg.duration_ps

    t_ps = sum(seg.duration_ps for seg in segments)
    if sampling:
        traj_t, traj_a = np.concatenate(traj_t), np.concatenate(traj_a)
        if traj_t[-1] < t_ps * 1e-3:
            # the gate time is not a multiple of the stride: end on the
            # final state
            traj_t = np.append(traj_t, t_ps * 1e-3)
            traj_a = np.vstack([traj_a, psi])
    apply_events_at(t_ps)

    defect = unitarity_defect(u)
    for k, d in zip(alive, defect):
        if d > UNITARITY_TOL:
            failures[k] = NumericalError(
                f"unitarity drift {d:.2e} exceeds {UNITARITY_TOL}",
                diagnostics={"defect": float(d)})
    out = np.full((len(sources), 4, 4), np.nan, dtype=complex)
    out[alive] = u
    out[[k for k, exc in enumerate(failures) if exc is not None]] = np.nan
    defects = np.full(len(sources), np.nan)
    defects[alive] = defect
    total_ns = t_ps * 1e-3
    return UnitaryResult(
        u=out, frame=integrator,
        frame_freq_hz=frame_freq, total_time_ns=total_ns,
        dt_ns=dt_max_s * 1e9, n_exponentials=n_exp,
        unitarity_defect=defects, failures=failures,
        trajectory_t_ns=traj_t if sampling else None,
        trajectory_amps=traj_a if sampling else None,
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
    if u.shape[-2:] != (4, 4):
        raise ConfigurationError(f"{name} must be 4x4")
    if np.max(unitarity_defect(u)) > 1e-8:
        raise ConfigurationError(f"{name} is not unitary to 1e-8")


def _avg_fidelity_from_trace(tr_abs):
    """Average gate fidelity of two-qubit gates (d = 4) from |Tr(U_i^+ U)|."""
    return (tr_abs**2 / 4 + 1.0) / 5


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
    p = w[..., z > 0].sum(axis=-1)
    q = w[..., z < 0].sum(axis=-1)
    return np.angle(q) - np.angle(p)


def gate_fidelity(u_actual: np.ndarray, u_ideal: np.ndarray) -> np.ndarray:
    """Frame-optimized average gate fidelity in percent of each unitary of
    a stack `u_actual` (B, 4, 4).

    F_avg = (|Tr(U_ideal^+ U)|^2 / d + 1) / (d + 1), d = 4, globally phase
    invariant. The ideal gate is pre- and post-composed with
    single-qubit virtual-Z rotations, matching the experimental convention of
    tracking qubit phases in software, and |Tr| is maximized over their four
    angles by exact coordinate ascent: with three angles fixed the trace is
    p e^{it/2} + q e^{-it/2} in the fourth, whose modulus peaks at
    t = arg q - arg p. The ascent runs on all of `FRAME_STARTS` at once (zero
    angles and seven fixed random points, against local maxima) until no
    start gains more than `FRAME_TOL` in |Tr| per sweep.

    The members ascend together, and each stops at the sweep where it
    would stop in a stack of one, so its value is the one it has there.
    """
    _check_unitary(u_actual, "u_actual")
    _check_unitary(u_ideal, "u_ideal")
    a = np.conj(u_ideal) * u_actual
    # angles (post L, post R, pre L, pre R) per member and start
    x = np.broadcast_to(FRAME_STARTS, (a.shape[0],) + FRAME_STARTS.shape
                        ).copy()

    def ph(x, i, z):
        return np.exp(0.5j * x[..., i, None] * z)

    def abs_trace(x, a):
        # Tr = sum_jk A_jk post_j pre_k
        return np.abs(np.einsum("bsj,bjk,bsk->bs", ph(x, 0, Z_L) * ph(x, 1, Z_R),
                                a, ph(x, 2, Z_L) * ph(x, 3, Z_R)))

    best = abs_trace(x, a)
    live = np.arange(a.shape[0])
    for _ in range(FRAME_MAX_SWEEPS):
        xl, al = x[live], a[live]
        rows = (ph(xl, 2, Z_L) * ph(xl, 3, Z_R)) @ np.swapaxes(al, -1, -2)
        xl[..., 0] = _best_angle(ph(xl, 1, Z_R) * rows, Z_L)
        xl[..., 1] = _best_angle(ph(xl, 0, Z_L) * rows, Z_R)
        cols = (ph(xl, 0, Z_L) * ph(xl, 1, Z_R)) @ al
        xl[..., 2] = _best_angle(ph(xl, 3, Z_R) * cols, Z_L)
        xl[..., 3] = _best_angle(ph(xl, 2, Z_L) * cols, Z_R)
        value = abs_trace(xl, al)
        gain = np.max(value - best[live], axis=-1)
        best[live] = np.maximum(best[live], value)
        x[live] = xl
        live = live[gain > FRAME_TOL]
        if not live.size:
            break
    return 100.0 * _avg_fidelity_from_trace(best.max(axis=-1))
