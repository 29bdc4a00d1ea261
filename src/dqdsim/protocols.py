"""Compile gate intents into pulse schedules.

Schedules are immutable sequences of contiguous segments with integer
picosecond durations, plus instantaneous virtual-Z frame events. Bias ramps
are linear in V_M over tau_TR; away from ramps V_M is held and the drive (if
any) is a rectangular envelope.

Paper-anchored defaults: single-qubit rotations run at B_o = 5.0 MHz so a pi
rotation takes 1/(2 B_o); the multi-step entangler's half-pi segments run at
the amplitude that reproduces the reported 48.1 ns; the single-step
entangling pulse uses B_o = 4.977 MHz, theta = 1.5 pi, and a drive frequency
derived from the conditional resonance of the strong-interaction Hamiltonian
(the resonance is recomputed, never hard-coded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import DrivePulse, conditional_resonances, labeled_eigenstates
from .errors import ConfigurationError, RegimeError, ScheduleError
from .params import SpinParams

RY_RABI_HZ = 5.0e6                      # default 1-qubit drive amplitude
RY_RABI_MULTI_HZ = 1.0 / (4.0 * 48.1e-9)  # half-pi segments of the multi-step
CNOT_RABI_HZ = 4.977e6
CNOT_THETA_RAD = 1.5 * math.pi
ADDRESSABILITY_J_HZ = 1.0e6             # weak-interaction threshold
MIN_STRONG_J_FACTOR = 1.5               # need J >= factor * B_o to resolve


@dataclass(frozen=True)
class Segment:
    duration_ps: int
    v_m_mv: float
    drive: DrivePulse | None = None
    ramp_from_mv: float | None = None

    def __post_init__(self):
        if self.duration_ps <= 0:
            raise ScheduleError("segment duration must be > 0")


@dataclass(frozen=True)
class PulseSchedule:
    segments: tuple[Segment, ...]
    vz_events: tuple[tuple[int, str, float], ...]  # (t_ps, target, angle_rad)
    frame_freq_hz: float
    symbols: dict = field(default_factory=dict)    # tau_y_ns, tau_u_ns, ...

    @property
    def total_time_ps(self) -> int:
        return sum(s.duration_ps for s in self.segments)

    @property
    def total_time_ns(self) -> float:
        return self.total_time_ps * 1e-3


def _ps(duration_s: float) -> int:
    n = int(round(duration_s * 1e12))
    if n <= 0:
        raise ConfigurationError("duration below the 1 ps schedule resolution")
    return n


def ry_pulse(target: str, angle_rad: float, p: SpinParams,
             rabi_hz: float = RY_RABI_HZ) -> Segment | None:
    """Resonant drive segment rotating `target` by `angle_rad` about Y.

    Duration is |angle|/(2 pi B_o), so a pi rotation takes 1/(2 B_o); theta
    flips to pi for negative angles. Returns None for a zero angle.
    Requires the weak-interaction regime.
    """
    if abs(angle_rad) > 2.0 * math.pi + 1e-12:
        raise ConfigurationError("|angle| must not exceed 2 pi")
    if p.j_hz >= ADDRESSABILITY_J_HZ:
        raise RegimeError(
            f"1-qubit addressing needs J < {ADDRESSABILITY_J_HZ:.0f} Hz, "
            f"got {p.j_hz:.3g} Hz"
        )
    if target not in ("L", "R"):
        raise ConfigurationError("target must be L or R")
    if angle_rad == 0.0:
        return None
    freq = p.e_zl_hz if target == "L" else p.e_zr_hz
    theta = 0.0 if angle_rad > 0 else math.pi
    duration_s = abs(angle_rad) / (2.0 * math.pi * rabi_hz)
    return Segment(
        duration_ps=_ps(duration_s),
        v_m_mv=p.v_m_mv if p.v_m_mv is not None else 0.0,
        drive=DrivePulse(rabi_hz=rabi_hz, freq_hz=freq, phase_rad=theta,
                         target=target),
    )


def virtual_z(target: str, angle_rad: float):
    """Instantaneous reference-frame Z rotation; zero time cost.

    Returns (target, angle); the composing schedule assigns the time point.
    """
    if target not in ("L", "R"):
        raise ConfigurationError("target must be L or R")
    return (target, float(angle_rad))


def schedule_ry(target: str, angle_rad: float, p: SpinParams,
                rabi_hz: float = RY_RABI_HZ) -> PulseSchedule:
    seg = ry_pulse(target, angle_rad, p, rabi_hz)
    if seg is None:
        raise ConfigurationError("zero-angle rotation compiles to no schedule")
    return PulseSchedule(
        segments=(seg,), vz_events=(), frame_freq_hz=seg.drive.freq_hz,
        symbols={"tau_y_ns": seg.duration_ps * 1e-3},
    )


def u_hold_time_s(p_strong: SpinParams) -> float:
    if p_strong.j_hz <= 0:
        raise RegimeError("device-native U needs J > 0")
    return 1.0 / (2.0 * p_strong.j_hz)


def u_gate_schedule(p_strong: SpinParams, tau_tr_ns: float,
                    v_m_weak_mv: float | None = None,
                    frame_freq_hz: float | None = None) -> PulseSchedule:
    """Ramp up, hold for tau_U = 1/(2J) (conditional phase pi), ramp down.

    The hold accumulates exactly int J dt = 1/2 by construction; phase
    accrued on the ramps is not compensated.
    """
    tau_u_s = u_hold_time_s(p_strong)
    v_strong = p_strong.v_m_mv
    if v_strong is None:
        raise ConfigurationError("p_strong must carry its V_M provenance")
    if v_m_weak_mv is None:
        v_m_weak_mv = 400.0
    segs = []
    if tau_tr_ns > 0:
        segs.append(Segment(_ps(tau_tr_ns * 1e-9), v_strong,
                            ramp_from_mv=v_m_weak_mv))
    segs.append(Segment(_ps(tau_u_s), v_strong))
    if tau_tr_ns > 0:
        segs.append(Segment(_ps(tau_tr_ns * 1e-9), v_m_weak_mv,
                            ramp_from_mv=v_strong))
    if frame_freq_hz is None:
        frame_freq_hz = 0.5 * (p_strong.e_zl_hz + p_strong.e_zr_hz)
    return PulseSchedule(
        segments=tuple(segs), vz_events=(), frame_freq_hz=frame_freq_hz,
        symbols={"tau_u_ns": tau_u_s * 1e9, "tau_tr_ns": tau_tr_ns},
    )


def _hold_vz_angles(p_weak: SpinParams, p_strong: SpinParams,
                    tau_u_s: float) -> tuple[float, float]:
    """Virtual-Z angles compensating the hold's single-qubit phases.

    During the hold each spin's reference keeps running at its weak-point
    frequency while the actual level structure is that of the strong point,
    so deterministic single-qubit phases accumulate. They are read off the
    exact eigenphases of the strong-point Hamiltonian (adiabatically labeled
    by their dominant basis state) and cancelled, together with the -pi/2
    that turns the device-native U into a CZ; this is the software phase
    calibration of the experiment. The two-qubit (ZZ) phase and anything
    accrued on the ramps are left untouched.
    """
    lam = labeled_eigenstates(p_strong)[0]
    track = 0.5 * np.array([
        p_weak.e_zl_hz + p_weak.e_zr_hz,
        p_weak.e_zl_hz - p_weak.e_zr_hz,
        -p_weak.e_zl_hz + p_weak.e_zr_hz,
        -p_weak.e_zl_hz - p_weak.e_zr_hz,
    ])
    phi = -2.0 * math.pi * tau_u_s * (lam - track)   # phase deviation per state
    a_dev = (phi[0] + phi[1] - phi[2] - phi[3]) / 2.0
    b_dev = (phi[0] - phi[1] + phi[2] - phi[3]) / 2.0
    a_l = math.remainder(-0.5 * math.pi + a_dev, 2.0 * math.pi)
    a_r = math.remainder(-0.5 * math.pi + b_dev, 2.0 * math.pi)
    return (a_l, a_r)


def cz_schedule(p_weak: SpinParams, p_strong: SpinParams, tau_tr_ns: float,
                frame_freq_hz: float | None = None) -> PulseSchedule:
    """Controlled-Z: device-native U plus virtual Z rotations on both qubits."""
    base = u_gate_schedule(p_strong, tau_tr_ns, v_m_weak_mv=p_weak.v_m_mv,
                           frame_freq_hz=frame_freq_hz)
    t_z = base.total_time_ps
    a_l, a_r = _hold_vz_angles(p_weak, p_strong, u_hold_time_s(p_strong))
    events = ((t_z, "L", a_l), (t_z, "R", a_r))
    return PulseSchedule(
        segments=base.segments, vz_events=events,
        frame_freq_hz=base.frame_freq_hz, symbols=dict(base.symbols),
    )


def cnot_single_schedule(p_strong: SpinParams,
                         rabi_hz: float = CNOT_RABI_HZ,
                         theta_rad: float = CNOT_THETA_RAD) -> PulseSchedule:
    """Single resonant pulse flipping the left (target) qubit conditioned on
    the right (control) qubit being up.

    omega_D and the flip duration come from the analytic conditional-
    resonance construction the reported pulse parameters belong to:
    omega_D = E_ZL + J/2 and tau = 1/(2 B_o). The exact resonance of the
    4x4 spectrum (shifted by the singlet-triplet mixing, about -0.7 MHz at
    the reference point) is recorded in the symbols for diagnostics; the
    residual detuning and the spectator phase set the noise-free infidelity
    of this gate.
    """
    if p_strong.j_hz < MIN_STRONG_J_FACTOR * rabi_hz:
        raise RegimeError(
            "conditional resonances unresolvable: J = "
            f"{p_strong.j_hz:.3g} Hz < {MIN_STRONG_J_FACTOR} x B_o"
        )
    omega_d = p_strong.e_zl_hz + 0.5 * p_strong.j_hz
    duration_s = 1.0 / (2.0 * rabi_hz)
    res = conditional_resonances(p_strong)
    seg = Segment(
        duration_ps=_ps(duration_s),
        v_m_mv=p_strong.v_m_mv if p_strong.v_m_mv is not None else 0.0,
        drive=DrivePulse(rabi_hz=rabi_hz, freq_hz=omega_d,
                         phase_rad=theta_rad, target="both"),
    )
    return PulseSchedule(
        segments=(seg,), vz_events=(), frame_freq_hz=omega_d,
        symbols={"tau_cnot_ns": seg.duration_ps * 1e-3,
                 "omega_d_hz": omega_d,
                 "omega_d_exact_hz": res["f_l_ctrl_up"]},
    )


def cnot_multi_schedule(p_weak: SpinParams, p_strong: SpinParams,
                        tau_tr_ns: float,
                        ry_rabi_hz: float = RY_RABI_MULTI_HZ) -> PulseSchedule:
    """Three-step CNOT: RY(-pi/2) on the target (left qubit, the right spin
    is the control), the CZ block (ramp, U hold, ramp, virtual RZ(-pi/2) on
    both at T_Z), then RY(pi/2) on the target."""
    if p_strong.j_hz <= 0:
        raise RegimeError("multi-step CNOT needs a strong-interaction point with J > 0")
    ry_minus = ry_pulse("L", -0.5 * math.pi, p_weak, rabi_hz=ry_rabi_hz)
    ry_plus = ry_pulse("L", +0.5 * math.pi, p_weak, rabi_hz=ry_rabi_hz)
    tau_u_s = u_hold_time_s(p_strong)
    v_weak, v_strong = p_weak.v_m_mv, p_strong.v_m_mv
    if v_weak is None or v_strong is None:
        raise ConfigurationError("both operating points must carry V_M provenance")

    segs = [ry_minus]
    if tau_tr_ns > 0:
        segs.append(Segment(_ps(tau_tr_ns * 1e-9), v_strong, ramp_from_mv=v_weak))
    segs.append(Segment(_ps(tau_u_s), v_strong))
    if tau_tr_ns > 0:
        segs.append(Segment(_ps(tau_tr_ns * 1e-9), v_weak, ramp_from_mv=v_strong))
    t_z = sum(s.duration_ps for s in segs)
    segs.append(ry_plus)
    a_l, a_r = _hold_vz_angles(p_weak, p_strong, tau_u_s)
    events = ((t_z, "L", a_l), (t_z, "R", a_r))
    return PulseSchedule(
        segments=tuple(segs), vz_events=events,
        frame_freq_hz=ry_minus.drive.freq_hz,
        symbols={
            "tau_y_ns": ry_minus.duration_ps * 1e-3,
            "tau_u_ns": tau_u_s * 1e9,
            "tau_tr_ns": tau_tr_ns,
        },
    )


# ---------------------------------------------------------------------------
# Schedule text format
# ---------------------------------------------------------------------------

def schedule_to_text(s: PulseSchedule) -> str:
    """Structured-text listing: one line per segment and per virtual-Z event."""
    lines = [
        "# columns: segment t_start_ns duration_ns v_m_mv drive target "
        "b_o_mhz omega_d_ghz theta_rad ramp ramp_from_mv",
        f"frame_ghz {s.frame_freq_hz / 1e9:.9f}",
    ]
    t = 0
    for seg in s.segments:
        d = seg.drive
        lines.append(
            "segment "
            f"{t * 1e-3:.6f} {seg.duration_ps * 1e-3:.6f} {seg.v_m_mv:.6f} "
            + (f"on {d.target} {d.rabi_hz / 1e6:.9f} {d.freq_hz / 1e9:.9f} "
               f"{d.phase_rad:.9f} "
               if d is not None and d.active else "off - 0 0 0 ")
            + (f"1 {seg.ramp_from_mv:.6f}" if seg.ramp_from_mv is not None else "0 -")
        )
        t += seg.duration_ps
    for t_ps, target, angle in s.vz_events:
        lines.append(f"vz {t_ps * 1e-3:.6f} {target} {angle:.9f}")
    return "\n".join(lines) + "\n"


def schedule_from_text(text: str) -> PulseSchedule:
    frame = None
    segs: list[Segment] = []
    events = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tok = line.split()
        if tok[0] == "frame_ghz":
            frame = float(tok[1]) * 1e9
        elif tok[0] == "segment":
            (_t0, dur_ns, v_m) = (float(tok[1]), float(tok[2]), float(tok[3]))
            drive = None
            if tok[4] == "on":
                drive = DrivePulse(rabi_hz=float(tok[6]) * 1e6,
                                   freq_hz=float(tok[7]) * 1e9,
                                   phase_rad=float(tok[8]), target=tok[5])
            ramp_from = float(tok[10]) if tok[9] == "1" else None
            segs.append(Segment(int(round(dur_ns * 1e3)), v_m, drive, ramp_from))
        elif tok[0] == "vz":
            events.append((int(round(float(tok[1]) * 1e3)), tok[2], float(tok[3])))
        else:
            raise ConfigurationError(f"unknown schedule line {line!r}")
    if frame is None:
        raise ConfigurationError("schedule text misses the frame frequency")
    return PulseSchedule(tuple(segs), tuple(events), frame)
