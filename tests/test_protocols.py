import math

import numpy as np
import pytest

from dqdsim import protocols
from dqdsim.dynamics import (
    CNOT_DOWN,
    evolve,
    gate_fidelity,
    ry_matrix,
    rz_matrix,
)
from dqdsim.errors import ConfigurationError, RegimeError
from dqdsim.params import SpinParams
from dqdsim.protocols import (
    PulseSchedule,
    Segment,
    cnot_multi_schedule,
    cnot_single_schedule,
    cz_schedule,
    ry_pulse,
    schedule_ry,
    u_gate_schedule,
    u_hold_time_s,
)


def two_point_source(p_weak, p_strong):
    def f(v_m):
        return p_weak if abs(v_m - p_weak.v_m_mv) < 1e-9 else p_strong
    return f


class TestRyPulse:
    def test_pi_duration_is_half_inverse_rabi(self, p400):
        seg = ry_pulse("L", math.pi, p400, rabi_hz=5e6)
        assert seg.duration_ps == pytest.approx(100_000, abs=1)
        assert seg.drive.freq_hz == p400.e_zl_hz
        assert seg.drive.phase_rad == 0.0

    def test_negative_angle_flips_phase(self, p400):
        seg = ry_pulse("R", -math.pi / 2, p400, rabi_hz=5e6)
        assert seg.drive.phase_rad == math.pi
        assert seg.drive.freq_hz == p400.e_zr_hz
        assert seg.duration_ps == pytest.approx(50_000, abs=1)

    def test_zero_angle_is_noop(self, p400):
        assert ry_pulse("L", 0.0, p400) is None

    def test_strong_j_regime_rejected(self, p408):
        with pytest.raises(RegimeError):
            ry_pulse("L", math.pi, p408)

    def test_angle_bound(self, p400):
        with pytest.raises(ConfigurationError):
            ry_pulse("L", 3 * math.pi, p400)


class TestVirtualZ:
    def test_zero_angle_identity_event(self):
        assert np.abs(rz_matrix("L", 0.0) - np.eye(4)).max() == 0.0

    def test_composition_is_additive(self):
        a, b = 0.7, -1.9
        u = rz_matrix("R", b) @ rz_matrix("R", a)
        assert np.abs(u - rz_matrix("R", a + b)).max() < 1e-12

    def test_cz_decomposition_identity(self):
        # CZ = (RZ(-pi/2) x RZ(-pi/2)) . U(pi) up to global phase, with the
        # device-native U in its validity regime (pure exchange phase)
        j = 19.3e6
        tau = 1.0 / (2.0 * j)
        u_exchange = np.diag(np.exp(-2j * np.pi * tau
                                    * np.array([0.0, -j / 2, -j / 2, 0.0])))
        u = rz_matrix("L", -math.pi / 2) @ rz_matrix("R", -math.pi / 2) @ u_exchange
        cz_dd = np.diag([1.0, 1.0, 1.0, -1.0])
        phase = u[0, 0] / abs(u[0, 0])
        assert np.abs(u - phase * cz_dd).max() < 1e-12


class TestUGate:
    @pytest.mark.parametrize("j_mhz,tau_ns", [(19.3, 25.9), (69.5, 7.2),
                                              (266.1, 1.879)])
    def test_hold_time_anchors(self, j_mhz, tau_ns):
        p = SpinParams(e_zl_hz=18.312e9, e_zr_hz=18.448e9, j_hz=j_mhz * 1e6,
                       v_m_mv=408.0)
        assert u_hold_time_s(p) * 1e9 == pytest.approx(tau_ns, rel=0.02)

    def test_hold_integral_is_half(self, p408):
        # int J dt over the hold = J * tau_U = 1/2 by construction
        sched = u_gate_schedule(p408, tau_tr_ns=0.0, v_m_weak_mv=400.0)
        hold = sched.segments[0]
        # exact by construction up to the 1 ps schedule resolution
        assert p408.j_hz * hold.duration_ps * 1e-12 == pytest.approx(0.5, abs=2e-5)

    def test_ramps_present_and_timed(self, p400, p408):
        sched = u_gate_schedule(p408, tau_tr_ns=5.0, v_m_weak_mv=400.0)
        assert len(sched.segments) == 3
        assert sched.segments[0].ramp_from_mv == 400.0
        assert sched.segments[2].ramp_from_mv == 408.0
        assert sched.total_time_ns == pytest.approx(10.0 + 25.907, abs=0.01)

    def test_zero_j_rejected(self):
        p = SpinParams(e_zl_hz=18.3e9, e_zr_hz=18.45e9, j_hz=0.0, v_m_mv=408.0)
        with pytest.raises(RegimeError):
            u_gate_schedule(p, 5.0, 400.0)


class TestCnotSingle:
    def test_paper_anchor_time_and_derived_frequency(self, p408):
        sched = cnot_single_schedule(p408)
        assert sched.total_time_ns == pytest.approx(100.4, abs=2.0)
        # derived conditional resonance, not the misprinted 1.832 GHz
        assert sched.symbols["omega_d_hz"] == pytest.approx(18.3216e9, abs=2e6)
        assert sched.symbols["omega_d_exact_hz"] == pytest.approx(
            18.32097e9, abs=1e6)

    def test_doubling_rabi_halves_duration(self, p408, monkeypatch):
        monkeypatch.setattr(protocols, "CNOT_RABI_HZ", 4.977e6)
        t1 = cnot_single_schedule(p408).total_time_ns
        monkeypatch.setattr(protocols, "CNOT_RABI_HZ", 9.954e6)
        t2 = cnot_single_schedule(p408).total_time_ns
        assert t2 == pytest.approx(t1 / 2, rel=0.02)

    def test_weak_j_degenerates(self, p400):
        with pytest.raises(RegimeError):
            cnot_single_schedule(p400)


class TestCnotMulti:
    def test_total_times_anchor(self, table, p400):
        for v_m, want in ((408.0, 132.1), (410.0, 113.4), (412.0, 108.1)):
            sched = cnot_multi_schedule(p400, table(v_m), tau_tr_ns=5.0)
            assert sched.total_time_ns == pytest.approx(want, abs=1.0)

    def test_timing_accounting_exact(self, p400, p408):
        sched = cnot_multi_schedule(p400, p408, tau_tr_ns=5.0)
        assert sched.total_time_ps == sum(s.duration_ps for s in sched.segments)
        t_z = sched.vz_events[0][0]
        assert t_z == sum(s.duration_ps for s in sched.segments[:-1])

    def test_decomposition_identity_validity_regime(self):
        p_weak = SpinParams(e_zl_hz=18.309e9, e_zr_hz=18.453e9, j_hz=10.0,
                            v_m_mv=400.0)
        p_strong = SpinParams(e_zl_hz=18.312e9, e_zr_hz=18.448e9, j_hz=0.4e6,
                              v_m_mv=408.0)
        sched = cnot_multi_schedule(p_weak, p_strong, tau_tr_ns=0.0)
        res = evolve(sched, [two_point_source(p_weak, p_strong)])
        assert gate_fidelity(res.u, CNOT_DOWN)[0] >= 99.9

    def test_cz_block_matches_cz_family(self):
        p_weak = SpinParams(e_zl_hz=18.309e9, e_zr_hz=18.453e9, j_hz=10.0,
                            v_m_mv=400.0)
        p_strong = SpinParams(e_zl_hz=18.312e9, e_zr_hz=18.448e9, j_hz=0.4e6,
                              v_m_mv=408.0)
        sched = cz_schedule(p_weak, p_strong, tau_tr_ns=0.0)
        res = evolve(sched, [two_point_source(p_weak, p_strong)])
        from dqdsim.dynamics import cz_matrix
        assert gate_fidelity(res.u, cz_matrix())[0] >= 99.9
