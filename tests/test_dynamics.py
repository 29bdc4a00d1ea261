import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from dqdsim.dynamics import (
    CNOT_DOWN,
    DrivePulse,
    HEIS,
    STATE_DD,
    SY_L,
    SZ_L,
    SZ_R,
    build_hamiltonian,
    cnot_matrix,
    conditional_resonances,
    cz_matrix,
    evolve,
    gate_fidelity,
    rot_to_lab,
    ry_matrix,
    rwa_hamiltonian,
    rz_matrix,
    static_hamiltonian,
)
from dqdsim.errors import ConfigurationError, ScheduleError
from dqdsim.params import ParamsTable, SpinParams, paper_table
from dqdsim.protocols import (
    PulseSchedule,
    Segment,
    cnot_multi_schedule,
    cnot_single_schedule,
    cz_schedule,
    schedule_ry,
)

from oracles import average_fidelity_2design, frame_optimized_fidelity_nelder_mead


def src_const(p):
    return lambda vm: p


class PointwiseTable:
    """A ParamsTable whose j_of_vm evaluates one bias point per call."""

    def __init__(self, table):
        self.table = table

    def __call__(self, v_m_mv):
        return self.table(v_m_mv)

    def j_of_vm(self, v_m_mv):
        return np.array([self.table(v).j_hz for v in np.atleast_1d(v_m_mv)])


def perturbed_table(table, rng):
    """`table` with Zeeman splittings shifted by ~100 kHz and J scaled by
    ~5%, node by node, as a noisy sample would be."""
    n = table.v_m_mv.size
    return ParamsTable(table.v_m_mv,
                       table.e_zl_hz + rng.normal(0.0, 1e5, n),
                       table.e_zr_hz + rng.normal(0.0, 1e5, n),
                       table.j_hz * np.exp(rng.normal(0.0, 0.05, n)))


def noisy_gate_corpus(n_each, seed):
    """(u_actual, u_ideal) of cnot_multi, cz and cnot_single evolved on
    perturbed copies of the paper table, schedules built from the clean one."""
    table = paper_table()
    gates = ((cnot_multi_schedule(table(400.0), table(408.0), 5.0), CNOT_DOWN),
             (cz_schedule(table(400.0), table(410.0), 5.0), cz_matrix()),
             (cnot_single_schedule(table(412.0)), cnot_matrix("R")))
    rng = np.random.default_rng(seed)
    return [(evolve(sched, perturbed_table(table, rng)).u, ideal)
            for sched, ideal in gates for _ in range(n_each)]


class TestBuildHamiltonian:
    def test_j_zero_diagonal_zeeman(self):
        p = SpinParams(e_zl_hz=18.3e9, e_zr_hz=18.45e9, j_hz=0.0)
        h = build_hamiltonian(p, None, 0.0)
        expect = np.diag([(18.3e9 + 18.45e9) / 2, (18.3e9 - 18.45e9) / 2,
                          (-18.3e9 + 18.45e9) / 2, -(18.3e9 + 18.45e9) / 2])
        assert np.abs(h - expect).max() < 1e-3

    def test_middle_block_gap_closed_form(self):
        p = SpinParams(e_zl_hz=18.312e9, e_zr_hz=18.448e9, j_hz=19.3e6)
        h = build_hamiltonian(p, None, 0.0)
        w = np.linalg.eigvalsh(h[1:3, 1:3])
        gap = w[1] - w[0]
        expect = math.hypot(p.e_zl_hz - p.e_zr_hz, p.j_hz)
        assert gap == pytest.approx(expect, rel=1e-12)

    def test_drive_vanishes_at_cos_zero(self):
        p = SpinParams(e_zl_hz=18.3e9, e_zr_hz=18.45e9, j_hz=1e6)
        d = DrivePulse(rabi_hz=5e6, freq_hz=1e9, phase_rad=0.0, target="both")
        t_quarter = 0.25 / 1e9  # cos(2 pi f t) = 0
        h = build_hamiltonian(p, d, t_quarter)
        assert np.abs(h - static_hamiltonian(p)).max() < 1e-3

    def test_hermitian_and_down_up_eigenstates(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = SpinParams(e_zl_hz=rng.uniform(1e9, 2e10),
                           e_zr_hz=rng.uniform(1e9, 2e10),
                           j_hz=rng.uniform(0, 1e9))
            h = build_hamiltonian(
                p, DrivePulse(rabi_hz=rng.uniform(0, 1e7), freq_hz=1.8e10,
                              phase_rad=rng.uniform(0, 2 * np.pi),
                              target="both"),
                rng.uniform(0, 1e-7))
            assert np.abs(h - h.conj().T).max() < 1e-6
            h0 = static_hamiltonian(p)
            for k in (0, 3):  # |uu>, |dd> stay eigenstates with drive off
                col = h0[:, k]
                assert np.abs(col - col[k] * np.eye(4)[:, k]).max() < 1e-9


class TestEvolve:
    def test_zero_hamiltonian_identity(self):
        p = SpinParams(e_zl_hz=0.0, e_zr_hz=0.0, j_hz=0.0)
        seg = Segment(duration_ps=50_000, v_m_mv=400.0)
        sched = PulseSchedule((seg,), (), frame_freq_hz=0.0)
        res = evolve(sched, src_const(p), integrator="lab")
        assert np.abs(res.u - np.eye(4)).max() < 1e-12

    def test_resonant_rabi_flip_and_frame_agreement(self):
        p = SpinParams(e_zl_hz=18.309e9, e_zr_hz=18.453e9, j_hz=0.0,
                       v_m_mv=400.0)
        sched = schedule_ry("L", math.pi, p, rabi_hz=5e6)
        res_rwa = evolve(sched, src_const(p), integrator="rwa")
        psi0 = np.zeros(4, dtype=complex)
        psi0[3] = 1.0  # |dd>
        out = res_rwa.u @ psi0
        assert abs(out[1]) ** 2 >= 0.999  # |ud>: left flipped
        res_lab = evolve(sched, src_const(p), integrator="lab")
        u1 = res_rwa.to_lab()
        u2 = res_lab.u
        phase = np.vdot(u1.ravel(), u2.ravel())
        phase /= abs(phase)
        assert np.linalg.norm(u2 - phase * u1, 2) <= 1e-3

    def test_unitarity_over_many_lab_steps(self, p400):
        sched = schedule_ry("L", math.pi, p400, rabi_hz=5e6)
        res = evolve(sched, src_const(p400), integrator="lab", dt_factor=300.0)
        assert res.n_exponentials >= 1_000_000
        assert res.unitarity_defect <= 1e-8

    def test_step_halving(self, p400):
        sched = schedule_ry("L", math.pi, p400, rabi_hz=5e6)
        u1 = evolve(sched, src_const(p400), integrator="lab",
                    dt_factor=200.0).u
        u2 = evolve(sched, src_const(p400), integrator="lab",
                    dt_factor=400.0).u
        assert np.linalg.norm(u1 - u2, 2) <= 1e-6

    def test_time_reversal(self, p400):
        # time reversal is anti-unitary: evolving the mirrored schedule
        # H(T - t) and conjugating undoes the forward evolution
        seg = schedule_ry("L", math.pi, p400, rabi_hz=5e6).segments[0]
        fwd = PulseSchedule((seg,), (), seg.drive.freq_hz)
        res_f = evolve(fwd, src_const(p400), integrator="lab")
        t_s = fwd.total_time_ns * 1e-9
        d = seg.drive
        # time reversal conjugates the Hamiltonian: the drive (imaginary
        # sy coupling) flips sign on top of the time mirroring, hence the pi
        mirrored = DrivePulse(
            rabi_hz=d.rabi_hz, freq_hz=d.freq_hz,
            phase_rad=(math.pi - (d.phase_rad + 2 * math.pi * d.freq_hz * t_s))
            % (2 * math.pi),
            target=d.target)
        rev = PulseSchedule((Segment(seg.duration_ps, seg.v_m_mv, mirrored),),
                            (), d.freq_hz)
        u_rev = evolve(rev, src_const(p400), integrator="lab").u
        prod = np.conj(u_rev) @ res_f.u
        phase = prod[0, 0] / abs(prod[0, 0])
        assert np.abs(prod - phase * np.eye(4)).max() <= 1e-6

    def test_frame_mismatch_rejected(self, p400):
        d1 = DrivePulse(rabi_hz=5e6, freq_hz=18.309e9, target="L")
        d2 = DrivePulse(rabi_hz=5e6, freq_hz=18.453e9, target="R")
        sched = PulseSchedule(
            (Segment(1000, 400.0, d1), Segment(1000, 400.0, d2)), (),
            frame_freq_hz=18.309e9)
        with pytest.raises(ScheduleError):
            evolve(sched, src_const(p400), integrator="rwa")

    def test_ramp_j_matches_pointwise_table(self, table):
        sched = cnot_multi_schedule(table(400.0), table(408.0), tau_tr_ns=5.0)
        assert any(s.ramp_from_mv is not None for s in sched.segments)
        u_vec = evolve(sched, table).u
        u_pointwise = evolve(sched, PointwiseTable(table)).u
        assert np.array_equal(u_vec, u_pointwise)

    def test_trajectory_probabilities_normalized(self, p400):
        sched = schedule_ry("L", math.pi, p400, rabi_hz=5e6)
        res = evolve(sched, src_const(p400), integrator="rwa",
                     sample_every_ns=1.0)
        probs = np.abs(res.trajectory_amps) ** 2
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-10
        assert res.trajectory_t_ns[-1] == pytest.approx(100.0, abs=1.0)

    @pytest.mark.parametrize("integrator", ["rwa", "lab"])
    def test_sampled_evolution_matches_unsampled(self, table, integrator):
        # drives, ramps, a hold and virtual-Z events; the 0.25 ns stride
        # does not divide the gate time, so the last row is the appended
        # final state
        sched = cnot_multi_schedule(table(400.0), table(408.0), tau_tr_ns=1.0)
        assert sched.vz_events and sched.total_time_ps % 250 != 0
        full = evolve(sched, table, integrator=integrator)
        res = evolve(sched, table, integrator=integrator,
                     sample_every_ns=0.25, initial_state=STATE_DD)
        assert np.abs(res.u - full.u).max() <= 1e-12
        assert res.trajectory_t_ns[-1] == res.total_time_ns
        assert np.abs(res.trajectory_amps[-1]
                      - res.u[:, STATE_DD]).max() <= 1e-12

    @pytest.mark.parametrize("stride_ns", [0.123, 0.25])
    def test_lab_and_rwa_trajectories_share_their_times(self, table,
                                                        stride_ns):
        # lab drives are stepped in chunks of whole steps; their rows must
        # still fall at the RWA rows' times and end at the gate's end
        sched = cnot_multi_schedule(table(400.0), table(408.0), tau_tr_ns=1.0)
        res = {integrator: evolve(sched, table, integrator=integrator,
                                  sample_every_ns=stride_ns,
                                  initial_state=STATE_DD)
               for integrator in ("rwa", "lab")}
        t = res["lab"].trajectory_t_ns
        assert np.array_equal(t, res["rwa"].trajectory_t_ns)
        assert t[-1] == res["lab"].total_time_ns
        assert t[-1] == pytest.approx(sched.total_time_ns, abs=1e-9)
        assert np.all(np.diff(t) > 0)
        # rows hold the state at their time: the two frames agree on the
        # populations row by row
        p = {k: np.abs(r.trajectory_amps) ** 2 for k, r in res.items()}
        assert np.abs(p["lab"] - p["rwa"]).max() <= 2e-4


class TestGateFidelity:
    def test_identity_and_global_phase(self):
        u = cnot_matrix("R")
        assert gate_fidelity(u, u, frame_opt=False) == pytest.approx(100.0)
        assert gate_fidelity(np.exp(0.7j) * u, u,
                             frame_opt=False) == pytest.approx(100.0)

    def test_matches_2design_average(self):
        # over-rotated conditional flip vs ideal CNOT
        theta = math.pi / 2
        over = np.eye(4, dtype=complex)
        over[0, 0] = over[2, 2] = math.cos(theta / 2)
        over[0, 2] = -math.sin(theta / 2)
        over[2, 0] = math.sin(theta / 2)
        u_act = over @ cnot_matrix("R")
        got = gate_fidelity(u_act, cnot_matrix("R"), frame_opt=False)
        want = average_fidelity_2design(u_act, cnot_matrix("R"))
        assert got == pytest.approx(want, abs=1e-9)

    def test_frame_opt_absorbs_virtual_z(self):
        u_ideal = cnot_matrix("R")
        dressed = rz_matrix("L", 0.7) @ rz_matrix("R", -1.1) @ u_ideal \
            @ rz_matrix("L", 0.3) @ rz_matrix("R", 2.0)
        assert gate_fidelity(dressed, u_ideal) == pytest.approx(100.0, abs=1e-6)
        # and the two controlled-Z placements are frame-equivalent
        cz_dd = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert gate_fidelity(cz_dd, cz_matrix()) == pytest.approx(100.0, abs=1e-6)

    def test_frame_opt_matches_nelder_mead_oracle(self):
        corpus = noisy_gate_corpus(n_each=7, seed=21)
        # Haar-random pairs: a dense trace landscape whose local maxima trap
        # a single start in about a third of the cases
        haar = unitary_group.rvs(4, size=40, random_state=22)
        corpus += list(zip(haar[0::2], haar[1::2]))
        for u_act, u_ideal in corpus:
            got = gate_fidelity(u_act, u_ideal)
            want = frame_optimized_fidelity_nelder_mead(u_act, u_ideal)
            assert want - 1e-12 <= got <= want + 1e-9

    def test_non_unitary_rejected(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = 0.5
        with pytest.raises(ConfigurationError):
            gate_fidelity(bad, cnot_matrix("R"))

    def test_fidelity_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, _ = np.linalg.qr(m)
            f = gate_fidelity(q, cnot_matrix("R"), frame_opt=False)
            assert 0.0 <= f <= 100.0 + 1e-9


class TestConditionalResonances:
    def test_splitting_equals_j(self, p408):
        res = conditional_resonances(p408)
        assert res["f_l_ctrl_up"] - res["f_l_ctrl_down"] == pytest.approx(
            p408.j_hz, rel=1e-9)
        assert res["f_r_ctrl_up"] - res["f_r_ctrl_down"] == pytest.approx(
            p408.j_hz, rel=1e-9)

    def test_rwa_static_limits(self, p408):
        h = rwa_hamiltonian(p408, None, p408.e_zl_hz)
        assert np.abs(h - h.conj().T).max() < 1e-9
        # in the frame at E_ZL: E(uu) - E(ud) = (E_ZR - omega) + J/2
        assert h[0, 0] - h[1, 1] == pytest.approx(
            p408.e_zr_hz - p408.e_zl_hz + p408.j_hz / 2, rel=1e-9)

    def test_rot_to_lab_roundtrip(self, p400):
        sched = schedule_ry("L", math.pi / 2, p400, rabi_hz=5e6)
        res = evolve(sched, src_const(p400), integrator="rwa")
        u_lab = rot_to_lab(res.u, res.total_time_ns * 1e-9, res.frame_freq_hz)
        assert np.abs(u_lab.conj().T @ u_lab - np.eye(4)).max() < 1e-10
