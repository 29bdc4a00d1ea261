import math

import numpy as np
import pytest
from scipy.stats import unitary_group

from dqdsim import kernels
from dqdsim.dynamics import (
    CF4_ALPHAS,
    CF4_NODES,
    CNOT_DOWN,
    DrivePulse,
    HEIS,
    STATE_DD,
    SY_L,
    SZ_L,
    SZ_R,
    CNOT_UP,
    _avg_fidelity_from_trace,
    build_hamiltonian,
    conditional_resonances,
    cz_matrix,
    drive_operator,
    evolve,
    gate_fidelity,
    rot_to_lab,
    ry_matrix,
    rwa_hamiltonian,
    rz_matrix,
    static_hamiltonian,
)
from dqdsim.kernels import propagate_affine
from dqdsim.errors import ConfigurationError, GeometryError, ScheduleError
from dqdsim.params import ParamsTable, SpinParams, paper_table
from dqdsim.protocols import (
    PulseSchedule,
    Segment,
    cnot_multi_schedule,
    cnot_single_schedule,
    cz_schedule,
    schedule_ry,
)

from oracles import (average_fidelity_2design,
                     frame_optimized_fidelity_nelder_mead,
                     sequential_trajectory)


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
             (cnot_single_schedule(table(412.0)), CNOT_UP))
    rng = np.random.default_rng(seed)
    return [(evolve(sched, [perturbed_table(table, rng)]).u[0], ideal)
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
        res = evolve(sched, [src_const(p)], integrator="lab")
        assert np.abs(res.u[0] - np.eye(4)).max() < 1e-12

    def test_resonant_rabi_flip_and_frame_agreement(self):
        p = SpinParams(e_zl_hz=18.309e9, e_zr_hz=18.453e9, j_hz=0.0,
                       v_m_mv=400.0)
        sched = schedule_ry("L", math.pi, p)
        res_rwa = evolve(sched, [src_const(p)], integrator="rwa")
        psi0 = np.zeros(4, dtype=complex)
        psi0[3] = 1.0  # |dd>
        out = res_rwa.u[0] @ psi0
        assert abs(out[1]) ** 2 >= 0.999  # |ud>: left flipped
        res_lab = evolve(sched, [src_const(p)], integrator="lab")
        u1 = res_rwa.to_lab()[0]
        u2 = res_lab.u[0]
        phase = np.vdot(u1.ravel(), u2.ravel())
        phase /= abs(phase)
        assert np.linalg.norm(u2 - phase * u1, 2) <= 1e-3

    def test_unitarity_over_many_lab_steps(self, p400):
        sched = schedule_ry("L", math.pi, p400)
        res = evolve(sched, [src_const(p400)], integrator="lab", dt_factor=300.0)
        assert res.n_exponentials >= 1_000_000
        assert res.unitarity_defect[0] <= 1e-8

    def test_step_halving(self, p400):
        sched = schedule_ry("L", math.pi, p400)
        u1 = evolve(sched, [src_const(p400)], integrator="lab",
                    dt_factor=200.0).u[0]
        u2 = evolve(sched, [src_const(p400)], integrator="lab",
                    dt_factor=400.0).u[0]
        assert np.linalg.norm(u1 - u2, 2) <= 1e-6

    def test_time_reversal(self, p400):
        # time reversal is anti-unitary: evolving the mirrored schedule
        # H(T - t) and conjugating undoes the forward evolution
        seg = schedule_ry("L", math.pi, p400).segments[0]
        fwd = PulseSchedule((seg,), (), seg.drive.freq_hz)
        res_f = evolve(fwd, [src_const(p400)], integrator="lab")
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
        u_rev = evolve(rev, [src_const(p400)], integrator="lab").u[0]
        prod = np.conj(u_rev) @ res_f.u[0]
        phase = prod[0, 0] / abs(prod[0, 0])
        assert np.abs(prod - phase * np.eye(4)).max() <= 1e-6

    def test_frame_mismatch_rejected(self, p400):
        d1 = DrivePulse(rabi_hz=5e6, freq_hz=18.309e9, target="L")
        d2 = DrivePulse(rabi_hz=5e6, freq_hz=18.453e9, target="R")
        sched = PulseSchedule(
            (Segment(1000, 400.0, d1), Segment(1000, 400.0, d2)), (),
            frame_freq_hz=18.309e9)
        with pytest.raises(ScheduleError):
            evolve(sched, [src_const(p400)], integrator="rwa")

    def test_ramp_j_matches_pointwise_table(self, table):
        sched = cnot_multi_schedule(table(400.0), table(408.0), tau_tr_ns=5.0)
        assert any(s.ramp_from_mv is not None for s in sched.segments)
        u_vec = evolve(sched, [table]).u
        u_pointwise = evolve(sched, [PointwiseTable(table)]).u
        assert np.array_equal(u_vec, u_pointwise)

    def test_trajectory_probabilities_normalized(self, p400):
        sched = schedule_ry("L", math.pi, p400)
        res = evolve(sched, [src_const(p400)], integrator="rwa",
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
        full = evolve(sched, [table], integrator=integrator)
        res = evolve(sched, [table], integrator=integrator,
                     sample_every_ns=0.25)
        assert np.array_equal(res.u, full.u)
        assert res.trajectory_t_ns[-1] == res.total_time_ns
        assert np.abs(res.trajectory_amps[-1]
                      - res.u[0, :, STATE_DD]).max() <= 1e-12

    @pytest.mark.parametrize("integrator", ["rwa", "lab"])
    @pytest.mark.parametrize("case", ["cnot_single", "ry_pi_left",
                                      "cnot_multi_tau5"])
    def test_sampled_u_equals_unsampled(self, table, integrator, case):
        # rows do not enter the propagator: a lone drive, a drive that
        # ends mid-period, and ramps of several steps per stride
        if case == "cnot_single":
            sched = cnot_single_schedule(table(408.0))
        elif case == "ry_pi_left":
            sched = schedule_ry("L", math.pi, table(400.0))
        else:
            sched = cnot_multi_schedule(table(400.0), table(408.0),
                                        tau_tr_ns=5.0)
        full = evolve(sched, [table], integrator=integrator)
        for stride_ns in (0.123, 1.0):
            res = evolve(sched, [table], integrator=integrator,
                         sample_every_ns=stride_ns)
            assert np.array_equal(res.u, full.u)
            assert res.n_exponentials == full.n_exponentials
            assert res.trajectory_t_ns.size > 10

    @pytest.mark.parametrize("integrator", ["rwa", "lab"])
    @pytest.mark.parametrize("stride_ns", [0.123, 0.25])
    def test_rows_match_sequential_per_mark_products(self, table, integrator,
                                                     stride_ns):
        # rows from batched stacks (prefix scans, binary powers, one
        # product per chunk of rows) against each row's map multiplied
        # out one factor at a time
        sched = cnot_multi_schedule(table(400.0), table(408.0), tau_tr_ns=1.0)
        res = evolve(sched, [table], integrator=integrator,
                     sample_every_ns=stride_ns)
        t_ns, amps = sequential_trajectory(sched, table, integrator,
                                           stride_ns)
        assert np.array_equal(res.trajectory_t_ns, t_ns)
        assert np.abs(res.trajectory_amps - amps).max() <= 1e-12

    def test_segments_without_rows_end_on_the_final_state(self, p400):
        # the second and third segments hold no mark and end in the
        # stride interval of the first one's last row
        sched = PulseSchedule((Segment(1500, 400.0), Segment(200, 400.0),
                               Segment(100, 400.0)), (), p400.e_zl_hz)
        res = evolve(sched, [src_const(p400)], sample_every_ns=1.0)
        t_ns, amps = sequential_trajectory(sched, src_const(p400), "rwa",
                                           1.0)
        assert np.array_equal(res.trajectory_t_ns, [0.0, 1.0, 1.8])
        assert np.array_equal(res.trajectory_t_ns, t_ns)
        assert np.abs(res.trajectory_amps - amps).max() <= 1e-12

    def test_stride_rounding_to_zero_is_rejected(self, p400):
        sched = schedule_ry("L", math.pi, p400)
        with pytest.raises(ConfigurationError, match="rounds to 0 ps"):
            evolve(sched, [src_const(p400)], sample_every_ns=0.0004)

    @pytest.mark.parametrize("stride_ns", [0.123, 0.25])
    def test_lab_and_rwa_trajectories_share_their_times(self, table,
                                                        stride_ns):
        # lab drives are stepped in chunks of whole steps; their rows must
        # still fall at the RWA rows' times and end at the gate's end
        sched = cnot_multi_schedule(table(400.0), table(408.0), tau_tr_ns=1.0)
        res = {integrator: evolve(sched, [table], integrator=integrator,
                                  sample_every_ns=stride_ns)
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


def cf4_product(h_base, h_coef, gamma, t0_s, dt_s, n_steps):
    """Ordered product of n_steps fourth-order commutator-free steps of
    h_base + gamma(t) h_coef from t0_s, one kernel batch per 2**15 steps."""
    a1, a2 = CF4_ALPHAS
    u = np.eye(4, dtype=complex)
    for k0 in range(0, n_steps, 2**15):
        k = np.arange(k0, min(k0 + 2**15, n_steps))
        g1 = gamma(t0_s + (k + CF4_NODES[0]) * dt_s)
        g2 = gamma(t0_s + (k + CF4_NODES[1]) * dt_s)
        coefs = np.empty(2 * k.size)
        coefs[0::2] = 2.0 * (a1 * g1 + a2 * g2)
        coefs[1::2] = 2.0 * (a2 * g1 + a1 * g2)
        u = propagate_affine(h_base[None], h_coef, coefs, [0.5 * dt_s],
                             [coefs.size])[0] @ u
    return u


def drive_segment_brute_force(seg, t0_s, p, dt_factor=200.0):
    """Lab-frame propagator of a drive segment starting at t0_s, stepped
    step by step on the period-commensurate grid: m steps per period, the
    fewest within 1/(dt_factor max(E_ZL, E_ZR, w_D)), then the rest of the
    segment in the fewest equal steps no longer than those. Returns the
    propagator and the number of steps."""
    d = seg.drive
    period = 1.0 / d.freq_hz
    m = math.ceil(dt_factor * max(p.e_zl_hz, p.e_zr_hz, d.freq_hz) * period)
    dur = seg.duration_ps * 1e-12
    n_per = math.floor(dur / period)
    rest = dur - n_per * period
    n_rest = math.ceil(rest / (period / m))
    h0, hd = static_hamiltonian(p), drive_operator(d.target)

    def gamma(ts):
        return d.rabi_hz * np.cos(2 * math.pi * d.freq_hz * ts + d.phase_rad)

    u = cf4_product(h0, hd, gamma, t0_s, period / m, n_per * m)
    if n_rest:
        u = cf4_product(h0, hd, gamma, t0_s + n_per * period, rest / n_rest,
                        n_rest) @ u
    return u, n_per * m + n_rest


class TestLabIntegrator:
    """The lab frame steps a drive on a grid commensurate with its period,
    so whole periods are one period product raised to a power, and takes
    ramps from the rotating frame, times the frame's phase."""

    @pytest.mark.parametrize("case", ["ry_pi_left", "cnot_single",
                                      "cnot_multi_second_ry", "sub_period",
                                      "ry_pi_left_dt300"])
    def test_periodic_drive_equals_step_by_step_product(self, table, case):
        p = table(400.0)
        ry = schedule_ry("L", math.pi, p).segments[0]
        lead = ()                        # hold segments before the drive
        dt_factor = 200.0
        if case == "ry_pi_left":
            seg = ry
        elif case == "ry_pi_left_dt300":
            # criterion 9a's gate: over a million sequential exponentials
            seg = schedule_ry("L", math.pi, p).segments[0]
            dt_factor = 300.0
        elif case == "cnot_single":
            p = table(408.0)
            seg = cnot_single_schedule(p).segments[0]
            assert seg.drive.target == "both"
        elif case == "cnot_multi_second_ry":
            # a hold as long as what precedes the second RY in cnot_multi
            # starts the drive at the same time, mid-period
            *before, seg = cnot_multi_schedule(p, table(408.0), 5.0).segments
            lead = (Segment(sum(s.duration_ps for s in before), 400.0),)
        else:
            seg = Segment(30, 400.0, ry.drive)
            assert seg.duration_ps * 1e-12 < 1.0 / seg.drive.freq_hz
        frame = seg.drive.freq_hz
        res = evolve(PulseSchedule(lead + (seg,), (), frame), [src_const(p)],
                     integrator="lab", dt_factor=dt_factor)
        t0_s = sum(s.duration_ps for s in lead) * 1e-12
        want, n_steps = drive_segment_brute_force(seg, t0_s, p, dt_factor)
        if lead:
            want = want @ evolve(PulseSchedule(lead, (), frame),
                                 [src_const(p)], integrator="lab").u[0]
        assert np.abs(res.u[0] - want).max() <= 1e-10
        assert res.n_exponentials == 2 * n_steps + len(lead)
        if case == "ry_pi_left_dt300":
            assert 2 * n_steps >= 1_000_000
            assert np.abs(want.conj().T @ want - np.eye(4)).max() <= 1e-8

    def test_lab_ramp_is_the_rotating_ramp_times_its_frame_phase(self, table):
        sched = cnot_multi_schedule(table(400.0), table(412.0), 1.0)
        ramp = PulseSchedule((sched.segments[1],), (), sched.frame_freq_hz)
        assert ramp.segments[0].ramp_from_mv is not None
        lab = evolve(ramp, [table], integrator="lab")
        rwa = evolve(ramp, [table], integrator="rwa")
        assert np.abs(lab.u - rwa.to_lab()).max() <= 1e-14
        assert lab.n_exponentials == rwa.n_exponentials
        # the same steps of the lab-frame Hamiltonian, frame phase included
        p0 = table(400.0)
        h_lab = 0.5 * p0.e_zl_hz * SZ_L + 0.5 * p0.e_zr_hz * SZ_R
        dur_s = ramp.total_time_ps * 1e-12
        n_steps = lab.n_exponentials // 2

        def gamma(ts):
            return table.j_of_vm(400.0 + 12.0 * np.clip(ts / dur_s, 0.0, 1.0))

        want = cf4_product(h_lab, HEIS, gamma, 0.0, dur_s / n_steps, n_steps)
        assert np.abs(lab.u[0] - want).max() <= 1e-12

    def test_lab_drive_cost_is_one_period(self, table, monkeypatch):
        rows = []
        step_exponentials = kernels.step_exponentials

        def counting(h_base, h_coef, coefs, dt_s):
            rows.append(len(coefs))
            return step_exponentials(h_base, h_coef, coefs, dt_s)

        monkeypatch.setattr(kernels, "step_exponentials", counting)
        sched = schedule_ry("L", math.pi, table(400.0))
        res = evolve(sched, [table], integrator="lab")
        assert res.n_exponentials > 700_000
        assert 0 < sum(rows) < 2_000

    @pytest.mark.parametrize("integrator", ["rwa", "lab"])
    def test_ramp_rows_follow_the_stride(self, table, integrator):
        stride_ps = 250
        sched = cnot_multi_schedule(table(400.0), table(408.0), tau_tr_ns=5.0)
        res = evolve(sched, [table], integrator=integrator,
                     sample_every_ns=stride_ps * 1e-3)
        unsampled = evolve(sched, [table], integrator=integrator)
        assert np.array_equal(res.u, unsampled.u)
        rows_ps = np.round(res.trajectory_t_ns * 1e3).astype(int)
        starts = np.cumsum([0] + [s.duration_ps for s in sched.segments])
        n_ramps = 0
        for seg, start, end in zip(sched.segments, starts, starts[1:]):
            if seg.ramp_from_mv is None:
                continue
            n_ramps += 1
            # the ramp's own step: its n_exponentials over the lone ramp
            lone = evolve(PulseSchedule((seg,), (), sched.frame_freq_hz),
                          [table], integrator=integrator)
            step_ps = seg.duration_ps / (lone.n_exponentials // 2)
            inside = rows_ps[(rows_ps > start) & (rows_ps < end)]
            marks = np.arange((start // stride_ps + 1) * stride_ps, end,
                              stride_ps)
            assert inside.size >= marks.size - 1 > 10
            for mark in marks:
                after = inside[inside >= mark]
                if mark + step_ps < end:
                    assert after.size and after[0] <= mark + step_ps + 1
            for row in inside:
                assert np.any((row >= marks) & (row <= marks + step_ps + 1))
        assert n_ramps == 2

    @pytest.mark.parametrize("integrator", ["rwa", "lab"])
    def test_rows_follow_one_stride_grid_from_zero(self, table, integrator):
        # drives, ramps and a hold, none of whose starts is a multiple of
        # the stride: every mark k * stride has its row within one step
        # after it, and every row but a segment end and the final state
        # lies within one step after a mark
        stride_ps = 250
        sched = cnot_multi_schedule(table(400.0), table(408.0), tau_tr_ns=5.0)
        res = evolve(sched, [table], integrator=integrator,
                     sample_every_ns=stride_ps * 1e-3)
        unsampled = evolve(sched, [table], integrator=integrator)
        assert np.array_equal(res.u, unsampled.u)
        rows_ps = np.round(res.trajectory_t_ns * 1e3).astype(int)
        assert np.all(np.diff(rows_ps) > 0)
        starts = np.cumsum([0] + [s.duration_ps for s in sched.segments])
        assert np.count_nonzero(starts[1:-1] % stride_ps) >= 4
        # the largest step of each segment in a schedule of its own (0 when
        # it is constant)
        step_ps = [evolve(PulseSchedule((seg,), (), sched.frame_freq_hz),
                          [table], integrator=integrator).dt_ns * 1e3
                   for seg in sched.segments]
        seg_of = np.searchsorted(starts, rows_ps, side="right") - 1
        marks = np.arange(stride_ps, starts[-1], stride_ps)
        seg_of_mark = np.searchsorted(starts, marks, side="right") - 1
        for mark, k in zip(marks, seg_of_mark):
            after = rows_ps[rows_ps >= mark]
            assert after[0] <= mark + step_ps[k] + 1
        for row, k in zip(rows_ps[1:-1], seg_of[1:-1]):
            if row in starts:
                continue
            assert row % stride_ps <= step_ps[k] + 1


def fidelity_of_one(u_actual, u_ideal):
    """`gate_fidelity` of `u_actual` as a stack of one."""
    return gate_fidelity(u_actual[None], u_ideal)[0]


def plain_fidelity(u_actual, u_ideal):
    """Average gate fidelity (%) without the virtual-Z frame optimization:
    `gate_fidelity`'s trace formula at zero frame angles."""
    return 100.0 * _avg_fidelity_from_trace(
        abs(np.trace(u_ideal.conj().T @ u_actual)))


class TestGateFidelity:
    def test_identity_and_global_phase(self):
        u = CNOT_UP
        for fidelity in (fidelity_of_one, plain_fidelity):
            assert fidelity(u, u) == pytest.approx(100.0)
            assert fidelity(np.exp(0.7j) * u, u) == pytest.approx(100.0)

    def test_matches_2design_average(self):
        # over-rotated conditional flip vs ideal CNOT
        theta = math.pi / 2
        over = np.eye(4, dtype=complex)
        over[0, 0] = over[2, 2] = math.cos(theta / 2)
        over[0, 2] = -math.sin(theta / 2)
        over[2, 0] = math.sin(theta / 2)
        u_act = over @ CNOT_UP
        got = plain_fidelity(u_act, CNOT_UP)
        want = average_fidelity_2design(u_act, CNOT_UP)
        assert got == pytest.approx(want, abs=1e-9)
        # the frame optimization starts at zero angles and never loses
        assert fidelity_of_one(u_act, CNOT_UP) >= want - 1e-9

    def test_frame_opt_absorbs_virtual_z(self):
        u_ideal = CNOT_UP
        dressed = rz_matrix("L", 0.7) @ rz_matrix("R", -1.1) @ u_ideal \
            @ rz_matrix("L", 0.3) @ rz_matrix("R", 2.0)
        assert fidelity_of_one(dressed, u_ideal) == pytest.approx(100.0,
                                                                  abs=1e-6)
        # and the two controlled-Z placements are frame-equivalent
        cz_dd = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        assert fidelity_of_one(cz_dd, cz_matrix()) == pytest.approx(100.0,
                                                                    abs=1e-6)

    def test_frame_opt_matches_nelder_mead_oracle(self):
        corpus = noisy_gate_corpus(n_each=7, seed=21)
        # Haar-random pairs: a dense trace landscape whose local maxima trap
        # a single start in about a third of the cases
        haar = unitary_group.rvs(4, size=40, random_state=22)
        corpus += list(zip(haar[0::2], haar[1::2]))
        for u_act, u_ideal in corpus:
            got = fidelity_of_one(u_act, u_ideal)
            want = frame_optimized_fidelity_nelder_mead(u_act, u_ideal)
            assert want - 1e-12 <= got <= want + 1e-9

    def test_non_unitary_rejected(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 0] = 0.5
        with pytest.raises(ConfigurationError):
            gate_fidelity(bad[None], CNOT_UP)

    def test_fidelity_range(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            q, _ = np.linalg.qr(m)
            for f in (fidelity_of_one(q, CNOT_UP), plain_fidelity(q, CNOT_UP)):
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
        sched = schedule_ry("L", math.pi / 2, p400)
        res = evolve(sched, [src_const(p400)], integrator="rwa")
        u_lab = rot_to_lab(res.u[0], res.total_time_ns * 1e-9,
                           res.frame_freq_hz)
        assert np.abs(u_lab.conj().T @ u_lab - np.eye(4)).max() < 1e-10


def scaled_tables(table, n):
    """`table` with J scaled by 1 + k/40 for k < n: the ramps of a stack of
    them take different step counts."""
    return [ParamsTable(table.v_m_mv, table.e_zl_hz * (1.0 + 1e-7 * k),
                        table.e_zr_hz, table.j_hz * (1.0 + k / 40.0))
            for k in range(n)]


class TestStacks:
    """A stack of parameter sources evolves, and a stack of unitaries is
    scored, member by member bit for bit as each member in a stack of
    one."""

    @pytest.mark.parametrize("integrator, gate", [
        ("rwa", "cnot_multi"), ("lab", "cnot_multi"), ("rwa", "cnot_single"),
        ("lab", "cnot_single")])
    def test_evolve_and_fidelity_equal_members_alone(self, table, integrator,
                                                     gate):
        tables = scaled_tables(table, 4)
        if gate == "cnot_multi":
            # at 412 mV J sets the ramps' step
            sched, ideal = (cnot_multi_schedule(table(400.0), table(412.0),
                                                1.0), CNOT_DOWN)
        else:
            sched, ideal = cnot_single_schedule(table(408.0)), CNOT_UP
        alone = [evolve(sched, [t], integrator) for t in tables]
        stack = evolve(sched, tables, integrator)
        assert stack.failures == [None] * 4
        assert stack.u.shape == (4, 4, 4)
        for k, res in enumerate(alone):
            assert stack.u[k].tobytes() == res.u[0].tobytes()
        assert stack.n_exponentials == sum(r.n_exponentials for r in alone)
        if gate == "cnot_multi":
            # the ramps' step counts differ, so the stack pads its members
            assert len({r.n_exponentials for r in alone}) > 1
        fids = gate_fidelity(stack.u, ideal)
        assert fids.tolist() == [gate_fidelity(r.u, ideal)[0] for r in alone]

    def test_failed_member_leaves_the_others(self, table):
        sched = cnot_multi_schedule(table(400.0), table(408.0), 1.0)
        tables = scaled_tables(table, 3)

        def fails(v_m_mv):
            raise GeometryError("no dots")

        stack = evolve(sched, [tables[0], fails, tables[2]])
        assert [k for k, exc in enumerate(stack.failures)
                if exc is not None] == [1]
        assert isinstance(stack.failures[1], GeometryError)
        assert np.isnan(stack.u[1]).all()
        for k in (0, 2):
            assert np.array_equal(stack.u[k], evolve(sched, [tables[k]]).u[0])
        (exc,) = evolve(sched, [fails]).failures
        assert isinstance(exc, GeometryError)

    def test_trajectory_is_for_one_source(self, table):
        sched = schedule_ry("L", math.pi, table(400.0))
        with pytest.raises(ConfigurationError):
            evolve(sched, scaled_tables(table, 2), sample_every_ns=1.0)

    def test_fidelity_ascent_stops_member_by_member(self):
        # members that converge in different numbers of sweeps
        us = [unitary_group.rvs(4, random_state=s) for s in range(6)]
        us.append(CNOT_DOWN)
        stack = gate_fidelity(np.stack(us), CNOT_DOWN)
        assert stack.tolist() == [fidelity_of_one(u, CNOT_DOWN) for u in us]
