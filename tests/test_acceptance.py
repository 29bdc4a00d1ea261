"""End-to-end acceptance checks.

One printed PASS/FAIL line per numbered criterion (run with `pytest -s` to
see them); device-backed checks (5-7) load the calibrated default device and
carry the `slow` marker alongside `acceptance`.
"""

import math

import numpy as np
import pytest

from dqdsim.constants import UEV_TO_HZ
from dqdsim.dots import charge_stability
from dqdsim.dynamics import CNOT_DOWN, CNOT_UP, evolve, gate_fidelity, ry_matrix
from dqdsim.noise import (
    NoiseConfig,
    NoisyTableFactory,
    fidelity_samples,
    fluctuation_stats,
)
from dqdsim.params import SpinParams, paper_table
from dqdsim.protocols import (
    cnot_multi_schedule,
    cnot_single_schedule,
    schedule_ry,
    u_hold_time_s,
)
from dqdsim.schrodinger import solve_eigenstates

pytestmark = pytest.mark.acceptance


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def table():
    return paper_table()


class TestCriterion1:
    def test_cz_timing_identity(self):
        details = []
        ok = True
        for j_mhz, tau_ns in ((19.3, 25.9), (69.5, 7.2), (266.1, 1.879)):
            p = SpinParams(e_zl_hz=18.312e9, e_zr_hz=18.448e9,
                           j_hz=j_mhz * 1e6, v_m_mv=408.0)
            got = u_hold_time_s(p) * 1e9
            ok &= abs(got - tau_ns) <= 0.02 * tau_ns
            details.append(f"J={j_mhz}MHz -> {got:.3f}ns (want {tau_ns})")
        report("criterion 1 (CZ timing tau_U = 1/(2J))", ok, "; ".join(details))


class TestCriterion2:
    def test_ry_pi_duration_and_fidelity(self, table):
        p = table(400.0)
        ok = True
        details = []
        for target in ("L", "R"):
            sched = schedule_ry(target, math.pi, p)
            res = evolve(sched, [table], integrator="rwa")
            fid = gate_fidelity(res.u, ry_matrix(target, math.pi))[0]
            t_ns = sched.total_time_ns
            ok &= abs(t_ns - 100.0) <= 1.0 and fid >= 99.9
            details.append(f"{target}: {t_ns:.2f}ns F={fid:.3f}%")
        report("criterion 2 (RY(pi): 100 +- 1 ns, F >= 99.9%)", ok,
               "; ".join(details))


class TestCriterion3:
    def test_single_step_cnot(self, table):
        p = table(408.0)
        sched = cnot_single_schedule(p)
        res = evolve(sched, [table], integrator="rwa")
        fid = gate_fidelity(res.u, CNOT_UP)[0]
        t_ns = sched.total_time_ns
        ok = abs(t_ns - 100.4) <= 2.0 and abs(fid - 98.34) <= 0.5
        report("criterion 3 (single-step CNOT: 100.4 +- 2 ns, F = 98.34 +- 0.5%)",
               ok, f"t={t_ns:.2f}ns F={fid:.3f}% "
                   f"omega_D={sched.symbols['omega_d_hz'] / 1e9:.4f}GHz")


class TestCriterion4:
    def test_multi_step_timing(self, table):
        p400 = table(400.0)
        ok = True
        details = []
        for v_m, want in ((408.0, 132.1), (410.0, 113.4), (412.0, 108.1)):
            sched = cnot_multi_schedule(p400, table(v_m), tau_tr_ns=5.0)
            got = sched.total_time_ns
            ok &= abs(got - want) <= 1.0
            details.append(f"{v_m:.0f}mV: {got:.2f}ns (want {want})")
        report("criterion 4a (multi-step totals +- 1 ns)", ok, "; ".join(details))

    def test_decomposition_identity(self):
        p_weak = SpinParams(e_zl_hz=18.309e9, e_zr_hz=18.453e9, j_hz=10.0,
                            v_m_mv=400.0)
        p_strong = SpinParams(e_zl_hz=18.312e9, e_zr_hz=18.448e9, j_hz=0.4e6,
                              v_m_mv=408.0)

        def source(v_m):
            return p_weak if abs(v_m - 400.0) < 1e-9 else p_strong

        sched = cnot_multi_schedule(p_weak, p_strong, tau_tr_ns=0.0)
        fid = gate_fidelity(evolve(sched, [source]).u, CNOT_DOWN)[0]
        ok = fid >= 99.9
        report("criterion 4b (tau_TR = 0 decomposition >= 99.9%)", ok,
               f"F={fid:.4f}%")


@pytest.mark.slow
class TestCriterion5:
    def test_device_anchors(self, shipped_device):
        dev = shipped_device
        p400, p408 = dev.spin_params([dev.solution_at(400.0),
                                      dev.solution_at(408.0)])
        e_zl, e_zr, j400 = p400.e_zl_hz, p400.e_zr_hz, p400.j_hz
        j408 = p408.j_hz
        ok = (abs(e_zl - 18.309e9) <= 0.01 * 18.309e9
              and abs(e_zr - 18.453e9) <= 0.01 * 18.453e9
              and abs(j400 - 75.6e3) <= 0.2 * 75.6e3
              and abs(j408 - 19.3e6) <= 0.2 * 19.3e6)
        report("criterion 5a (E_Z within 1%, J anchors within 20%)", ok,
               f"E_ZL={e_zl / 1e9:.4f}GHz E_ZR={e_zr / 1e9:.4f}GHz "
               f"J400={j400 / 1e3:.1f}kHz J408={j408 / 1e6:.2f}MHz")

    def test_stability_window(self, shipped_device):
        dev = shipped_device
        v_l = np.array([505.0, 540.0, 575.0])
        v_r = np.array([535.0, 570.0, 605.0])
        diagram = charge_stability(dev, v_l, v_r, 400.0, 200.0)
        regimes = diagram.regimes()
        at_pinit = diagram.occupation_at(540.0, 570.0)
        ok = regimes == {(0, 0), (1, 0), (0, 1), (1, 1)} and at_pinit == (1, 1)
        report("criterion 5b (4 stability regimes, (1,1) at Pinit)", ok,
               f"regimes={sorted(regimes)} Pinit={at_pinit}")


def _noise_fidelity_curve(device, protocols, sigmas, n_samples, seed,
                          v_strong=408.0, tau_tr=5.0):
    """(means, stds) over `sigmas` for each protocol; every protocol is
    evaluated on the same noise tables, built once per sample and sigma
    from one draw per sample."""
    factory = NoisyTableFactory(device, (400.0, v_strong))
    table = factory.clean_table()
    gates = [(cnot_single_schedule(table(v_strong)), CNOT_UP)
             if protocol == "cnot_single" else
             (cnot_multi_schedule(table(400.0), table(v_strong), tau_tr),
              CNOT_DOWN)
             for protocol in protocols]
    means, stds = [], []
    cfgs = [NoiseConfig(sigma_uev=sg, seed=seed, n_samples=n_samples)
            for sg in sigmas]
    for stats, _ in fidelity_samples(factory, cfgs, gates, "rwa"):
        assert [n for _, _, n in stats] == [n_samples] * len(gates)
        means.append([mean for mean, _, _ in stats])
        stds.append([std for _, std, _ in stats])
    return list(zip(np.array(means).T, np.array(stds).T))


@pytest.mark.slow
class TestCriterion6:
    N_SAMPLES = 1000
    SIGMAS = (1e-3, 1e-2, 1e-1, 1.0, 5.0)

    def test_noise_attribution_bounds(self, shipped_device):
        ok = True
        details = []
        for v_m in (0.400, 0.408):
            cfg = NoiseConfig(sigma_uev=5.0, seed=11, n_samples=self.N_SAMPLES)
            [st] = fluctuation_stats(
                shipped_device, shipped_device.solution_at(v_m * 1e3), [cfg])
            rel_ez = max(st.stats["E_ZL"]["std"] / st.stats["E_ZL"]["mean"],
                         st.stats["E_ZR"]["std"] / st.stats["E_ZR"]["mean"])
            rel_j = st.stats["J"]["std"] / st.stats["J"]["mean"]
            details.append(f"V_M={v_m * 1e3:.0f}: std(E_Z)/E_Z={rel_ez:.2e}, "
                           f"std(J)/J={rel_j:.2e}")
            ok &= rel_ez <= 1e-7  # 1e-5 percent
            if v_m == 0.408:
                ok &= rel_j > 1e-3
        report("criterion 6a (std(E_Z)/E_Z <= 1e-5%, std(J)/J@408 > 1e-3)",
               ok, "; ".join(details))

    def test_protocol_ordering_and_monotonicity(self, shipped_device):
        (single, _), (multi, _) = _noise_fidelity_curve(
            shipped_device, ("cnot_single", "cnot_multi"), self.SIGMAS,
            self.N_SAMPLES, seed=11)
        gap = multi[-1] - single[-1]
        mono_s = all(a >= b - 0.05 for a, b in zip(single, single[1:]))
        mono_m = all(a >= b - 0.05 for a, b in zip(multi, multi[1:]))
        ok = gap >= 20.0 and mono_s and mono_m
        report("criterion 6b (multi - single >= 20 pts at 5 ueV; monotone)",
               ok, f"single={np.round(single, 2).tolist()} "
                   f"multi={np.round(multi, 2).tolist()} gap={gap:.2f}")


@pytest.mark.slow
class TestCriterion7:
    def test_time_integral_invariance(self, shipped_device):
        sigmas = (1e-3, 1.0, 5.0)
        n = 120
        # two calls: the 408 and 410 mV node sets interpolate differently
        [(f408, s408)] = _noise_fidelity_curve(
            shipped_device, ("cnot_multi",), sigmas, n, seed=23,
            v_strong=408.0)
        [(f410, s410)] = _noise_fidelity_curve(
            shipped_device, ("cnot_multi",), sigmas, n, seed=23,
            v_strong=410.0)
        err = np.sqrt(s408**2 + s410**2) / math.sqrt(n) + 1e-6
        ok = bool(np.all(np.abs(f408 - f410) <= 3.0 * err))
        report("criterion 7 (408 vs 410 curves agree within MC error)", ok,
               f"F408={np.round(f408, 2).tolist()} "
               f"F410={np.round(f410, 2).tolist()} 3err={np.round(3 * err, 3).tolist()}")


class TestCriterion8:
    def test_transition_tradeoff(self, table):
        p400 = table(400.0)
        p412 = table(412.0)
        fids = {}
        for tau in (1.0, 2.0, 3.0, 5.0):
            sched = cnot_multi_schedule(p400, p412, tau_tr_ns=tau)
            fids[tau] = gate_fidelity(evolve(sched, [table]).u, CNOT_DOWN)[0]
        losses = [100.0 - fids[t] for t in (1.0, 2.0, 3.0, 5.0)]
        mono = all(a <= b + 0.05 for a, b in zip(losses, losses[1:]))
        ok = (abs(fids[5.0] - 75.1) <= 5.0) and fids[1.0] >= 98.52 - 5.0 and mono
        report("criterion 8 (412 mV: F(5ns) = 75.1 +- 5, F(1ns) >= 93.5, "
               "monotone loss)", ok,
               "; ".join(f"tau={t}: {fids[t]:.2f}%" for t in sorted(fids)))


class TestCriterion9:
    def test_unitarity_and_step_halving(self, table):
        p = table(400.0)
        sched = schedule_ry("L", math.pi, p)
        res = evolve(sched, [table], integrator="lab", dt_factor=300.0)
        (defect,) = res.unitarity_defect
        ok1 = res.n_exponentials >= 1_000_000 and defect <= 1e-8
        u_half = evolve(sched, [table], integrator="lab", dt_factor=400.0).u[0]
        u_full = evolve(sched, [table], integrator="lab", dt_factor=200.0).u[0]
        drift = float(np.linalg.norm(u_full - u_half, 2))
        ok2 = drift <= 1e-6
        report("criterion 9a (unitarity <= 1e-8 over >= 1e6 steps; "
               "step-halving <= 1e-6)", ok1 and ok2,
               f"defect={defect:.1e} ({res.n_exponentials} exps), "
               f"halving drift={drift:.1e}")

    def test_lab_vs_rwa_agreement(self, table):
        ok = True
        details = []
        for name, sched in (
            ("ry_pi", schedule_ry("L", math.pi, table(400.0))),
            ("cnot_single", cnot_single_schedule(table(408.0))),
            ("cnot_multi", cnot_multi_schedule(table(400.0), table(408.0), 5.0)),
        ):
            u_rwa = evolve(sched, [table], integrator="rwa").to_lab()[0]
            u_lab = evolve(sched, [table], integrator="lab").u[0]
            phase = np.vdot(u_rwa.ravel(), u_lab.ravel())
            phase /= abs(phase)
            diff = float(np.linalg.norm(u_lab - phase * u_rwa, 2))
            ok &= diff <= 1e-3
            details.append(f"{name}: {diff:.2e}")
        report("criterion 9b (lab vs RWA <= 1e-3)", ok, "; ".join(details))

    def test_poisson_order_and_eigensolver_oracle(self, flat_well):
        # manufactured-solution order (>= 1.9) is asserted in test_device;
        # re-derive the headline numbers here for the acceptance report
        from test_device import TestSolvePoisson
        TestSolvePoisson().test_manufactured_solution_order()
        spec, grid, mat = flat_well
        from conftest import quartic_double_well
        u = quartic_double_well(grid, 12.0)
        sparse = solve_eigenstates(u, grid, mat, 3, method="sparse")
        dense = solve_eigenstates(u, grid, mat, 3, method="dense")
        dev = float(np.abs(sparse.energies_ev - dense.energies_ev).max())
        ok = dev <= 1e-8
        report("criterion 9c (MMS order >= 1.9; eigensolver vs dense <= 1e-8)",
               ok, f"eigenvalue deviation {dev:.1e} eV")
