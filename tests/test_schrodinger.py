import logging

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dqdsim import schrodinger
from dqdsim.cli import default_device_path
from dqdsim.constants import HBAR2_OVER_2M0
from dqdsim.device import (
    DeviceBiases,
    DeviceSpec,
    Electrode,
    Layer,
    MaterialParams,
    build_grid,
    load_device_config,
    solve_poisson,
)
from dqdsim.errors import ConfigurationError, NonConvergenceError
from dqdsim.schrodinger import (
    STALL_WINDOW,
    WARM_SHIFT_BELOW_GROUND_EV,
    ScfStage,
    load_snapshot,
    quantum_charge,
    save_snapshot,
    self_consistent_solve,
    solve_eigenstates,
    subband_line_density,
    well_rows,
)

from conftest import quartic_double_well, synthetic_solution

from oracles import fermi_integral_quadrature


def narrow_box(nx=64, ny=64, wx=16.0, wy=8.0):
    layers = (Layer("SiGe", wy), Layer("Si", wy), Layer("SiGe", wy))
    spec = DeviceSpec(layers=layers, electrodes=(), width_nm=wx,
                      dx_nm=wx / nx, dy_nm=wy / ny)
    return spec, build_grid(spec)


class TestEigenstates:
    def test_infinite_square_well_energies(self):
        spec, grid = narrow_box()
        mat = MaterialParams()
        sp = solve_eigenstates(np.zeros((grid.ny, grid.nx)), grid, mat, 4,
                               method="sparse")
        ex = HBAR2_OVER_2M0 * np.pi**2 / (mat.mass_lateral * 16.0**2)
        ey = HBAR2_OVER_2M0 * np.pi**2 / (mat.mass_vertical * 8.0**2)
        analytic = sorted(n * n * ex + m * m * ey
                          for n in range(1, 4) for m in range(1, 4))[:4]
        for got, want in zip(sp.energies_ev, analytic):
            assert got == pytest.approx(want, rel=1e-3)

    def test_harmonic_ladder(self):
        # lateral harmonic confinement inside a wide well
        layers = (Layer("SiGe", 8.0), Layer("Si", 8.0), Layer("SiGe", 8.0))
        spec = DeviceSpec(layers=layers, electrodes=(), width_nm=160.0,
                          dx_nm=0.5, dy_nm=8.0 / 16)
        grid = build_grid(spec)
        mat = MaterialParams()
        k = 1e-4  # eV / nm^2
        u = np.tile(0.5 * k * (grid.x - 80.0) ** 2, (grid.ny, 1))
        sp = solve_eigenstates(u, grid, mat, 4, method="sparse")
        omega = np.sqrt(2.0 * HBAR2_OVER_2M0 * k / mat.mass_lateral)
        gaps = np.diff(sp.energies_ev[:3])
        # lowest three states share the vertical ground mode; lateral ladder
        assert gaps[0] == pytest.approx(omega, rel=5e-3)
        assert gaps[1] == pytest.approx(omega, rel=5e-3)

    def test_double_well_pair_structure_and_dense_oracle(self, flat_well):
        spec, grid, mat = flat_well
        prev_split = None
        for barrier_mev in (10.0, 14.0, 18.0):
            u = quartic_double_well(grid, barrier_mev)
            sp = solve_eigenstates(u, grid, mat, 2, method="sparse")
            j0, j1 = well_rows(grid)
            dense = np.linalg.eigvalsh(
                (_well_matrix(grid, mat, u)).toarray())[:2]
            assert sp.energies_ev[0] == pytest.approx(dense[0], abs=1e-8)
            assert sp.energies_ev[1] == pytest.approx(dense[1], abs=1e-8)
            split = sp.energies_ev[1] - sp.energies_ev[0]
            assert split > 0
            # symmetric/antisymmetric pair: |psi_0| even, |psi_1| odd
            w0 = sp.wavefunctions[0][j0:j1]
            w1 = sp.wavefunctions[1][j0:j1]
            assert np.abs(w0 - w0[:, ::-1]).max() < 1e-5
            assert np.abs(w1 + w1[:, ::-1]).max() < 1e-5
            if prev_split is not None:
                assert split < prev_split  # raising the barrier closes 2t
            prev_split = split

    def test_orthonormality(self, flat_well):
        spec, grid, mat = flat_well
        u = quartic_double_well(grid, 6.0)
        sp = solve_eigenstates(u, grid, mat, 5)
        assert sp.check_orthonormal(grid.dx, grid.dy, tol=1e-10) < 1e-10

    def test_n_states_validation(self, flat_well):
        spec, grid, mat = flat_well
        with pytest.raises(ConfigurationError):
            solve_eigenstates(np.zeros((grid.ny, grid.nx)), grid, mat, 1)


@pytest.fixture(scope="module")
def shipped_400mv():
    """A cold 400 mV solve on the shipped device, recording the (potential,
    start) of every stage's first eigensolve and of every 20th one."""
    spec, mat, biases, _ = load_device_config(default_device_path())
    grid = build_grid(spec)
    b = DeviceBiases(v_b=biases.v_b, v_l=biases.v_l, v_m=0.400,
                     v_r=biases.v_r, drain_bias_v=biases.drain_bias_v)
    solve = schrodinger.solve_eigenstates
    calls, kept = [], []

    def recording(u, grid_, mat_, n_states, method="auto", start=None):
        calls.append(1)
        if start is None or len(calls) % 20 == 0:
            kept.append((u, start))
        return solve(u, grid_, mat_, n_states, method, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schrodinger, "solve_eigenstates", recording)
        sol = self_consistent_solve(spec, mat, b, grid=grid)
    return spec, mat, b, grid, sol, kept


def warm_fallbacks(caplog):
    return [r for r in caplog.records
            if r.name == "dqdsim" and "fell back" in r.getMessage()]


@pytest.mark.slow
class TestWarmStartedEigensolve:
    def test_scf_warm_starts_all_but_each_stage_first_solve(self,
                                                            shipped_400mv):
        *_, sol, kept = shipped_400mv
        assert sum(start is None for _, start in kept) == len(sol.stages)
        assert len(kept) > 10

    def test_warm_matches_cold_on_scf_iterates(self, shipped_400mv,
                                               monkeypatch, caplog):
        # early iterates may move the ground state below the warm shift and
        # fall back; late ones, where the potential moves by ueV, must not
        _, mat, _, grid, _, kept = shipped_400mv
        shifts = []

        def eigsh(*args, **kw):
            shifts.append(kw["sigma"])
            return spla_eigsh(*args, **kw)

        spla_eigsh = spla.eigsh
        monkeypatch.setattr(spla, "eigsh", eigsh)
        warm_started = []
        with caplog.at_level(logging.DEBUG, logger="dqdsim"):
            for u, start in kept:
                if start is None:
                    continue
                n_fallbacks = len(warm_fallbacks(caplog))
                warm = solve_eigenstates(u, grid, mat, 6, start=start)
                warm_started.append(len(warm_fallbacks(caplog))
                                    == n_fallbacks)
                if warm_started[-1]:
                    assert shifts[-1] == (start.energies_ev[0]
                                          - WARM_SHIFT_BELOW_GROUND_EV)
                cold = solve_eigenstates(u, grid, mat, 6)
                assert np.abs(warm.energies_ev
                              - cold.energies_ev).max() <= 1e-12
                assert np.abs(warm.wavefunctions**2
                              - cold.wavefunctions**2).max() <= 1e-10
        assert all(warm_started[-5:]) and sum(warm_started) > 8

    def test_start_above_ground_falls_back_to_cold(self, shipped_400mv,
                                                   caplog):
        # lowering the potential 2 meV puts the new ground state below the
        # shift 1 meV under the start's: H - sigma is not positive definite
        _, mat, _, grid, sol, _ = shipped_400mv
        u = sol.potential_ev - 2e-3
        with caplog.at_level(logging.DEBUG, logger="dqdsim"):
            warm = solve_eigenstates(u, grid, mat, 6, start=sol.spectrum)
        records = warm_fallbacks(caplog)
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        cold = solve_eigenstates(u, grid, mat, 6)
        assert np.array_equal(warm.energies_ev, cold.energies_ev)
        assert np.array_equal(warm.wavefunctions, cold.wavefunctions)

    def test_scf_is_deterministic(self, shipped_400mv):
        spec, mat, b, grid, sol, _ = shipped_400mv
        again = self_consistent_solve(spec, mat, b, grid=grid)
        assert again.stages == sol.stages
        assert np.array_equal(again.potential_ev, sol.potential_ev)
        assert np.array_equal(again.spectrum.wavefunctions,
                              sol.spectrum.wavefunctions)


def _well_matrix(grid, mat, potential):
    from dqdsim.schrodinger import _well_kinetic
    import scipy.sparse as sp_
    j0, j1 = well_rows(grid)
    return _well_kinetic(grid, mat) + sp_.diags(potential[j0:j1].ravel())


class TestQuantumCharge:
    def test_empty_dots_far_above_fermi(self, flat_well):
        spec, grid, mat = flat_well
        u = quartic_double_well(grid, 6.0) + 0.5
        sp = solve_eigenstates(u, grid, mat, 3)
        n = quantum_charge(sp, 0.0, 1.5, grid, mat)
        assert n.max() == 0.0

    def test_single_state_line_density_matches_quadrature(self, flat_well):
        spec, grid, mat = flat_well
        u = quartic_double_well(grid, 6.0)
        sp = solve_eigenstates(u, grid, mat, 2)
        e_f = sp.energies_ev[0] + 1e-3  # state 1 meV below E_F
        t_k = 1.5
        occ = subband_line_density(sp.energies_ev[:1], e_f, t_k, mat)
        from dqdsim.constants import K_B_EV
        kt = K_B_EV * t_k
        eta = (e_f - sp.energies_ev[0]) / kt
        k_th = np.sqrt(mat.mass_transport * kt / HBAR2_OVER_2M0)
        expect = (2 * mat.valley_degeneracy * k_th / (2 * np.sqrt(np.pi))
                  * fermi_integral_quadrature(eta, -0.5))
        assert occ[0] == pytest.approx(expect, rel=1e-8)
        # density integrates to the line density
        n = quantum_charge(sp, e_f, t_k, grid, mat)
        total = n.sum() * 1e-21 * grid.dx * grid.dy
        both = subband_line_density(sp.energies_ev, e_f, t_k, mat).sum()
        assert total == pytest.approx(both, rel=1e-10)

    def test_degenerate_pair_density_symmetric(self, flat_well):
        spec, grid, mat = flat_well
        u = quartic_double_well(grid, 16.0)  # near-degenerate S/AS pair
        sp = solve_eigenstates(u, grid, mat, 2)
        e_f = sp.energies_ev[1] + 5e-4
        n = quantum_charge(sp, e_f, 1.5, grid, mat)
        assert np.abs(n - n[:, ::-1]).max() < 1e-6 * n.max()


def _tiny_device():
    layers = (Layer("Si", 2.0), Layer("SiGe", 20.0), Layer("Si", 8.0),
              Layer("SiGe", 14.0))
    spec = DeviceSpec(
        layers=layers,
        electrodes=(Electrode("B1", (10, 40)), Electrode("L", (55, 85)),
                    Electrode("M", (100, 130)), Electrode("R", (145, 175)),
                    Electrode("B2", (190, 220))),
        width_nm=230.0, dx_nm=2.0, dy_nm=1.0,
    )
    return spec, MaterialParams(schottky_barrier_ev=0.42)


class TestSelfConsistent:
    def test_depleted_device_matches_charge_free_poisson(self):
        spec, mat = _tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=-0.3, v_l=-0.3, v_m=-0.3, v_r=-0.3)
        sol = self_consistent_solve(spec, mat, biases, grid=grid, n_states=3)
        assert sol.charge_cm3.max() == 0.0
        u_free = solve_poisson(grid, mat, biases, np.zeros((grid.ny, grid.nx)))
        assert np.abs(sol.potential_ev - u_free).max() < 1e-9

    def test_residual_after_convergence(self):
        spec, mat = _tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=0.2, v_l=0.45, v_m=0.35, v_r=0.45)
        sol = self_consistent_solve(spec, mat, biases, grid=grid, n_states=4,
                                    tol_ev=1e-6)
        # one more cycle moves the potential by <= 2x tolerance
        from dqdsim.device import bulk_charge
        from dqdsim.schrodinger import quantum_charge as qc
        sp = solve_eigenstates(sol.potential_ev, grid, mat, 4)
        charge = bulk_charge(sol.potential_ev, grid, mat, 1.5) + qc(
            sp, mat.fermi_level_ev, 1.5, grid, mat)
        u_next = solve_poisson(grid, mat, biases, charge)
        assert np.abs(u_next - sol.potential_ev).max() <= 2e-6

    def test_damping_independence(self):
        spec, mat = _tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=0.2, v_l=0.45, v_m=0.35, v_r=0.45)
        sols = [self_consistent_solve(spec, mat, biases, grid=grid,
                                      n_states=4, mixing=m)
                for m in (0.1, 0.3)]
        assert np.abs(sols[0].potential_ev - sols[1].potential_ev).max() <= 2e-6

    def test_iteration_cap_reports_history(self):
        spec, mat = _tiny_device()
        # accumulation biases: the device carries charge, so one heavily
        # damped iteration cannot reach the 1 ueV tolerance
        biases = DeviceBiases(v_b=0.3, v_l=0.7, v_m=0.6, v_r=0.7)
        with pytest.raises(NonConvergenceError) as exc:
            self_consistent_solve(spec, mat, biases, n_states=4, max_iter=1,
                                  mixing=0.01)
        assert "update_history_ev" in exc.value.diagnostics

    def test_mixing_validation(self):
        spec, mat = _tiny_device()
        with pytest.raises(ConfigurationError):
            self_consistent_solve(spec, mat, DeviceBiases(), mixing=0.9)


def _scripted_scf(monkeypatch, grid, mat, biases, shifts_ev):
    """Script the SCF map: Poisson call k returns the charge-free potential
    plus shifts_ev(k) on every cell, and the eigensolve always returns the
    charge-free spectrum."""
    u_free = solve_poisson(grid, mat, biases, np.zeros((grid.ny, grid.nx)))
    spectrum = solve_eigenstates(u_free, grid, mat, 3)
    calls = []

    def fake_poisson(grid_, mat_, biases_, charge):
        calls.append(1)
        return u_free + shifts_ev(len(calls))

    monkeypatch.setattr(schrodinger, "solve_poisson", fake_poisson)
    monkeypatch.setattr(schrodinger, "solve_eigenstates",
                        lambda *args, **kw: spectrum)
    return u_free


def _stage(grid, mat, biases, u0, tol_ev, max_iter, stall_window):
    return schrodinger._scf_fixed_t(grid, mat, biases, 8.0, u0, 3, 0.1,
                                    tol_ev, max_iter, "auto",
                                    stall_window=stall_window)


class TestStallRule:
    def setup_method(self):
        self.spec, self.mat = _tiny_device()
        self.grid = build_grid(self.spec)
        self.biases = DeviceBiases(v_b=-0.3, v_l=-0.3, v_m=-0.3, v_r=-0.3)

    def test_two_cycle_abandons_continuation_stage(self, monkeypatch, caplog):
        # G(u) alternates between two fields 10 meV apart: the damped
        # iterate settles on a 2-cycle whose residual never reaches its
        # second-iteration minimum again
        u_free = _scripted_scf(monkeypatch, self.grid, self.mat,
                               self.biases, lambda k: 0.01 * (k % 2))
        with caplog.at_level(logging.DEBUG, logger="dqdsim"):
            u, charge, _, _, history, stage = _stage(
                self.grid, self.mat, self.biases, u_free, 2e-5, 600,
                STALL_WINDOW)
        best_it = int(np.argmin(history)) + 1
        assert stage == ScfStage(8.0, best_it + STALL_WINDOW, False, True)
        assert len(history) == stage.iterations < 600
        assert charge is None and u is not None
        assert "abandoned" in caplog.text

    def test_falling_residual_is_never_cut_short(self, monkeypatch):
        # G(u) is fixed: with damping 0.1 the residual falls by 0.9 per
        # iteration and needs more than STALL_WINDOW iterations to converge
        u_free = _scripted_scf(monkeypatch, self.grid, self.mat,
                               self.biases, lambda k: 0.0)
        u, charge, _, resid, history, stage = _stage(
            self.grid, self.mat, self.biases, u_free + 0.01, 1e-5, 600,
            STALL_WINDOW)
        assert stage.converged and not stage.abandoned
        assert stage.iterations == len(history) > STALL_WINDOW
        assert np.all(np.diff(history) < 0)
        assert resid <= 1e-5 and charge is not None

    def test_final_stage_on_plateau_runs_to_cap_and_retries(self,
                                                             monkeypatch):
        _scripted_scf(monkeypatch, self.grid, self.mat, self.biases,
                      lambda k: 0.01 * (k % 2))
        cap = STALL_WINDOW + 10
        with pytest.raises(NonConvergenceError) as exc:
            self_consistent_solve(self.spec, self.mat, self.biases,
                                  grid=self.grid, n_states=3, max_iter=cap)
        stages = exc.value.diagnostics["stages"]
        assert [(st.temperature_k, st.converged, st.abandoned)
                for st in stages] == [(40.0, False, True), (8.0, False, True),
                                      (1.5, False, False), (1.5, False, False)]
        assert all(st.iterations < cap for st in stages[:2])
        assert [st.iterations for st in stages[2:]] == [cap, 3 * cap]
        history = exc.value.diagnostics["update_history_ev"]
        assert len(history) == sum(st.iterations for st in stages)

    def test_solution_carries_stages_and_history(self):
        spec, mat = _tiny_device()
        biases = DeviceBiases(v_b=0.2, v_l=0.45, v_m=0.35, v_r=0.45)
        sol = self_consistent_solve(spec, mat, biases, n_states=4)
        assert [st.temperature_k for st in sol.stages] == [40.0, 8.0, 1.5]
        assert sol.stages[-1].converged
        assert sol.iterations == sum(st.iterations for st in sol.stages)
        assert len(sol.update_history_ev) == sol.iterations
        assert sol.update_history_ev[-1] == sol.final_update_norm_ev


class TestSnapshot:
    def test_roundtrip(self, tmp_path):
        spec, mat = _tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=-0.3, v_l=-0.3, v_m=-0.3, v_r=-0.3)
        sol = self_consistent_solve(spec, mat, biases, grid=grid, n_states=3)
        path = tmp_path / "snap.npz"
        save_snapshot(path, sol, spec, mat)
        sol2, spec2, mat2, _ = load_snapshot(path)
        assert spec2 == spec
        assert mat2 == mat
        assert np.array_equal(sol2.potential_ev, sol.potential_ev)
        assert np.array_equal(sol2.spectrum.wavefunctions,
                              sol.spectrum.wavefunctions)
        assert sol2.iterations == sol.iterations
