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
    Layer,
    MaterialParams,
    build_grid,
    load_device_config,
    solve_poisson,
)
from dqdsim.errors import ConfigurationError, NonConvergenceError
from dqdsim.schrodinger import (
    ANDERSON_START_EV,
    STALL_WINDOW,
    WARM_SHIFT_BELOW_GROUND_EV,
    ScfStage,
    quantum_charge,
    self_consistent_solve,
    solve_eigenstates,
    subband_line_density,
    to_solver_order,
    well_kinetic,
    well_rows,
)

from conftest import quartic_double_well, synthetic_solution, tiny_device

from oracles import fermi_integral_quadrature, row_major_well_kinetic


def narrow_box(nx=64, ny=64, wx=16.0, wy=8.0):
    layers = (Layer("SiGe", wy), Layer("Si", wy), Layer("SiGe", wy))
    spec = DeviceSpec(layers=layers, electrodes=(), width_nm=wx,
                      dx_nm=wx / nx, dy_nm=wy / ny, temperature_k=1.5)
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
                          dx_nm=0.5, dy_nm=8.0 / 16, temperature_k=1.5)
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
            dense = np.linalg.eigvalsh(
                (_well_matrix(grid, mat, u)).toarray())[:2]
            assert sp.energies_ev[0] == pytest.approx(dense[0], abs=1e-8)
            assert sp.energies_ev[1] == pytest.approx(dense[1], abs=1e-8)
            split = sp.energies_ev[1] - sp.energies_ev[0]
            assert split > 0
            # symmetric/antisymmetric pair: |psi_0| even, |psi_1| odd
            w0, w1 = sp.wavefunctions[:2]
            assert np.abs(w0 - w0[:, ::-1]).max() < 1e-5
            assert np.abs(w1 + w1[:, ::-1]).max() < 1e-5
            if prev_split is not None:
                assert split < prev_split  # raising the barrier closes 2t
            prev_split = split

    def test_orthonormality(self, flat_well):
        spec, grid, mat = flat_well
        u = quartic_double_well(grid, 6.0)
        sp = solve_eigenstates(u, grid, mat, 5)
        flat = sp.wavefunctions.reshape(sp.n_states, -1)
        gram = flat @ flat.T * grid.dx * grid.dy
        assert np.abs(gram - np.eye(sp.n_states)).max() < 1e-10

    @pytest.mark.parametrize("method", ["sparse", "dense"])
    def test_states_live_on_the_well_block(self, flat_well, method):
        spec, grid, mat = flat_well
        j0, j1 = well_rows(grid)
        sp = solve_eigenstates(quartic_double_well(grid, 6.0), grid, mat, 3,
                               method=method)
        assert sp.n_states == 3
        assert sp.wavefunctions.shape == (3, j1 - j0, grid.nx)

    def test_kinetic_operator_is_the_row_major_stencil_by_columns(self,
                                                                  flat_well):
        spec, grid, mat = flat_well
        j0, j1 = well_rows(grid)
        nr = j1 - j0
        kin, band = well_kinetic(grid, mat)
        ref = row_major_well_kinetic(grid, mat)
        # the solver's cell k is row k % rows of column k // rows
        by_columns = np.arange(ref.shape[0]).reshape(nr, grid.nx).T.ravel()
        assert (ref[by_columns][:, by_columns] != kin).nnz == 0
        for k in range(nr + 1):
            assert np.array_equal(band[nr - k, k:], kin.diagonal(k))
        # the solver order is the column-by-column flattening
        block = np.arange(nr * grid.nx, dtype=float).reshape(nr, grid.nx)
        assert np.array_equal(to_solver_order(block), block.ravel()[by_columns])

    def test_n_states_validation(self, flat_well):
        spec, grid, mat = flat_well
        with pytest.raises(ConfigurationError):
            solve_eigenstates(np.zeros((grid.ny, grid.nx)), grid, mat, 1)


@pytest.fixture(scope="module")
def shipped_400mv():
    """A cold 400 mV solve on the shipped device, recording the (potential,
    start) of every cold eigensolve and of every 3rd one, and the number of
    eigensolves."""
    spec, mat, biases, _ = load_device_config(default_device_path())
    grid = build_grid(spec)
    b = DeviceBiases(v_b=biases.v_b, v_l=biases.v_l, v_m=0.400,
                     v_r=biases.v_r, drain_bias_v=biases.drain_bias_v)
    solve = schrodinger.solve_eigenstates
    calls, kept = [], []

    def recording(u, grid_, mat_, n_states, method="auto", start=None):
        calls.append(1)
        if start is None or len(calls) % 3 == 0:
            kept.append((u, start))
        return solve(u, grid_, mat_, n_states, method, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schrodinger, "solve_eigenstates", recording)
        sol = self_consistent_solve(spec, mat, b, grid=grid)
    return spec, mat, b, grid, sol, kept, len(calls)


def warm_fallbacks(caplog):
    return [r for r in caplog.records
            if r.name == "dqdsim" and "fell back" in r.getMessage()]


@pytest.mark.slow
class TestWarmStartedEigensolve:
    def test_scf_warm_starts_all_but_each_stage_first_solve(self,
                                                            shipped_400mv):
        # the 40 K stage's first solve is the only cold one: the 1.5 K
        # stage's first iteration reuses the 40 K stage's last spectrum
        *_, sol, kept, n_solves = shipped_400mv
        assert len(sol.stages) == 2 and sol.stages[0].converged
        assert sum(start is None for _, start in kept) == 1
        assert kept[0][1] is None
        assert n_solves == sol.iterations - 1
        assert len(kept) > 10

    def test_warm_matches_cold_on_scf_iterates(self, shipped_400mv,
                                               monkeypatch, caplog):
        # the SCF lowers each start's energies by the potential's largest
        # drop over the well, a Weyl bound, so no iterate falls back
        _, mat, _, grid, _, kept, _ = shipped_400mv
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
        assert all(warm_started) and len(warm_started) > 8

    def test_start_above_ground_falls_back_to_cold(self, shipped_400mv,
                                                   caplog):
        # lowering the potential 2 meV puts the new ground state below the
        # shift 1 meV under the start's: H - sigma is not positive definite
        _, mat, _, grid, sol, *_ = shipped_400mv
        u = sol.potential_ev - 2e-3
        with caplog.at_level(logging.DEBUG, logger="dqdsim"):
            warm = solve_eigenstates(u, grid, mat, 6, start=sol.spectrum)
        records = warm_fallbacks(caplog)
        assert len(records) == 1 and records[0].levelno == logging.DEBUG
        cold = solve_eigenstates(u, grid, mat, 6)
        assert np.array_equal(warm.energies_ev, cold.energies_ev)
        assert np.array_equal(warm.wavefunctions, cold.wavefunctions)

    def test_scf_is_deterministic(self, shipped_400mv):
        spec, mat, b, grid, sol, *_ = shipped_400mv
        again = self_consistent_solve(spec, mat, b, grid=grid)
        assert again.stages == sol.stages
        assert np.array_equal(again.potential_ev, sol.potential_ev)
        assert np.array_equal(again.spectrum.wavefunctions,
                              sol.spectrum.wavefunctions)


def _well_matrix(grid, mat, potential):
    import scipy.sparse as sp_
    j0, j1 = well_rows(grid)
    return (row_major_well_kinetic(grid, mat)
            + sp_.diags(potential[j0:j1].ravel()))


class TestQuantumCharge:
    def test_empty_dots_far_above_fermi(self, flat_well):
        spec, grid, mat = flat_well
        u = quartic_double_well(grid, 6.0) + 0.5
        sp = solve_eigenstates(u, grid, mat, 3)
        n = quantum_charge(sp, 0.0, 1.5, grid, mat)
        assert n.max() == 0.0

    def test_zero_outside_the_well_rows(self, flat_well):
        spec, grid, mat = flat_well
        sp = solve_eigenstates(quartic_double_well(grid, 6.0), grid, mat, 3)
        n = quantum_charge(sp, sp.energies_ev[1] + 1e-3, 1.5, grid, mat)
        j0, j1 = well_rows(grid)
        assert n.shape == (grid.ny, grid.nx) and n[j0:j1].max() > 0.0
        assert not n[:j0].any() and not n[j1:].any()

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


class TestSelfConsistent:
    def test_depleted_device_matches_charge_free_poisson(self, monkeypatch):
        spec, mat = tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=-0.3, v_l=-0.3, v_m=-0.3, v_r=-0.3,
                              drain_bias_v=1e-4)
        monkeypatch.setattr(schrodinger, "N_STATES", 3)
        sol = self_consistent_solve(spec, mat, biases, grid=grid)
        assert sol.charge_cm3.max() == 0.0
        u_free = solve_poisson(grid, mat, biases, np.zeros((grid.ny, grid.nx)))
        assert np.abs(sol.potential_ev - u_free).max() < 1e-9

    def test_residual_after_convergence(self, monkeypatch):
        spec, mat = tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=0.2, v_l=0.45, v_m=0.35, v_r=0.45,
                              drain_bias_v=1e-4)
        monkeypatch.setattr(schrodinger, "N_STATES", 4)
        monkeypatch.setattr(schrodinger, "TOL_EV", 1e-6)
        sol = self_consistent_solve(spec, mat, biases, grid=grid)
        # one more cycle moves the potential by <= 2x tolerance
        from dqdsim.device import bulk_charge
        from dqdsim.schrodinger import quantum_charge as qc
        sp = solve_eigenstates(sol.potential_ev, grid, mat, 4)
        charge = bulk_charge(sol.potential_ev, grid, mat, 1.5) + qc(
            sp, mat.fermi_level_ev, 1.5, grid, mat)
        u_next = solve_poisson(grid, mat, biases, charge)
        assert np.abs(u_next - sol.potential_ev).max() <= 2e-6

    def test_damping_independence(self, monkeypatch):
        spec, mat = tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=0.2, v_l=0.45, v_m=0.35, v_r=0.45,
                              drain_bias_v=1e-4)
        monkeypatch.setattr(schrodinger, "N_STATES", 4)
        sols = []
        for m in (0.1, 0.3):
            monkeypatch.setattr(schrodinger, "MIXING", m)
            sols.append(self_consistent_solve(spec, mat, biases, grid=grid))
        assert np.abs(sols[0].potential_ev - sols[1].potential_ev).max() <= 2e-6

    def test_iteration_cap_reports_history(self, monkeypatch):
        spec, mat = tiny_device()
        # accumulation biases: the device carries charge, so one heavily
        # damped iteration cannot reach the 1 ueV tolerance
        biases = DeviceBiases(v_b=0.3, v_l=0.7, v_m=0.6, v_r=0.7,
                              drain_bias_v=1e-4)
        for name, value in (("N_STATES", 4), ("MAX_ITER", 1),
                            ("MIXING", 0.01)):
            monkeypatch.setattr(schrodinger, name, value)
        with pytest.raises(NonConvergenceError) as exc:
            self_consistent_solve(spec, mat, biases)
        assert "update_history_ev" in exc.value.diagnostics


def _scripted_scf(monkeypatch, grid, mat, biases, shifts_ev, trace=None):
    """Script the SCF map: Poisson call k returns the charge-free potential
    plus shifts_ev(k, du) on every cell, with du the last eigensolve's
    potential minus the charge-free one (zero before the first), and the
    eigensolve always returns the charge-free spectrum. With `trace`, each
    eigensolve's potential and the Poisson result that follows it are
    appended to it as a pair."""
    u_free = solve_poisson(grid, mat, biases, np.zeros((grid.ny, grid.nx)))
    spectrum = solve_eigenstates(u_free, grid, mat, 3)
    iterates, calls = [u_free], []

    def fake_eigenstates(u, *args, **kw):
        iterates.append(u)
        return spectrum

    def fake_poisson(grid_, mat_, biases_, charge):
        calls.append(1)
        g = u_free + shifts_ev(len(calls), iterates[-1] - u_free)
        if trace is not None:
            trace.append((iterates[-1], g))
        return g

    monkeypatch.setattr(schrodinger, "solve_poisson", fake_poisson)
    monkeypatch.setattr(schrodinger, "solve_eigenstates", fake_eigenstates)
    return u_free


def _stage(grid, mat, biases, u0, tol_ev, max_iter, stall_window):
    return schrodinger._scf_fixed_t(grid, mat, biases, 8.0, u0, 0.1,
                                    tol_ev, max_iter,
                                    stall_window=stall_window)


class TestStallRule:
    def setup_method(self):
        self.spec, self.mat = tiny_device()
        self.grid = build_grid(self.spec)
        self.biases = DeviceBiases(v_b=-0.3, v_l=-0.3, v_m=-0.3, v_r=-0.3,
                                   drain_bias_v=1e-4)

    def test_two_cycle_abandons_continuation_stage(self, monkeypatch, caplog):
        # G(u) alternates between two fields 10 meV apart: the damped
        # iterate settles on a 2-cycle whose residual never reaches its
        # second-iteration minimum again
        u_free = _scripted_scf(monkeypatch, self.grid, self.mat,
                               self.biases, lambda k, du: 0.01 * (k % 2))
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
        # G(u) is fixed and the start 500 ANDERSON_START_EV off: damped by
        # 0.1, the residual falls by 0.9 per iteration and stays above
        # ANDERSON_START_EV for more than STALL_WINDOW iterations; below
        # it, Anderson mixing solves the constant map at once
        u_free = _scripted_scf(monkeypatch, self.grid, self.mat,
                               self.biases, lambda k, du: 0.0)
        u, charge, _, resid, history, stage = _stage(
            self.grid, self.mat, self.biases, u_free + 500 * ANDERSON_START_EV,
            1e-5, 600, STALL_WINDOW)
        assert stage.converged and not stage.abandoned
        n_damped = sum(r >= ANDERSON_START_EV for r in history)
        assert n_damped > STALL_WINDOW
        assert stage.iterations == len(history) <= n_damped + 3
        assert np.all(np.diff(history) < 0)
        assert resid <= 1e-5 and charge is not None

    def test_final_stage_on_plateau_runs_to_cap_and_retries(self,
                                                             monkeypatch):
        _scripted_scf(monkeypatch, self.grid, self.mat, self.biases,
                      lambda k, du: 0.01 * (k % 2))
        cap = STALL_WINDOW + 10
        monkeypatch.setattr(schrodinger, "N_STATES", 3)
        monkeypatch.setattr(schrodinger, "MAX_ITER", cap)
        with pytest.raises(NonConvergenceError) as exc:
            self_consistent_solve(self.spec, self.mat, self.biases,
                                  grid=self.grid)
        stages = exc.value.diagnostics["stages"]
        assert [(st.temperature_k, st.converged, st.abandoned)
                for st in stages] == [(40.0, False, True), (1.5, False, False),
                                      (1.5, False, False)]
        assert stages[0].iterations < cap
        assert [st.iterations for st in stages[1:]] == [cap, 3 * cap]
        history = exc.value.diagnostics["update_history_ev"]
        assert len(history) == sum(st.iterations for st in stages)

    def test_solution_carries_stages_and_history(self, monkeypatch):
        spec, mat = tiny_device()
        biases = DeviceBiases(v_b=0.2, v_l=0.45, v_m=0.35, v_r=0.45,
                              drain_bias_v=1e-4)
        monkeypatch.setattr(schrodinger, "N_STATES", 4)
        sol = self_consistent_solve(spec, mat, biases)
        assert [st.temperature_k for st in sol.stages] == [40.0, 1.5]
        assert sol.stages[-1].converged
        assert sol.iterations == sum(st.iterations for st in sol.stages)
        assert len(sol.update_history_ev) == sol.iterations
        assert sol.update_history_ev[-1] == sol.final_update_norm_ev


class TestAndersonMixing:
    # the tiny device at accumulation biases: its dots carry charge, and
    # the damped loop needs hundreds of iterations
    BIASES = DeviceBiases(v_b=0.2, v_l=0.6, v_m=0.5, v_r=0.6,
                          drain_bias_v=1e-4)

    def test_matches_damped_loop_in_fewer_iterations(self, monkeypatch):
        spec, mat = tiny_device()
        grid = build_grid(spec)
        monkeypatch.setattr(schrodinger, "N_STATES", 4)
        sol = self_consistent_solve(spec, mat, self.BIASES, grid=grid)
        monkeypatch.setattr(schrodinger, "ANDERSON_DEPTH", 0)
        damped = self_consistent_solve(spec, mat, self.BIASES, grid=grid)
        assert sol.charge_cm3.max() > 0
        assert np.abs(sol.potential_ev - damped.potential_ev).max() <= 2e-6
        assert 2 * sol.iterations < damped.iterations

    def test_step_above_start_is_the_damped_step(self, monkeypatch):
        spec, mat = tiny_device()
        grid = build_grid(spec)
        trace = []
        poisson, eigenstates = schrodinger.solve_poisson, solve_eigenstates

        def recording_eigenstates(u, *args, **kw):
            trace.append([u])
            return eigenstates(u, *args, **kw)

        def recording_poisson(*args):
            trace[-1].append(poisson(*args))
            return trace[-1][-1]

        monkeypatch.setattr(schrodinger, "solve_eigenstates",
                            recording_eigenstates)
        monkeypatch.setattr(schrodinger, "solve_poisson", recording_poisson)
        monkeypatch.setattr(schrodinger, "N_STATES", 4)
        u0 = poisson(grid, mat, self.BIASES, np.zeros((grid.ny, grid.nx)))
        *_, history, stage = schrodinger._scf_fixed_t(
            grid, mat, self.BIASES, 40.0, u0, 0.1, 2e-5, 600)
        assert stage.converged
        # beta can leave 0.1 only once the residual jumps above 1.5 times
        # its best, and every residual above the start comes before that
        jumps = [k for k, r in enumerate(history)
                 if r > 1.5 * min(history[:k], default=np.inf)]
        above = [r >= ANDERSON_START_EV for r in history]
        assert not any(above[min(jumps, default=len(history)):])
        assert 5 <= sum(above) < len(history) - 5
        damped = [np.array_equal(u_next, u + 0.1 * (g - u))
                  for (u, g), (u_next, _) in zip(trace, trace[1:])]
        assert all(d for d, a in zip(damped, above) if a)
        assert not all(damped)

    def test_residual_jump_clears_history(self, monkeypatch):
        # a linear contraction toward u_free, factor 0.90-0.99 across x,
        # shifted by up to 0.8 meV for the sixth call only; every residual
        # stays below ANDERSON_START_EV, so only the safeguard clears
        spec, mat = tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=-0.3, v_l=-0.3, v_m=-0.3, v_r=-0.3,
                              drain_bias_v=1e-4)
        x = grid.x[None, :] / grid.x.max()
        trace = []
        u_free = _scripted_scf(
            monkeypatch, grid, mat, biases,
            lambda k, du: (0.9 + 0.09 * x) * du + 8e-4 * x * (k == 6),
            trace)
        *_, history, stage = _stage(grid, mat, biases, u_free + 5e-4,
                                    1e-12, 8, None)
        assert stage.iterations == 8 and max(history) < ANDERSON_START_EV
        jump = 5
        assert [k for k in range(1, 8) if history[k] > 1.5 * min(history[:k])
                ] == [jump]
        u = [it for it, _ in trace]
        f = [g - it for it, g in trace]
        # before the jump the step extrapolates; at the jump it is damped
        # with the halved beta; after it, the residual sets a new minimum,
        # so beta grows back to 0.075 and one difference is fitted
        assert not np.array_equal(u[jump], u[jump - 1] + 0.1 * f[jump - 1])
        assert np.array_equal(u[jump + 1], u[jump] + 0.05 * f[jump])
        assert history[jump + 1] < min(history[:jump + 1])
        d_u, d_f = u[jump + 1] - u[jump], f[jump + 1] - f[jump]
        gamma = np.sum(d_f * f[jump + 1]) / np.sum(d_f * d_f)
        one_diff = (u[jump + 1] + 0.075 * f[jump + 1]
                    - gamma * (d_u + 0.075 * d_f))
        assert np.abs(u[jump + 2] - one_diff).max() <= 1e-12

    def test_beta_recovers_after_a_halving(self, monkeypatch):
        # G(u) is fixed but for the fifth call, which jumps 2 eV up; every
        # residual stays above ANDERSON_START_EV, so each step is damped
        # and its beta is the step over the residual
        spec, mat = tiny_device()
        grid = build_grid(spec)
        biases = DeviceBiases(v_b=-0.3, v_l=-0.3, v_m=-0.3, v_r=-0.3,
                              drain_bias_v=1e-4)
        trace = []
        u_free = _scripted_scf(monkeypatch, grid, mat, biases,
                               lambda k, du: 2.0 * (k == 5), trace)
        *_, history, stage = _stage(grid, mat, biases, u_free + 1.0,
                                    1e-12, 10, None)
        assert stage.iterations == 10 and min(history) > ANDERSON_START_EV
        betas = [float(np.mean((u_next - u) / (g - u)))
                 for (u, g), (u_next, _) in zip(trace, trace[1:])]
        # halved at the jump, then x1.5 per new minimum, capped at mixing
        assert betas == pytest.approx([0.1] * 4 + [0.05, 0.075] + [0.1] * 3,
                                      abs=1e-12)

    @pytest.mark.slow
    def test_cold_408mv_solves_are_identical(self):
        spec, mat, biases, _ = load_device_config(default_device_path())
        grid = build_grid(spec)
        b = DeviceBiases(v_b=biases.v_b, v_l=biases.v_l, v_m=0.408,
                         v_r=biases.v_r, drain_bias_v=biases.drain_bias_v)
        sols = [self_consistent_solve(spec, mat, b, grid=grid)
                for _ in range(2)]
        assert sols[0].stages == sols[1].stages
        assert sols[0].iterations <= 70
        assert np.array_equal(sols[0].potential_ev, sols[1].potential_ev)
        assert np.array_equal(sols[0].spectrum.wavefunctions,
                              sols[1].spectrum.wavefunctions)
