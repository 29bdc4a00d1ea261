from dataclasses import replace

import numpy as np
import pytest

from dqdsim.constants import ZEEMAN_HZ_PER_T
from dqdsim.device import build_grid
from dqdsim import dots
from dqdsim.dots import (
    Device,
    MagnetFieldMap,
    charge_stability,
    find_dots,
    localized_pair,
)
from dqdsim.errors import ConfigurationError, GeometryError, ModelValidityError

from dqdsim import schrodinger
from dqdsim.schrodinger import self_consistent_solve

from conftest import (SHIPPED_BIASES, exchange_of, quartic_double_well,
                      synthetic_solution, tiny_model, zeeman_of)

from oracles import ci_singlet_triplet_j


class TestFieldMap:
    def test_linear_gradient_interpolates_exactly(self):
        fm = MagnetFieldMap.from_gradient(0.65, 5e-5, 0.0, 240.0)
        x = np.array([10.3, 100.0, 233.3])
        assert np.allclose(fm(x), 0.65 + 5e-5 * x, rtol=0, atol=1e-12)

    def test_file_roundtrip(self, tmp_path):
        fm = MagnetFieldMap.from_gradient(0.6, 4e-5, 0.0, 100.0)
        path = tmp_path / "bz.txt"
        np.savetxt(path, np.column_stack([fm.x_nm, fm.b_tesla]),
                   header="x_nm B_tesla")
        fm2 = MagnetFieldMap.from_file(path)
        assert np.allclose(fm2(np.linspace(0, 100, 7)),
                           fm(np.linspace(0, 100, 7)))

    def test_nonpositive_field_rejected(self):
        with pytest.raises(ConfigurationError):
            MagnetFieldMap([0.0, 1.0], [0.5, -0.1])


class TestDevice:
    def test_solution_at_is_memoized_per_v_m(self):
        dev = tiny_model()
        sol = dev.solution_at(350.0)
        assert dev.solution_at(350.0) is sol
        other = dev.solution_at(340.0)
        assert other is not sol
        assert other.biases == replace(dev.biases, v_m=340.0 * 1e-3)
        assert not np.array_equal(other.potential_ev, sol.potential_ev)

    def test_devices_on_one_grid_do_not_share_solutions(self):
        dev = tiny_model()
        sol = dev.solution_at(350.0)
        for other in (
                dev._replace(mat=replace(dev.mat, schottky_barrier_ev=0.40)),
                dev._replace(biases=replace(dev.biases, v_l=0.44))):
            assert other.grid is dev.grid
            got = other.solution_at(350.0)
            assert got is not sol
            want = self_consistent_solve(
                other.spec, other.mat, replace(other.biases, v_m=350.0 * 1e-3),
                grid=build_grid(other.spec))
            assert np.array_equal(got.potential_ev, want.potential_ev)
            assert not np.array_equal(got.potential_ev, sol.potential_ev)


class TestChargeStability:
    def test_every_point_solves_at_the_device_biases(self, monkeypatch):
        # a drain bias other than the shipped file's: every point keeps it
        dev = tiny_model()
        dev = dev._replace(biases=replace(dev.biases, drain_bias_v=3e-4))
        solved = []
        solve = dots.self_consistent_solve

        def recording(spec, mat, biases, **kw):
            solved.append(biases)
            return solve(spec, mat, biases, **kw)

        monkeypatch.setattr(dots, "self_consistent_solve", recording)
        diagram = charge_stability(dev, [440.0, 450.0], [450.0], 350.0, 200.0)
        assert diagram.n_l.shape == (1, 2)
        assert solved == [
            replace(dev.biases, v_b=200.0 * 1e-3, v_l=v_l * 1e-3,
                    v_m=350.0 * 1e-3, v_r=450.0 * 1e-3)
            for v_l in (440.0, 450.0)]
        assert all(b.drain_bias_v == 3e-4 for b in solved)


class TestFindDots:
    def test_symmetric_two_dots(self, flat_well):
        _, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 8.0))
        reg = find_dots(sol, grid)
        assert reg.n_dots == 2
        xc = grid.spec.width_nm / 2
        assert reg.minima_x_nm[0] + reg.minima_x_nm[1] == pytest.approx(
            2 * xc, abs=2 * grid.dx)
        assert reg.barrier_x_nm == pytest.approx(xc, abs=grid.dx)

    def test_single_deep_valley(self, flat_well):
        _, grid, mat = flat_well
        xc = grid.spec.width_nm / 2
        u = np.tile(1e-5 * (grid.x - xc) ** 2, (grid.ny, 1))
        sol = synthetic_solution(grid, mat, u)
        assert find_dots(sol, grid).n_dots == 1

    def test_orbital_assignment_tilted(self, flat_well):
        _, grid, mat = flat_well
        sol = synthetic_solution(
            grid, mat, quartic_double_well(grid, 10.0, tilt_uev=400.0))
        reg = find_dots(sol, grid)
        # tilt lowers the left side: ground state left, first excited right
        w = (sol.spectrum.wavefunctions[:2] ** 2).sum(axis=1)
        x0, x1 = (w * grid.x).sum(axis=1) / w.sum(axis=1)
        assert x0 < reg.barrier_x_nm - grid.dx
        assert x1 > reg.barrier_x_nm + grid.dx


class TestZeeman:
    def test_uniform_field_identity(self, flat_well):
        _, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 6.0))
        b0 = 0.6585
        fm = MagnetFieldMap.from_gradient(b0, 0.0, -1.0, 241.0)
        e_zl, e_zr = zeeman_of(sol, fm, grid)
        expect = ZEEMAN_HZ_PER_T * b0
        assert e_zl == pytest.approx(expect, rel=1e-12)
        assert e_zr == pytest.approx(expect, rel=1e-12)

    def test_gradient_orders_and_bounds(self, flat_well):
        _, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 6.0))
        fm = MagnetFieldMap.from_gradient(0.64, 6e-5, -1.0, 241.0)
        e_zl, e_zr = zeeman_of(sol, fm, grid)
        assert e_zl < e_zr
        b = fm(grid.x)
        assert ZEEMAN_HZ_PER_T * b.min() <= e_zl <= ZEEMAN_HZ_PER_T * b.max()
        assert ZEEMAN_HZ_PER_T * b.min() <= e_zr <= ZEEMAN_HZ_PER_T * b.max()

    def test_uncovered_map_rejected(self, flat_well):
        _, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 6.0))
        fm = MagnetFieldMap.from_gradient(0.65, 0.0, 50.0, 150.0)
        with pytest.raises(ConfigurationError):
            zeeman_of(sol, fm, grid)

    def test_single_dot_rejected(self, flat_well):
        _, grid, mat = flat_well
        xc = grid.spec.width_nm / 2
        u = np.tile(1e-5 * (grid.x - xc) ** 2, (grid.ny, 1))
        sol = synthetic_solution(grid, mat, u)
        fm = MagnetFieldMap.from_gradient(0.65, 0.0, -1.0, 241.0)
        # the spin map checks each member's geometry before its splittings
        dev = Device(grid.spec, mat, SHIPPED_BIASES, grid, fm, 60.0)
        (got,) = dev.spin_params([sol])
        assert isinstance(got, GeometryError)


class TestExchange:
    def test_decoupled_limit(self, flat_well):
        _, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 30.0))
        j = exchange_of(sol, grid, mat, 60.0)
        assert j < 1.0  # Hz: infinite-barrier limit, J -> 0

    def test_monotone_in_barrier(self, flat_well):
        _, grid, mat = flat_well
        js = []
        for barrier in (10.0, 12.0, 14.0, 16.0):
            sol = synthetic_solution(grid, mat, quartic_double_well(grid, barrier))
            js.append(exchange_of(sol, grid, mat, 60.0))
        assert all(a > b for a, b in zip(js, js[1:]))
        # near log-linear over the window: successive ratios within 2x
        ratios = [np.log(a / b) for a, b in zip(js, js[1:])]
        assert max(ratios) / min(ratios) < 2.0

    def test_detuning_robustness(self, flat_well):
        # micro-eV scale detuning barely moves J (it enters quadratically
        # against U - V), even though the raw splitting is dominated by it
        _, grid, mat = flat_well
        j0 = exchange_of(
            synthetic_solution(grid, mat, quartic_double_well(grid, 14.0)),
            grid, mat, 60.0)
        j1 = exchange_of(
            synthetic_solution(grid, mat,
                               quartic_double_well(grid, 14.0, tilt_uev=60.0)),
            grid, mat, 60.0)
        assert j1 == pytest.approx(j0, rel=0.05)

    def test_localized_pair_reproduces_splitting(self, flat_well):
        _, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 12.0))
        _, _, (h2,) = localized_pair([sol], grid)
        split = sol.spectrum.energies_ev[1] - sol.spectrum.energies_ev[0]
        eps = h2[0, 0] - h2[1, 1]
        assert np.hypot(eps, 2 * h2[0, 1]) == pytest.approx(split, rel=1e-9)

    def test_ci_oracle_within_bound_for_kinetic_exchange(self, flat_well):
        # the Hubbard estimate and the full two-orbital CI agree on the
        # kinetic (hybridization) part; compare with the CI direct-exchange
        # term removed from both sides by using the gap of the CI singlet
        # sector itself
        _, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 12.0))
        j_hub = exchange_of(sol, grid, mat, 60.0)
        j_ci = ci_singlet_triplet_j(sol, grid, mat, 60.0)
        # the CI includes the ferromagnetic direct exchange, so it lower-bounds
        # the Hubbard value; the hybridization scale must still agree
        assert j_ci < j_hub
        assert abs(j_ci - j_hub) < 10 * j_hub

    def test_negative_u_minus_v_rejected(self, flat_well, monkeypatch):
        _, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 12.0))
        import dqdsim.dots as dots_mod
        real = dots_mod.coulomb_integrals

        def fake(kernel, fields, grid_):
            val = real(kernel, fields, grid_)
            return val * (1.0 - 2.0 * np.eye(len(fields)))

        monkeypatch.setattr(dots_mod, "coulomb_integrals", fake)
        assert isinstance(exchange_of(sol, grid, mat, 60.0),
                          ModelValidityError)


class TestSpinMapStack:
    """`Device.spin_params` gives each member of a stack its SpinParams,
    or the DqdError that drops it in its place, bit for bit as the member
    gets them in a stack of one."""

    @pytest.fixture
    def device(self, flat_well):
        spec, grid, mat = flat_well
        fm = MagnetFieldMap.from_gradient(0.64, 6e-5, -1.0, 241.0)
        return Device(spec, mat, SHIPPED_BIASES, grid, fm, 60.0)

    def double_wells(self, device, barriers_mev):
        return [synthetic_solution(device.grid, device.mat,
                                   quartic_double_well(device.grid, b))
                for b in barriers_mev]

    def test_geometry_failure_keeps_its_place(self, device):
        grid = device.grid
        xc = grid.spec.width_nm / 2
        one_valley = synthetic_solution(
            grid, device.mat, np.tile(1e-5 * (grid.x - xc) ** 2, (grid.ny, 1)))
        first, last = self.double_wells(device, (12.0, 14.0))
        stack = [first, one_valley, last]
        got = device.spin_params(stack)
        alone = [device.spin_params([sol])[0] for sol in stack]
        assert isinstance(got[1], GeometryError)
        assert isinstance(alone[1], GeometryError)
        assert str(got[1]) == str(alone[1])
        assert [got[0], got[2]] == [alone[0], alone[2]]
        assert all(np.isfinite(p.j_hz) and p.j_hz > 0 for p in alone[::2])

    def test_model_validity_failure_keeps_its_place(self, device,
                                                     monkeypatch):
        stack = self.double_wells(device, (12.0, 13.0, 14.0))
        alone = [device.spin_params([sol])[0] for sol in stack]
        real = dots.coulomb_integrals

        def fake(kernel, fields, grid_):
            # member 1 of a stack of three: U - V changes sign
            val = real(kernel, fields, grid_)
            if len(val) == 3:
                val[1] = -val[1]
            return val

        monkeypatch.setattr(dots, "coulomb_integrals", fake)
        got = device.spin_params(stack)
        assert isinstance(got[1], ModelValidityError)
        assert [got[0], got[2]] == [alone[0], alone[2]]


class TestFieldMapCalibration:
    def test_plateau_solve_hits_anchors_exactly(self, flat_well):
        from dqdsim.calibrate import ANCHOR_E_ZL_HZ, ANCHOR_E_ZR_HZ, calibrate_field_map
        spec, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 10.0))
        fmap, params = calibrate_field_map(sol, grid, 15.0)
        assert params["profile"] == "plateaus"
        e_zl, e_zr = zeeman_of(sol, fmap, grid)
        # sampled-curve interpolation leaves a sub-kHz residual, far
        # inside the 1% anchor tolerance
        assert e_zl == pytest.approx(ANCHOR_E_ZL_HZ, abs=5e3)
        assert e_zr == pytest.approx(ANCHOR_E_ZR_HZ, abs=5e3)

    def test_config_roundtrip_through_loader(self, flat_well):
        from dqdsim.calibrate import calibrate_field_map
        from dqdsim.dots import field_map_from_config
        spec, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 10.0))
        fmap, params = calibrate_field_map(sol, grid, 15.0)
        fmap2 = field_map_from_config(params, spec.width_nm)
        x = np.linspace(0, spec.width_nm, 23)
        assert np.allclose(fmap(x), fmap2(x), rtol=0, atol=1e-9)


class TestSolutionMemo:
    def test_field_map_profile_must_be_known(self):
        with pytest.raises(ConfigurationError, match="'plateau'"):
            dots.field_map_from_config({"profile": "plateau"}, 240.0)

    def test_solution_is_solved_again_under_other_scf_constants(
            self, monkeypatch):
        # a grid that already holds the operating point must not return
        # the solution of another tolerance
        dev = tiny_model()
        first = dev.solution_at(350.0)
        assert dev.solution_at(350.0) is first
        monkeypatch.setattr(schrodinger, "TOL_EV", 1e-7)
        again = dev.solution_at(350.0)
        assert again is not first
        assert again.final_update_norm_ev <= 1e-7
