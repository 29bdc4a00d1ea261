import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dqdsim.cli import default_device_path
from dqdsim.constants import Q_OVER_EPS0_EV_NM
from dqdsim.device import (
    DeviceSpec,
    Electrode,
    Layer,
    MaterialParams,
    PoissonProblem,
    bulk_charge,
    build_grid,
    device_config_text,
    effective_dos_nm3,
    fermi_half,
    fermi_minus_half,
    load_device_config,
    solve_poisson,
)
from dqdsim.errors import ConfigurationError

from conftest import SHIPPED_BIASES, tiny_device
from oracles import fermi_integral_quadrature, poisson_matrix

REF_LAYERS = (Layer("Si", 2.0), Layer("SiGe", 30.0), Layer("Si", 8.0),
              Layer("SiGe", 20.0))


def make_spec(**kw):
    args = dict(
        layers=REF_LAYERS,
        electrodes=(Electrode("B1", (40, 80)), Electrode("L", (110, 160)),
                    Electrode("M", (180, 230)), Electrode("R", (250, 300)),
                    Electrode("B2", (330, 370))),
        width_nm=420.0, dx_nm=2.0, dy_nm=1.0, temperature_k=1.5,
    )
    args.update(kw)
    return DeviceSpec(**args)


class TestBuildGrid:
    def test_well_cells_tagged_quantum(self):
        grid = build_grid(make_spec(dy_nm=1.0))
        rows = np.nonzero(grid.quantum_mask.any(axis=1))[0]
        assert rows.size == 8  # 8 nm well at dy = 1 nm
        # the well is the buried Si layer, not the surface cap
        assert grid.material[rows[0]] == "Si"
        assert rows[0] > 0

    def test_electrode_span_outside_domain_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(electrodes=(Electrode("L", (400, 440)),))

    def test_overlapping_spans_rejected(self):
        with pytest.raises(ConfigurationError):
            make_spec(electrodes=(Electrode("L", (100, 160)),
                                  Electrode("M", (150, 200))))

    def test_cell_count_matches_domain(self):
        spec = make_spec(dx_nm=1.0, dy_nm=1.0)
        grid = build_grid(spec)
        assert grid.nx * grid.ny == int(spec.width_nm) * int(spec.height_nm)

    def test_too_coarse_layer_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(make_spec(dy_nm=4.0))  # 2 nm cap < 2 cells


class TestSolvePoisson:
    def test_constant_dirichlet_gives_constant_field(self):
        grid = build_grid(make_spec())
        mat = MaterialParams()
        prob = PoissonProblem(grid, mat, dirichlet_all=True,
                              dirichlet_top_weight=np.ones(grid.nx))
        v0 = 0.37
        b = prob.rhs(np.zeros((grid.ny, grid.nx)), np.full(grid.nx, v0),
                     np.full(grid.ny, v0), np.full(grid.ny, v0),
                     np.full(grid.nx, v0))
        u = prob.solve_rhs(b)
        assert np.abs(u - v0).max() < 1e-12

    @pytest.mark.parametrize("case", ["shipped", "tiny", "dirichlet-all"])
    def test_matches_spsolve_of_the_stencil(self, case):
        # the separable solve with its capacitance correction against a
        # sparse direct solve of the face-by-face operator, on a random
        # charge of ~1e18 cm^-3; the shipped and tiny grids differ in
        # their electrode cover and source/drain rows
        if case == "tiny":
            spec, mat = tiny_device()
        else:
            spec, mat, _, _ = load_device_config(default_device_path())
        grid = build_grid(spec)
        top, every = ((np.ones(grid.nx), True) if case == "dirichlet-all"
                      else (None, False))
        prob = PoissonProblem(grid, mat, dirichlet_top_weight=top,
                              dirichlet_all=every)
        rng = np.random.default_rng(5)
        charge_nm3 = 1e-3 * rng.random((grid.ny, grid.nx))
        b = prob.rhs(charge_nm3, np.full(grid.nx, 0.2), np.zeros(grid.ny),
                     np.full(grid.ny, -0.1),
                     np.full(grid.nx, 0.3) if every else None)
        u = prob.solve_rhs(b)
        ref = spla.spsolve(poisson_matrix(grid, mat, top, every).tocsc(),
                           b).reshape(grid.ny, grid.nx)
        assert np.abs(ref).max() > 0.1
        assert np.abs(u - ref).max() <= 1e-12

    def test_holds_no_factor(self):
        # a sparse LU of the shipped operator held ~12 MB per problem
        spec, mat, _, _ = load_device_config(default_device_path())
        grid = build_grid(spec)
        prob = PoissonProblem(grid, mat)
        prob.solve_rhs(np.ones(grid.n_cells))

        def nbytes(v):
            if isinstance(v, np.ndarray):
                return v.nbytes
            if sp.issparse(v):
                v = v.tocsr()
                return v.data.nbytes + v.indices.nbytes + v.indptr.nbytes
            if isinstance(v, spla.SuperLU):
                return nbytes(v.L) + nbytes(v.U)
            if isinstance(v, (tuple, list)):
                return sum(nbytes(x) for x in v)
            return 0

        assert sum(nbytes(v) for v in vars(prob).values()) < 2e6

    def test_linear_ramp_between_side_dirichlet(self):
        layers = (Layer("SiGe", 20.0), Layer("SiGe", 20.0))
        spec = DeviceSpec(layers=layers, electrodes=(), width_nm=80.0,
                          dx_nm=1.0, dy_nm=1.0, temperature_k=1.5)
        grid = build_grid(spec)
        mat = MaterialParams(permittivity_sige=11.7)
        prob = PoissonProblem(grid, mat)  # sides Dirichlet, top/bottom Neumann
        b = prob.rhs(np.zeros((grid.ny, grid.nx)), np.zeros(grid.nx),
                     np.zeros(grid.ny), np.ones(grid.ny))
        u = prob.solve_rhs(b)
        expected = np.tile(grid.x / spec.width_nm, (grid.ny, 1))
        assert np.abs(u - expected).max() < 1e-10

    def test_manufactured_solution_order(self):
        def err(n):
            w = 40.0
            h = w / n
            spec = DeviceSpec(layers=(Layer("SiGe", 20.0), Layer("SiGe", 20.0)),
                              electrodes=(), width_nm=w, dx_nm=h, dy_nm=h,
                              temperature_k=1.5)
            grid = build_grid(spec)
            mat = MaterialParams(permittivity_sige=11.7, permittivity_si=11.7)
            kx, ky = 3 * np.pi / w, 2 * np.pi / w
            xx, yy = np.meshgrid(grid.x, grid.y)
            exact = np.sin(kx * xx) * np.sin(ky * yy)
            n_nm3 = 11.7 * (kx**2 + ky**2) * exact / Q_OVER_EPS0_EV_NM
            prob = PoissonProblem(grid, mat, dirichlet_all=True,
                                  dirichlet_top_weight=np.ones(grid.nx))
            b = prob.rhs(n_nm3,
                         np.sin(kx * grid.x) * math.sin(0.0),
                         np.sin(0.0) * np.sin(ky * grid.y),
                         np.sin(kx * w) * np.sin(ky * grid.y),
                         np.sin(kx * grid.x) * np.sin(ky * w))
            u = prob.solve_rhs(b)
            return np.sqrt(np.mean((u - exact) ** 2))

        errs = [err(n) for n in (20, 40, 80)]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_discrete_maximum_principle(self):
        grid = build_grid(make_spec())
        mat = MaterialParams()
        biases = SHIPPED_BIASES
        u = solve_poisson(grid, mat, biases, np.zeros((grid.ny, grid.nx)))
        u_top, u_left, u_right = [], [], []
        from dqdsim.device import boundary_values
        bt, bl, br = boundary_values(grid, mat, biases)
        bvals = np.concatenate([bt[sum(grid.electrode_cover.values()) > 0],
                                bl[grid.sd_mask], br[grid.sd_mask]])
        assert u.min() >= bvals.min() - 1e-9
        assert u.max() <= bvals.max() + 1e-9

    def test_solver_determinism(self):
        grid = build_grid(make_spec())
        mat = MaterialParams()
        biases = SHIPPED_BIASES
        charge = np.full((grid.ny, grid.nx), 1e15)
        u1 = solve_poisson(grid, mat, biases, charge)
        u2 = solve_poisson(grid, mat, biases, charge)
        assert np.array_equal(u1, u2)

    def test_shape_mismatch_rejected(self):
        grid = build_grid(make_spec())
        with pytest.raises(ConfigurationError):
            solve_poisson(grid, MaterialParams(), SHIPPED_BIASES,
                          np.zeros((3, 3)))


class TestBulkCharge:
    def test_frozen_carriers_at_cryogenic_offset(self):
        grid = build_grid(make_spec())
        mat = MaterialParams()
        u = np.full((grid.ny, grid.nx), 0.5 - mat.conduction_band_offset_ev)
        n = bulk_charge(u, grid, mat, 1.5)
        assert n.max() == 0.0  # below representable threshold

    def test_band_edge_density_matches_quadrature(self):
        grid = build_grid(make_spec())
        mat = MaterialParams()
        # E_c = E_F on SiGe cells
        u = np.full((grid.ny, grid.nx), -mat.conduction_band_offset_ev)
        n = bulk_charge(u, grid, mat, 10.0)
        j = grid.ny - 2  # buffer SiGe row: bulk, not depleted, not quantum
        expect = (effective_dos_nm3(mat, 10.0)
                  * fermi_integral_quadrature(0.0, 0.5)) / 1e-21
        assert n[j, 0] == pytest.approx(expect, rel=1e-6)

    def test_temperature_doubling_consistent_with_quadrature(self):
        grid = build_grid(make_spec())
        mat = MaterialParams()
        delta = -0.01  # E_c - E_F = -10 meV
        u = np.full((grid.ny, grid.nx), delta - mat.conduction_band_offset_ev)
        from dqdsim.constants import K_B_EV
        j = grid.ny - 2
        for t in (4.0, 8.0):
            n = bulk_charge(u, grid, mat, t)
            eta = -delta / (K_B_EV * t)
            expect = (effective_dos_nm3(mat, t)
                      * fermi_integral_quadrature(eta, 0.5)) / 1e-21
            assert n[j, 0] == pytest.approx(expect, rel=1e-6)

    @pytest.mark.parametrize("t_k", [1.5, 8.0, 40.0])
    def test_equals_unmasked_formula(self, t_k):
        # the formula on every cell, then Quantum and depleted cells zeroed
        from dqdsim.constants import K_B_EV
        from dqdsim.device import NM3_PER_CM3, conduction_band_edge
        grid = build_grid(make_spec())
        mat = MaterialParams()
        # E_c - E_F from -60 to +40 meV across x: both F_1/2 branches
        u = np.tile(np.linspace(-0.06, 0.04, grid.nx), (grid.ny, 1))
        u -= np.where(grid.material == "Si", 0.0,
                      mat.conduction_band_offset_ev)[:, None]
        eta = (mat.fermi_level_ev - conduction_band_edge(grid, mat, u)) / (
            K_B_EV * t_k)
        expect = effective_dos_nm3(mat, t_k) * fermi_half(eta)
        expect[grid.quantum_mask] = 0.0
        expect[grid.depleted_mask] = 0.0
        expect /= NM3_PER_CM3
        assert (eta < -8.0).any() and (eta > -8.0).any()
        n = bulk_charge(u, grid, mat, t_k)
        assert n.max() > 0.0
        assert np.array_equal(n, expect)

    @pytest.mark.parametrize("fermi, order", [(fermi_half, 0.5),
                                              (fermi_minus_half, -0.5)])
    def test_deep_tail_equals_series(self, fermi, order):
        # below eta = -40 the integral is exp(eta); bit-identical to the
        # eight-term series (the branch below eta = -8), subnormal and
        # underflowing terms included
        eta = np.concatenate([np.linspace(-800.0, -8.0, 20001)[:-1],
                              [-40.0, np.nextafter(-40.0, 0.0),
                               np.nextafter(-8.0, -9.0), -745.2]])
        z = np.exp(eta)
        series = np.zeros_like(z)
        with np.errstate(under="ignore"):
            for k in range(1, 9):
                series += (-1) ** (k - 1) * z**k / k ** (order + 1.0)
        assert np.array_equal(fermi(eta), series)

    def test_fermi_half_against_quadrature(self):
        for eta in (-12.0, -3.0, 0.0, 5.0, 30.0):
            assert fermi_half(np.array([eta]))[0] == pytest.approx(
                fermi_integral_quadrature(eta, 0.5), rel=1e-8
            )


class TestConfigIO:
    def test_roundtrip(self, tmp_path):
        spec = make_spec()
        mat = MaterialParams(schottky_barrier_ev=0.44)
        biases = SHIPPED_BIASES
        path = tmp_path / "dev.cfg"
        path.write_text(device_config_text(
            spec, mat, biases, extra={"field_map": {"b0_tesla": "0.65"}}))
        spec2, mat2, biases2, extra = load_device_config(path)
        assert spec2 == spec
        assert mat2 == mat
        assert biases2 == biases
        assert extra["field_map"]["b0_tesla"] == "0.65"
