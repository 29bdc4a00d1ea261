import numpy as np
import pytest

from dqdsim.cli import default_device_path
from dqdsim.device import (
    DeviceBiases,
    DeviceSpec,
    Electrode,
    Layer,
    MaterialParams,
    build_grid,
)
from dqdsim.dots import (Device, MagnetFieldMap, exchange_energy, load_device,
                         localized_pair, zeeman_splittings)
from dqdsim.params import SpinParams, paper_table
from dqdsim.schrodinger import ConvergedSolution, solve_eigenstates, subband_line_density


# the shipped device file's biases
SHIPPED_BIASES = DeviceBiases(v_b=0.2, v_l=0.54, v_m=0.4, v_r=0.57,
                              drain_bias_v=1e-4)


@pytest.fixture(scope="session")
def flat_well():
    """Bare quantum-well stack with no electrodes (for synthetic potentials)."""
    layers = (Layer("SiGe", 10.0), Layer("Si", 8.0), Layer("SiGe", 10.0))
    spec = DeviceSpec(layers=layers, electrodes=(), width_nm=240.0,
                      dx_nm=1.0, dy_nm=1.0, temperature_k=1.5)
    return spec, build_grid(spec), MaterialParams()


def tiny_device():
    """A small five-gate stack: (spec, materials)."""
    layers = (Layer("Si", 2.0), Layer("SiGe", 20.0), Layer("Si", 8.0),
              Layer("SiGe", 14.0))
    spec = DeviceSpec(
        layers=layers,
        electrodes=(Electrode("B1", (10, 40)), Electrode("L", (55, 85)),
                    Electrode("M", (100, 130)), Electrode("R", (145, 175)),
                    Electrode("B2", (190, 220))),
        width_nm=230.0, dx_nm=2.0, dy_nm=1.0, temperature_k=1.5,
    )
    return spec, MaterialParams(schottky_barrier_ev=0.42)


def tiny_model():
    """`tiny_device` as a `Device` at the biases the SCF tests use, with a
    linear field map and the shipped file's 420 nm Coulomb length; it
    solves in milliseconds."""
    spec, mat = tiny_device()
    fmap = MagnetFieldMap.from_gradient(0.65, 5e-5, -1.0, spec.width_nm + 1.0)
    biases = DeviceBiases(v_b=0.2, v_l=0.45, v_m=0.35, v_r=0.45,
                          drain_bias_v=1e-4)
    return Device(spec, mat, biases, build_grid(spec), fmap, 420.0)


@pytest.fixture(scope="session")
def shipped_device():
    """The shipped device, loaded once per session: its operating points are
    memoized on its grid, so each is solved cold once for every test."""
    return load_device(default_device_path())


def quartic_double_well(grid, barrier_mev, a_nm=40.0, tilt_uev=0.0):
    """Analytic double-well potential over the full grid (eV)."""
    xc = grid.spec.width_nm / 2.0
    q = ((grid.x - xc) ** 2 - a_nm**2) ** 2 / a_nm**4
    u = (barrier_mev * 1e-3) * np.tile(q, (grid.ny, 1))
    u += (tilt_uev * 1e-6) * np.tile((grid.x - xc) / a_nm, (grid.ny, 1))
    return u


def synthetic_solution(grid, mat, potential, n_states=4, temperature_k=1.5):
    spectrum = solve_eigenstates(potential, grid, mat, n_states)
    occ = subband_line_density(spectrum.energies_ev, mat.fermi_level_ev,
                               temperature_k, mat)
    return ConvergedSolution(
        potential_ev=potential, charge_cm3=np.zeros_like(potential),
        spectrum=spectrum, biases=SHIPPED_BIASES, iterations=1,
        final_update_norm_ev=0.0, occupancies_per_nm=occ,
    )


def zeeman_of(solution, field_map, grid):
    """`zeeman_splittings` of `solution` as a stack of one: (E_ZL, E_ZR)."""
    (e_zl,), (e_zr,) = zeeman_splittings(localized_pair([solution], grid),
                                         field_map, grid)
    return e_zl, e_zr


def exchange_of(solution, grid, mat, coulomb_length_nm):
    """`exchange_energy` of `solution` as a stack of one: J in Hz, or the
    ModelValidityError in its place."""
    (j,) = exchange_energy(localized_pair([solution], grid), grid, mat,
                           coulomb_length_nm)
    return j


@pytest.fixture(scope="session")
def table():
    return paper_table()


@pytest.fixture(scope="session")
def p400(table):
    return table(400.0)


@pytest.fixture(scope="session")
def p408(table):
    return table(408.0)
