import logging
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import dqdsim.noise as noise_mod
from dqdsim.device import DeviceSpec, Layer, build_grid
from dqdsim.dots import (
    Device,
    MagnetFieldMap,
    coulomb_integrals,
    coulomb_kernel,
)
from dqdsim.dynamics import CNOT_DOWN, CNOT_UP, ry_matrix
from dqdsim.errors import ConfigurationError, GeometryError, NumericalError
from dqdsim.noise import (
    NoiseConfig,
    NoiseField,
    NoisyTableFactory,
    fidelity_samples,
    fluctuation_stats,
    perturbed_spin_params,
    sample_noise,
    standard_normal_field,
)
from dqdsim.params import ParamsTable, SpinParams, paper_table
from dqdsim.protocols import (cnot_multi_schedule, cnot_single_schedule,
                              schedule_ry)
from dqdsim.schrodinger import solve_eigenstates

from conftest import (SHIPPED_BIASES, exchange_of, quartic_double_well,
                      synthetic_solution, zeeman_of)
from oracles import dense_coulomb_kernel, dense_two_body_integral


@pytest.fixture(scope="module")
def well_solution(flat_well):
    spec, grid, mat = flat_well
    u = quartic_double_well(grid, 14.0)
    return synthetic_solution(grid, mat, u)


@pytest.fixture(scope="module")
def field_map(flat_well):
    spec, grid, mat = flat_well
    return MagnetFieldMap.from_gradient(0.65, 5e-5, -1.0, spec.width_nm + 1.0)


@pytest.fixture(scope="module")
def flat_device(flat_well, field_map):
    spec, grid, mat = flat_well
    return Device(spec, mat, SHIPPED_BIASES, grid, field_map, 60.0)


class TestSampleNoise:
    def test_zero_sigma_gives_zero_field(self, flat_well):
        _, grid, _ = flat_well
        cfg = NoiseConfig(sigma_uev=0.0, seed=42, n_samples=1)
        field = sample_noise(grid, cfg, 1)
        assert field.values_ev.max() == 0.0
        assert field.values_ev.min() == 0.0

    def test_empirical_std_within_chi2_bound(self):
        from dqdsim.device import DeviceSpec, Layer, build_grid
        layers = (Layer("SiGe", 20.0), Layer("Si", 8.0), Layer("SiGe", 22.0))
        spec = DeviceSpec(layers=layers, electrodes=(), width_nm=250.0,
                          dx_nm=1.0, dy_nm=1.0, temperature_k=1.5)
        grid = build_grid(spec)
        cfg = NoiseConfig(sigma_uev=5.0, seed=7, n_samples=1)
        field = sample_noise(grid, cfg, 1)
        n = field.values_ev.size
        assert n >= 10_000
        s = field.values_ev.std(ddof=1) / 1e-6  # ueV
        # 99% two-sided chi-square bound on the sample std is well inside 3%
        assert abs(s - 5.0) / 5.0 < 0.03
        assert abs(field.values_ev.mean() / 1e-6) < 5.0 * 3.0 / np.sqrt(n)

    def test_same_key_reproduces_bitwise(self, flat_well):
        _, grid, _ = flat_well
        cfg = NoiseConfig(sigma_uev=1.3, seed=99, n_samples=4)
        f1 = sample_noise(grid, cfg, 3)
        f2 = sample_noise(grid, cfg, 3)
        assert np.array_equal(f1.values_ev, f2.values_ev)

    def test_samples_and_seeds_independent(self, flat_well):
        _, grid, _ = flat_well
        a = standard_normal_field(grid, 1, 1)
        b = standard_normal_field(grid, 1, 2)
        c = standard_normal_field(grid, 2, 1)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # scale-invariance: sigma enters as a pure factor (common random numbers)
        cfg1 = NoiseConfig(sigma_uev=1.0, seed=1, n_samples=1)
        cfg5 = NoiseConfig(sigma_uev=5.0, seed=1, n_samples=1)
        f1 = sample_noise(grid, cfg1, 1).values_ev
        f5 = sample_noise(grid, cfg5, 1).values_ev
        assert np.allclose(5.0 * f1, f5, rtol=0, atol=1e-18)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            NoiseConfig(sigma_uev=-1.0, seed=0, n_samples=1)


class TestPerturbedSpinParams:
    def test_zero_noise_identical_params(self, flat_well, flat_device,
                                         well_solution, field_map):
        _, grid, mat = flat_well
        cfg = NoiseConfig(sigma_uev=0.0, seed=5, n_samples=1)
        noise = sample_noise(grid, cfg, 1)
        (p,) = perturbed_spin_params(flat_device, well_solution, [noise])
        e_zl, e_zr = zeeman_of(well_solution, field_map, grid)
        j = exchange_of(well_solution, grid, mat, 60.0)
        assert p.e_zl_hz == pytest.approx(e_zl, rel=1e-12)
        assert p.e_zr_hz == pytest.approx(e_zr, rel=1e-12)
        assert p.j_hz == pytest.approx(j, rel=1e-9)

    def test_ez_robust_j_sensitive(self, flat_well, flat_device,
                                   well_solution, field_map):
        _, grid, mat = flat_well
        cfg = NoiseConfig(sigma_uev=5.0, seed=11, n_samples=1)
        e_zl0, e_zr0 = zeeman_of(well_solution, field_map, grid)
        j0 = exchange_of(well_solution, grid, mat, 60.0)
        rel_ez, rel_j = [], []
        for p in perturbed_spin_params(
                flat_device, well_solution,
                [sample_noise(grid, cfg, i) for i in range(1, 9)]):
            rel_ez.append(abs(p.e_zl_hz - e_zl0) / e_zl0)
            rel_j.append(abs(p.j_hz - j0) / j0)
        # relative J fluctuation exceeds relative E_Z fluctuation by far
        assert np.mean(rel_j) > 1e3 * np.mean(rel_ez)

    def test_linear_response_regime(self, flat_well, flat_device,
                                    well_solution):
        # for sigma <= 0.1 ueV, std(J) tracks the first-order sensitivity
        _, grid, mat = flat_well
        j0 = exchange_of(well_solution, grid, mat, 60.0)

        def j_std(sigma, n=14):
            cfg = NoiseConfig(sigma_uev=sigma, seed=3, n_samples=n)
            vals = [p.j_hz for p in perturbed_spin_params(
                flat_device, well_solution,
                [sample_noise(grid, cfg, i) for i in range(1, n + 1)])]
            return np.std(np.array(vals) - j0, ddof=1)

        s1 = j_std(0.05)
        s2 = j_std(0.1)
        # common random numbers: the ratio isolates the scaling exponent
        assert s2 / s1 == pytest.approx(2.0, rel=0.2)

    def test_stack_equals_members_alone(self, flat_device, well_solution):
        # the eigensolve runs per sample, the spin map once over the stack
        fields = [sample_noise(flat_device.grid, NoiseConfig(5.0, 2, 4), i)
                  for i in range(1, 5)]
        alone = [perturbed_spin_params(flat_device, well_solution, [f])[0]
                 for f in fields]
        assert perturbed_spin_params(flat_device, well_solution,
                                     fields) == alone
        assert flat_device.spin_params([well_solution] * 2) == (
            flat_device.spin_params([well_solution]) * 2)

    def test_failed_member_of_a_stack_keeps_its_error(self, flat_device,
                                                      well_solution):
        fields = [sample_noise(flat_device.grid, NoiseConfig(5.0, 2, 3), i)
                  for i in range(1, 4)]
        fields[1] = NoiseField(fields[1].values_ev[:-1], 2)
        got = perturbed_spin_params(flat_device, well_solution, fields)
        assert isinstance(got[1], ConfigurationError)
        assert [got[0], got[2]] == [
            perturbed_spin_params(flat_device, well_solution, [fields[k]])[0]
            for k in (0, 2)]

    def test_shape_mismatch_rejected(self, flat_well, flat_device,
                                     well_solution):
        _, grid, mat = flat_well
        bad = sample_noise(grid, NoiseConfig(1.0, 1, 1), 1)
        bad.values_ev = bad.values_ev[:-1]
        (got,) = perturbed_spin_params(flat_device, well_solution, [bad])
        assert isinstance(got, ConfigurationError)


def arpack_spin_params(device, solution, noise):
    """Spin parameters of the perturbed potential from a cold
    `solve_eigenstates` solve."""
    grid, mat = device.grid, device.mat
    u = solution.potential_ev + noise.values_ev
    spectrum = solve_eigenstates(u, grid, mat, solution.spectrum.n_states)
    sol = replace(solution, potential_ev=u, spectrum=spectrum)
    e_zl, e_zr = zeeman_of(sol, device.field_map, grid)
    return SpinParams(e_zl_hz=float(e_zl), e_zr_hz=float(e_zr),
                      j_hz=exchange_of(sol, grid, mat,
                                       device.coulomb_length_nm),
                      v_m_mv=solution.biases.v_m * 1e3)


def fallbacks(caplog):
    return [r for r in caplog.records
            if r.name == "dqdsim" and "fell back" in r.getMessage()]


class TestBlockIterationFallback:
    @pytest.mark.parametrize("setting, value, reason", [
        ("MAX_BLOCK_ITERATIONS", 1, "after 1 iterations"),
        ("SHIFT_BELOW_GROUND_EV", -1e-2, "not positive definite"),
    ])
    def test_forced_fallback_equals_cold_solve(self, flat_device,
                                               well_solution, monkeypatch,
                                               caplog, setting, value, reason):
        monkeypatch.setattr(noise_mod, setting, value)
        noise = sample_noise(flat_device.grid, NoiseConfig(5.0, 4, 1), 1)
        with caplog.at_level(logging.DEBUG, logger="dqdsim"):
            (p,) = perturbed_spin_params(flat_device, well_solution, [noise])
        records = fallbacks(caplog)
        assert len(records) == 1
        assert records[0].levelno == logging.DEBUG
        assert reason in records[0].getMessage()
        assert p == arpack_spin_params(flat_device, well_solution, noise)


@pytest.mark.slow
class TestWeylShift:
    @pytest.mark.parametrize("v_m", [400.0, 408.0])
    def test_uniform_field_needs_no_fallback(self, shipped_device, caplog,
                                             v_m):
        # every level moves down by 0.5 meV; the shift follows the noise
        # field's minimum, so H - s stays positive definite, and a uniform
        # shift leaves E_Z and J as they were
        sol = shipped_device.solution_at(v_m)
        noise = NoiseField(np.full(sol.potential_ev.shape, -5e-4), 1)
        with caplog.at_level(logging.DEBUG, logger="dqdsim"):
            (p,) = perturbed_spin_params(shipped_device, sol, [noise])
        assert fallbacks(caplog) == []
        (clean,) = shipped_device.spin_params([sol])
        for got, want in ((p.e_zl_hz, clean.e_zl_hz),
                          (p.e_zr_hz, clean.e_zr_hz), (p.j_hz, clean.j_hz)):
            assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("v_m", [400.0, 408.0])
    def test_block_iterations_per_sample(self, shipped_device, monkeypatch,
                                         caplog, v_m):
        # one banded solve per block iteration
        calls = []
        solve = noise_mod.cho_solve_banded

        def counting(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(noise_mod, "cho_solve_banded", counting)
        sol = shipped_device.solution_at(v_m)
        cfg = NoiseConfig(sigma_uev=5.0, seed=17, n_samples=4)
        with caplog.at_level(logging.DEBUG, logger="dqdsim"):
            for i in range(1, cfg.n_samples + 1):
                calls.clear()
                perturbed_spin_params(
                    shipped_device, sol,
                    [sample_noise(shipped_device.grid, cfg, i)])
                assert 1 <= len(calls) <= 4
        assert fallbacks(caplog) == []


@pytest.mark.slow
class TestBlockIterationOracle:
    @pytest.mark.parametrize("v_m", [0.400, 0.408])
    @pytest.mark.parametrize("sigma", [0.1, 5.0])
    def test_matches_arpack_on_shipped_device(self, shipped_device, caplog,
                                              v_m, sigma):
        dev = shipped_device
        sol = dev.solution_at(v_m * 1e3)
        cfg = NoiseConfig(sigma_uev=sigma, seed=17, n_samples=4)
        with caplog.at_level(logging.DEBUG, logger="dqdsim"):
            for i in range(1, cfg.n_samples + 1):
                noise = sample_noise(dev.grid, cfg, i)
                (p,) = perturbed_spin_params(dev, sol, [noise])
                ref = arpack_spin_params(dev, sol, noise)
                assert abs(p.e_zl_hz - ref.e_zl_hz) <= 10.0
                assert abs(p.e_zr_hz - ref.e_zr_hz) <= 10.0
                assert abs(p.j_hz - ref.j_hz) <= 1e-6 * ref.j_hz
        assert fallbacks(caplog) == []


class TestCoulombIntegrals:
    @pytest.mark.parametrize("dx, dy", [(1.0, 1.0), (2.0, 1.0)])
    def test_fft_matches_dense_kernel(self, dx, dy):
        from dqdsim.device import DeviceSpec, Layer, MaterialParams
        layers = (Layer("SiGe", 10.0), Layer("Si", 8.0), Layer("SiGe", 10.0))
        grid = build_grid(DeviceSpec(layers=layers, electrodes=(),
                                     width_nm=240.0 * dx, dx_nm=dx, dy_nm=dy,
                                     temperature_k=1.5))
        mat = MaterialParams()
        dense = dense_coulomb_kernel(grid, mat, 420.0)
        fft = coulomb_kernel(grid, mat, 420.0)
        shape = (8, 240)
        rng = np.random.default_rng(3)
        x = np.arange(240)[None, :]
        blob_l = np.exp(-((x - 60) / 12.0) ** 2) * np.ones((8, 1))
        blob_r = np.exp(-((x - 170) / 15.0) ** 2) * np.ones((8, 1))
        fields = [rng.random(shape), rng.random(shape), blob_l, blob_r]
        # every pair from one call, and the exchange pair (left and right
        # densities) alone
        got = coulomb_integrals(fft, fields, grid)
        pair = coulomb_integrals(fft, fields[2:], grid)
        for a, f1 in enumerate(fields):
            for b, f2 in enumerate(fields):
                want = dense_two_body_integral(dense, f1, f2, grid)
                assert abs(got[a, b] - want) <= 1e-12 * abs(want)
                if a >= 2 and b >= 2:
                    assert abs(pair[a - 2, b - 2] - want) <= 1e-12 * abs(want)


def failing_at(indices, exc_cls=GeometryError):
    """A `perturbed_spin_params` stand-in for a stack of fields: the
    samples at `indices` fail with `exc_cls`."""
    def fake(device, solution, fields):
        out = []
        for noise in fields:
            k = noise.sample_index
            out.append(exc_cls(f"sample {k}") if k in indices else
                       SpinParams(e_zl_hz=1e9 + k, e_zr_hz=2e9 + k,
                                  j_hz=1e6 + k, v_m_mv=400.0))
        return out
    return fake


class FakeFactory:
    """A `NoisyTableFactory` stand-in: sample i's table is `paper_table`
    with J scaled by 1 + i/100; `table_for` fails the samples in
    `failing`, and the table raises at V_M > 404 mV for samples in
    `failing_strong`. `calls` counts the tables asked for, one per
    sample."""

    def __init__(self, failing=(), exc_cls=GeometryError, failing_strong=()):
        self.failing, self.exc_cls = failing, exc_cls
        self.failing_strong = failing_strong
        self.calls = 0
        # the Monte Carlo loop draws its fields on the device's grid
        self.device = SimpleNamespace(grid=build_grid(
            DeviceSpec(layers=(Layer("Si", 2.0),), electrodes=(),
                       width_nm=4.0, dx_nm=1.0, dy_nm=1.0,
                       temperature_k=1.5)))

    def table_for(self, fields):
        return [self._table(noise.sample_index) for noise in fields]

    def _table(self, i):
        self.calls += 1
        if i in self.failing:
            return self.exc_cls(f"sample {i}")
        t = paper_table()
        table = ParamsTable(t.v_m_mv, t.e_zl_hz, t.e_zr_hz,
                            t.j_hz * (1.0 + i / 100.0))
        if i not in self.failing_strong:
            return table

        def strong_fails(v_m_mv):
            if v_m_mv > 404.0:
                raise GeometryError(f"sample {i} at {v_m_mv} mV")
            return table(v_m_mv)
        return strong_fails


RY_L = (schedule_ry("L", math.pi, paper_table()(400.0)),
        ry_matrix("L", math.pi))
CNOT = (cnot_single_schedule(paper_table()(408.0)), CNOT_UP)


class FluctEntry:
    """`fluctuation_stats` on stand-in spin parameters."""

    def __init__(self, device, solution, monkeypatch):
        self.device, self.solution = device, solution
        self.monkeypatch = monkeypatch

    def run(self, failing, exc_cls=GeometryError, n=100):
        """(n_ok, failures by class, result) of one run."""
        self.monkeypatch.setattr(noise_mod, "perturbed_spin_params",
                                 failing_at(failing, exc_cls))
        [st] = fluctuation_stats(self.device, self.solution,
                                 [NoiseConfig(sigma_uev=1.0, seed=1,
                                              n_samples=n)])
        return len(st.samples), st.failures, st

    @staticmethod
    def check_survivors(st):
        """After sample 3 of 100 failed."""
        assert st.samples.shape == (99, 3)
        assert st.stats["J"]["min"] == 1e6 + 1


class FidelityEntry:
    """`fidelity_samples` of RY(pi) on a stand-in factory."""

    def run(self, failing, exc_cls=GeometryError, n=100):
        cfg = NoiseConfig(sigma_uev=1.0, seed=1, n_samples=n)
        [((stats,), failures)] = fidelity_samples(
            FakeFactory(failing, exc_cls), [cfg], [RY_L], "rwa")
        return stats[2], failures, stats

    @staticmethod
    def check_survivors(stats):
        mean, std, n = stats
        assert n == 99
        assert mean >= 99.9


class TestSampleFailures:
    """The one per-sample failure rule, through both entry points of the
    one Monte Carlo loop."""

    @pytest.fixture(params=["fluctuation_stats", "fidelity_samples"])
    def entry(self, request, flat_device, well_solution, monkeypatch):
        if request.param == "fluctuation_stats":
            return FluctEntry(flat_device, well_solution, monkeypatch)
        return FidelityEntry()

    def test_counts_any_sample_error(self, entry):
        n_ok, failures, result = entry.run({3})
        assert n_ok == 99
        assert failures == {"GeometryError": 1}
        entry.check_survivors(result)

    def test_aborts_past_threshold(self, entry):
        with pytest.raises(NumericalError) as info:
            entry.run({3, 8})
        assert info.value.diagnostics["failures"] == {"GeometryError": 2}

    def test_configuration_error_is_not_a_sample_failure(self, entry):
        with pytest.raises(ConfigurationError):
            entry.run({5}, ConfigurationError)

    def test_no_surviving_sample_is_a_numerical_error(self):
        # one failure is always tolerated, so n = 1 can lose every sample
        cfg = NoiseConfig(sigma_uev=1.0, seed=1, n_samples=1)
        with pytest.raises(NumericalError) as info:
            fidelity_samples(FakeFactory({1}), [cfg], [RY_L], "rwa")
        assert info.value.diagnostics["failures"] == {"GeometryError": 1}

    def test_two_gates_equal_two_one_gate_calls(self):
        cfg = NoiseConfig(sigma_uev=1.0, seed=1, n_samples=5)
        factory = FakeFactory({2})
        [(both, failures)] = fidelity_samples(factory, [cfg], [RY_L, CNOT],
                                              "rwa")
        assert factory.calls == 5
        alone = [fidelity_samples(FakeFactory({2}), [cfg], [gate], "rwa")[0]
                 for gate in (RY_L, CNOT)]
        assert both == [stats for (stats,), _ in alone]
        assert all(f == failures == {"GeometryError": 1} for _, f in alone)
        assert both[1][1] > 0.0        # the samples' tables differ

    def test_unit_draws_once_per_sample_index(self, monkeypatch):
        # three sigmas over several stacks: each index is drawn once
        drawn = []
        draw = noise_mod.standard_normal_field

        def counting(grid, seed, sample_index):
            drawn.append(sample_index)
            return draw(grid, seed, sample_index)

        monkeypatch.setattr(noise_mod, "standard_normal_field", counting)
        n = noise_mod.MC_STACK_SAMPLES
        cfgs = [NoiseConfig(sigma_uev=sg, seed=1, n_samples=n)
                for sg in (0.1, 1.0, 5.0)]
        results = fidelity_samples(FakeFactory(), cfgs, [RY_L], "rwa")
        assert sorted(drawn) == list(range(1, n + 1))
        assert [stats[0][2] for stats, _ in results] == [n] * 3

    def test_run_configs_share_seed_and_samples(self):
        cfgs = [NoiseConfig(1.0, 1, 5), NoiseConfig(2.0, 2, 5)]
        with pytest.raises(ConfigurationError):
            fidelity_samples(FakeFactory(), cfgs, [RY_L], "rwa")

    def test_second_gate_failure_drops_the_sample_for_both(self):
        cfg = NoiseConfig(sigma_uev=1.0, seed=1, n_samples=5)
        [((ry, cnot), failures)] = fidelity_samples(
            FakeFactory(failing_strong={4}), [cfg], [RY_L, CNOT], "rwa")
        assert failures == {"GeometryError": 1}
        assert ry[2] == cnot[2] == 4
        [((ry_without_4,), _)] = fidelity_samples(FakeFactory({4}), [cfg],
                                                  [RY_L], "rwa")
        assert ry == ry_without_4


@pytest.mark.slow
def test_two_sigma_run_equals_two_one_sigma_runs(shipped_device):
    # each sigma's samples share their stacks with the other sigma's in
    # the joint run; every statistic is still the one-sigma run's, bit
    # for bit, and both runs draw each sample once
    factory = NoisyTableFactory(shipped_device, (400.0, 408.0))
    table = factory.clean_table()
    gates = [(cnot_multi_schedule(table(400.0), table(408.0), 5.0),
              CNOT_DOWN)]
    cfgs = [NoiseConfig(sigma_uev=sg, seed=23, n_samples=3)
            for sg in (0.1, 5.0)]
    both = fidelity_samples(factory, cfgs, gates, "rwa")
    assert both == [fidelity_samples(factory, [cfg], gates, "rwa")[0]
                    for cfg in cfgs]
    assert both[1][0][0][1] > 0.0
