import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dqdsim import cli
from dqdsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    Experiment,
    NoisyTableFactory,
    _fidelity_samples,
    main,
    write_outputs,
)
from dqdsim.device import DeviceBiases
from dqdsim.dots import MagnetFieldMap, exchange_energy, zeeman_splittings
from dqdsim.dynamics import ry_matrix
from dqdsim.errors import ConfigurationError, GeometryError, NumericalError
from dqdsim.params import paper_table
from dqdsim.protocols import schedule_ry

from conftest import quartic_double_well, synthetic_solution

DIRECT_TABLE = ("400 18.309e9 18.453e9 75.6e3; "
                "408 18.312e9 18.448e9 19.3e6; "
                "410 18.312e9 18.448e9 69.5e6; "
                "412 18.312e9 18.448e9 266.1e6")


def write_cfg(path, body):
    path.write_text(body)
    return str(path)


class TestGateExperiment:
    def test_ry_gate_trajectory_and_fidelity(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[experiment]
seed = 7
[params]
table = {DIRECT_TABLE}
[gate]
protocol = ry_pi_left
sample_ns = 1.0
""")
        out = tmp_path / "gate.csv"
        rc = main(["gate", "--config", cfg, "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        fid = float([l for l in meta if "fidelity_percent" in l][0].split("=")[1])
        assert fid >= 99.9
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",")[:5] == ["t_ns", "p_uu", "p_ud", "p_du", "p_dd"]
        # sidecar carries the same rows
        sidecar = json.loads((tmp_path / "gate.csv.json").read_text())
        assert sidecar["columns"][0] == "t_ns"
        body = [l for l in lines if not l.startswith("#")][1:]
        assert len(sidecar["rows"]) == len(body)

    def test_deterministic_bodies(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[experiment]
seed = 3
[params]
table = {DIRECT_TABLE}
[gate]
protocol = cnot_single
sample_ns = 2.0
""")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["gate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
        assert main(["gate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
        body1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        body2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
        assert body1 == body2


class TestTransitionSweep:
    def test_direct_mode_runs_and_is_monotone_free(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[experiment]
seed = 5
[params]
table = {DIRECT_TABLE}
[transition-sweep]
tau_tr_ns = 1,3,5
v_m_strong_mv = 410
sigma_uev = 0
""")
        out = tmp_path / "tr.csv"
        assert main(["transition-sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        taus = [float(r[0]) for r in rows]
        fids = [float(r[1]) for r in rows]
        assert taus == [1.0, 3.0, 5.0]
        assert all(0.0 <= f <= 100.0 for f in fids)


class TestErrors:
    def test_missing_config_is_config_error(self, tmp_path):
        rc = main(["gate", "--config", str(tmp_path / "nope.cfg")])
        assert rc == EXIT_CONFIG

    def test_bad_protocol_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[params]
table = {DIRECT_TABLE}
[gate]
protocol = swap_everything
""")
        assert main(["gate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG

    def test_unreadable_config_is_config_error(self, tmp_path):
        with pytest.raises(ConfigurationError):
            Experiment(tmp_path)       # a directory
        assert main(["gate", "--config", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("body", [b"garbage\n", b"[gate]\x00\xff\n",
                                      b"[gate]\n[gate]\n"])
    def test_malformed_config_is_config_error(self, tmp_path, body):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(body)
        assert main(["gate", "--config", str(cfg)]) == EXIT_CONFIG

    def test_config_hash_is_of_the_file_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", "[experiment]\nseed = 4\n")
        exp = Experiment(cfg)
        assert exp.seed == 4
        assert exp.config_hash == hashlib.sha256(
            (tmp_path / "exp.cfg").read_bytes()).hexdigest()[:16]

    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["teleport", "--config", "x"])


class TestWriteOutputs:
    def _rewrite_fails(self, tmp_path, rows, error, arm=lambda: None):
        out = tmp_path / "r.csv"
        write_outputs(str(out), ["a", "b"], [(1.0, 2.0)], {"seed": 1})
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert set(before) == {"r.csv", "r.csv.json"}
        arm()
        with pytest.raises(error):
            write_outputs(str(out), ["a", "b"], rows, {"seed": 1})
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert after == before

    def test_unserializable_sidecar_keeps_previous_outputs(self, tmp_path):
        # the CSV renders any value; the JSON sidecar cannot
        self._rewrite_fails(tmp_path, [(3.0, object())], TypeError)

    def test_failed_sidecar_write_keeps_previous_outputs(self, tmp_path,
                                                         monkeypatch):
        sidecar = str(tmp_path / "r.csv.json")

        def open_failing_on_sidecar(path, *args, **kw):
            fh = open(path, *args, **kw)
            if str(path).startswith(sidecar):
                fh.close()
                raise OSError("no space left on device")
            return fh

        self._rewrite_fails(
            tmp_path, [(3.0, 4.0)], OSError,
            arm=lambda: monkeypatch.setattr(cli, "open",
                                            open_failing_on_sidecar,
                                            raising=False))


class TestResume:
    def test_resumed_rows_match_uninterrupted(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[experiment]
seed = 9
[params]
table = {DIRECT_TABLE}
[transition-sweep]
tau_tr_ns = 1,2,4
v_m_strong_mv = 410
sigma_uev = 0
""")
        full = tmp_path / "full.csv"
        assert main(["transition-sweep", "--config", cfg, "--out", str(full)]) == EXIT_OK
        # simulate an interrupted run: only the first row exists
        partial = tmp_path / "part.csv"
        lines = full.read_text().splitlines()
        head = [l for l in lines if l.startswith("#")]
        body = [l for l in lines if not l.startswith("#")]
        partial.write_text("\n".join(head + body[:2]) + "\n")
        assert main(["transition-sweep", "--config", cfg, "--out", str(partial),
                     "--resume"]) == EXIT_OK
        body_resumed = [l for l in partial.read_text().splitlines()
                        if not l.startswith("#")]
        assert body_resumed == body

    @pytest.mark.parametrize("flag, value", [("--seed", "10"),
                                             ("--integrator", "lab")])
    def test_refuses_rows_of_another_run(self, tmp_path, flag, value):
        body = f"""
[experiment]
seed = 9
[params]
table = {DIRECT_TABLE}
[transition-sweep]
tau_tr_ns = 1,2
v_m_strong_mv = 410
sigma_uev = 0
"""
        cfg = write_cfg(tmp_path / "exp.cfg", body)
        out = tmp_path / "tr.csv"
        assert main(["transition-sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        written = out.read_text()
        assert main(["transition-sweep", "--config", cfg, "--out", str(out),
                     "--resume", flag, value]) == EXIT_CONFIG
        other = write_cfg(tmp_path / "other.cfg", body.replace("1,2", "1,2,3"))
        assert main(["transition-sweep", "--config", other, "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        assert out.read_text() == written

    def test_refuses_rows_of_another_experiment(self, tmp_path):
        # one `out` for both sections: the gate's t_ns rows 1.0 and 2.0
        # would otherwise be taken as the sweep's tau rows
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[experiment]
seed = 9
out = {tmp_path / "shared.csv"}
[params]
table = {DIRECT_TABLE}
[gate]
protocol = ry_pi_left
sample_ns = 1.0
[transition-sweep]
tau_tr_ns = 1,2
v_m_strong_mv = 410
sigma_uev = 0
""")
        assert main(["gate", "--config", cfg]) == EXIT_OK
        written = (tmp_path / "shared.csv").read_text()
        assert main(["transition-sweep", "--config", cfg,
                     "--resume"]) == EXIT_CONFIG
        assert (tmp_path / "shared.csv").read_text() == written


class TestNoisyTableFactory:
    def test_clean_table_from_the_solutions(self, flat_well):
        spec, grid, mat = flat_well
        sol = synthetic_solution(grid, mat, quartic_double_well(grid, 12.0))
        fmap = MagnetFieldMap.from_gradient(0.65, 5e-5, -1.0, spec.width_nm + 1.0)
        exp = SimpleNamespace(
            device=lambda: (spec, mat, DeviceBiases(), grid, fmap, 60.0),
            solution_at=lambda v_m_mv: sol)
        table = NoisyTableFactory(exp, [408.0, 400.0]).clean_table()
        e_zl, e_zr = zeeman_splittings(sol, fmap, grid)
        j = exchange_energy(sol, grid, mat, 60.0)
        for v in (400.0, 408.0):
            p = table(v)
            assert (p.e_zl_hz, p.e_zr_hz, p.j_hz) == pytest.approx(
                (e_zl, e_zr, j), rel=1e-12)


class TestFidelitySampleFailures:
    class Factory:
        def __init__(self, failing, exc_cls=GeometryError):
            self.failing, self.exc_cls = failing, exc_cls
            self.table = paper_table()

        def table_for(self, cfg, i):
            if i in self.failing:
                raise self.exc_cls(f"sample {i}")
            return self.table

    def run(self, factory, n=100):
        exp = SimpleNamespace(seed=1, integrator="rwa")
        table = paper_table()
        schedule = schedule_ry("L", math.pi, table(400.0))
        return _fidelity_samples(exp, schedule, ry_matrix("L", math.pi),
                                 factory, 1.0, n)

    def test_counts_any_sample_error(self):
        mean, std, n = self.run(self.Factory({7}))
        assert n == 99
        assert mean >= 99.9

    def test_aborts_past_threshold(self):
        with pytest.raises(NumericalError) as info:
            self.run(self.Factory({7, 11}))
        assert info.value.diagnostics["failures"] == {"GeometryError": 2}

    def test_configuration_error_is_not_a_sample_failure(self):
        with pytest.raises(ConfigurationError):
            self.run(self.Factory({7}, ConfigurationError))
