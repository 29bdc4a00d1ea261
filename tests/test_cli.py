import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from dqdsim import __version__, cli, dots
from dqdsim.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    Experiment,
    main,
    write_outputs,
)
from dqdsim.device import device_config_text
from dqdsim.dots import StabilityDiagram
from dqdsim.errors import ConfigurationError
from dqdsim.noise import NoisyTableFactory

from conftest import exchange_of, tiny_model, zeeman_of

DIRECT_TABLE = ("400 18.309e9 18.453e9 75.6e3; "
                "408 18.312e9 18.448e9 19.3e6; "
                "410 18.312e9 18.448e9 69.5e6; "
                "412 18.312e9 18.448e9 266.1e6")


def write_cfg(path, body):
    path.write_text(body)
    return str(path)


def keep_rows(out, keep):
    """Keep only the rows of output `out` (CSV and JSON sidecar) whose
    index `keep(k)` accepts: an interrupted or edited earlier run."""
    lines = out.read_text().splitlines()
    head = [l for l in lines if l.startswith("#")]
    cols, *body = [l for l in lines if not l.startswith("#")]
    out.write_text("\n".join(head + [cols] + [r for k, r in enumerate(body)
                                             if keep(k)]) + "\n")
    sidecar = Path(f"{out}.json")
    data = json.loads(sidecar.read_text())
    data["rows"] = [r for k, r in enumerate(data["rows"]) if keep(k)]
    sidecar.write_text(json.dumps(data, indent=1, sort_keys=True))


def tiny_device_file(path):
    """`tiny_model` as a device file; it solves in milliseconds."""
    dev = tiny_model()
    path.write_text(device_config_text(dev.spec, dev.mat, dev.biases, {
        "field_map": {"profile": "linear", "b0_tesla": 0.65,
                      "gradient_tesla_per_nm": 5e-5},
        "exchange": {"coulomb_length_nm": dev.coulomb_length_nm}}))
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

    def test_direct_mode_header_states_no_noise(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[params]
table = {DIRECT_TABLE}
[transition-sweep]
tau_tr_ns = 1
""")
        out = tmp_path / "tr.csv"
        assert main(["transition-sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert "# sigma_uev = 0.0" in lines
        row = lines[lines.index("tau_tr_ns,fidelity_mean_percent,"
                                "fidelity_std_percent,n") + 1].split(",")
        assert (float(row[2]), int(row[3])) == (0.0, 1)

    def test_direct_mode_rejects_a_noise_level(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[params]
table = {DIRECT_TABLE}
[transition-sweep]
tau_tr_ns = 1
sigma_uev = 0.1
""")
        out = tmp_path / "tr.csv"
        assert main(["transition-sweep", "--config", cfg,
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not out.exists()


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

    def test_out_in_a_missing_directory_is_io_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[params]
table = {DIRECT_TABLE}
[gate]
protocol = ry_pi_left
""")
        out = tmp_path / "missing" / "gate.csv"
        assert main(["gate", "--config", cfg, "--out", str(out)]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.tmp"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_failed_sidecar_rename_keeps_the_csv(self, tmp_path, capsys):
        # the sidecar is renamed into place first, so when that fails the
        # CSV is still the earlier run's
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[params]
table = {DIRECT_TABLE}
[gate]
protocol = ry_pi_left
""")
        out = tmp_path / "out.csv"
        out.write_text("earlier\n")
        (tmp_path / "out.csv.json").mkdir()
        assert main(["gate", "--config", cfg, "--out", str(out)]) == EXIT_IO
        assert "i/o error" in capsys.readouterr().err
        assert out.read_text() == "earlier\n"
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("experiment, key, value", [
        ("gate", "sample_ns", "-0.5"),
        ("gate", "sample_ns", "0"),
        ("gate", "tau_tr_ns", "-1"),
        ("noise-sweep", "tau_tr_ns", "-1"),
        ("transition-sweep", "tau_tr_ns", "1,-2"),
    ])
    def test_negative_duration_is_config_error(self, tmp_path, capsys,
                                               experiment, key, value):
        # noise-sweep needs a device and a noise level; the others run in
        # direct mode
        source, extra = f"[params]\ntable = {DIRECT_TABLE}", ""
        if experiment == "noise-sweep":
            source = f"[device]\nfile = {tiny_device_file(tmp_path / 'd.cfg')}"
            extra = "sigma_uev = 1\nv_m_weak_mv = 340\nv_m_strong_mv = 350"
        cfg = write_cfg(tmp_path / "exp.cfg", f"""{source}
[{experiment}]
protocol = cnot_multi
{extra}
{key} = {value}
""")
        out = tmp_path / "o.csv"
        assert main([experiment, "--config", cfg,
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"{key} = '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_transition_time_is_the_sudden_limit(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[params]
table = {DIRECT_TABLE}
[gate]
protocol = cnot_multi
tau_tr_ns = 0
sample_ns = 10
""")
        out = tmp_path / "o.csv"
        assert main(["gate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        meta = json.loads((tmp_path / "o.csv.json").read_text())["meta"]
        assert float(meta["fidelity_percent"]) > 99.0

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

    @pytest.mark.parametrize("experiment, body", [
        ("transition-sweep", "[transition-sweep]\ntau_tr_ns = 1:5:0\n"),
        ("transition-sweep", "[transition-sweep]\ntau_tr_ns = abc\n"),
        ("gate", "[experiment]\nseed = 3\n"),
        ("gate", "[experiment]\nseed = x\n[gate]\nprotocol = cz\n"),
    ], ids=["zero-step-range", "non-numeric-range", "no-gate-section",
            "non-numeric-seed"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys,
                                             experiment, body):
        cfg = write_cfg(tmp_path / "exp.cfg",
                        f"[params]\ntable = {DIRECT_TABLE}\n{body}")
        assert main([experiment, "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("table", [
        "400 abc 1 2",
        "400 18.309e9 18.453e9 75.6e3; 408 18.312e9 18.448e9",
        "400 18.309e9 18.453e9",
        "400 18.309e9 18.453e9 75.6e3 1",
    ], ids=["non-numeric", "ragged", "three-columns", "five-columns"])
    def test_malformed_params_table_is_config_error(self, tmp_path, capsys,
                                                    table):
        cfg = write_cfg(tmp_path / "exp.cfg",
                        f"[params]\ntable = {table}\n"
                        "[gate]\nprotocol = ry_pi_left\n")
        assert main(["gate", "--config", cfg,
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("device", [
        "garbage\n",
        "[layers]\nlayer0 = Si\n",
        Path(cli.default_device_path()).read_text().replace(
            "profile = plateaus", "file = no-such-map.txt"),
        Path(cli.default_device_path()).read_text().replace(
            "coulomb_length_nm = 420.0", ""),
        re.sub(r"\[field_map\][^[]*", "",
               Path(cli.default_device_path()).read_text()),
        Path(cli.default_device_path()).read_text().replace(
            "profile = plateaus", "profile = plateau"),
    ], ids=["no-section-header", "no-layer-thickness", "no-field-map-file",
            "no-coulomb-length", "no-field-map", "unknown-profile"])
    def test_malformed_device_file_is_config_error(self, tmp_path, capsys,
                                                    device):
        (tmp_path / "device.cfg").write_text(device)
        cfg = write_cfg(tmp_path / "exp.cfg",
                        f"[device]\nfile = {tmp_path / 'device.cfg'}\n")
        assert main(["j-sweep", "--config", cfg]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error:")

    def test_config_hash_is_of_the_file_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", "[experiment]\nseed = 4\n")
        exp = Experiment(cfg)
        assert exp.seed == 4
        assert exp.config_hash == hashlib.sha256(
            (tmp_path / "exp.cfg").read_bytes()).hexdigest()[:16]

    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["teleport", "--config", "x"])


class TestDeviceBiasDefaults:
    """Without the experiment's own bias keys, the stability map and the
    fluctuation statistics run at the device file's biases."""

    @pytest.fixture
    def device_404(self, tmp_path):
        text = Path(cli.default_device_path()).read_text()
        assert "v_m = 0.4\n" in text
        (tmp_path / "device.cfg").write_text(
            text.replace("v_m = 0.4\n", "v_m = 0.404\n"))
        return tmp_path / "device.cfg"

    def test_stability_map(self, tmp_path, monkeypatch, device_404):
        asked = []

        def fake(device, v_l, v_r, v_m, v_b):
            asked.append((v_m, v_b))
            occ = np.ones((len(v_r), len(v_l)), dtype=int)
            return StabilityDiagram(v_l, v_r, occ, occ)

        monkeypatch.setattr(cli, "charge_stability", fake)
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[device]
file = {device_404}
[stability]
v_l_mv = 540
v_r_mv = 570
""")
        assert main(["stability", "--config", cfg,
                     "--out", str(tmp_path / "s.csv")]) == EXIT_OK
        assert asked == [(404.0, 200.0)]

    def test_fluctuation_stats(self, tmp_path, monkeypatch, device_404):
        asked = []
        monkeypatch.setattr(dots.Device, "solution_at",
                            lambda dev, v_m: asked.append(v_m))
        monkeypatch.setattr(cli, "fluctuation_stats",
                            lambda dev, sol, cfgs: [])
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[device]
file = {device_404}
[fluct-stats]
sigma_uev = 1
n_samples = 2
""")
        out = tmp_path / "f.csv"
        assert main(["fluct-stats", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
        assert asked == [404.0]
        assert "# v_m_mv = 404.0" in out.read_text().splitlines()


class TestWriteOutputs:
    def test_sidecar_writes_numpy_scalars_as_numbers(self, tmp_path):
        row = (np.float64(0.1), np.float32(0.5), np.int64(3), float("nan"),
               np.float64("nan"), "E_ZL")
        write_outputs(str(tmp_path / "r.csv"), list("abcdef"), [row],
                      {"seed": 1})
        want = json.dumps({"meta": {"seed": 1}, "columns": list("abcdef"),
                           "rows": [[0.1, 0.5, 3, float("nan"),
                                     float("nan"), "E_ZL"]]},
                          indent=1, sort_keys=True)
        assert (tmp_path / "r.csv.json").read_text() == want

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
        body = [l for l in full.read_text().splitlines()
                if not l.startswith("#")]
        # simulate an interrupted run: only the first row exists, in both
        # files
        partial = tmp_path / "part.csv"
        partial.write_text(full.read_text())
        Path(f"{partial}.json").write_text(Path(f"{full}.json").read_text())
        keep_rows(partial, lambda k: k < 1)
        assert main(["transition-sweep", "--config", cfg, "--out", str(partial),
                     "--resume"]) == EXIT_OK
        body_resumed = [l for l in partial.read_text().splitlines()
                        if not l.startswith("#")]
        assert body_resumed == body
        assert (Path(f"{partial}.json").read_text()
                == Path(f"{full}.json").read_text())

    def test_resume_recomputes_a_deleted_noise_row_exactly(self, tmp_path):
        # the row is computed again in a run of one sigma, where the full
        # run stacked its samples with those of every sigma
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[experiment]
seed = 5
[device]
file = {tiny_device_file(tmp_path / "device.cfg")}
[noise-sweep]
protocol = cz
sigma_uev = 0.1,1,5
n_samples = 3
v_m_weak_mv = 340
v_m_strong_mv = 350
tau_tr_ns = 0.1
""")
        out = tmp_path / "noise.csv"
        sidecar = tmp_path / "noise.csv.json"
        assert main(["noise-sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        full, full_json = out.read_text(), sidecar.read_text()
        full_rows = json.loads(full_json)["rows"]
        lines = full.splitlines()
        assert lines[-2].startswith("1,")
        keep_rows(out, lambda k: k != 1)
        assert main(["noise-sweep", "--config", cfg, "--out", str(out),
                     "--resume"]) == EXIT_OK
        assert out.read_text() == full
        assert sidecar.read_text() == full_json
        rows = json.loads(sidecar.read_text())["rows"]
        assert rows[1] == full_rows[1]

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

    def test_refuses_rows_of_another_version(self, tmp_path):
        cfg = write_cfg(tmp_path / "exp.cfg", f"""
[experiment]
seed = 9
[params]
table = {DIRECT_TABLE}
[transition-sweep]
tau_tr_ns = 1,2
v_m_strong_mv = 410
sigma_uev = 0
""")
        out = tmp_path / "tr.csv"
        sidecar = tmp_path / "tr.csv.json"
        assert main(["transition-sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        older = out.read_text().replace(f"# version = {__version__}\n",
                                        "# version = 0.0.1\n")
        assert older != out.read_text()
        out.write_text(older)
        older_json = sidecar.read_text().replace(
            f'"version": "{__version__}"', '"version": "0.0.1"')
        assert older_json != sidecar.read_text()
        sidecar.write_text(older_json)
        assert main(["transition-sweep", "--config", cfg, "--out", str(out),
                     "--resume"]) == EXIT_CONFIG
        assert out.read_text() == older
        assert sidecar.read_text() == older_json

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
    def test_clean_table_from_the_solutions(self):
        dev = tiny_model()
        sols = {v: dev.solution_at(v) for v in (350.0, 340.0)}
        factory = NoisyTableFactory(dev, (350.0, 340.0))
        assert all(factory.solutions[v] is sol for v, sol in sols.items())
        table = factory.clean_table()
        for v, sol in sols.items():
            e_zl, e_zr = zeeman_of(sol, dev.field_map, dev.grid)
            j = exchange_of(sol, dev.grid, dev.mat, 420.0)
            (p,) = dev.spin_params([sol])
            assert (p.e_zl_hz, p.e_zr_hz, p.j_hz) == (e_zl, e_zr, j)
            assert p.v_m_mv == sol.biases.v_m * 1e3
            q = table(v)
            assert (q.e_zl_hz, q.e_zr_hz, q.j_hz) == pytest.approx(
                (e_zl, e_zr, j), rel=1e-12)
