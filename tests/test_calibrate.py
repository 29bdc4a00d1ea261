from pathlib import Path

import pytest

from dqdsim.calibrate import main, secant
from dqdsim.cli import EXIT_CONFIG, default_device_path


def scripted(f):
    """f, recording the points it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestSecant:
    def test_start_within_tol_is_returned_after_one_call(self):
        f, calls = scripted(lambda x: 2.0 * x)
        assert secant(f, 1.0, 5.0, 2.05, 0.1, 0.0, 10.0, 5) == (1.0, 2.0)
        assert calls == [1.0]

    def test_linear_function_solved_in_one_step(self):
        f, calls = scripted(lambda x: 3.0 * x - 1.5)
        x, y = secant(f, 0.0, 1.0, 6.0, 1e-9, -10.0, 10.0, 5)
        assert x == pytest.approx(2.5, abs=1e-12)
        assert y == pytest.approx(6.0, abs=1e-9)
        assert len(calls) == 3

    def test_steps_clip_to_bounds(self):
        f, calls = scripted(lambda x: x)
        x, y = secant(f, 0.0, 1.0, 100.0, 1e-3, -2.0, 4.0, 5)
        assert (x, y) == (4.0, 4.0)
        assert max(calls) == 4.0


def shipped_text():
    return Path(default_device_path()).read_text()


@pytest.mark.parametrize("body", [
    None,
    "garbage\n",
    "[layers]\nlayer0 = Si\n",
    shipped_text().replace("width_nm = 480", "width_nm = wide"),
    shipped_text().replace("width_nm = 15.0000\n", ""),
    shipped_text().replace("[exchange]\ncoulomb_length_nm = 420.0\n", ""),
    shipped_text().replace("temperature_k = 1.5\n", ""),
    shipped_text().replace("mass_vertical = 0.916\n", ""),
    shipped_text().replace("drain_bias_v = 0.0001\n", ""),
    shipped_text().replace("layer1 = SiGe 63.5\n", "layer1 = SiGe 63.5 0.3\n"),
], ids=["no-file", "no-section-header", "no-layer-thickness",
        "non-numeric-width", "no-map-width", "no-coulomb-length",
        "no-temperature", "no-material-key", "no-bias-key",
        "third-layer-token"])
def test_bad_device_file_is_config_error(tmp_path, capsys, body):
    assert body != shipped_text()
    path = tmp_path / "device.cfg"
    if body is not None:
        path.write_text(body)
    assert main([str(path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error:")


@pytest.mark.slow
def test_shipped_device_is_a_fixed_point(capsys):
    assert main([]) == 0
    out, err = capsys.readouterr()
    assert out == shipped_text()
    assert err.count("[PASS]") == 4 and "[FAIL]" not in err
