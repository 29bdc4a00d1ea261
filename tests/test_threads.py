"""Outputs do not depend on the host's BLAS thread count.

`import dqdsim` runs the OpenBLAS that numpy and scipy bundle on one thread
each; these tests check the setting in-process and the output bytes of
two processes started under different OPENBLAS_NUM_THREADS.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dqdsim  # noqa: F401  (the import sets the thread count)
import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

SRC = Path(__file__).resolve().parents[1] / "src"

THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                  "scipy_openblas_get_num_threads",
                  "openblas_get_num_threads64_", "openblas_get_num_threads")


def loaded_openblas():
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        pytest.skip("no /proc/self/maps to list the loaded libraries")


def test_every_loaded_openblas_runs_one_thread():
    counts = {}
    for path in loaded_openblas():
        lib = ctypes.CDLL(path)
        query = next((getattr(lib, name) for name in THREAD_QUERIES
                      if hasattr(lib, name)), None)
        if query is not None:
            query.argtypes, query.restype = [], ctypes.c_int
            counts[path] = query()
    assert counts
    assert set(counts.values()) == {1}, counts


def test_output_bytes_do_not_depend_on_the_thread_count(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("""
[experiment]
seed = 11
[device]
file = default
[noise-sweep]
protocol = cnot_multi
sigma_uev = 1e-3, 0.1, 5
n_samples = 20
[fluct-stats]
sigma_uev = 1e-3, 0.1, 5
n_samples = 20
""")
    script = ("import sys; from dqdsim.cli import main; "
              "sys.exit(main(['noise-sweep', '--config', sys.argv[1], "
              "'--out', sys.argv[2] + '/noise.csv']) "
              "or main(['fluct-stats', '--config', sys.argv[1], "
              "'--out', sys.argv[2] + '/fluct.csv']))")
    procs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [str(SRC)] + os.environ.get("PYTHONPATH", "").split(
                       os.pathsep))}
        procs[threads] = (out, subprocess.Popen(
            [sys.executable, "-c", script, str(cfg), str(out)], env=env,
            stderr=subprocess.PIPE, text=True))
    for out, proc in procs.values():
        _, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
    one, two = (procs[t][0] for t in ("1", "2"))
    for name in ("noise.csv", "fluct.csv", "noise.csv.json", "fluct.csv.json"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
