"""The machine and build a result was measured on."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

_BLAS_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in _BLAS_THREAD_QUERIES:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(src):
    """sha256 over the package's source files, for checkouts without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_info(root, src) -> dict:
    import numpy as np
    import scipy

    from dqdsim import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = git_commit(root)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_backend": kernels.backend_name(),
        "git_commit": commit,
        "src_sha256": source_digest(src) if commit is None else None,
    }
