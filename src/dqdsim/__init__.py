"""Electrode-controlled Si/SiGe double-quantum-dot spin-qubit simulator.

Subpackages by concern:
  device        geometry, materials, Poisson electrostatics
  schrodinger   effective-mass eigenstates and the self-consistent loop
  dots          dot finding, Zeeman splittings, exchange coupling, stability
  noise         quasi-static charge-noise sampling and statistics
  dynamics      two-spin Hamiltonian, propagators, gate fidelity
  protocols     pulse-schedule compilation (RY, virtual Z, U, CZ, CNOT)
  cli           the dqd-sim experiment runner

Importing the package runs the OpenBLAS that numpy and scipy bundle on one
thread each, so that results do not depend on the host's thread count.
"""

__version__ = "0.2.0"


def _pin_openblas() -> None:
    """Set the bundled OpenBLAS libraries of numpy and scipy to one thread.

    OpenBLAS splits a dot product longer than 10,000 elements across its
    threads, so the round-off of such a sum (the first Anderson step of
    the SCF loop takes one over the 23,040 cells of the shipped grid), and
    with it every output byte, would follow OPENBLAS_NUM_THREADS. Each
    library is found beside its package (`numpy.libs`, `scipy.libs`, or
    `.dylibs` inside it) and set through whichever OpenBLAS setter it
    exports; a BLAS that exports none stays as its environment set it.
    """
    import ctypes
    import glob
    import os

    import numpy
    import scipy

    setters = ("scipy_openblas_set_num_threads64_",
               "scipy_openblas_set_num_threads",
               "openblas_set_num_threads64_", "openblas_set_num_threads")
    for package in (numpy, scipy):
        root = os.path.dirname(package.__file__)
        for path in sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                           + glob.glob(os.path.join(root, ".dylibs",
                                                    "*openblas*"))):
            lib = ctypes.CDLL(path)
            for name in setters:
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)
                    break


_pin_openblas()
