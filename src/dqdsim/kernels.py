"""Propagator kernel: ordered products of exact 4x4 step exponentials.

Computes U = E_{n-1} ... E_1 E_0,  E_k = expm(-i 2 pi dt (H_base + c_k H_coef)),
via batched Hermitian eigendecomposition and a pairwise (tree) product,
over chunks of `CHUNK_STEPS` steps whose products are folded in order. The
lab-frame integrator multiplies O(10^5..10^6) such exponentials per gate.
"""

from __future__ import annotations

import numpy as np

# steps per batch of exponentials; bounds the (n, 4, 4) stacks' memory
CHUNK_STEPS = 2**16


def backend_name() -> str:
    """Always "python": the NumPy kernel is the only one. Kept because the
    benchmark's record line (`perfbench/sysinfo.py`) reports it."""
    return "python"


def step_exponentials(h_base: np.ndarray, h_coef: np.ndarray,
                      coefs: np.ndarray, dt_s: float) -> np.ndarray:
    """Stack of exact exponentials E_k, shape (n, 4, 4)."""
    m = h_base[None, :, :] + coefs[:, None, None] * h_coef[None, :, :]
    w, v = np.linalg.eigh(m)
    phase = np.exp(-2j * np.pi * dt_s * w)
    return np.einsum("kij,kj,klj->kil", v, phase, v.conj())


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[n-1] @ ... @ mats[0] by pairwise halving."""
    while mats.shape[0] > 1:
        n = mats.shape[0]
        half = n // 2
        paired = np.matmul(mats[1 : 2 * half : 2], mats[0 : 2 * half : 2])
        if n % 2:
            mats = np.concatenate([paired, mats[-1:]], axis=0)
        else:
            mats = paired
    return mats[0]


def propagate_affine(h_base: np.ndarray, h_coef: np.ndarray,
                     coefs: np.ndarray, dt_s: float,
                     u0: np.ndarray | None = None) -> np.ndarray:
    """U = prod_k expm(-i 2 pi dt (h_base + coefs[k] h_coef)), applied in order.

    coefs[k] multiplies h_coef in the k-th exponential; index 0 acts first.
    With `u0` the product is applied to it.
    """
    coefs = np.ascontiguousarray(coefs, dtype=float)
    if coefs.size == 0:
        return np.eye(4, dtype=complex) if u0 is None else u0.copy()
    h_base = np.asarray(h_base, dtype=complex)
    h_coef = np.asarray(h_coef, dtype=complex)
    u = u0
    for start in range(0, coefs.size, CHUNK_STEPS):
        chunk = ordered_product(step_exponentials(
            h_base, h_coef, coefs[start:start + CHUNK_STEPS], dt_s))
        u = chunk if u is None else chunk @ u
    return u
