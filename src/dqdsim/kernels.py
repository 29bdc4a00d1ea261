"""Propagator kernel: ordered products of exact 4x4 step exponentials.

Computes U = E_{n-1} ... E_1 E_0,  E_k = expm(-i 2 pi dt (H_base + c_k H_coef)),
as a pairwise (tree) product over chunks of `CHUNK_STEPS` steps whose
products are folded in order. The lab-frame integrator computes O(10^3)
such exponentials per gate: one drive period, the rest of each drive
segment, and each bias ramp at the rotating frame's step.

How a step is exponentiated depends on the generator alone. When neither
H_base nor H_coef has an entry coupling two total-S_z sectors, {uu},
{ud, du} and {dd} (every bias ramp, in either frame: Zeeman terms and the
Heisenberg coupling), E_k is two phases on uu and dd and the closed-form
exponential of the 2x2 (ud, du) block. Any other generator (a lab-frame
drive) takes a batched 4x4 Hermitian eigendecomposition.
"""

from __future__ import annotations

import numpy as np

# steps per batch of exponentials; bounds the (n, 4, 4) stacks' memory
CHUNK_STEPS = 2**16

# entries of a 4x4 operator that couple two total-S_z sectors
CROSS_SECTOR = np.array([[0, 1, 1, 1],
                         [1, 0, 0, 1],
                         [1, 0, 0, 1],
                         [1, 1, 1, 0]], dtype=bool)


def backend_name() -> str:
    """Always "python": the NumPy kernel is the only one. Kept because the
    benchmark's record line (`perfbench/sysinfo.py`) reports it."""
    return "python"


def step_exponentials(h_base: np.ndarray, h_coef: np.ndarray,
                      coefs: np.ndarray, dt_s: float) -> np.ndarray:
    """Stack of exact exponentials E_k, shape (n, 4, 4)."""
    if h_base[CROSS_SECTOR].any() or h_coef[CROSS_SECTOR].any():
        m = h_base[None, :, :] + coefs[:, None, None] * h_coef[None, :, :]
        w, v = np.linalg.eigh(m)
        phase = np.exp(-2j * np.pi * dt_s * w)
        return np.einsum("kij,kj,klj->kil", v, phase, v.conj())
    # exp(-i phi M) on the (ud, du) block M = mu I + [[d, b], [b*, -d]] is
    # exp(-i phi mu) (cos(phi r) I - i sin(phi r)/r (M - mu I)), r = |(d, b)|
    phi = 2.0 * np.pi * dt_s
    diag = (h_base.diagonal().real[None, :]
            + coefs[:, None] * h_coef.diagonal().real[None, :])
    b = h_base[1, 2] + coefs * h_coef[1, 2]
    mu = 0.5 * (diag[:, 1] + diag[:, 2])
    d = 0.5 * (diag[:, 1] - diag[:, 2])
    r = np.hypot(d, np.abs(b))
    phase = np.exp(-1j * phi * mu)
    c = phase * np.cos(phi * r)
    s = -1j * phase * phi * np.sinc(phi * r / np.pi)   # phase x -i sin(phi r)/r
    out = np.zeros((coefs.size, 4, 4), dtype=complex)
    out[:, 0, 0] = np.exp(-1j * phi * diag[:, 0])
    out[:, 3, 3] = np.exp(-1j * phi * diag[:, 3])
    out[:, 1, 1] = c + s * d
    out[:, 2, 2] = c - s * d
    out[:, 1, 2] = s * b
    out[:, 2, 1] = s * b.conj()
    return out


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
                     coefs: np.ndarray, dt_s: float) -> np.ndarray:
    """U = prod_k expm(-i 2 pi dt (h_base + coefs[k] h_coef)), applied in order.

    coefs[k] multiplies h_coef in the k-th exponential; index 0 acts first.
    """
    coefs = np.ascontiguousarray(coefs, dtype=float)
    if coefs.size == 0:
        return np.eye(4, dtype=complex)
    h_base = np.asarray(h_base, dtype=complex)
    h_coef = np.asarray(h_coef, dtype=complex)
    u = None
    for start in range(0, coefs.size, CHUNK_STEPS):
        chunk = ordered_product(step_exponentials(
            h_base, h_coef, coefs[start:start + CHUNK_STEPS], dt_s))
        u = chunk if u is None else chunk @ u
    return u
