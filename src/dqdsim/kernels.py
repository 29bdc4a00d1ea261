"""Propagator kernel: ordered products of exact 4x4 step exponentials.

Computes U = E_{n-1} ... E_1 E_0,  E_k = expm(-i 2 pi dt (H_base + c_k H_coef)),
for each member of a stack of such sequences, as a pairwise (tree) product
over chunks of `CHUNK_STEPS` steps whose products are folded in order. The
members of a stack (noise samples of one segment) share H_coef but have
their own H_base, step and step count; a member's sequence is padded at
its end with identity steps to the longest one's, which leaves its
pairwise product exactly as it is alone. The lab-frame integrator computes
O(10^3) such exponentials per gate: one drive period, the rest of each
drive segment, and each bias ramp at the rotating frame's step.

For a stack of one, the kernel can also return the products of the first
e exponentials for a set of even e (the rows of a sampled trajectory). It
takes them from a blocked prefix scan over the pair products
E_{2k+1} E_{2k} of each chunk, which are the first level of the chunk's
pairwise product: every exponential is computed once, and U is bit for
bit the one computed without them.

How a step is exponentiated depends on the generator alone. When neither
H_base nor H_coef has an entry coupling two total-S_z sectors, {uu},
{ud, du} and {dd} (every bias ramp, in either frame: Zeeman terms and the
Heisenberg coupling), E_k is two phases on uu and dd and the closed-form
exponential of the 2x2 (ud, du) block. Any other generator (a lab-frame
drive) takes a batched 4x4 Hermitian eigendecomposition.
"""

from __future__ import annotations

import math

import numpy as np

# steps per batch of exponentials: each member's steps are cut into chunks
# of this many, and a batch of members holds at most this many, padding
# included; bounds the (n, 4, 4) stacks' memory
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
                      coefs: np.ndarray, dt_s) -> np.ndarray:
    """Stack of exact exponentials E_k, shape (n, 4, 4). `h_base` is one
    4x4 or one per step, (n, 4, 4); `dt_s` one step or one per step."""
    dt_s = np.asarray(dt_s, dtype=float)
    if (np.asarray(h_base)[..., CROSS_SECTOR].any()
            or h_coef[CROSS_SECTOR].any()):
        m = h_base + coefs[:, None, None] * h_coef[None, :, :]
        w, v = np.linalg.eigh(m)
        phase = np.exp(-2j * np.pi * dt_s[..., None] * w)
        return np.einsum("kij,kj,klj->kil", v, phase, v.conj())
    # exp(-i phi M) on the (ud, du) block M = mu I + [[d, b], [b*, -d]] is
    # exp(-i phi mu) (cos(phi r) I - i sin(phi r)/r (M - mu I)), r = |(d, b)|
    phi = 2.0 * np.pi * dt_s
    diag = (np.diagonal(h_base, axis1=-2, axis2=-1).real
            + coefs[:, None] * h_coef.diagonal().real[None, :])
    b = h_base[..., 1, 2] + coefs * h_coef[1, 2]
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


def _halve(mats: np.ndarray) -> np.ndarray:
    """One level of the pairwise product along the third-last axis:
    mats[2k+1] @ mats[2k], and an odd last matrix kept as it is."""
    n = mats.shape[-3]
    half = n // 2
    paired = np.matmul(mats[..., 1 : 2 * half : 2, :, :],
                       mats[..., 0 : 2 * half : 2, :, :])
    if n % 2:
        return np.concatenate([paired, mats[..., -1:, :, :]], axis=-3)
    return paired


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Product mats[..., n-1, :, :] @ ... @ mats[..., 0, :, :] by pairwise
    halving along the third-last axis, for each leading index."""
    while mats.shape[-3] > 1:
        mats = _halve(mats)
    return mats[..., 0, :, :]


def _prefix_scan(mats: np.ndarray) -> np.ndarray:
    """Inclusive prefix products mats[k] @ ... @ mats[0] of a stack
    (n, 4, 4), in blocks of about sqrt(n): each block's own prefixes,
    batched over the blocks, then each block times the product of all
    before it, as one matrix product per block."""
    n = mats.shape[0]
    size = max(math.isqrt(n), 1)
    blocks = -(-n // size)
    out = np.empty((blocks * size, 4, 4), dtype=complex)
    out[:n] = mats
    out[n:] = np.eye(4)
    grid = out.reshape(blocks, size, 4, 4)
    for k in range(1, size):
        grid[:, k] = grid[:, k] @ grid[:, k - 1]
    for b in range(1, blocks):
        grid[b] = (grid[b].reshape(-1, 4) @ grid[b - 1, -1]).reshape(size, 4, 4)
    return out[:n]


def propagate_affine(h_base: np.ndarray, h_coef: np.ndarray,
                     coefs: np.ndarray, dt_s, counts, ends=None):
    """U_b = prod_k expm(-i 2 pi dt_b (h_base[b] + c_bk h_coef)), applied in
    order, for each member b of a stack: (B, 4, 4).

    `h_base` is (B, 4, 4), `dt_s` and `counts` (the members' step counts)
    have length B, and `coefs` holds the members' coefficient sequences one
    after another (length sum(counts)); c_bk multiplies h_coef in member
    b's k-th exponential, and index 0 acts first. A member's product does
    not depend on the other members of its stack.

    `ends` asks also for the products of the first e exponentials, for
    each e of `ends` (even, at most the count; for a stack of one unless
    empty): the call then returns (U, their (len(ends), 4, 4) stack), with
    U as without `ends`.
    """
    coefs = np.ascontiguousarray(coefs, dtype=float)
    h_base = np.asarray(h_base, dtype=complex)
    h_coef = np.asarray(h_coef, dtype=complex)
    dt_s = np.asarray(dt_s, dtype=float)
    counts = np.asarray(counts, dtype=int)
    first = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(int)
    u = np.broadcast_to(np.eye(4, dtype=complex), h_base.shape).copy()
    if ends is not None:
        ends = np.asarray(ends, dtype=int)
        if ends.size and (h_base.shape[0] != 1 or np.any(ends % 2)
                          or np.any(ends < 0) or np.any(ends > counts[0])):
            raise ValueError("ends are even counts within a stack of one")
        prefixes = np.broadcast_to(np.eye(4, dtype=complex),
                                   (ends.size, 4, 4)).copy()
    for start in range(0, int(counts.max(initial=0)), CHUNK_STEPS):
        active = np.flatnonzero(counts > start)
        span = np.minimum(counts[active] - start, CHUNK_STEPS)
        per_group = max(CHUNK_STEPS // int(span.max()), 1)
        for g in range(0, active.size, per_group):
            members, steps = active[g:g + per_group], span[g:g + per_group]
            rows = np.concatenate([np.arange(f, f + n) for f, n in
                                   zip(first[members] + start, steps)])
            if members.size == 1:
                # one member: its own 4x4 and step, no per-step copies
                h_rows, dt_rows = h_base[members[0]], dt_s[members[0]]
            else:
                h_rows = np.repeat(h_base[members], steps, axis=0)
                dt_rows = np.repeat(dt_s[members], steps)
            exps = step_exponentials(h_rows, h_coef, coefs[rows], dt_rows)
            longest = int(steps.max())
            if np.all(steps == longest):
                padded = exps.reshape(members.size, longest, 4, 4)
            else:
                padded = np.broadcast_to(np.eye(4, dtype=complex),
                                         (members.size, longest, 4, 4)).copy()
                padded[np.arange(longest) < steps[:, None]] = exps
            # the first level of the pairwise product: E_{2k+1} E_{2k}
            pairs = _halve(padded)
            if ends is not None:
                # the ends that fall in this chunk, as its pairs before them
                before = (ends - start) // 2
                hit = (before > 0) & (ends <= start + longest)
                if hit.any():
                    scan = _prefix_scan(pairs[0, :before[hit].max()])
                    prefixes[hit] = (scan[before[hit] - 1] if start == 0
                                     else scan[before[hit] - 1] @ u[0])
            chunk = ordered_product(pairs)
            u[members] = chunk if start == 0 else chunk @ u[members]
    return u if ends is None else (u, prefixes)
