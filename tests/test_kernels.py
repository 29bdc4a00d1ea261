import numpy as np

from dqdsim import kernels
from dqdsim.kernels import ordered_product, propagate_affine, step_exponentials


def propagate_one(h_base, h_coef, coefs, dt_s):
    """`propagate_affine` for a stack of one member."""
    return propagate_affine(h_base[None], h_coef, coefs, [dt_s],
                            [len(coefs)])[0]


def random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (m + m.conj().T) / 2


class TestKernels:
    def test_unitary_product(self):
        rng = np.random.default_rng(4)
        a, b = random_hermitian(rng), random_hermitian(rng)
        u = propagate_one(a, b, rng.normal(size=20000), 1e-3)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10

    def test_empty_sequence_is_identity(self):
        a = np.zeros((4, 4), dtype=complex)
        u = propagate_one(a, a, np.array([]), 1.0)
        assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_single_step_matches_expm(self):
        rng = np.random.default_rng(8)
        a, b = random_hermitian(rng), random_hermitian(rng)
        dt, c = 3e-3, 0.7
        u = propagate_one(a, b, np.array([c]), dt)
        w, v = np.linalg.eigh(a + c * b)
        expect = (v * np.exp(-2j * np.pi * dt * w)) @ v.conj().T
        assert np.abs(u - expect).max() < 1e-13

    def test_ordered_product_noncommutative_order(self):
        rng = np.random.default_rng(2)
        mats = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
        direct = np.eye(4, dtype=complex)
        for m in mats:
            direct = m @ direct
        assert np.abs(ordered_product(mats.copy()) - direct).max() < 1e-10

    def test_applies_initial_state(self):
        # the product acts on a state as its steps applied one by one
        rng = np.random.default_rng(9)
        a, b = random_hermitian(rng), random_hermitian(rng)
        u0 = np.linalg.qr(rng.normal(size=(4, 4))
                          + 1j * rng.normal(size=(4, 4)))[0]
        coefs = rng.normal(size=50)
        state = u0
        for step in step_exponentials(a, b, coefs, 1e-3):
            state = step @ state
        u = propagate_one(a, b, coefs, 1e-3)
        assert np.abs(u @ u0 - state).max() < 1e-12

    def test_chunked_product_matches_single_batch(self, monkeypatch):
        rng = np.random.default_rng(13)
        a, b = random_hermitian(rng), random_hermitian(rng)
        coefs = rng.normal(size=4 * 37 + 11)
        single = ordered_product(step_exponentials(a, b, coefs, 1e-2))
        monkeypatch.setattr(kernels, "CHUNK_STEPS", 37)
        assert np.abs(propagate_one(a, b, coefs, 1e-2) - single).max() < 1e-13

    def test_stack_equals_members_alone(self, monkeypatch):
        # members of different step counts, in batches of several padded
        # members and in chunks of one member
        rng = np.random.default_rng(17)
        h_coef = random_hermitian(rng)
        for counts in ([5, 12, 0, 9], [40, 3, 81]):
            h_base = np.stack([random_hermitian(rng) for _ in counts])
            dts = rng.uniform(1e-3, 1e-2, size=len(counts))
            seqs = [rng.normal(size=n) for n in counts]
            monkeypatch.setattr(kernels, "CHUNK_STEPS", 37)
            stack = propagate_affine(h_base, h_coef, np.concatenate(seqs),
                                     dts, counts)
            for k, coefs in enumerate(seqs):
                alone = propagate_one(h_base[k], h_coef, coefs, dts[k])
                assert stack[k].tobytes() == alone.tobytes()


def eigh_exponentials(h_base, h_coef, coefs, dt_s):
    """Step exponentials by batched 4x4 Hermitian eigendecomposition."""
    m = h_base[None, :, :] + coefs[:, None, None] * h_coef[None, :, :]
    w, v = np.linalg.eigh(m)
    phase = np.exp(-2j * np.pi * dt_s * w)
    return np.einsum("kij,kj,klj->kil", v, phase, v.conj())


def sector_hermitian(rng, coupling=True):
    """A random Hermitian 4x4 that conserves total S_z: uu and dd alone,
    ud and du coupled (or not)."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0], h[1, 1], h[2, 2], h[3, 3] = rng.normal(size=4)
    if coupling:
        h[1, 2] = complex(*rng.normal(size=2))
        h[2, 1] = h[1, 2].conjugate()
    return h


class TestSectorExponentials:
    """A generator that conserves total S_z is exponentiated in closed form
    per sector; any other keeps the 4x4 eigendecomposition."""

    def test_matches_eigendecomposition(self):
        rng = np.random.default_rng(21)
        coefs = rng.normal(size=64)
        degenerate = np.diag([0.3, -0.7, -0.7, 1.1]).astype(complex)
        cases = [(sector_hermitian(rng), sector_hermitian(rng)),
                 (sector_hermitian(rng, False), sector_hermitian(rng, False)),
                 (sector_hermitian(rng), sector_hermitian(rng, False)),
                 (degenerate, np.zeros((4, 4), dtype=complex)),
                 (degenerate, 0.5 * degenerate)]
        cases += [(sector_hermitian(rng), sector_hermitian(rng))
                  for _ in range(20)]
        for h_base, h_coef in cases:
            for dt in (1e-3, 2e-2):
                got = step_exponentials(h_base, h_coef, coefs, dt)
                want = eigh_exponentials(h_base, h_coef, coefs, dt)
                assert np.abs(got - want).max() <= 1e-14

    def test_cross_sector_generator_keeps_the_eigendecomposition(self):
        rng = np.random.default_rng(22)
        coefs = rng.normal(size=64)
        for i, j in zip(*np.nonzero(np.triu(kernels.CROSS_SECTOR))):
            for in_coef in (False, True):
                h_base, h_coef = sector_hermitian(rng), sector_hermitian(rng)
                h = h_coef if in_coef else h_base
                h[i, j] += 1e-3
                h[j, i] += 1e-3
                got = step_exponentials(h_base, h_coef, coefs, 2e-2)
                assert np.array_equal(
                    got, eigh_exponentials(h_base, h_coef, coefs, 2e-2))
