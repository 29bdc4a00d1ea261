import numpy as np

from dqdsim import kernels
from dqdsim.kernels import ordered_product, propagate_affine, step_exponentials


def random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (m + m.conj().T) / 2


class TestKernels:
    def test_unitary_product(self):
        rng = np.random.default_rng(4)
        a, b = random_hermitian(rng), random_hermitian(rng)
        u = propagate_affine(a, b, rng.normal(size=20000), 1e-3)
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-10

    def test_empty_sequence_is_identity(self):
        a = np.zeros((4, 4), dtype=complex)
        u = propagate_affine(a, a, np.array([]), 1.0)
        assert np.array_equal(u, np.eye(4, dtype=complex))

    def test_single_step_matches_expm(self):
        rng = np.random.default_rng(8)
        a, b = random_hermitian(rng), random_hermitian(rng)
        dt, c = 3e-3, 0.7
        u = propagate_affine(a, b, np.array([c]), dt)
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
        rng = np.random.default_rng(9)
        a, b = random_hermitian(rng), random_hermitian(rng)
        u0 = np.linalg.qr(rng.normal(size=(4, 4))
                          + 1j * rng.normal(size=(4, 4)))[0]
        coefs = rng.normal(size=50)
        u = propagate_affine(a, b, coefs, 1e-3)
        u_with = propagate_affine(a, b, coefs, 1e-3, u0=u0)
        assert np.abs(u_with - u @ u0).max() < 1e-12

    def test_chunked_product_matches_single_batch(self, monkeypatch):
        rng = np.random.default_rng(13)
        a, b = random_hermitian(rng), random_hermitian(rng)
        u0 = np.linalg.qr(rng.normal(size=(4, 4))
                          + 1j * rng.normal(size=(4, 4)))[0]
        coefs = rng.normal(size=4 * 37 + 11)
        single = ordered_product(step_exponentials(a, b, coefs, 1e-2))
        monkeypatch.setattr(kernels, "CHUNK_STEPS", 37)
        assert np.abs(propagate_affine(a, b, coefs, 1e-2) - single).max() < 1e-13
        u_with = propagate_affine(a, b, coefs, 1e-2, u0=u0)
        assert np.abs(u_with - single @ u0).max() < 1e-13
