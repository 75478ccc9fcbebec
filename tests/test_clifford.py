import hashlib

import numpy as np
import pytest

from quditc import clifford as clifford_module
from quditc.clifford import generator_set, random_clifford, random_cliffords
from quditc.linalg import equal_up_to_global_phase, is_diagonal, is_unitary, max_norm


def pauli_x(dim: int) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        m[(k + 1) % dim, k] = 1.0
    return m


def pauli_z(dim: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / dim)
    return np.diag(omega ** np.arange(dim))


def is_pauli_word_up_to_phase(m: np.ndarray, tol: float = 1e-8) -> bool:
    dim = m.shape[0]
    x, z = pauli_x(dim), pauli_z(dim)
    for a in range(dim):
        for b in range(dim):
            word = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            if equal_up_to_global_phase(m, word, tol):
                return True
    return False


class TestGeneratorSet:
    def test_fourier_matches_three_level_hadamard(self):
        w3 = np.exp(2j * np.pi / 3)
        h3 = np.array([[1, 1, 1], [1, w3, w3.conj()], [1, w3.conj(), w3]]) / np.sqrt(3)
        f, _ = generator_set(3)
        assert max_norm(f - h3) < 1e-12

    def test_fourier_fourth_power_is_identity(self):
        for dim in (3, 5, 7):
            f, _ = generator_set(dim)
            assert max_norm(np.linalg.matrix_power(f, 4) - np.eye(dim)) < 1e-10

    def test_phase_gate_is_diagonal_unit_modulus(self):
        for dim in (3, 5, 7):
            _, s = generator_set(dim)
            assert is_diagonal(s, 1e-12)
            assert np.allclose(np.abs(np.diag(s)), 1.0)

    def test_generators_unitary(self):
        for dim in (3, 5, 7):
            for gen in generator_set(dim):
                assert is_unitary(gen, 1e-12)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            generator_set(4)

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match="dimension must be prime, got 1"):
            generator_set(1)


class TestRandomClifford:
    def test_deterministic(self):
        a = random_clifford(5, 123)
        b = random_clifford(5, 123)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = random_clifford(3, 1)
        b = random_clifford(3, 2)
        assert not np.allclose(a, b)

    def test_unitary(self):
        for dim in (3, 5, 7):
            u = random_clifford(dim, 9)
            assert is_unitary(u, 1e-10)

    def test_never_diagonal(self, monkeypatch):
        # About one word in eleven of length WORD_LENGTH is diagonal at d=3,
        # so a thousand seeds redraw many times; each draw is tested once.
        tested = []

        def counting(u, *args):
            tested.append(u)
            return is_diagonal(u, *args)

        monkeypatch.setattr(clifford_module, "is_diagonal", counting)
        for k in range(1000):
            u = random_clifford(3, k)
            assert not is_diagonal(u, 1e-9)
        assert len(tested) > 1050

    def test_normalizes_pauli_group(self):
        for dim in (3, 5):
            for seed in (0, 1, 2):
                u = random_clifford(dim, seed)
                for p in (pauli_x(dim), pauli_z(dim)):
                    assert is_pauli_word_up_to_phase(u @ p @ u.conj().T)

    def test_batch_prefix_stable(self):
        first = random_cliffords(3, 3, seed=4)
        longer = random_cliffords(3, 6, seed=4)
        for a, b in zip(first, longer):
            assert np.array_equal(a, b)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            random_clifford(6, 0)
        with pytest.raises(ValueError):
            random_cliffords(6, 1, 0)


class TestGoldenDraws:
    @pytest.mark.parametrize("dim,digest", [
        (3, "838503b11d7117e397cc8364964598b2b643afd1069c2cefc6498b24526e6ba6"),
        (5, "0433d50017bc27fba6606d5e6574afaa69072e40cd2d51ba0f4ac11bfb253905"),
        (7, "b267f12839cb6a9f695456c84c9c7b51e0ea4c3a2350f0904c832251b73b1564"),
    ])
    def test_benchmark_draws_unchanged(self, dim, digest):
        # The clifford7-budget inputs are random_cliffords(7, count, seed):
        # the digest pins every byte of twelve draws per dimension.
        h = hashlib.sha256()
        for u in random_cliffords(dim, 12, 4242):
            h.update(u.tobytes())
        assert h.hexdigest() == digest
