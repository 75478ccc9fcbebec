"""Seeded random Clifford unitaries for prime dimensions.

Samples are products of the qudit Fourier matrix F and the quadratic
phase gate S, drawn as random words of WORD_LENGTH generators.  This
gives seed-stable, representative Clifford elements rather than uniform
ones.  Diagonal samples are rejected and redrawn, since they decompose
into pure phase layers at zero cost.
"""
from __future__ import annotations

import numpy as np

from .linalg import is_diagonal

WORD_LENGTH = 12


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n**0.5) + 1))


def generator_set(dim: int) -> list[np.ndarray]:
    """Fourier matrix F and phase gate S for a prime dimension."""
    if not _is_prime(dim):
        raise ValueError(f"dimension must be prime, got {dim}")
    omega = np.exp(2j * np.pi / dim)
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    fourier = omega ** (j * k) / np.sqrt(dim)
    jj = np.arange(dim)
    phase = np.diag(omega ** (jj * (jj - 1) / 2))
    return [fourier, phase]


def random_clifford(dim: int, seed: int) -> np.ndarray:
    """Deterministic non-diagonal Clifford for (dim, seed); dim must be prime."""
    gens = generator_set(dim)
    rng = np.random.default_rng(np.random.SeedSequence([dim, seed & (2**63 - 1)]))
    for _ in range(1000):
        u = np.eye(dim, dtype=np.complex128)
        for pick in rng.integers(0, len(gens), size=WORD_LENGTH):
            u = gens[pick] @ u
        if not is_diagonal(u):
            return u
    raise RuntimeError("could not draw a non-diagonal Clifford")  # pragma: no cover


def random_cliffords(dim: int, count: int, seed: int) -> list[np.ndarray]:
    """Batch of independent samples; sample k uses a seed derived from
    (seed, k), so any prefix of the batch is stable under count changes."""
    return [random_clifford(dim, (seed << 20) + k) for k in range(count)]
