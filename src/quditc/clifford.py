"""Seeded random Clifford unitaries for prime dimensions.

Samples are products of the qudit Fourier matrix F and the quadratic
phase gate S, drawn as random generator words.  This gives seed-stable,
representative Clifford elements rather than uniform ones.  Diagonal
samples are rejected and redrawn, since they decompose into pure phase
layers at zero cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import is_diagonal


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class CliffordSpec:
    dim: int
    seed: int
    word_length: int = 12

    def __post_init__(self):
        if not _is_prime(self.dim):
            raise ValueError(f"dimension must be prime, got {self.dim}")
        if self.word_length < 1:
            raise ValueError("word_length must be >= 1")


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


def random_clifford(spec: CliffordSpec) -> np.ndarray:
    """Deterministic non-diagonal Clifford for (dim, seed, word_length)."""
    gens = generator_set(spec.dim)
    rng = np.random.default_rng(np.random.SeedSequence([spec.dim, spec.seed & (2**63 - 1)]))
    for _ in range(1000):
        u = np.eye(spec.dim, dtype=np.complex128)
        for pick in rng.integers(0, len(gens), size=spec.word_length):
            u = gens[pick] @ u
        if not is_diagonal(u):
            return u
    raise RuntimeError("could not draw a non-diagonal Clifford")  # pragma: no cover


def random_cliffords(dim: int, count: int, seed: int, word_length: int = 12) -> list[np.ndarray]:
    """Batch of independent samples; sample k uses a seed derived from
    (seed, k), so any prefix of the batch is stable under count changes."""
    return [
        random_clifford(CliffordSpec(dim, (seed << 20) + k, word_length))
        for k in range(count)
    ]
