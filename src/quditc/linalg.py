"""Dense complex matrix helpers: unitarity/diagonality checks,
equality up to a global phase, and the unitary JSON file format.

Matrices are plain ``complex128`` ndarrays, treated as immutable values.
All distances are entrywise max-norm.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Default tolerance for unitarity/diagonality checks.  Double-precision
# products of up to ~100 two-level factors stay well below this.
DEFAULT_TOL = 1e-9


def as_matrix(data, min_dim: int = 2) -> np.ndarray:
    """Validate and return a square complex matrix (copy if needed)."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] < min_dim:
        raise ValueError(f"matrix dimension must be >= {min_dim}, got {m.shape[0]}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return m


def max_norm(m: np.ndarray) -> float:
    """Entrywise max-norm."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (m† m − I) <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = m.shape[0]
    return max_norm(m.conj().T @ m - np.eye(d)) <= tol


def is_diagonal(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff every off-diagonal modulus <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    off = m - np.diag(np.diag(m))
    return max_norm(off) <= tol


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff a == c*b for some unit-modulus scalar c, within max-norm tol.

    The phase is aligned on the largest-modulus entry of b, which avoids
    division by near-zero entries.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    pivot = b[idx]
    if abs(pivot) == 0.0:
        return max_norm(a - b) <= tol
    c = a[idx] / pivot
    mag = abs(c)
    if mag == 0.0:
        return max_norm(a) <= tol and max_norm(b) <= tol
    c /= mag
    return max_norm(a - c * b) <= tol


def load_unitary(path: str | Path) -> np.ndarray:
    """Read a matrix from the JSON unitary format.

    Format: {"dim": d, "entries": [[[re, im], ...], ...]} with row-major
    nesting.  Rejects non-square, non-finite, or dim-mismatched input.
    """
    with open(path) as fh:
        doc = json.load(fh)
    try:
        dim = int(doc["dim"])
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed unitary file {path}: {exc}") from None
    arr = np.asarray(entries, dtype=np.float64)
    if arr.ndim != 3 or arr.shape != (dim, dim, 2):
        raise ValueError(
            f"malformed unitary file {path}: expected {dim}x{dim}x2 entries, got {arr.shape}"
        )
    m = arr[..., 0] + 1j * arr[..., 1]
    return as_matrix(m)


def save_unitary(m: np.ndarray, path: str | Path) -> None:
    """Write a matrix in the JSON unitary format."""
    m = as_matrix(m)
    doc = {
        "dim": m.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
