"""Dense complex matrix helpers: unitarity/diagonality checks,
equality up to a global phase, and the unitary JSON file format.

Matrices are plain ``complex128`` ndarrays, treated as immutable values.
All distances are entrywise max-norm.

The tolerance contract.  Every cut-off in quditc is one of three:

* ``DEFAULT_TOL`` is the zero tolerance: an entry whose modulus is at most
  it is zero.  It bounds input unitarity and every diagonal test, and it
  is the adaptive search's one predicate: such an entry is never rotated
  and does not keep a node from being terminal, so the expansion filter
  and the terminal test cannot disagree.  Double-precision products of up
  to ~100 two-level factors stay well below it.
* ``VERIFY_TOL`` is the reconstruction tolerance.  A result may leave
  entries up to ``DEFAULT_TOL`` unrotated, and it gathers rounding error
  over its gates, so it is checked ten times more loosely.
* ``qr.NEGLIGIBLE`` (1e-12) is the elimination ladder's skip.  It sits
  three orders below ``DEFAULT_TOL``, so that on a unitary input the
  ladder's final matrix passes the diagonal test with room to spare.  An
  input unitary only within ``DEFAULT_TOL`` can still end above it;
  ``qr.ladder`` checks its end once and raises ValueError, for both
  back-ends and the cost bound alike.

``MAX_LEVELS`` caps a graph's levels and a sequence's or unitary's dim,
checked before allocating: twice the documented scope of ``d <= 64``.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

DEFAULT_TOL = 1e-9
VERIFY_TOL = 10 * DEFAULT_TOL
MAX_LEVELS = 128


def check_size(n: int, what: str) -> None:
    """Raise ValueError if a document names a size above MAX_LEVELS."""
    if n > MAX_LEVELS:
        raise ValueError(f"{what} {n} exceeds the cap of {MAX_LEVELS}")


def as_int(value) -> int:
    """A document's integer field as an int; ValueError for a bool, a string
    or a fractional number, all of which int() accepts (1.7 as 1)."""
    if isinstance(value, (bool, np.bool_, str)) or value != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_real(value) -> float:
    """A document's real-valued field as a float; ValueError for a bool or a
    string, both of which float() accepts (true as 1.0, "1" as 1.0)."""
    if isinstance(value, (bool, np.bool_, str)):
        raise ValueError(f"expected a real number, got {value!r}")
    return float(value)


def check_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol < inf (inf passes anything, NaN nothing)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def as_matrix(data, min_dim: int = 2) -> np.ndarray:
    """Validate and return a square complex matrix (copy if needed)."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] < min_dim:
        raise ValueError(f"matrix dimension must be >= {min_dim}, got {m.shape[0]}")
    if not np.isfinite(m).all():  # a complex entry is finite when both parts are
        raise ValueError("matrix entries must be finite")
    return m


def max_norm(m: np.ndarray) -> float:
    """Entrywise max-norm."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (m† m − I) <= tol."""
    check_tol(tol)
    d = m.shape[0]
    return max_norm(m.conj().T @ m - np.eye(d)) <= tol


def is_diagonal(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff every off-diagonal modulus <= tol and no entry is NaN or
    infinite: the moduli's diagonal is scaled by 2**-2100, which takes every
    finite modulus (below 2**1024) to 0 and keeps NaN and inf, with no
    invalid operation, as x * 0 would be for an infinite x."""
    check_tol(tol)
    a = np.abs(m, dtype=np.float64, order="C")
    diagonal = a.reshape(-1)[::len(a) + 1]
    np.ldexp(diagonal, -2100, out=diagonal)
    return bool(a.max(initial=0.0) <= tol)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff a == c*b for some unit-modulus scalar c, within max-norm tol.

    The phase is aligned on the largest-modulus entry of b, which avoids
    division by near-zero entries.
    """
    check_tol(tol)
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
        dim = as_int(doc["dim"])
        check_size(dim, "unitary dim")
        arr = np.array([[[as_real(x) for x in z] for z in row] for row in doc["entries"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed unitary file {path}: {exc}") from None
    if arr.ndim != 3 or arr.shape != (dim, dim, 2):
        raise ValueError(
            f"malformed unitary file {path}: expected {dim}x{dim}x2 entries, got {arr.shape}"
        )
    # a view, not arithmetic: an infinite part must reach as_matrix's
    # finiteness check as it is, with no numpy warning on the way
    return as_matrix(arr.view(np.complex128)[..., 0])


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
