import json
import math
import warnings

import numpy as np
import pytest

from quditc.linalg import (
    as_matrix,
    equal_up_to_global_phase,
    is_diagonal,
    is_unitary,
    load_unitary,
    save_unitary,
)

from conftest import haar_unitary

W3 = np.exp(2j * np.pi / 3)
H3 = np.array([[1, 1, 1], [1, W3, W3.conjugate()], [1, W3.conjugate(), W3]]) / np.sqrt(3)


class TestMultiply:
    def test_hadamard_on_ground_state(self):
        # applying the three-level Hadamard to (1,0,0) gives the uniform state
        out = H3 @ np.array([1, 0, 0])
        assert np.allclose(out, np.ones(3) / np.sqrt(3))


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(5, dtype=complex), 1e-10)

    def test_hadamard(self):
        assert is_unitary(H3, 1e-10)

    def test_perturbed_identity(self):
        m = np.eye(3, dtype=complex)
        m[0, 0] = 1.01
        assert not is_unitary(m, 1e-10)

    def test_closed_under_multiply(self):
        a = haar_unitary(4, 31)
        b = haar_unitary(4, 32)
        assert is_unitary(a, 1e-12) and is_unitary(b, 1e-12)
        assert is_unitary(a @ b, 1e-10)


class TestIsDiagonal:
    def test_phase_diagonal(self):
        assert is_diagonal(np.diag([1, np.exp(0.7j), 1]), 1e-10)

    def test_hadamard_is_not(self):
        assert not is_diagonal(H3, 1e-10)

    def test_boundary_inside_tolerance(self):
        tol = 1e-6
        m = np.diag([1.0 + 0j, 1.0, 1.0])
        m[0, 1] = tol / 2
        assert is_diagonal(m, tol)

    def test_boundary_just_above_tolerance(self):
        tol = 1e-6
        m = np.diag([1.0 + 0j, 1.0, 1.0])
        m[2, 0] = math.nextafter(tol, math.inf)
        assert not is_diagonal(m, tol)
        m[2, 0] = tol
        assert is_diagonal(m, tol)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                       complex(math.inf, 1.0)])
    def test_non_finite_diagonal_is_not(self, value):
        # the diagonal's moduli are scaled to 0 when finite and kept when
        # NaN or infinite, with no numpy warning (an error in this suite)
        m = np.eye(4, dtype=complex)
        m[1, 1] = value
        assert not is_diagonal(m)
        assert not is_diagonal(np.asfortranarray(m))

    @pytest.mark.parametrize("value", [1.7e308, 5e-324, -0.0, complex(1e300, -1e300)])
    def test_finite_diagonal_entries_pass(self, value):
        m = np.eye(4, dtype=complex)
        m[2, 2] = value
        assert is_diagonal(m, tol=5e-324)

    def test_layouts_and_real_inputs(self):
        m = np.diag([1.0 + 0j, 2.0, 3.0])
        m[0, 2] = 0.1
        assert not is_diagonal(m.T) and not is_diagonal(np.asfortranarray(m))
        assert is_diagonal(np.diag([1, 2, 3])) and is_diagonal(np.eye(3)[::-1, ::-1])


BAD_TOLS = [math.inf, math.nan, -1.0, 0.0]


class TestToleranceIsChecked:
    # An infinite tolerance passed any input; NaN, negative and zero ones
    # failed every input.  All four are invalid.
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_is_unitary(self, tol):
        with pytest.raises(ValueError, match="tol"):
            is_unitary(H3, tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_is_diagonal(self, tol):
        with pytest.raises(ValueError, match="tol"):
            is_diagonal(np.eye(3, dtype=complex), tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_equal_up_to_global_phase(self, tol):
        with pytest.raises(ValueError, match="tol"):
            equal_up_to_global_phase(H3, H3, tol)


class TestEqualUpToGlobalPhase:
    def test_explicit_global_phase(self):
        assert equal_up_to_global_phase(np.exp(1j * np.pi / 7) * H3, H3, 1e-12)

    def test_dagger_is_not_a_global_phase(self):
        # no single phase aligns all entries of H3 with its adjoint
        assert not equal_up_to_global_phase(H3, H3.conj().T, 1e-6)

    def test_relative_phase_is_not_global(self):
        assert not equal_up_to_global_phase(np.eye(3, dtype=complex),
                                            np.diag([1.0, -1.0, 1.0]), 1e-6)

    def test_equivalence_relation(self):
        a = haar_unitary(3, 40)
        b = np.exp(0.321j) * a
        c = np.exp(-1.234j) * a
        for m in (a, b, c):
            assert equal_up_to_global_phase(m, m, 1e-12)
        assert equal_up_to_global_phase(a, b, 1e-12)
        assert equal_up_to_global_phase(b, a, 1e-12)
        assert equal_up_to_global_phase(a, b, 1e-12) and equal_up_to_global_phase(b, c, 1e-12)
        assert equal_up_to_global_phase(a, c, 2e-12)


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "u.json"
        save_unitary(H3, path)
        assert np.allclose(load_unitary(path), H3, atol=1e-15)

    def test_rejects_non_square(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[[1, 0]], [[0, 0]]]}))
        with pytest.raises(ValueError):
            load_unitary(path)

    def test_rejects_non_finite(self, tmp_path):
        path = tmp_path / "nan.json"
        entries = [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]]
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        with pytest.raises(ValueError):
            load_unitary(path)

    @pytest.mark.parametrize("entry", [[0, math.inf], [math.inf, 0]])
    def test_rejects_infinite_part_without_warning(self, tmp_path, entry):
        # json writes the bare token Infinity; the file must be rejected
        # with ValueError, not escape as a numpy RuntimeWarning under -W error
        path = tmp_path / "inf.json"
        entries = [[[1, 0], [0, 0]], [[0, 0], entry]]
        path.write_text(json.dumps({"dim": 2, "entries": entries}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                load_unitary(path)

    def test_rejects_dim_mismatch(self, tmp_path):
        path = tmp_path / "mismatch.json"
        entries = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
        path.write_text(json.dumps({"dim": 3, "entries": entries}))
        with pytest.raises(ValueError):
            load_unitary(path)


def test_as_matrix_takes_any_memory_layout():
    # a transposed or strided view is a matrix like its copy
    m = np.arange(9, dtype=np.complex128).reshape(3, 3) * (1 + 2j)
    for view in (m.T, m.conj().T, m[::-1, ::-1]):
        assert np.array_equal(as_matrix(view), view)
    bad = m.copy()
    bad[0, 1] = complex(0, math.inf)
    with pytest.raises(ValueError, match="finite"):
        as_matrix(bad.T)


def test_as_matrix_rejects_tiny():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0]]))
