"""Rotation and virtual-Z gate matrices, checked against a matrix
exponential oracle."""
import numpy as np
import pytest
from scipy.linalg import expm

from quditc.gates import (
    RotationGate,
    VirtualZGate,
    reorder_pulse,
    rotation_matrix,
    sequence_from_dict,
    sequence_matrix,
    sequence_to_dict,
    virtual_z_matrix,
)
from quditc.linalg import is_unitary, max_norm


def exponential_oracle(gate: RotationGate, dim: int) -> np.ndarray:
    """Rotation as the exponential of the two-level generator pair."""
    g = gate.normalized()
    i, j = g.level_low, g.level_high
    sx = np.zeros((dim, dim), dtype=complex)
    sy = np.zeros((dim, dim), dtype=complex)
    sx[i, j] = sx[j, i] = 1.0
    sy[i, j] = -1j
    sy[j, i] = 1j
    return expm(-1j * g.theta / 2 * (np.cos(g.phi) * sx + np.sin(g.phi) * sy))


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        m = rotation_matrix(RotationGate(0, 1, 0.0, 1.234), 3)
        assert np.allclose(m, np.eye(3))

    def test_reorder_pulse_carries_sign_flip(self):
        # the default pulse maps |0> -> -|1> and |1> -> |0>
        m = rotation_matrix(reorder_pulse(0, 1), 2)
        assert np.allclose(m, [[0, 1], [-1, 0]], atol=1e-15)

    def test_half_pi_block(self):
        m = rotation_matrix(RotationGate(0, 2, np.pi / 2, 0.0), 3)
        r = np.sqrt(0.5)
        expected = np.array(
            [[r, 0, -1j * r], [0, 1, 0], [-1j * r, 0, r]], dtype=complex
        )
        assert np.allclose(m, expected, atol=1e-15)

    @pytest.mark.parametrize("theta,phi,lo,hi,dim", [
        (0.7, -1.1, 0, 2, 3),
        (np.pi, -np.pi / 2, 1, 3, 4),
        (2.3, 0.4, 0, 1, 2),
        (1.1, 2.9, 2, 4, 5),
    ])
    def test_matches_exponential_oracle(self, theta, phi, lo, hi, dim):
        gate = RotationGate(lo, hi, theta, phi)
        assert max_norm(rotation_matrix(gate, dim) - exponential_oracle(gate, dim)) < 1e-12

    def test_unitary(self):
        gate = RotationGate(1, 2, 1.9, -0.3)
        assert is_unitary(rotation_matrix(gate, 4), 1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            rotation_matrix(RotationGate(0, 3, 1.0, 0.0), 3)

    def test_orientation_swap_negates_phi(self):
        # writing the rotation from the higher to the lower level
        a = rotation_matrix(RotationGate(2, 0, 0.9, 0.4), 3)
        b = rotation_matrix(RotationGate(0, 2, 0.9, -0.4), 3)
        assert np.allclose(a, b, atol=1e-15)

    def test_inverse_by_angle_negation(self):
        gate = RotationGate(0, 1, 1.3, 0.8)
        prod = rotation_matrix(gate, 3) @ rotation_matrix(gate.inverse(), 3)
        assert max_norm(prod - np.eye(3)) <= 1e-12

    def test_dagger_equals_negated_angle(self):
        gate = RotationGate(0, 2, 2.1, -0.6)
        dagger = rotation_matrix(gate, 3).conj().T
        assert np.array_equal(dagger, rotation_matrix(gate.inverse(), 3))

    def test_special_unitary(self):
        det = np.linalg.det(rotation_matrix(RotationGate(1, 3, 0.77, 1.9), 4))
        assert abs(det - 1.0) <= 1e-12


class TestVirtualZMatrix:
    def test_single_level_phase(self):
        phi = 0.93
        m = virtual_z_matrix(VirtualZGate(1, phi), 3)
        assert np.allclose(m, np.diag([1, np.exp(1j * phi), 1]))

    def test_zero_phase_is_identity(self):
        assert np.allclose(virtual_z_matrix(VirtualZGate(2, 0.0), 4), np.eye(4))

    def test_full_diagonal_composition(self):
        phis = [0.1, -0.4, 2.2]
        m = np.eye(3, dtype=complex)
        for lvl, phi in enumerate(phis):
            m = virtual_z_matrix(VirtualZGate(lvl, phi), 3) @ m
        assert np.allclose(m, np.diag(np.exp(1j * np.array(phis))))

    def test_commutes_with_disjoint_rotation(self):
        z = virtual_z_matrix(VirtualZGate(3, 1.1), 4)
        r = rotation_matrix(RotationGate(0, 1, 0.8, 0.2), 4)
        assert max_norm(z @ r - r @ z) <= 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            virtual_z_matrix(VirtualZGate(3, 0.1), 3)


class TestSequenceMatrix:
    def test_empty_is_identity(self):
        assert np.allclose(sequence_matrix([], 3), np.eye(3))

    def test_single_gate(self):
        gate = RotationGate(0, 1, 0.5, 0.1)
        assert np.allclose(sequence_matrix([gate], 3), rotation_matrix(gate, 3))

    def test_application_order(self):
        # the first gate of the list is the rightmost matrix factor
        g1 = reorder_pulse(0, 1)
        g2 = reorder_pulse(1, 2)
        m1 = rotation_matrix(g1, 3)
        m2 = rotation_matrix(g2, 3)
        assert np.allclose(sequence_matrix([g1, g2], 3), m2 @ m1)


class TestSequenceFormat:
    def test_round_trip(self):
        gates = [
            RotationGate(0, 2, 1.1, -0.7),
            reorder_pulse(1, 2),
            VirtualZGate(0, 0.25),
        ]
        doc = sequence_to_dict(gates, 3, virtual_phases=[0.1, 0.2, 0.3])
        parsed, dim, phases = sequence_from_dict(doc)
        assert dim == 3
        assert parsed == gates
        assert np.allclose(phases, [0.1, 0.2, 0.3])

    def test_rejects_unknown_type(self):
        with pytest.raises(ValueError):
            sequence_from_dict({"dim": 3, "gates": [{"type": "X", "i": 0}]})

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sequence_from_dict(
                {"dim": 2, "gates": [{"type": "R", "i": 0, "j": 2, "theta": 1, "phi": 0}]}
            )

    @pytest.mark.parametrize("phases", [[float("nan"), 0.0], [float("inf"), 0.0], [[0.1, 0.2]]])
    def test_rejects_malformed_phases(self, phases):
        # a NaN phase would otherwise reach verification and print FAIL
        with pytest.raises(ValueError):
            sequence_from_dict({"dim": 2, "gates": [], "virtual_phases": phases})


def test_rotation_gate_validation():
    with pytest.raises(ValueError):
        RotationGate(1, 1, 0.3, 0.0)
    with pytest.raises(ValueError):
        RotationGate(0, 1, float("nan"), 0.0)
