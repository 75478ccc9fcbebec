"""Rotation and virtual-Z gate matrices, checked against a matrix
exponential oracle, and the rotation phase rule checked against direct
matrix products."""
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from quditc.gates import (
    RotationGate,
    VirtualZGate,
    conjugated,
    reorder_pulse,
    rotation_matrix,
    sequence_from_dict,
    sequence_matrix,
    sequence_to_dict,
    virtual_z_matrix,
)
from quditc.linalg import is_unitary, max_norm


def exponential_oracle(i: int, j: int, theta: float, phi: float, dim: int) -> np.ndarray:
    """Rotation from level i to level j, as written, as the exponential of
    the two-level generator pair."""
    sx = np.zeros((dim, dim), dtype=complex)
    sy = np.zeros((dim, dim), dtype=complex)
    sx[i, j] = sx[j, i] = 1.0
    sy[i, j] = -1j
    sy[j, i] = 1j
    return expm(-1j * theta / 2 * (np.cos(phi) * sx + np.sin(phi) * sy))


def diag_matrix(phases) -> np.ndarray:
    return np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


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
        oracle = exponential_oracle(lo, hi, theta, phi, dim)
        assert max_norm(rotation_matrix(gate, dim) - oracle) < 1e-12

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


angles = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 7), b=st.integers(0, 7), theta=angles, phi=angles)
def test_construction_stores_low_to_high(a, b, theta, phi):
    # Rule 1: a gate written high->low is the same gate low->high with phi
    # negated, and construction stores it that way.
    assume(a != b)
    gate = RotationGate(a, b, theta, phi)
    assert gate == RotationGate(b, a, theta, -phi)
    assert gate.level_low < gate.level_high
    assert max_norm(rotation_matrix(gate, 8) - exponential_oracle(a, b, theta, phi, 8)) < 1e-12


class TestConjugated:
    def test_identity_phases_leave_gate_unchanged(self):
        gate = RotationGate(0, 1, 0.8, 0.2)
        assert conjugated(gate, np.zeros(3)) == gate

    def test_three_level_example(self):
        # diag(phi, gamma, delta) . R01(theta, a) = R01(theta, a - phi + gamma) . diag
        phi, gamma, delta = 0.3, -0.9, 1.7
        gate = RotationGate(0, 1, 1.1, 0.4)
        rot = conjugated(gate, [phi, gamma, delta])
        assert rot.phi == pytest.approx(0.4 - phi + gamma, abs=1e-14)
        assert rot.theta == gate.theta

    def test_matrix_oracle_random(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            dim = int(rng.integers(3, 6))
            lo, hi = (int(x) for x in rng.choice(dim, size=2, replace=False))
            gate = RotationGate(lo, hi, float(rng.uniform(0, np.pi)),
                                float(rng.uniform(-np.pi, np.pi)))
            phases = rng.uniform(-np.pi, np.pi, size=dim)
            lhs = diag_matrix(phases) @ rotation_matrix(gate, dim)
            rhs = rotation_matrix(conjugated(gate, phases), dim) @ diag_matrix(phases)
            assert max_norm(lhs - rhs) <= 1e-12


finite_angles = st.floats(-10.0, 10.0, allow_nan=False)


class TestGateCopy:
    """conjugated and inverse copy an already checked gate instead of
    running the constructor; the copy must be indistinguishable from a
    constructed gate."""

    @settings(max_examples=300, deadline=None)
    @given(levels=st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True),
           theta=finite_angles, phi=finite_angles, routing=st.booleans(),
           phases=st.lists(finite_angles, min_size=8, max_size=8))
    def test_conjugated_equals_constructed_gate(self, levels, theta, phi, routing, phases):
        gate = RotationGate(*levels, theta, phi, routing=routing)
        lo, hi = gate.level_low, gate.level_high
        built = RotationGate(lo, hi, theta, gate.phi + (phases[hi] - phases[lo]), routing=routing)
        for shifts in (phases, np.array(phases)):
            copied = conjugated(gate, shifts)
            assert copied == built
            assert hash(copied) == hash(built)
            assert repr(copied) == repr(built)
        assert gate.inverse() == RotationGate(lo, hi, -theta, gate.phi, routing=routing)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_phase_rejected(self, bad):
        gate = RotationGate(0, 2, 0.8, 0.2)
        for phases in ([bad, 0.0, 0.0], [0.0, 0.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                conjugated(gate, phases)
        with pytest.raises(ValueError, match="finite"):  # a finite shift that overflows phi
            conjugated(RotationGate(0, 1, 0.8, 1.5e308), [-1.5e308, 0.0])

    def test_slotted_frozen_value(self):
        gate = conjugated(RotationGate(3, 1, 0.8, 0.2, routing=True), [0.1, 0.2, 0.3, 0.4])
        assert not hasattr(gate, "__dict__")
        with pytest.raises(AttributeError):
            gate.phi = 0.0
        for twin in (pickle.loads(pickle.dumps(gate)), copy.deepcopy(gate), copy.copy(gate)):
            assert twin == gate and hash(twin) == hash(gate) and repr(twin) == repr(gate)

    def test_reorder_pulse_either_order(self):
        for a, b in ((0, 1), (4, 2), (7, 3)):
            assert reorder_pulse(a, b) == reorder_pulse(b, a)
            assert reorder_pulse(a, b).level_low == min(a, b)
        with pytest.raises(ValueError):
            reorder_pulse(2, 2)


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


def test_negative_levels_rejected():
    with pytest.raises(ValueError, match="rotation levels must be non-negative"):
        RotationGate(-1, 2, 0.1, 0.0)
    with pytest.raises(ValueError, match="level must be non-negative"):
        VirtualZGate(-1, 0.3)


# Each argument is checked, not converted: levels are integers (a
# numbers.Integral, not a bool), angles real numbers (a numbers.Real, not a
# bool) and finite, and routing a bool.
@pytest.mark.parametrize("args", [
    (0.5, 1, 0.3, 0.1), (0, 2.0, 0.3, 0.1), (True, 2, 0.3, 0.1), (0, "1", 0.3, 0.1),
    (0, 1, "0.3", 0.1), (0, 1, 0.3, "0.1"), (0, 1, True, 0.1), (0, 1, 0.3, False),
    (0, 1, 0.3j, 0.1), (0, 1, 0.3, 10 ** 400), (0, 1, 0.3, 0.1, 1), (0, 1, 0.3, 0.1, "yes"),
    (0, 1, 0.3, 0.1, None)])
def test_rotation_gate_rejects_wrong_types(args):
    with pytest.raises(ValueError):
        RotationGate(*args)


@pytest.mark.parametrize("level, phi", [(1.5, 0.3), (1.0, 0.3), (True, 0.3), ("1", 0.3),
                                        (1, "0.3"), (1, True), (1, 0.3j), (1, math.inf)])
def test_virtual_z_gate_rejects_wrong_types(level, phi):
    with pytest.raises(ValueError):
        VirtualZGate(level, phi)


def test_numpy_scalars_accepted():
    gate = RotationGate(np.int64(2), np.int32(0), np.float64(0.3), np.float32(0.1), routing=True)
    assert gate[:2] == (0, 2) and gate.routing is True
    assert VirtualZGate(np.int64(1), np.float64(0.3)).level == 1
