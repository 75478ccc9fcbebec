"""Phase-layer commutation, checked against direct matrix products."""
import numpy as np
import pytest

from quditc.gates import RotationGate, VirtualZGate, rotation_matrix, sequence_matrix
from quditc.linalg import max_norm
from quditc.phases import commute_through, sweep_phases


def diag_matrix(phases) -> np.ndarray:
    return np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


class TestCommuteThrough:
    def test_identity_phases_leave_gate_unchanged(self):
        gate = RotationGate(0, 1, 0.8, 0.2)
        rot, phases = commute_through(np.zeros(3), gate)
        assert rot == gate
        assert np.allclose(phases, 0.0)

    def test_three_level_example(self):
        # diag(phi, gamma, delta) . R01(theta, a) = R01(theta, a - phi + gamma) . diag
        phi, gamma, delta = 0.3, -0.9, 1.7
        gate = RotationGate(0, 1, 1.1, 0.4)
        rot, _ = commute_through([phi, gamma, delta], gate)
        assert rot.phi == pytest.approx(0.4 - phi + gamma, abs=1e-14)
        assert rot.theta == gate.theta

    def test_matrix_oracle_random(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            dim = int(rng.integers(3, 6))
            lo, hi = sorted(int(x) for x in rng.choice(dim, size=2, replace=False))
            gate = RotationGate(lo, hi, float(rng.uniform(0, np.pi)),
                                float(rng.uniform(-np.pi, np.pi)))
            phases = rng.uniform(-np.pi, np.pi, size=dim)
            rot, out = commute_through(phases, gate)
            lhs = diag_matrix(phases) @ rotation_matrix(gate, dim)
            rhs = rotation_matrix(rot, dim) @ diag_matrix(out)
            assert max_norm(lhs - rhs) <= 1e-12


class TestSweepPhases:
    def test_pure_z_sequence(self):
        gates = [VirtualZGate(0, 0.2), VirtualZGate(2, -0.5), VirtualZGate(0, 0.1)]
        rots, theta = sweep_phases(gates, dim=3)
        assert rots == []
        assert np.allclose(theta, [0.3, 0.0, -0.5])

    def test_single_z_then_rotation(self):
        gates = [VirtualZGate(0, 0.7), RotationGate(0, 1, 1.2, 0.3)]
        rots, theta = sweep_phases(gates, dim=3)
        before = sequence_matrix(gates, 3)
        after = sequence_matrix(rots, 3) @ diag_matrix(theta)
        assert max_norm(before - after) <= 1e-12

    def test_random_mixed_sequences(self):
        rng = np.random.default_rng(17)
        for trial in range(30):
            dim = int(rng.integers(3, 6))
            gates = []
            for _ in range(10):
                if rng.random() < 0.4:
                    gates.append(VirtualZGate(int(rng.integers(dim)),
                                              float(rng.uniform(-np.pi, np.pi))))
                else:
                    lo, hi = sorted(int(x) for x in rng.choice(dim, size=2, replace=False))
                    gates.append(RotationGate(lo, hi, float(rng.uniform(0, np.pi)),
                                              float(rng.uniform(-np.pi, np.pi))))
            leading = rng.uniform(-np.pi, np.pi, size=dim)
            rots, theta = sweep_phases(gates, leading, dim=dim)
            assert all(isinstance(g, RotationGate) for g in rots)
            before = sequence_matrix(gates, dim) @ diag_matrix(leading)
            after = sequence_matrix(rots, dim) @ diag_matrix(theta)
            assert max_norm(before - after) <= 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        gates = [RotationGate(0, 2, 1.0, -0.2), VirtualZGate(1, 0.9),
                 RotationGate(1, 2, 0.4, 1.3)]
        rots, theta = sweep_phases(gates, dim=3)
        rots2, theta2 = sweep_phases(rots, theta, dim=3)
        assert rots2 == rots
        assert np.allclose(theta2, theta)

    def test_angles_untouched(self):
        gates = [VirtualZGate(0, 1.0), RotationGate(0, 1, 0.77, 0.0),
                 RotationGate(1, 2, 2.13, 0.5), VirtualZGate(2, -0.3)]
        rots, _ = sweep_phases(gates, dim=3)
        assert [g.theta for g in rots] == [0.77, 2.13]
