"""Phase-layer commutation, checked against direct matrix products."""
import numpy as np
import pytest

from quditc.gates import RotationGate, rotation_matrix
from quditc.linalg import max_norm
from quditc.phases import commute_through


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

