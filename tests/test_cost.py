import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quditc import cost as cost_module
from quditc.adaptive import adaptive_compile
from quditc.bench import path_architecture
from quditc.cost import CostParams, min_cost_per_radian, rotation_cost, sequence_cost
from quditc.gates import RotationGate, VirtualZGate
from quditc.graph import CouplingGraph
from quditc.qr import qr_cost_bound, qr_decompose

from conftest import haar_unitary


class TestRotationCost:
    def test_pi_rotation(self):
        assert rotation_cost(math.pi, 1) == pytest.approx(4e-4, rel=1e-12)

    def test_calibrated_angle_has_no_penalty(self):
        assert rotation_cost(math.pi / 2, 1) == pytest.approx(2e-4, rel=1e-12)

    def test_off_calibration_penalty(self):
        assert rotation_cost(0.3 * math.pi, 1) == pytest.approx(1.4e-4, rel=1e-12)

    def test_linear_in_distance(self):
        one = rotation_cost(1.0, 1)
        assert rotation_cost(1.0, 3) == pytest.approx(3 * one, rel=1e-12)

    def test_positive_for_positive_angle(self):
        for theta in (0.01, 0.3, 1.0, 2.0, 3.0):
            assert rotation_cost(theta, 1) > 0

    def test_monotone_in_distance(self):
        costs = [rotation_cost(0.9, d) for d in range(1, 6)]
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_penalty_zeros(self):
        # the calibration term vanishes exactly at odd multiples of the
        # calibrated angle: t = 0.5, 1.0, 1.5 (units of pi)
        p = CostParams()
        for t in (0.5, 1.0, 1.5):
            linear_only = p.base_factor * 4.0 * t
            assert rotation_cost(t * math.pi, 1, p) == pytest.approx(linear_only, rel=1e-12)

    def test_penalty_is_half_periodic(self):
        p = CostParams()
        for t in np.linspace(0.05, 0.45, 9):
            pen1 = rotation_cost(t * math.pi, 1, p) - p.base_factor * 4 * t
            pen2 = rotation_cost((t + 0.5) * math.pi, 1, p) - p.base_factor * 4 * (t + 0.5)
            assert pen1 == pytest.approx(pen2, abs=1e-16)

    def test_negative_angle_uses_magnitude(self):
        assert rotation_cost(-math.pi, 1) == rotation_cost(math.pi, 1)

    def test_invalid_distance(self):
        with pytest.raises(ValueError):
            rotation_cost(1.0, 0)


def reference_calibrated_linear(theta, dist, params):
    """The default model as first written, with math.pi and math.fmod looked
    up and 2 pi computed on every call."""
    t = (abs(theta) % (2.0 * math.pi)) / math.pi
    c = params.calibrated_angle
    penalty = abs(math.fmod(t + c / 2.0, c) - c / 2.0)
    return params.base_factor * dist * (4.0 * t + penalty)


@settings(max_examples=500, deadline=None)
@given(theta=st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                                         2.2e-308, math.pi, -math.pi]),
       dist=st.integers(1, 40),
       base=st.floats(1e-8, 1e3), calibrated=st.floats(0.01, 4.0))
def test_default_model_matches_its_first_form_bit_for_bit(theta, dist, base, calibrated):
    # the model reads its constants from module globals, with the same bits
    params = CostParams(base_factor=base, calibrated_angle=calibrated)
    assert cost_module._calibrated_linear(theta, dist, params).hex() == \
        reference_calibrated_linear(theta, dist, params).hex()


@settings(max_examples=200, deadline=None)
@given(thetas=st.lists(st.floats(-1e300, 1e300) | st.sampled_from(
           [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.pi, -math.pi]), max_size=80),
       base=st.floats(1e-8, 1e3), calibrated=st.floats(0.01, 4.0))
def test_batch_pricing_matches_rotation_cost_bit_for_bit(thetas, base, calibrated):
    # the default model's array form, and the scalar loop below its batch size
    params = CostParams(base_factor=base, calibrated_angle=calibrated)
    assert [c.hex() for c in cost_module.rotation_costs(thetas, params)] == \
        [rotation_cost(t, 1, params).hex() for t in thetas]


def test_batch_pricing_raises_where_rotation_cost_does():
    # a cost that overflows to inf is refused, in a batch as one at a time
    params = CostParams(base_factor=1e308)
    thetas = [0.1] * 40 + [3.0]
    with pytest.raises(ValueError, match="finite"):
        cost_module.rotation_costs(thetas, params)
    calls = []

    def counting(theta, dist, p):
        calls.append(theta)
        return 1.0

    # any other model is priced one angle at a time, in order
    assert cost_module.rotation_costs(thetas, CostParams(model=counting)) == [1.0] * 41
    assert calls == thetas


class TestCostFloor:
    @given(theta=st.just(0.0) | st.floats(1e-300, math.pi), base=st.floats(1e-6, 1.0),
           calibrated=st.floats(0.05, 2.0))
    def test_default_model_costs_at_least_its_rate(self, theta, base, calibrated):
        # the search's angles lie in [0, pi], and each is 0 or at least
        # 2 atan(DEFAULT_TOL); the penalty term is >= 0.  A subnormal theta
        # is outside the floor's domain: 5e-324 costs 0.0
        params = CostParams(base_factor=base, calibrated_angle=calibrated)
        k = min_cost_per_radian(params)
        assert k == 4.0 * base / math.pi
        assert rotation_cost(theta, 1, params) >= k * theta * (1 - 1e-12)

    def test_other_models_have_no_floor(self, flat_cost_model):
        # a wrapper around the default model is another model: no floor
        wrapped = CostParams(model=lambda theta, dist, p: rotation_cost(theta, dist))
        assert min_cost_per_radian(flat_cost_model) == 0.0
        assert min_cost_per_radian(wrapped) == 0.0


def test_params_must_be_positive():
    with pytest.raises(ValueError):
        CostParams(base_factor=0.0)


@pytest.mark.parametrize("field,value", [
    ("base_factor", math.nan), ("base_factor", math.inf),
    ("calibrated_angle", math.nan), ("calibrated_angle", math.inf),
    # a real number, as rotation_cost requires of a model's cost: a bool,
    # a string, None or a complex number is rejected, not read as 1.0
    ("base_factor", True), ("base_factor", "1"), ("base_factor", None), ("base_factor", 1j),
    ("calibrated_angle", True),
])
def test_params_must_be_finite(field, value):
    with pytest.raises(ValueError):
        CostParams(**{field: value})


class TestModelRegistry:
    def test_custom_model_selected_by_name(self, flat_cost_model):
        params = flat_cost_model
        assert rotation_cost(0.1, 1, params) == rotation_cost(3.0, 1, params) \
            == 0.01 * params.base_factor
        # states 1 and 2 sit two levels apart, so the fixed ladder routes:
        # every rotation and every pulse costs the flat model's 1e-6
        g = CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 1, "1": 0, "2": 2})
        result = qr_decompose(haar_unitary(3, 31), g, params)
        assert result.pulse_count > 0
        assert result.total_cost == pytest.approx(1e-6 * len(result.sequence), rel=1e-12)

    def test_unknown_model_rejected(self):
        # a model is a function; a name (models were once registered by
        # name) or None is not one
        for model in ("calibrated-linear", None):
            with pytest.raises(ValueError, match="not callable"):
                CostParams(model=model)


class TestModelContract:
    # The search prunes on the cost so far, and on a candidate's routing
    # alone, so a cost must be finite and >= 0.  Before this check a NaN or
    # inf model compiled to a NaN total_cost and a negative one failed the
    # cost limit.
    @pytest.mark.parametrize("value", [-1e-4, math.nan, math.inf])
    def test_rotation_cost_rejects_value(self, value):
        params = CostParams(model=lambda theta, dist, p: value)
        with pytest.raises(ValueError, match="finite and >= 0"):
            rotation_cost(1.0, 1, params)

    @pytest.mark.parametrize("value", [-1e-4, math.nan, math.inf])
    @pytest.mark.parametrize("compile_with", [adaptive_compile, qr_decompose, qr_cost_bound])
    def test_every_entry_point_rejects_value(self, compile_with, value):
        params = CostParams(model=lambda theta, dist, p: value * theta)
        with pytest.raises(ValueError, match="finite and >= 0"):
            compile_with(haar_unitary(4, 41), path_architecture(4), params=params)

    # A cost that is not a real number once raised TypeError from a
    # comparison, or, as a bool or a complex, compiled to a result whose
    # total_cost was 6.0 or (6+0j).
    @pytest.mark.parametrize("value", [1j, None, "1", True, np.bool_(True), np.complex128(1)],
                             ids=repr)
    @pytest.mark.parametrize("compile_with", [adaptive_compile, qr_decompose, qr_cost_bound])
    def test_every_entry_point_rejects_non_real(self, compile_with, value):
        params = CostParams(model=lambda theta, dist, p: value)
        with pytest.raises(ValueError, match="a real number"):
            compile_with(haar_unitary(4, 41), path_architecture(4), params=params)

    @pytest.mark.parametrize("value", [1, np.float32(1e-4), np.int64(2)], ids=repr)
    def test_real_number_types_accepted(self, value):
        params = CostParams(model=lambda theta, dist, p: value)
        assert rotation_cost(1.0, 1, params) == value

    def test_zero_cost_accepted(self):
        params = CostParams(model=lambda theta, dist, p: 0.0)
        result = adaptive_compile(haar_unitary(4, 41), path_architecture(4), params=params)
        assert result.total_cost == 0.0


def test_sequence_cost_counts_rotations_only():
    gates = [RotationGate(0, 1, math.pi, -math.pi / 2), VirtualZGate(0, 1.0),
             RotationGate(1, 2, math.pi / 2, 0.1)]
    assert sequence_cost(gates) == pytest.approx(6e-4, rel=1e-12)
