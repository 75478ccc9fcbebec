"""Experimental cost model for two-level rotations.

The default model scales linearly with the rotation angle, adds a
periodic penalty for angles away from the calibrated value, and scales
with the graph distance of the two states:

    cost = base_factor * dist * (4*t + |mod(t + c/2, c) - c/2|)

where t = |theta|/pi and c is the calibrated angle in units of pi.
Virtual Z gates cost nothing.

Models are swappable: ``CostParams.model`` holds the model function, so
every consumer that carries a CostParams uses the chosen hardware model.
A model must be a pure function of (theta, dist, params): the adaptive
search prices each distinct angle once per search and reuses the value.
Its cost must be a real number (a ``numbers.Real``, not a bool), finite
and >= 0, or rotation_cost raises ValueError: the search prunes a path as
soon as its cost so far, or a candidate's routing alone, reaches the
incumbent's, which is exact only because no later rotation lowers the
total.

The search also cuts a child whose cost so far plus a floor on what its
completion must cost reaches the incumbent's.  ``min_cost_per_radian``
gives the floor's rate k: a model that costs at least k * theta for every
rotation by theta in [0, pi] (the search's angles) at distance 1.  The
default model costs base_factor * (4t + penalty) with t = theta / pi and
a penalty >= 0, so its k is 4 * base_factor / pi; any other model gets 0,
and a search under it cuts nothing by the floor.  The floor holds, up to
rounding, for theta = 0 and for theta at or above a normal bound such as
1e-300, not at subnormal angles: theta = 5e-324 costs 0.0.  The search
never prices such an angle, as it rotates only entries above
``linalg.DEFAULT_TOL``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gates import RotationGate
from .linalg import is_real


_PI = math.pi
_TWO_PI = 2.0 * math.pi
_fmod = math.fmod
_INF = math.inf
# rotation_costs' smallest batch for the array form: below about 24 angles
# numpy's fixed cost per call exceeds the scalar loop's.
_ARRAY_BATCH = 32


def _calibrated_linear(theta: float, dist: int, params: CostParams) -> float:
    t = (abs(theta) % _TWO_PI) / _PI
    c = params.calibrated_angle
    half = c / 2.0
    return params.base_factor * dist * (4.0 * t + abs(_fmod(t + half, c) - half))


@dataclass(frozen=True)
class CostParams:
    base_factor: float = 1e-4
    calibrated_angle: float = 0.5   # units of pi
    model: Callable[[float, int, CostParams], float] = _calibrated_linear

    def __post_init__(self):
        if not all(is_real(v) and 0 < v < math.inf
                   for v in (self.base_factor, self.calibrated_angle)):
            raise ValueError("cost parameters must be real numbers, finite and positive")
        if not callable(self.model):
            raise ValueError(f"cost model {self.model!r} is not callable")


def rotation_cost(theta: float, dist: int, params: CostParams = CostParams()) -> float:
    """Cost of one two-level rotation by theta (radians) at graph distance
    dist, under params' model; ValueError unless it is a real number,
    finite and >= 0."""
    if dist < 1:
        raise ValueError("distance must be >= 1")
    cost = params.model(theta, dist, params)
    if not ((type(cost) is float or is_real(cost)) and 0.0 <= cost < _INF):
        raise ValueError(f"cost model returned {cost!r} for theta {theta!r}; "
                         "a cost must be a real number, finite and >= 0")
    return cost


def rotation_costs(thetas, params: CostParams = CostParams()) -> list:
    """[rotation_cost(theta, 1, params) for theta in thetas], bit for bit.
    The default model is evaluated once on the whole array, from
    _ARRAY_BATCH angles up: numpy's abs, remainder of a number >= 0, fmod
    and arithmetic round each element as the scalar formula's float
    operations do.  A smaller batch, any other model, or a batch with a
    cost that is not finite is priced by rotation_cost one angle at a time,
    which raises where it would."""
    if params.model is _calibrated_linear and len(thetas) >= _ARRAY_BATCH:
        c = params.calibrated_angle
        half = c / 2.0
        with np.errstate(all="ignore"):  # a cost that is not finite is priced again below
            t = np.abs(np.array(thetas, dtype=np.float64)) % _TWO_PI / _PI
            costs = params.base_factor * (4.0 * t + np.abs(np.fmod(t + half, c) - half))
        if np.isfinite(costs).all():
            return costs.tolist()
    return [rotation_cost(theta, 1, params) for theta in thetas]


def min_cost_per_radian(params: CostParams = CostParams()) -> float:
    """k with rotation_cost(theta, 1, params) >= k * theta, up to rounding,
    for theta = 0 and for theta in [1e-300, pi] (a subnormal theta can cost
    0.0): 4 * base_factor / pi for the default model, 0 for any other."""
    return 4.0 * params.base_factor / math.pi if params.model is _calibrated_linear else 0.0


def pulse_cost(params: CostParams = CostParams()) -> float:
    """Cost of one reordering pulse: an adjacent pi rotation."""
    return rotation_cost(math.pi, 1, params)


def sequence_cost(gates, params: CostParams = CostParams()) -> float:
    """Total cost of an already-physical sequence: every rotation is an
    adjacent (distance-1) pulse; virtual Z gates are free."""
    total = 0.0
    for gate in gates:
        if isinstance(gate, RotationGate):
            total += rotation_cost(gate.theta, 1, params)
    return total
