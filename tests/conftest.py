import numpy as np
import pytest
from scipy.stats import unitary_group

from quditc.adaptive import _Search
from quditc.cost import CostParams
from quditc.graph import CouplingGraph


def haar_unitary(dim: int, seed: int) -> np.ndarray:
    return unitary_group.rvs(dim, random_state=np.random.default_rng(seed))


def unfinished_elimination_input() -> np.ndarray:
    """A 5x5 matrix unitary within DEFAULT_TOL (error 8.85e-10) whose
    elimination ladder leaves an off-diagonal entry of 1.09e-9, above it."""
    u = haar_unitary(5, 1660)
    u[:, -1] += 4e-10 * np.random.default_rng(1660).standard_normal(5)
    return u


@pytest.fixture
def no_search_node(monkeypatch):
    """Fail the test if an adaptive search expands a node."""
    def enter(*args):
        raise AssertionError("a search node was expanded")

    monkeypatch.setattr(_Search, "enter", enter)


@pytest.fixture
def path3() -> CouplingGraph:
    return CouplingGraph(3, frozenset({(0, 1), (1, 2)}), {"0": 0, "1": 1, "2": 2})


@pytest.fixture
def ring4() -> CouplingGraph:
    """Four levels with edges 0-1, 1-2, 2-3, 0-3: identity placement."""
    return CouplingGraph(
        4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}), {str(k): k for k in range(4)}
    )


@pytest.fixture
def bridged_graph() -> CouplingGraph:
    """Eight physical levels, six mapped (one ancilla bridging two states),
    two levels unused.  Edge set is a tree on the mapped levels:

        |2>@0 -- |0>@2,  |2>@0 -- |a0>@3,  |1>@1 -- |a0>@3,
        |1>@1 -- |4>@4,  |1>@1 -- |3>@5
    """
    edges = frozenset({(0, 2), (0, 3), (1, 3), (1, 4), (1, 5)})
    mapping = {"2": 0, "1": 1, "0": 2, "a0": 3, "4": 4, "3": 5}
    return CouplingGraph(8, edges, mapping, frozenset({"a0"}))


@pytest.fixture
def flat_cost_model():
    """A flat per-gate cost, a hundred times below the default model's."""
    return CostParams(model=lambda theta, dist, p: 0.01 * p.base_factor * dist)
