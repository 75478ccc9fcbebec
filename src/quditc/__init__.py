"""quditc: compile single-qudit unitaries into two-level rotations under
energy-coupling-graph constraints."""

from ._compile import CompilationResult, SearchStats
from .adaptive import NoSolutionError, SearchConfig, adaptive_compile
from .clifford import generator_set, random_clifford, random_cliffords
from .cost import CostParams, pulse_cost, rotation_cost, sequence_cost
from .gates import (
    Gate,
    RotationGate,
    VirtualZGate,
    conjugated,
    gate_matrix,
    reorder_pulse,
    rotation_matrix,
    save_sequence,
    sequence_matrix,
    virtual_z_matrix,
)
from .graph import (
    CouplingGraph,
    RoutingPlan,
    apply_graph_rules,
    embedding_matrix,
    load_graph,
    plan_routing,
    save_graph,
)
from .linalg import (
    DEFAULT_TOL,
    equal_up_to_global_phase,
    is_diagonal,
    is_unitary,
    load_unitary,
    max_norm,
    save_unitary,
)
from .qr import qr_cost_bound, qr_decompose
from .verify import reconstruction_error, verify_result, verify_sequence_document

__version__ = "0.1.0"

__all__ = [
    "CompilationResult",
    "CostParams",
    "CouplingGraph",
    "DEFAULT_TOL",
    "Gate",
    "NoSolutionError",
    "RotationGate",
    "RoutingPlan",
    "SearchConfig",
    "SearchStats",
    "VirtualZGate",
    "adaptive_compile",
    "apply_graph_rules",
    "conjugated",
    "embedding_matrix",
    "equal_up_to_global_phase",
    "gate_matrix",
    "generator_set",
    "is_diagonal",
    "is_unitary",
    "load_graph",
    "load_unitary",
    "max_norm",
    "plan_routing",
    "pulse_cost",
    "qr_cost_bound",
    "qr_decompose",
    "random_clifford",
    "random_cliffords",
    "reconstruction_error",
    "reorder_pulse",
    "rotation_cost",
    "rotation_matrix",
    "save_graph",
    "save_sequence",
    "save_unitary",
    "sequence_cost",
    "sequence_matrix",
    "verify_result",
    "verify_sequence_document",
    "virtual_z_matrix",
]
