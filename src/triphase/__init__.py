"""Three-vertex geometric phases of pure quantum states, represented as
point constellations and spherical triangles on the Bloch sphere."""

from .angles import wrap_angle
from .eraser import (
    EraserConfig,
    FringeScan,
    extract_geometric_phase,
    fringe_pair,
    fringe_scan,
)
from .majorana import (
    points_to_state,
    product_state,
    state_to_points,
)
from .phases import (
    CanonicalTriple,
    PhaseDecomposition,
    UndefinedPhaseError,
    canonicalize_triple,
    decompose_phase,
    three_vertex_phase,
)
from .states import (
    BlochPoint,
    PureState,
    inner_product,
    qubit_to_bloch,
    random_pure_state,
)
from .sweep import (
    FamilyParams,
    SweepResult,
    build_family_states,
    family_qubits,
    sweep_alpha,
)

__all__ = [
    "BlochPoint",
    "CanonicalTriple",
    "EraserConfig",
    "FamilyParams",
    "FringeScan",
    "PhaseDecomposition",
    "PureState",
    "SweepResult",
    "UndefinedPhaseError",
    "build_family_states",
    "canonicalize_triple",
    "decompose_phase",
    "extract_geometric_phase",
    "family_qubits",
    "fringe_pair",
    "fringe_scan",
    "inner_product",
    "points_to_state",
    "product_state",
    "qubit_to_bloch",
    "random_pure_state",
    "state_to_points",
    "sweep_alpha",
    "three_vertex_phase",
    "wrap_angle",
]
