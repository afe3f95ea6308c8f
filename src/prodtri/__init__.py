"""Triangulations of a product of two simplices as spanning-tree sets,
with a flip engine, flip-connectivity drivers for the tetrahedron case,
and an exhaustive enumeration oracle for desk-scale verification."""

from types import ModuleType as _ModuleType

from .core import (
    Circuit,
    Dims,
    NotACycle,
    Simplex,
    alternating_path,
    col_neighbors,
    connecting_edges,
    is_forest,
    is_spanning_tree,
    noncrossing,
    row_neighbors,
    shape,
    tree_path,
)
from .triangulation import (
    LocalTriangulation,
    NotInComplex,
    Triangulation,
    ValidityReport,
    proper,
    star,
    validate,
)
from .flips import (
    FlipCertificate,
    NotMaximal,
    Obstruction,
    StaleCertificate,
    all_circuits,
    apply_flip,
    enumerate_flips,
    order_effect,
    psi,
    supports_flip,
)
from .orders import (
    EQUIVALENT,
    GREATER,
    LESS,
    ColumnQuasiorder,
    EmptyInput,
    MalformedLocal,
    NoMinimal,
    PrecedenceDigraph,
    SegmentDecomposition,
    build_precedence,
    compare_columns,
    free_equivalent,
    restriction_order,
    segment_decompose,
    select_extremal,
    toward_row,
    toward_row_free,
    unique_minimal,
)
from .phases import (
    FlipSequence,
    FlipStep,
    GoodnessContext,
    ProofGap,
    WrongDims,
    apply_sequence,
    compute_TI,
    compute_TII,
    connect,
    goodness,
    phase_one,
    phase_three,
    phase_two,
    staircase,
)
from .oracle import (
    BudgetExceeded,
    Corpus,
    FlipGraph,
    build_flip_graph,
    enumerate_triangulations,
    geometric_validate,
    is_connected,
    spanning_trees,
)

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
