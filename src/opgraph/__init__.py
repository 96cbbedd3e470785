"""opgraph: operator graphs, quantum anticliques, and dimension oracles."""

from .linalg import DEFAULT_TOL, Tolerance, hs_inner, kron, max_abs, orthonormalize
from .weyl import (
    WeylLabel,
    WeylLabelPair,
    fourier_basis,
    label,
    label_adjoint,
    label_mul,
    label_pow,
    pair_dense,
    pair_monomial,
    weyl_dense,
    weyl_monomial,
    word_table,
    x_matrix,
    z_matrix,
)
from .graph import (
    CodeSpace,
    CompressionReport,
    GraphDim,
    OperatorGraph,
    compress,
    graph_dim,
    graph_from_mask,
    graph_from_labels,
    is_anticlique,
)
from .constructions import (
    ResidueSetA,
    Section4Params,
    baseline_bounds,
    build_code_K1,
    build_remark2,
    build_section2,
    build_section3,
    build_section4,
    claimed_dim_remark2,
    claimed_dim_section2,
    claimed_dim_section3,
    claimed_dim_section4,
    enumerate_section4_params,
    residue_set_A,
)

__version__ = "0.1.0"
