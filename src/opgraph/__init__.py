"""opgraph: operator graphs, quantum anticliques, and dimension oracles."""

from .linalg import ABSOLUTE_TOL, RELATIVE_TOL, max_abs
from .weyl import fourier_basis, weyl_monomial
from .graph import (
    CodeSpace,
    CompressionReport,
    OperatorGraph,
    graph_dim,
    graph_from_mask,
    is_anticlique,
)
from .constructions import (
    Section4Params,
    allowed_shifts,
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
)

__version__ = "0.1.0"
