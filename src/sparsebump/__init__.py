"""Numerical laboratory for two-weight bump conditions for sparse operators
on dyadic grids: bump constants, testing constants, operator norms, and
machine-checked inequality chains with explicit tracked constants."""

__version__ = "0.1.0"

from .bumps import (
    BumpReport,
    EntropyFunction,
    ExponentConfig,
    direct_bumps,
    entropy_bumps,
    eps_eval,
    eps_tail_sum,
    joint_factor,
)
from .grid import DyadicCube, GridConfig, children, contains, enumerate_cubes, parse_cube, root_cube
from .operators import (
    Instance,
    PowerIterationError,
    TestingReport,
    apply_sparse,
    exact_norm_l2,
    norm_lower_bound,
    primal_indicator_ratios,
    testing_constants,
)
from .prooftrace import (
    TraceReport,
    direct_trace,
    dual_direct_trace,
    dual_entropy_trace,
    entropy_trace,
)
from .sparse import (
    SparseFamily,
    carleson_check,
    family_from_json,
    family_to_json,
    random_sparse,
    stopping_family,
    verify_sparse,
)
from .weights import (
    LeafFunction,
    Weight,
    average,
    fix_ce,
    fix_chain_cubes,
    fix_const,
    fix_half,
    generate_weight,
    llogl_integral,
    mass,
    rho,
    weight_from_json,
    weight_to_json,
)
