"""Geometric deep networks: manifold exp/log charts, quotient and product
composition, constructive Bernstein network compilation, and quantitative
depth/width estimators with a dataset-efficiency certifier.
"""

__version__ = "0.1.0"

from . import approx, manifolds
from .assemble import CompiledGDN, compile_gdn
from .errors import (
    BadThetaError,
    DomainError,
    GdnError,
    InfeasibleDegreeError,
    NumericError,
    OutOfInjectivityError,
    ParseError,
    RangeError,
    UnsupportedError,
    ValidationError,
)
from .manifolds import (
    GaussianParam,
    ManifoldSpec,
    delta_bound,
    distance,
    exp_map,
    gaussian_chart,
    inj_lower,
    k_star,
    log_map,
    resolve_manifold,
    sym_chart,
    sym_matrix_function,
    universality_radius,
    wasserstein2,
)
from .model import (
    GDNModel,
    PipelineModel,
    gdn_eval,
    load_gdn,
    parallelize,
    pipeline_eval,
    save_gdn,
)
from .network import (
    ActivationInfo,
    AffineLayer,
    FeedforwardNet,
    eval_net,
    get_activation,
    param_count,
    register_activation,
    width,
)
from .quotient import (
    GroupAction,
    ProductSpace,
    QuotientSpace,
    antipodal_action,
    canonical_rep,
    check_group_axioms,
    finite_list_action,
    lattice_action,
    product_distance,
    quotient_distance,
    resolve_quotient,
)
from .readouts import (
    Ball,
    Box,
    ReadoutSpec,
    Simplex,
    Star,
    gauge_chart,
    homotopy_shrink,
    project_convex,
    softmax_chart,
)
