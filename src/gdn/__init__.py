"""Geometric deep networks: manifold exp/log charts (the torus and real
projective quotients among them), constructive Bernstein network
compilation, and quantitative depth/width estimators with a
dataset-efficiency certifier.
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
    distance,
    exp_map,
    k_star,
    log_map,
    resolve_manifold,
    sym_matrix_function,
    universality_radius,
    wasserstein2,
)
from .model import (
    GDNModel,
    gdn_eval,
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
from .readouts import (
    Ball,
    Box,
    Simplex,
    gauge_chart,
    project_convex,
    softmax_chart,
)
