from .core import (
    ManifoldSpec,
    k_star,
    resolve_manifold,
    universality_radius,
)
from .gaussian import (
    GaussianParam,
    gaussian_chart_decode,
    gaussian_chart_encode,
    wasserstein2,
)
from .sym import (
    check_spd,
    check_symmetric,
    frob_unvec,
    frob_vec,
    jacobi_eigh,
    sym_chart_decode,
    sym_chart_encode,
    sym_matrix_function,
)
from .zoo import (
    distance,
    exp_map,
    log_map,
    mobius_add,
    random_point,
    random_tangent,
)

__all__ = [
    "ManifoldSpec",
    "k_star",
    "resolve_manifold",
    "universality_radius",
    "GaussianParam",
    "gaussian_chart_decode",
    "gaussian_chart_encode",
    "wasserstein2",
    "check_spd",
    "check_symmetric",
    "frob_unvec",
    "frob_vec",
    "jacobi_eigh",
    "sym_chart_decode",
    "sym_chart_encode",
    "sym_matrix_function",
    "distance",
    "exp_map",
    "log_map",
    "mobius_add",
    "random_point",
    "random_tangent",
]
