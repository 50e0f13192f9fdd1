"""Geometric deep networks: manifold exp/log charts (the torus and real
projective quotients among them), constructive Bernstein network
compilation, and quantitative depth/width estimators with a
dataset-efficiency certifier.

The names below are imported from their submodules on first use (PEP 562),
so ``import gdn.<module>`` loads only what that module needs.
"""
import importlib

__version__ = "0.1.0"

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "assemble": ("CompiledGDN", "compile_gdn"),
    "errors": (
        "BadThetaError",
        "DomainError",
        "GdnError",
        "InfeasibleDegreeError",
        "NumericError",
        "OutOfInjectivityError",
        "ParseError",
        "RangeError",
        "UnsupportedError",
        "ValidationError",
    ),
    "manifolds": (
        "GaussianParam",
        "ManifoldSpec",
        "distance",
        "exp_map",
        "k_star",
        "log_map",
        "resolve_manifold",
        "sym_matrix_function",
        "universality_radius",
        "wasserstein2",
    ),
    "model": ("GDNModel", "gdn_eval", "save_gdn"),
    "network": (
        "ActivationInfo",
        "AffineLayer",
        "FeedforwardNet",
        "eval_net",
        "get_activation",
        "param_count",
        "register_activation",
        "width",
    ),
    "readouts": (
        "Ball",
        "Box",
        "Simplex",
        "gauge_chart",
        "project_convex",
        "softmax_chart",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
# the submodules an ``import gdn`` makes reachable as attributes
_SUBMODULES = ("approx", "sampling", *_EXPORTS)

__all__ = ["approx", "manifolds", *_SOURCE]


def __getattr__(name):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
