"""The approximation engine.  The names below are imported from their
submodules on first use (PEP 562), so importing one submodule loads only
what it needs."""
import importlib
import sys
import types

# submodule -> the names the package re-exports from it
_EXPORTS = {
    "bernstein": (
        "BernsteinModel",
        "bernstein_degree_for",
        "bernstein_eval",
        "bernstein_from_function",
        "bernstein_to_coefficients",
    ),
    "certify": ("EfficiencyCertificate", "certify_efficient"),
    "estimates": (
        "DepthEstimate",
        "EfficientComplexity",
        "depth_estimate",
        "efficient_complexity",
    ),
    "modulus": (
        "AnalyticModulus",
        "LipschitzModulus",
        "ModulusEstimate",
        "empirical_modulus",
        "empirical_modulus_at",
        "modulus_from_samples",
        "modulus_inverse",
        "smooth_modulus",
        "smooth_modulus_inverse",
    ),
    "polynomials": (
        "LinearFormPoly",
        "MonomialCounts",
        "decompose_polynomial",
        "monomial_counts",
        "parse_poly_expr",
        "poly_derivative",
        "poly_eval",
        "poly_total_degree",
        "reciprocal_approx",
    ),
    "synthesis": (
        "CompileResult",
        "compile_function_to_shallow",
        "compile_poly_to_shallow",
        "finite_diff_derivative",
        "select_theta0",
    ),
    "verticalize": ("verticalize",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    if name in _SOURCE:
        return getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Package(types.ModuleType):
    """Loading a submodule binds it on the package under its own name, which
    would hide the ``verticalize`` function behind the ``verticalize``
    module; a re-exported name keeps the function."""

    def __setattr__(self, name, value):
        if name in _SOURCE and isinstance(value, types.ModuleType):
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
