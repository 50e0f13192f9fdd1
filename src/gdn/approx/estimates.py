"""Depth/width/parameter estimators for deep-narrow geometric networks and
the polynomial-rate estimates on efficient datasets.

All orders are reported with implied constant 1; they are order-level
quantities, not certified counts.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from ..errors import NumericError, ValidationError
from .modulus import Modulus, modulus_inverse

__all__ = ["DepthEstimate", "depth_estimate", "EfficientComplexity",
           "efficient_complexity"]

_CLASSES = ("smooth", "poly", "continuous")


@dataclass(frozen=True)
class DepthEstimate:
    """Order-level depth of a deep-narrow network achieving accuracy eps on
    a ball of radius delta, by activation regularity class."""

    activation_class: str
    depth_order: float
    width: int
    params_order: float
    p: int
    m: int
    eps: float
    delta: float
    kappa1: float
    kappa2: float
    B: Optional[float] = None

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.B is None:
            del d["B"]
        return d


def depth_estimate(activation_class: str, p: int, m: int, eps: float,
                   delta: float, modulus: Modulus, kappa1: float, kappa2: float,
                   B: Optional[float] = None,
                   sigma_modulus: Optional[Modulus] = None) -> DepthEstimate:
    """Evaluate the depth-order expression for the given activation class.

    smooth:      m (2 delta)^{2p} / (kappa2 omega^{-1}(eps kappa1 / ((1+p/4) m)))^{2p}
    poly:        m (m+p) (2 delta)^{4p+2} / (kappa2 omega^{-1}(same arg))^{4p+2},
                 one extra neuron per layer
    continuous:  the smooth expression with halved budget, divided by
                 kappa2 omega^{-1}(sigma, eps / (2 B m (2^{(2 delta)^2 r^{-2} + 1} - 1)))
                 where r is the f-modulus inverse at the halved budget

    A power, depth or parameter order past the float range, or a quotient
    by a power that underflowed to 0, is a ``NumericError`` that names the
    class and the quantity.
    """
    if activation_class not in _CLASSES:
        raise ValidationError(f"activation class must be one of {_CLASSES}")
    if p < 1 or m < 1:
        raise ValidationError("p and m must be positive integers")
    for name, val in (("eps", eps), ("delta", delta), ("kappa1", kappa1),
                      ("kappa2", kappa2)):
        if not (0.0 < val < math.inf):
            raise ValidationError(f"{name} must be positive and finite, got {val!r}")
    if B is not None and not math.isfinite(B):
        raise ValidationError(f"B must be finite, got {B!r}")
    if B is not None and B <= 0.0:
        raise ValidationError(f"B must be positive, got {B!r}")
    if activation_class == "continuous":
        if B is None:
            raise ValidationError("the continuous class requires B > 0")
        if sigma_modulus is None:
            raise ValidationError("the continuous class requires an activation modulus")

    def inv(arg: float) -> float:
        r = modulus_inverse(modulus, arg)
        if r == 0.0:
            raise NumericError(f"modulus inverse vanished at {arg!r}: singular estimate")
        return r

    # a float ** past the float range and a division by a power that
    # underflowed to 0 raise, and so does a * or / that gives inf
    def overflow(what: str) -> NumericError:
        return NumericError(f"{activation_class} estimate: {what} overflows")

    def finite(value: float, what: str) -> float:
        if not math.isfinite(value):
            raise overflow(what)
        return value

    def power(base: float, exponent: float, what: str) -> float:
        try:
            return base ** exponent
        except OverflowError:
            raise overflow(what) from None

    def ratio(num: float, den: float, what: str) -> float:
        if den == 0.0:
            raise overflow(what)
        return finite(num / den, what)

    poly, continuous = activation_class == "poly", activation_class == "continuous"
    # the continuous class halves the budget (x 2.0 is exact, so the order
    # of the products does not change a bit)
    r = inv(eps * kappa1 / ((1.0 + p / 4.0) * m * (2.0 if continuous else 1.0)))
    sigma_term = 1.0
    if continuous:
        exponent = ratio(power(2.0 * delta, 2, "(2 delta)^2"), power(r, 2, "r^2"),
                         "(2 delta)^2 / r^2") + 1.0
        twos = power(2.0, exponent, "2^((2 delta)^2 / r^2 + 1)")
        r_sigma = modulus_inverse(sigma_modulus, eps / (2.0 * B * m * (twos - 1.0)))
        if r_sigma == 0.0:
            raise NumericError("activation modulus inverse vanished: singular estimate")
        if math.isinf(r_sigma):
            # a modulus that never grows is a constant activation's, which
            # approximates nothing
            raise NumericError("activation modulus inverse is infinite: singular estimate")
        sigma_term = kappa2 * r_sigma
    k = 4 * p + 2 if poly else 2 * p
    num = (m * (m + p) if poly else m) * power(2.0 * delta, k, f"(2 delta)^{k}")
    depth = ratio(num, power(kappa2 * r, k, f"(kappa2 r)^{k}") * sigma_term, "depth_order")
    w = p + m + (3 if poly else 2)
    params = finite(depth * w * (w + 1), "params_order")
    return DepthEstimate(activation_class, depth, w, params, p, m, eps, delta,
                         kappa1, kappa2, B)


@dataclass(frozen=True)
class EfficientComplexity:
    """Polynomial-rate complexity of a piecewise-linear network on an
    n-efficient dataset."""

    width_lo: int
    width_hi: int
    depth_order: float
    params_order: float
    error_factor: float
    degenerate_params: bool
    p: int
    m: int
    n: int
    eps: float

    def to_dict(self) -> dict:
        return asdict(self)


def efficient_complexity(p: int, m: int, n: int, eps: float) -> EfficientComplexity:
    """Width window m <= W <= m(4p+10), depth
    m + m eps^{2p/(3(np+1)) - p/(np+1)}, parameter order
    m(m^2-1) eps^{-2p/(3(np+1))}, and the sqrt(m) error inflation factor."""
    if p < 1 or m < 1 or n < 1:
        raise ValidationError("p, m, n must be positive integers")
    if not (0.0 < eps <= 1.0):
        raise ValidationError(f"eps must be in (0, 1], got {eps!r}")
    denom = 3.0 * (n * p + 1.0)
    depth = m + m * eps ** (2.0 * p / denom - p / (n * p + 1.0))
    params = m * (m * m - 1.0) * eps ** (-2.0 * p / denom)
    return EfficientComplexity(m, m * (4 * p + 10), depth, params,
                               math.sqrt(m), m == 1, p, m, n, eps)
