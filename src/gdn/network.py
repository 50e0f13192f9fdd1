"""Feedforward network representation: affine layers with a componentwise
activation between layers (never after the last), plus JSON serialization
with bit-exact float round trips.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from .errors import GdnError, NumericError, ValidationError

__all__ = [
    "ActivationInfo",
    "get_activation",
    "AffineLayer",
    "FeedforwardNet",
    "eval_net",
    "param_count",
    "width",
    "net_to_dict",
    "net_from_dict",
]


@dataclass(frozen=True)
class ActivationInfo:
    """An activation function and its declared class.

    ``cls`` is declared, not inferred, and it decides what the compiler
    does with the activation: synthesis needs "smooth-nonpoly", and
    verticalization carries registers through "piecewise-linear" relu and
    leaky-relu on the half-line [0, inf), where both are the identity, or
    through a "smooth-nonpoly" one linearized at 0.  The registry below is
    the whole set; ``tests/test_network.py`` checks the facts about it that
    those codecs assume.

    ``theta0`` holds a smooth activation's stencil offsets: synthesis reads
    ``sigma(w z - theta0[k-1])`` for a polynomial of degree k, because
    sigma's derivatives at -theta0[k-1] are nonzero up to order k; degrees
    above 6 take ``theta0[5]``, since higher-order stencils drown in
    roundoff.  Each offset is written to the bit as the point of
    np.linspace(-3, 3, 121) it was chosen from; ``tests/test_network.py``
    checks that the estimates there stay off zero.  The other classes have
    none.
    """

    name: str
    cls: str
    eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    theta0: Tuple[float, ...] = ()

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))


_REGISTRY = {info.name: info for info in (
    ActivationInfo("relu", "piecewise-linear", lambda x: np.maximum(x, 0.0)),
    ActivationInfo("leaky-relu", "piecewise-linear",
                   lambda x: np.where(x >= 0.0, x, 0.01 * x)),
    ActivationInfo("exp", "smooth-nonpoly", np.exp, theta0=(0.0,) * 6),
    ActivationInfo("softplus", "smooth-nonpoly", lambda x: np.logaddexp(0.0, x),
                   theta0=(0.0, 0.0, -1.2999999999999998) + (0.7000000000000002,) * 3),
    ActivationInfo("sigmoid", "smooth-nonpoly", lambda x: 1.0 / (1.0 + np.exp(-x)),
                   theta0=(0.0, -1.2999999999999998, 0.7000000000000002,
                           0.7000000000000002, 0.6500000000000004, 0.6500000000000004)),
    ActivationInfo("tanh", "smooth-nonpoly", np.tanh, theta0=(1.0,) * 6),
    ActivationInfo("square", "nonaffine-poly", lambda x: x * x),
)}


def get_activation(name: str) -> ActivationInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown activation {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


@dataclass(frozen=True)
class AffineLayer:
    """x -> W x + b with W of shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=float)
        b = np.asarray(self.bias, dtype=float).ravel()
        if W.ndim != 2:
            raise ValidationError(f"layer weights must be a matrix, got ndim={W.ndim}")
        if b.size != W.shape[0]:
            raise ValidationError(
                f"bias length {b.size} does not match output dim {W.shape[0]}"
            )
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValidationError("layer parameters must be finite")
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "bias", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class FeedforwardNet:
    """A chain of affine layers with the activation applied componentwise
    between consecutive layers only."""

    layers: Tuple[AffineLayer, ...]
    activation: ActivationInfo

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValidationError("a network needs at least one affine layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ValidationError(
                    f"layer dims do not chain: {a.out_dim} -> {b.in_dim}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    @property
    def depth(self) -> int:
        """Number of hidden (activated) layers."""
        return len(self.layers) - 1

    def __call__(self, x):
        return eval_net(self, x)


def eval_net(net: FeedforwardNet, x) -> np.ndarray:
    """Deterministic forward pass on one input or an (N, in_dim) stack.

    A stack gives an (N, out_dim) result, each row bit for bit the result
    of that row alone: every layer is one matrix-vector product per row,
    which rounds like ``W @ x`` (a single matrix product over the stack
    does not).
    """
    h = np.asarray(x, dtype=float)
    if h.ndim != 2:
        h = h.ravel()
    if h.shape[-1] != net.in_dim:
        got = h.shape[-1] if h.ndim == 2 else h.size
        raise ValidationError(f"input length {got} != network input dim {net.in_dim}")
    if np.count_nonzero(np.isfinite(h)) != h.size:
        raise ValidationError("network input has non-finite entries")
    last = len(net.layers) - 1
    for i, layer in enumerate(net.layers):
        h = (layer.weights @ h[..., None])[..., 0] + layer.bias
        if i != last:
            h = net.activation(h)
        if np.count_nonzero(np.isfinite(h)) != h.size:
            raise NumericError(f"non-finite value after layer {i}")
    return h


def param_count(net: FeedforwardNet) -> int:
    """Total trainable parameters: sum over layers of out*(in+1)."""
    return sum(l.out_dim * (l.in_dim + 1) for l in net.layers)


def width(net: FeedforwardNet) -> int:
    """Maximum hidden layer size (0 for a single affine layer)."""
    if len(net.layers) == 1:
        return 0
    return max(l.out_dim for l in net.layers[:-1])


def net_to_dict(net: FeedforwardNet) -> dict:
    return {
        "layers": [
            {"weights": l.weights.tolist(), "bias": l.bias.tolist()}
            for l in net.layers
        ],
        "activation": {
            "name": net.activation.name,
            "class": net.activation.cls,
            # the count of kinks: relu's and leaky-relu's one at 0
            "breakpoints": int(net.activation.cls == "piecewise-linear"),
        },
    }


def net_from_dict(d: dict) -> FeedforwardNet:
    try:
        act = get_activation(d["activation"]["name"])
        layers = tuple(
            AffineLayer(np.array(l["weights"], dtype=float),
                        np.array(l["bias"], dtype=float))
            for l in d["layers"]
        )
    except GdnError:  # a ValueError that already names the problem
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed network dictionary: {e}") from e
    declared = d["activation"].get("class")
    if declared is not None and declared != act.cls:
        raise ValidationError(
            f"activation class mismatch: file says {declared!r}, registry says {act.cls!r}"
        )
    return FeedforwardNet(layers, act)
