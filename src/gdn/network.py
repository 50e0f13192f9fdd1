"""Feedforward network representation: affine layers with a componentwise
activation between layers (never after the last), plus JSON serialization
with bit-exact float round trips.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import NumericError, ValidationError

__all__ = [
    "ActivationInfo",
    "get_activation",
    "register_activation",
    "AffineLayer",
    "FeedforwardNet",
    "eval_net",
    "param_count",
    "width",
    "net_to_dict",
    "net_from_dict",
    "save_net",
    "load_net",
]

ACTIVATION_CLASSES = ("smooth-nonpoly", "continuous-nonpoly", "nonaffine-poly",
                      "piecewise-linear")


@dataclass(frozen=True)
class ActivationInfo:
    """An activation function plus declared regularity metadata.

    ``cls`` is declared, not inferred; :meth:`spot_check` numerically probes
    the standing assumption (non-affine, some point with nonzero derivative)
    at a single location.  ``linear_piece`` marks a half-line on which a
    piecewise-linear activation is exactly affine, ``(lo, slope, intercept)``
    meaning sigma(u) = slope*u + intercept for u >= lo; exact-pwl
    verticalization needs it.  ``smooth_point`` is a point with nonzero
    derivative used by the scaled-identity strategy.
    """

    name: str
    cls: str
    eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    breakpoints: int = 0
    known_theta0: Optional[float] = None
    linear_piece: Optional[Tuple[float, float, float]] = None
    smooth_point: Optional[float] = None

    def __post_init__(self):
        if self.cls not in ACTIVATION_CLASSES:
            raise ValidationError(
                f"activation class must be one of {ACTIVATION_CLASSES}, got {self.cls!r}"
            )
        if self.cls == "piecewise-linear" and self.breakpoints < 1:
            raise ValidationError("piecewise-linear activations need breakpoints >= 1")

    def __call__(self, x):
        return self.eval(np.asarray(x, dtype=float))

    def spot_check(self, at: float = 0.5, h: float = 1e-5) -> bool:
        """One-point numerical probe of the standing activation assumption."""
        f = self.eval
        d = (float(f(np.array(at + h))) - float(f(np.array(at - h)))) / (2 * h)
        probes = np.array([-1.3, at, 2.7])
        vals = f(probes)
        # affine functions have zero second difference everywhere
        second = vals[0] - 2 * vals[1] + vals[2] + (2 * at + 1.3 - 2.7) * d
        nonaffine = abs(float(vals[2] - vals[1] - d * (2.7 - at))) > 1e-8 or abs(
            float(second)) > 1e-8
        return d != 0.0 and nonaffine


_REGISTRY: dict[str, ActivationInfo] = {}


def register_activation(info: ActivationInfo) -> ActivationInfo:
    _REGISTRY[info.name] = info
    return info


def get_activation(name: str) -> ActivationInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValidationError(
            f"unknown activation {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


register_activation(ActivationInfo(
    "relu", "piecewise-linear", lambda x: np.maximum(x, 0.0),
    breakpoints=1, linear_piece=(0.0, 1.0, 0.0)))
register_activation(ActivationInfo(
    "leaky-relu", "piecewise-linear",
    lambda x: np.where(x >= 0.0, x, 0.01 * x),
    breakpoints=1, linear_piece=(0.0, 1.0, 0.0)))
register_activation(ActivationInfo(
    "exp", "smooth-nonpoly", np.exp, known_theta0=0.0, smooth_point=0.0))
register_activation(ActivationInfo(
    "softplus", "smooth-nonpoly", lambda x: np.logaddexp(0.0, x),
    known_theta0=0.0, smooth_point=0.0))
register_activation(ActivationInfo(
    "sigmoid", "smooth-nonpoly", lambda x: 1.0 / (1.0 + np.exp(-x)),
    known_theta0=0.0, smooth_point=0.0))
register_activation(ActivationInfo(
    "tanh", "smooth-nonpoly", np.tanh, known_theta0=1.0, smooth_point=0.0))
register_activation(ActivationInfo(
    "square", "nonaffine-poly", lambda x: x * x, smooth_point=1.0))


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
            "breakpoints": net.activation.breakpoints,
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
    except (KeyError, TypeError) as e:
        raise ValidationError(f"malformed network dictionary: {e}") from e
    declared = d["activation"].get("class")
    if declared is not None and declared != act.cls:
        raise ValidationError(
            f"activation class mismatch: file says {declared!r}, registry says {act.cls!r}"
        )
    return FeedforwardNet(layers, act)


def save_net(net: FeedforwardNet, path: str) -> None:
    # json's repr-based float encoding round-trips doubles bit-exactly
    with open(path, "w", encoding="utf-8") as f:
        json.dump(net_to_dict(net), f)
        f.write("\n")


def load_net(path: str) -> FeedforwardNet:
    with open(path, "r", encoding="utf-8") as f:
        return net_from_dict(json.load(f))
