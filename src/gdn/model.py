"""Geometric deep networks and their serialization.

A GDN lifts a Euclidean feedforward core ``g`` to a manifold-to-manifold
map ``Exp_{Y, base_y} o g o Exp^{-1}_{X, base_x}``.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError, ValidationError
from .manifolds.core import ManifoldSpec, resolve_manifold
from .manifolds.zoo import Chart, as_point, chart_at
from .network import FeedforwardNet, eval_net, net_from_dict, net_to_dict

__all__ = [
    "GDNModel",
    "gdn_eval",
    "gdn_to_dict",
    "gdn_from_dict",
    "save_gdn",
    "load_gdn",
]


@dataclass(frozen=True)
class GDNModel:
    """Exp/log-chart lift of a Euclidean core network.  The base points are
    checked once, here, and stored as read-only copies, with the chart
    kernels bound to them (``chart_x``, ``chart_y``, from ``chart_at``)."""

    domain: ManifoldSpec
    codomain: ManifoldSpec
    base_x: np.ndarray
    base_y: np.ndarray
    core: FeedforwardNet
    chart_x: Chart = field(init=False, repr=False, compare=False)
    chart_y: Chart = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        chart_x = chart_at(self.domain, self.base_x)
        chart_y = chart_at(self.codomain, self.base_y)
        if self.core.in_dim != self.domain.chart_dim:
            raise ValidationError(
                f"core input dim {self.core.in_dim} != domain chart dim "
                f"{self.domain.chart_dim}"
            )
        if self.core.out_dim != self.codomain.chart_dim:
            raise ValidationError(
                f"core output dim {self.core.out_dim} != codomain chart dim "
                f"{self.codomain.chart_dim}"
            )
        object.__setattr__(self, "base_x", chart_x.x)
        object.__setattr__(self, "base_y", chart_y.x)
        object.__setattr__(self, "chart_x", chart_x)
        object.__setattr__(self, "chart_y", chart_y)

    def __call__(self, x):
        return gdn_eval(self, x)


def gdn_eval(model: GDNModel, x) -> np.ndarray:
    """Evaluate the GDN at a point inside the basepoint's injectivity ball,
    or at each row of an (N, point_dim) stack; each row of the result is
    bit for bit the result of that row alone.

    Raises a domain error when an input is outside the ball, and a range
    error when a core output leaves the codomain chart ball (positively
    curved codomains only); the model is undefined there and no wrap-around
    is attempted.  An error reports the value of the first offending row.
    """
    # x is checked once, here; the kernels run on it through the charts the
    # model bound to its base points when it was built.  On an infinite
    # injectivity radius the ball check cannot fail, so the distance is not
    # computed.
    x = as_point(model.domain, x)
    inj_x = model.domain.inj_lower
    if math.isfinite(inj_x):
        d = model.chart_x.distance(x)
        far = d >= inj_x
        if np.count_nonzero(far):
            raise DomainError(
                f"input at distance {float(np.extract(far, d)[0])!r} from the "
                f"basepoint is outside the injectivity ball of radius {inj_x!r}"
            )
    w = eval_net(model.core, model.chart_x.log(x))
    inj_y = model.codomain.inj_lower
    if math.isfinite(inj_y):
        nw = np.sqrt(np.vecdot(w, w))
        far = nw >= inj_y
        if np.count_nonzero(far):
            raise RangeError(
                f"core output norm {float(np.extract(far, nw)[0])!r} is outside "
                f"the codomain chart ball of radius {inj_y!r}; the model is "
                "undefined there"
            )
    # eval_net has checked that w is finite
    return model.chart_y.exp(w)


# -- serialization -----------------------------------------------------------

def gdn_to_dict(model: GDNModel) -> dict:
    d = net_to_dict(model.core)
    d["domain"] = model.domain.id
    d["codomain"] = model.codomain.id
    d["base_x"] = model.base_x.tolist()
    d["base_y"] = model.base_y.tolist()
    return d


def gdn_from_dict(d: dict) -> GDNModel:
    try:
        domain = resolve_manifold(d["domain"])
        codomain = resolve_manifold(d["codomain"])
        base_x = np.array(d["base_x"], dtype=float)
        base_y = np.array(d["base_y"], dtype=float)
    except (KeyError, TypeError) as e:
        raise ValidationError(f"malformed GDN dictionary: {e}") from e
    return GDNModel(domain, codomain, base_x, base_y, net_from_dict(d))


def save_gdn(model: GDNModel, path: str) -> None:
    # json.dumps runs the C encoder; json.dump would stream through the
    # pure-Python one, with the same bytes
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(gdn_to_dict(model)) + "\n")


def load_gdn(path: str) -> GDNModel:
    with open(path, "r", encoding="utf-8") as f:
        return gdn_from_dict(json.load(f))
