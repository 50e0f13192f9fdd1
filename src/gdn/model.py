"""Geometric deep networks and their pipeline composition.

A GDN lifts a Euclidean feedforward core ``g`` to a manifold-to-manifold
map ``Exp_{Y, base_y} o g o Exp^{-1}_{X, base_x}``.  Pipelines add an
optional feature map in front, per-branch quotient projections behind each
GDN, parallelization across branches, and a readout over the product.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, RangeError, ValidationError
from .manifolds.core import ManifoldSpec, resolve_manifold
from .manifolds.zoo import Chart, as_point, chart_at
from .network import FeedforwardNet, eval_net, net_from_dict, net_to_dict
from .quotient import QuotientSpace, canonical_rep
from .readouts import ReadoutSpec

__all__ = [
    "GDNModel",
    "gdn_eval",
    "PipelineModel",
    "parallelize",
    "pipeline_eval",
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


Branch = Tuple[GDNModel, Optional[QuotientSpace]]


@dataclass(frozen=True)
class PipelineModel:
    """Feature map -> parallel GDN branches (each with an optional quotient
    projection) -> readout over the concatenated branch outputs.

    The feature map must be continuous and injective for the composite to
    retain the approximation property; injectivity of an arbitrary callable
    is not checkable and is the caller's obligation.
    """

    branches: Tuple[Branch, ...]
    feature: Optional[Callable[[np.ndarray], np.ndarray]] = field(default=None, repr=False)
    readout: Optional[ReadoutSpec] = None

    def __post_init__(self):
        branches = tuple(self.branches)
        if not branches:
            raise ValidationError("a pipeline needs at least one branch")
        first = branches[0][0]
        for gdn, _proj in branches[1:]:
            if gdn.domain.id != first.domain.id or not np.array_equal(
                    gdn.base_x, first.base_x):
                raise ValidationError("branches must share domain and basepoint")
        object.__setattr__(self, "branches", branches)

    def __call__(self, x):
        return pipeline_eval(self, x)


def parallelize(models: Sequence[GDNModel]) -> PipelineModel:
    """Bundle GDNs sharing domain and basepoint into a tuple-valued model."""
    return PipelineModel(tuple((m, None) for m in models))


def pipeline_eval(p: PipelineModel, x):
    """Run the pipeline.  With no feature, projections, or readout this is
    exactly gdn_eval (single branch) or the tuple of branch outputs."""
    x = np.asarray(x, dtype=float).ravel()
    if p.feature is not None:
        x = np.asarray(p.feature(x), dtype=float).ravel()
    outs: List[np.ndarray] = []
    for i, (gdn, proj) in enumerate(p.branches):
        try:
            y = gdn_eval(gdn, x)
        except (DomainError, ValidationError) as e:
            raise type(e)(f"branch {i}: {e}") from e
        if proj is not None:
            y = canonical_rep(proj, y)
        outs.append(y)
    if p.readout is not None:
        return p.readout.apply(np.concatenate(outs))
    if len(outs) == 1:
        return outs[0]
    return tuple(outs)


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
