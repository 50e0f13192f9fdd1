"""Geometric deep networks and their serialization.

A GDN lifts a Euclidean feedforward core ``g`` to a manifold-to-manifold
map ``Exp_{Y, base_y} o g o Exp^{-1}_{X, base_x}``.
"""
from __future__ import annotations

import json
import os
import stat
from dataclasses import dataclass

import numpy as np

from .errors import GdnError, ValidationError
from .manifolds.core import resolve_manifold
from .manifolds.zoo import Chart, ManifoldSpec, as_point, chart_at
from .network import FeedforwardNet, eval_net, net_from_dict, net_to_dict

__all__ = [
    "GDNModel",
    "gdn_eval",
    "gdn_to_dict",
    "gdn_from_dict",
    "save_gdn",
    "write_output",
]


@dataclass(frozen=True)
class GDNModel:
    """Exp/log-chart lift of a Euclidean core network about the base points
    of two charts from ``chart_at``, which checked them and holds them
    read-only; the manifolds and base points are read from the charts."""

    chart_x: Chart
    chart_y: Chart
    core: FeedforwardNet

    def __post_init__(self):
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

    @property
    def domain(self) -> ManifoldSpec:
        return self.chart_x.spec

    @property
    def codomain(self) -> ManifoldSpec:
        return self.chart_y.spec

    @property
    def base_x(self) -> np.ndarray:
        return self.chart_x.x

    @property
    def base_y(self) -> np.ndarray:
        return self.chart_y.x

    def __call__(self, x):
        return gdn_eval(self, x)


def gdn_eval(model: GDNModel, x) -> np.ndarray:
    """Evaluate the GDN at a point inside the basepoint's injectivity ball,
    or at each row of an (N, point_dim) stack; each row of the result is
    bit for bit the result of that row alone.

    Raises a domain error when an input is outside the ball, and a range
    error when a core output leaves the codomain chart ball (codomains of
    finite injectivity radius only) or, on sphere and rp, is not tangent at
    the codomain base point; the model is undefined there and no
    wrap-around is attempted.  An error reports the value of the first
    offending row.
    """
    # x is checked once, here; the charts bound to the model's base points
    # check the ball and run the kernels on it
    chart_x = model.chart_x
    x = as_point(chart_x.spec, x)
    # eval_net has checked that its output is finite
    return model.chart_y.exp_within(eval_net(model.core, chart_x.log_within(x)))


# -- serialization -----------------------------------------------------------

def gdn_to_dict(model: GDNModel) -> dict:
    d = net_to_dict(model.core)
    d["domain"] = model.domain.id
    d["codomain"] = model.codomain.id
    d["base_x"] = model.base_x.tolist()
    d["base_y"] = model.base_y.tolist()
    return d


def gdn_from_dict(d: dict) -> GDNModel:
    """The model a ``gdn_to_dict`` dictionary describes; its base points are
    checked here, as they are bound to their charts."""
    try:
        domain = resolve_manifold(d["domain"])
        codomain = resolve_manifold(d["codomain"])
        base_x = np.array(d["base_x"], dtype=float)
        base_y = np.array(d["base_y"], dtype=float)
    except GdnError:  # a ValueError that already names the problem
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"malformed GDN dictionary: {e}") from e
    core = net_from_dict(d)  # a malformed core is reported before a bad base
    return GDNModel(chart_at(domain, base_x), chart_at(codomain, base_y), core)


def save_gdn(model: GDNModel, path: str) -> None:
    # json.dumps runs the C encoder; json.dump would stream through the
    # pure-Python one, with the same bytes
    write_output(path, json.dumps(gdn_to_dict(model)) + "\n")


def write_output(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, leaving what ``open(path, "w")``
    leaves: the same bytes, and an existing file's inode, hard links,
    symlink target and mode.

    The file is opened without ``O_TRUNC``.  Truncating a file whose previous
    contents are still being written back waits for that I/O, and a loop
    that rewrites one output pays that wait on every write; writing over the
    old bytes does not.  A regular file is cut to the new length afterwards,
    so a shorter output leaves no old tail.  Other targets (``/dev/null``, a
    FIFO or pipe, a tty) ignore ``O_TRUNC`` and are not cut, since a pipe
    refuses ``ftruncate``.  As with a truncating open, the write is not
    atomic.
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)
