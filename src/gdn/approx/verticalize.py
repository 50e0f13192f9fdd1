"""Deep-narrow rewrites of shallow networks.

A shallow net over R^p with m outputs (one hidden layer, or one affine
layer) becomes one deep net of width at most p + m + 1 (within the
p + m + 2 budget): registers carry the inputs and one accumulator per
output, and each layer spends its one free neuron on one hidden unit that
some output reads.  The next layer, or the output layer, folds that neuron
into every accumulator with a nonzero weight for it, so m outputs share a
unit through their registers (Kidger & Lyons 2020), and a unit that no
output reads gets no layer.

Carried registers must survive the componentwise activation between
layers.  The activation's class picks the register codec:

* piecewise-linear (relu, leaky-relu): registers pass through the
  half-line [0, inf), where the activation is the identity; shifts computed
  from interval bounds over the box make the rewrite exact on the box.
* smooth-nonpoly: registers pass through a lambda-scaled first-order window
  around 0, where each such activation has a nonzero slope; the deviation
  is O(lambda).
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import UnsupportedError, ValidationError
from ..network import ActivationInfo, AffineLayer, FeedforwardNet

__all__ = ["verticalize", "as_box"]


def as_box(box, p: int) -> Tuple[np.ndarray, np.ndarray]:
    """The verticalization box ``(lo, hi)``, scalars or length-p arrays, as
    two length-p arrays; it must be finite with lo <= hi componentwise."""
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (p,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (p,)).copy()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValidationError("the verticalization box must be finite")
    if np.any(lo > hi):
        raise ValidationError("the verticalization box needs lo <= hi componentwise")
    return lo, hi


def _sigma_interval(act: ActivationInfo, lo: float, hi: float) -> Tuple[float, float]:
    # every activation a codec takes is nondecreasing, so its values on
    # [lo, hi] lie between its values at the ends
    s_lo, s_hi = (float(t) for t in act(np.array([lo, hi])))
    pad = 1e-9 * max(1.0, abs(s_lo), abs(s_hi))
    return s_lo - pad, s_hi + pad


def _codec(act: ActivationInfo, lam: float):
    """The register codec of ``act``'s class: ``encode(lo, hi)`` maps the
    registers' value intervals to (row factor, bias add, decode scale,
    decode offset), so a register carried as ``scale * y + offset`` enters
    the next layer as row ``k * scale`` and bias ``k * offset + add``."""
    if act.cls == "piecewise-linear":
        def encode(lo, hi):
            # the shift lands each pre-activation value in [0, inf), where
            # relu and leaky-relu are the identity
            shift = np.maximum(0.0, -lo) + 1.0
            return np.ones_like(lo), shift, 1.0, -shift

        return encode

    if act.cls == "smooth-nonpoly":
        # the slope at 0 by a central difference: about 1, 1/2, 1/4 and 1
        # for exp, softplus, sigmoid and tanh
        hstep = 1e-6
        d0 = (float(act(np.array(hstep))) - float(act(np.array(-hstep)))) / (2 * hstep)
        s0 = float(act(np.array(0.0)))

        def encode(lo, hi):
            # normalize each register by its magnitude so the activation
            # argument stays within lam of 0
            k = lam / np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
            return k, 0.0, 1.0 / (k * d0), -s0 / (k * d0)

        return encode

    raise UnsupportedError(
        f"verticalization has no register codec for activation class {act.cls!r} "
        f"({act.name!r})")


def _build(net: FeedforwardNet, lo: np.ndarray, hi: np.ndarray, encode) -> FeedforwardNet:
    p, m = net.in_dim, net.out_dim
    n = p + m  # register channels: inputs, then accumulators; channel n is the neuron
    if len(net.layers) == 2:
        hid, out = net.layers
        # one layer per hidden unit with a nonzero output weight, in unit order
        sched = np.flatnonzero(np.any(out.weights != 0.0, axis=0))
    else:
        sched = []
    # decode state: register r holds value scale[r] * y[r] + offset[r]
    scale = np.concatenate([np.ones(p), np.zeros(m)])
    offset = np.zeros(n)
    iv_lo = np.concatenate([lo, np.zeros(m)])
    iv_hi = np.concatenate([hi, np.zeros(m)])
    regs = np.arange(n)

    layers = []
    prev = ()  # (output, weight) of each accumulator that reads the last neuron
    for u in sched:
        w, b = hid.weights[u], float(hid.bias[u])
        k, add, dscale, doff = encode(iv_lo, iv_hi)
        W = np.zeros((n + 1, n + 1))
        bias = np.zeros(n + 1)
        W[regs, regs] = k * scale
        bias[:n] = k * offset + add
        # fold the previous layer's neuron into the accumulators that read it
        for j, c in prev:
            W[p + j, n] = k[p + j] * c
        # the genuine neuron reads the decoded inputs
        W[n, :p] = 0.0 + w * scale[:p]
        u_b = b
        for i in range(p):
            u_b += w[i] * offset[i]
        bias[n] = u_b
        # interval updates use the plain bias over the true x box (u_b is
        # expressed in the encoded frame and carries decode offsets)
        u_lo = b + sum(min(w[i] * lo[i], w[i] * hi[i]) for i in range(p))
        u_hi = b + sum(max(w[i] * lo[i], w[i] * hi[i]) for i in range(p))
        s_lo, s_hi = _sigma_interval(net.activation, u_lo, u_hi)
        prev = [(j, float(out.weights[j, u])) for j in np.flatnonzero(out.weights[:, u])]
        for j, c in prev:
            iv_lo[p + j] += min(c * s_lo, c * s_hi)
            iv_hi[p + j] += max(c * s_lo, c * s_hi)

        # the first layer reads the p inputs only
        layers.append(AffineLayer(W if layers else W[:, :p].copy(), bias))
        scale[:], offset[:] = dscale, doff

    # output layer: decode accumulators, add the last neuron and the biases
    W = np.zeros((m, n + 1 if layers else p))
    if layers:
        W[regs[:m], p + regs[:m]] = scale[p:]
        for j, c in prev:
            W[j, n] = c
    elif len(net.layers) == 1:
        W += net.layers[0].weights
    layers.append(AffineLayer(W, offset[p:] + net.layers[-1].bias))
    return FeedforwardNet(tuple(layers), net.activation)


def verticalize(net: FeedforwardNet, box, lam: float = 2.1e-8) -> FeedforwardNet:
    """Rewrite a shallow net over a box as one deep net of width
    <= p + m + 2 whose depth is the count of hidden units with a nonzero
    output weight (plus the output layer), and return the deep net.

    A piecewise-linear activation reproduces the shallow outputs exactly on
    the box, since relu and leaky-relu are the identity on [0, inf).  A smooth
    non-polynomial activation passes registers through a lambda-scaled
    window, so the deep net deviates from ``net`` on the box by O(lambda);
    the default lam ~ sqrt(2 eps_machine) balances linearization error
    against decode roundoff for registers of any magnitude.
    """
    if len(net.layers) > 2:
        raise ValidationError(
            "verticalize needs a shallow net: one hidden layer or one affine layer, "
            f"got {net.depth} hidden layers")
    encode = _codec(net.activation, lam)
    lo, hi = as_box(box, net.in_dim)
    return _build(net, lo, hi, encode)
