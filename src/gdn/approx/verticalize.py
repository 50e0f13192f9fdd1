"""Deep-narrow rewrites of shallow networks.

A list of m single-output shallow nets over R^p becomes one deep net of
width at most p + m + 1 (within the p + m + 2 budget): registers carry the
inputs and one accumulator per output, and each layer spends its one free
neuron on one hidden unit with a nonzero output weight of one shallow net.
The nets ``split_outputs`` cuts from a multi-output core share its whole
hidden layer, so each sees zero weights on the other outputs' units; those
units get no layer.

Carried registers must survive the componentwise activation between
layers.  Two strategies are provided:

* ``exact-pwl``: piecewise-linear activations pass registers through a
  half-line on which they are exactly affine; shifts computed from interval
  bounds over the box make the rewrite exact on the box.
* ``scaled-identity``: smooth activations pass registers through a
  first-order window around a point of nonzero derivative; the deviation is
  O(lambda) and is measured and reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import UnsupportedError, ValidationError
from ..network import ActivationInfo, AffineLayer, FeedforwardNet

__all__ = ["verticalize", "VerticalizeResult", "split_outputs"]


@dataclass(frozen=True)
class VerticalizeResult:
    net: FeedforwardNet
    reported_bound: float
    strategy: str


def split_outputs(net: FeedforwardNet) -> List[FeedforwardNet]:
    """Split a (possibly multi-output) shallow net into single-output
    shallow nets sharing the hidden layer."""
    if len(net.layers) > 2:
        raise ValidationError("split_outputs expects a shallow net")
    if len(net.layers) == 1:
        W, b = net.layers[0].weights, net.layers[0].bias
        return [FeedforwardNet((AffineLayer(W[j:j + 1], b[j:j + 1]),), net.activation)
                for j in range(net.out_dim)]
    hid, out = net.layers
    return [
        FeedforwardNet((hid, AffineLayer(out.weights[j:j + 1], out.bias[j:j + 1])),
                       net.activation)
        for j in range(net.out_dim)
    ]


def _as_box(box, p: int) -> Tuple[np.ndarray, np.ndarray]:
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (p,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (p,)).copy()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValidationError("exact verticalization needs a bounded box")
    if np.any(lo > hi):
        raise ValidationError("box needs lo <= hi componentwise")
    return lo, hi


def _neuron_schedule(shallows: Sequence[FeedforwardNet]):
    """Flatten hidden neurons as (net index, weights, bias, out coeff),
    skipping those with a zero output coefficient: they add nothing."""
    sched = []
    affine_parts = []
    for j, net in enumerate(shallows):
        if len(net.layers) == 1:
            affine_parts.append((j, net.layers[0].weights[0], float(net.layers[0].bias[0])))
            continue
        hid, out = net.layers
        affine_parts.append((j, np.zeros(net.in_dim), float(out.bias[0])))
        for t in range(hid.out_dim):
            if out.weights[0, t] == 0.0:
                continue
            sched.append((j, hid.weights[t].copy(), float(hid.bias[t]),
                          float(out.weights[0, t])))
    return sched, affine_parts


def _sigma_interval(act: ActivationInfo, lo: float, hi: float) -> Tuple[float, float]:
    xs = np.linspace(lo, hi, 1025)
    ys = np.asarray(act(xs), dtype=float)
    pad = 1e-9 * max(1.0, float(np.max(np.abs(ys))))
    return float(np.min(ys)) - pad, float(np.max(ys)) + pad


def _check_common(shallows: Sequence[FeedforwardNet]) -> Tuple[int, ActivationInfo]:
    if not shallows:
        raise ValidationError("nothing to verticalize")
    p = shallows[0].in_dim
    act = shallows[0].activation
    for net in shallows:
        if net.in_dim != p:
            raise ValidationError("shallow nets must share the input dimension")
        if net.activation.name != act.name:
            raise ValidationError("shallow nets must share the activation")
        if len(net.layers) > 2 or net.out_dim != 1:
            raise ValidationError("inputs must be single-output shallow nets")
    return p, act


def _build(shallows: Sequence[FeedforwardNet], p: int, m: int,
           act: ActivationInfo, box, encode):
    """Shared layer-builder.

    ``encode(value_row, value_bias, interval)`` returns the pre-activation
    row/bias for a carried register plus its decode (row scale, offset) for
    the next layer.
    """
    lo, hi = _as_box(box, p)
    sched, affine_parts = _neuron_schedule(shallows)
    H = len(sched)
    n_ch = p + m + 1

    # decode state: values = D @ y + e
    D = np.eye(p)
    e = np.zeros(p)
    Dx = [D[i].copy() for i in range(p)]
    ex = [0.0] * p
    Dacc = [np.zeros(p) for _ in range(m)]
    eacc = [0.0] * m
    x_iv = [(float(lo[i]), float(hi[i])) for i in range(p)]
    acc_iv = [(0.0, 0.0) for _ in range(m)]

    layers: List[AffineLayer] = []
    prev_dim = p
    for t in range(H):
        j, w, b, c = sched[t]
        W = np.zeros((n_ch, prev_dim))
        bias = np.zeros(n_ch)
        newDx, newex = [], []
        newDacc, neweacc = [], []
        # carried x registers
        for i in range(p):
            row, rb, drow_scale, doff = encode(Dx[i], ex[i], x_iv[i])
            W[i] = row
            bias[i] = rb
            d = np.zeros(n_ch)
            d[i] = drow_scale
            newDx.append(d)
            newex.append(doff)
        # accumulators; fold in the previous layer's neuron if any
        for q in range(m):
            row = Dacc[q].copy()
            rb = eacc[q]
            if t > 0:
                jprev, _, _, cprev = sched[t - 1]
                if jprev == q:
                    row = row.copy()
                    row[p + m] += cprev
            rowE, rbE, drow_scale, doff = encode(row, rb, acc_iv[q])
            W[p + q] = rowE
            bias[p + q] = rbE
            d = np.zeros(n_ch)
            d[p + q] = drow_scale
            newDacc.append(d)
            neweacc.append(doff)
        # the genuine neuron
        u_row = np.zeros(prev_dim)
        u_b = b
        for i in range(p):
            u_row = u_row + w[i] * Dx[i]
            u_b += w[i] * ex[i]
        W[p + m] = u_row
        bias[p + m] = u_b
        # interval updates use the plain bias over the true x box (u_b is
        # expressed in the encoded frame and carries decode offsets)
        u_lo = b + sum(min(w[i] * x_iv[i][0], w[i] * x_iv[i][1]) for i in range(p))
        u_hi = b + sum(max(w[i] * x_iv[i][0], w[i] * x_iv[i][1]) for i in range(p))
        s_lo, s_hi = _sigma_interval(act, u_lo, u_hi)
        a_lo, a_hi = acc_iv[j]
        acc_iv[j] = (a_lo + min(c * s_lo, c * s_hi), a_hi + max(c * s_lo, c * s_hi))

        layers.append(AffineLayer(W, bias))
        Dx, ex, Dacc, eacc = newDx, newex, newDacc, neweacc
        prev_dim = n_ch

    # output layer: decode accumulators, add the last neuron and biases
    Wout = np.zeros((m, prev_dim))
    bout = np.zeros(m)
    for q in range(m):
        Wout[q] = Dacc[q]
        bout[q] = eacc[q]
    if H > 0:
        jlast, _, _, clast = sched[-1]
        Wout[jlast, p + m] += clast
    for j, w_aff, b_aff in affine_parts:
        bout[j] += b_aff
        for i in range(p):
            if w_aff[i]:
                Wout[j] += w_aff[i] * Dx[i]
                bout[j] += w_aff[i] * ex[i]
    layers.append(AffineLayer(Wout, bout))
    return FeedforwardNet(tuple(layers), act)


def verticalize(shallows: Sequence[FeedforwardNet], box,
                strategy: str = "exact-pwl",
                lam: float = 1e-3) -> VerticalizeResult:
    """Rewrite m single-output shallow nets over a common box as one deep
    net of width <= p + m + 2 whose depth is the count of hidden neurons
    with a nonzero output weight (plus the output layer).

    ``exact-pwl`` reproduces the shallow outputs exactly on the box (needs a
    piecewise-linear activation with a known affine half-line);
    ``scaled-identity`` passes registers through a lambda-scaled smooth
    window and reports the measured deviation, which decreases with lambda.
    """
    p, act = _check_common(shallows)
    m = len(shallows)

    if strategy == "exact-pwl":
        if act.cls != "piecewise-linear":
            raise UnsupportedError("exact-pwl needs a piecewise-linear activation")
        if act.linear_piece is None:
            raise UnsupportedError(
                f"activation {act.name!r} lacks linear-piece metadata "
                "(lo, slope, intercept) required for exact verticalization"
            )
        region_lo, slope, intercept = act.linear_piece
        if slope == 0.0:
            raise UnsupportedError("the affine half-line must have nonzero slope")

        def encode(row, rb, iv):
            shift = max(0.0, region_lo - iv[0]) + 1.0
            # pre-activation value + shift lands in [region_lo, ...)
            return row, rb + shift, 1.0 / slope, -intercept / slope - shift

        net = _build(shallows, p, m, act, box, encode)
        return VerticalizeResult(net, 0.0, strategy)

    if strategy == "scaled-identity":
        if act.cls != "smooth-nonpoly":
            raise UnsupportedError("scaled-identity needs a smooth activation")
        t0 = act.smooth_point if act.smooth_point is not None else 0.0
        hstep = 1e-6
        d0 = (float(act(np.array(t0 + hstep))) - float(act(np.array(t0 - hstep)))) / (2 * hstep)
        if d0 == 0.0:
            raise UnsupportedError("scaled-identity needs nonzero derivative at the "
                                   "activation's smooth point")
        s0 = float(act(np.array(t0)))

        def encode(row, rb, iv):
            # normalize each register by its magnitude so the activation
            # argument stays within lam of the linearization point
            span = max(1.0, abs(iv[0]), abs(iv[1]))
            scale = lam / span
            return scale * row, scale * rb + t0, 1.0 / (scale * d0), -s0 / (scale * d0)

        net = _build(shallows, p, m, act, box, encode)
        lo, hi = _as_box(box, p)
        # 256 seeded points in the box, the same draws as one rng.random(p)
        # per point
        xs = lo + (hi - lo) * np.random.default_rng(7).random((256, p))
        want = np.stack([s(xs)[:, 0] for s in shallows], axis=1)
        bound = float(np.max(np.abs(net(xs) - want)))
        return VerticalizeResult(net, bound, strategy)

    raise UnsupportedError(f"unknown verticalization strategy {strategy!r}")
