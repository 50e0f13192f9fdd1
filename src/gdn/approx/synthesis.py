"""Constructive network synthesis:

* finite-difference realization of derivatives of ``sigma(w z - theta)``,
* compilation of univariate-form polynomials into one-hidden-layer nets
  with a smooth non-polynomial activation,
* the full function-to-shallow pipeline (Bernstein lattice -> monomial
  coefficients -> polarization -> finite-difference synthesis), and
* Riemann-sum smoothing of merely-continuous activations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import (
    BadThetaError,
    InfeasibleDegreeError,
    UnsupportedError,
    ValidationError,
)
from ..network import ActivationInfo, AffineLayer, FeedforwardNet
from .bernstein import (
    BernsteinModel,
    bernstein_degree_for,
    bernstein_eval,
    bernstein_from_function,
    bernstein_to_coefficients,
)
from .modulus import Modulus, empirical_modulus, row_norms, sample_pairs
from .polynomials import LinearFormPoly, decompose_polynomial, poly_total_degree

__all__ = [
    "finite_diff_derivative",
    "select_theta0",
    "compile_poly_to_shallow",
    "CompiledPoly",
    "merge_shallow",
    "compile_function_to_shallow",
    "CompileResult",
    "riemann_smooth_activation",
]


def finite_diff_derivative(sigma: ActivationInfo, k: int, z: float,
                           theta0: float, h: float) -> float:
    """k-th order forward difference estimate of
    d^k/dw^k sigma(w z - theta)|_{w=0, theta=theta0}.

    Returns h^{-k} sum_i (-1)^i C(k,i) sigma((k-i) h z - theta0), which for
    smooth sigma converges to z^k sigma^{(k)}(-theta0) at rate O(h).
    """
    if k < 0:
        raise ValidationError("difference order must be nonnegative")
    if not (h > 0.0):
        raise ValidationError("step h must be positive")
    total = 0.0
    for i in range(k + 1):
        total += (-1.0) ** i * math.comb(k, i) * float(
            sigma(np.array((k - i) * h * z - theta0)))
    return total / h ** k


def select_theta0(sigma: ActivationInfo, max_k: int, h: float = 1e-2,
                  floor: float = 1e-6) -> float:
    """Offset with numerically nonvanishing derivatives up to order max_k.

    Tries the activation's registered offset first, then grid-searches
    [-3, 3] maximizing the minimum finite-difference derivative estimate.
    A derivative whose estimate is unstable under halving h (relative
    change above 30%) is treated as vanishing: the stencil value of a true
    zero derivative is pure O(h) contamination, which halves with h.
    """
    probe_k = min(max_k, 6)  # higher orders drown in stencil roundoff

    def score(theta: float) -> float:
        worst = math.inf
        for k in range(probe_k + 1):
            d1 = finite_diff_derivative(sigma, k, 1.0, theta, h)
            d2 = finite_diff_derivative(sigma, k, 1.0, theta, h / 2.0)
            if abs(d2) <= floor or abs(d1 - d2) > 0.3 * max(abs(d1), abs(d2)):
                return 0.0
            worst = min(worst, abs(d2))
        return worst

    if sigma.known_theta0 is not None and score(sigma.known_theta0) > floor:
        return sigma.known_theta0
    grid = np.linspace(-3.0, 3.0, 121)
    scores = [score(float(t)) for t in grid]
    best = int(np.argmax(scores))
    if scores[best] <= floor:
        raise BadThetaError(
            f"no offset in [-3, 3] keeps |sigma^(k)| above {floor} up to order {max_k}"
        )
    return float(grid[best])


@dataclass(frozen=True)
class CompiledPoly:
    """A shallow net realizing a polynomial, with its measured sup error on
    the [-1, 1]^p audit grid and the empirical constant of the O(h) bound."""

    net: FeedforwardNet
    sup_error: float
    empirical_c: float


def _grid_points(p: int, per_axis: int, lo: float = 0.0) -> np.ndarray:
    # the (per_axis)^p grid on [lo, 1]^p, as an (N, p) stack
    axes = [np.linspace(lo, 1.0, per_axis)] * p
    return np.array(list(product(*axes))).reshape(-1, p)


def compile_poly_to_shallow(terms: LinearFormPoly, sigma: ActivationInfo,
                            theta0: Optional[float] = None,
                            h: float = 1e-3) -> CompiledPoly:
    """One-hidden-layer realization of a sum of univariate polynomials of
    linear forms.

    Each positive degree of each form costs one neuron (weights j*h*a,
    shared bias -theta0); the zero-order stencil evaluations fold into the
    output bias.  Requires a smooth non-polynomial activation whose
    derivative estimates at -theta0 stay above 1e-6 up to the needed order.
    """
    if sigma.cls != "smooth-nonpoly":
        raise UnsupportedError(
            f"shallow synthesis needs a smooth non-polynomial activation, got {sigma.cls}"
        )
    max_k = max((int(np.nonzero(np.abs(b) > 0.0)[0][-1]) if np.any(np.abs(b) > 0.0) else 0)
                for _a, b in terms.terms) if terms.terms else 0
    if theta0 is None:
        theta0 = select_theta0(sigma, max_k, h=max(h, 1e-3))
    # derivative estimates with the synthesis step, so stencil errors track O(h)
    derivs = [finite_diff_derivative(sigma, k, 1.0, theta0, h)
              for k in range(max_k + 1)]
    for k in range(1, max_k + 1):
        if abs(derivs[k]) <= 1e-6:
            raise BadThetaError(
                f"finite-difference estimate of sigma^({k})(-theta0) is "
                f"{derivs[k]:.3e}; pick another theta0 (grid search over [-3, 3])"
            )
    sigma_at_theta = float(sigma(np.array(-theta0)))

    rows: List[np.ndarray] = []
    out_w: List[float] = []
    out_b = 0.0
    for a, b in terms.terms:
        nz = np.nonzero(np.abs(b) > 0.0)[0]
        deg = int(nz[-1]) if nz.size else 0
        out_b += float(b[0])
        for j in range(1, deg + 1):
            rows.append(j * h * a)
            c = 0.0
            for k in range(j, deg + 1):
                if b[k] == 0.0:
                    continue
                c += b[k] / (derivs[k] * h ** k) * (-1.0) ** (k - j) * math.comb(k, j)
            out_w.append(c)
        for k in range(1, deg + 1):
            if b[k] == 0.0:
                continue
            out_b += b[k] / (derivs[k] * h ** k) * (-1.0) ** k * sigma_at_theta

    if rows:
        hidden = AffineLayer(np.stack(rows), np.full(len(rows), -theta0))
        out = AffineLayer(np.array(out_w)[None, :], np.array([out_b]))
        net = FeedforwardNet((hidden, out), sigma)
    else:
        net = FeedforwardNet(
            (AffineLayer(np.zeros((1, terms.dim)), np.array([out_b])),), sigma)

    grid = _grid_points(terms.dim, 9 if terms.dim > 1 else 201, lo=-1.0)
    errs = [abs(y - terms(x)) for y, x in zip(net(grid)[:, 0], grid)]
    sup_error = max(errs) if errs else 0.0
    return CompiledPoly(net, sup_error, sup_error / h)


def merge_shallow(nets: Sequence[FeedforwardNet]) -> FeedforwardNet:
    """Stack single-output shallow nets sharing input dim and activation
    into one shallow net with one output per input net."""
    if not nets:
        raise ValidationError("nothing to merge")
    act = nets[0].activation
    p = nets[0].in_dim
    for net in nets:
        if net.in_dim != p or net.activation.name != act.name or len(net.layers) > 2:
            raise ValidationError("merge needs shallow nets over one input space")
    rows, biases = [], []
    blocks = []
    offset = 0
    for net in nets:
        if len(net.layers) == 1:
            blocks.append((offset, 0, None, float(net.layers[0].bias[0])))
            continue
        hid = net.layers[0]
        rows.append(hid.weights)
        biases.append(hid.bias)
        blocks.append((offset, hid.out_dim, net.layers[1].weights[0],
                       float(net.layers[1].bias[0])))
        offset += hid.out_dim
    if not rows:
        W = np.zeros((len(nets), p))
        b = np.array([blk[3] for blk in blocks])
        return FeedforwardNet((AffineLayer(W, b),), act)
    H = np.concatenate(rows, axis=0)
    hb = np.concatenate(biases)
    W2 = np.zeros((len(nets), H.shape[0]))
    b2 = np.zeros(len(nets))
    for j, (off, width_j, w_row, bias_j) in enumerate(blocks):
        if width_j:
            W2[j, off:off + width_j] = w_row
        b2[j] = bias_j
    return FeedforwardNet((AffineLayer(H, hb), AffineLayer(W2, b2)), act)


@dataclass(frozen=True)
class CompileResult:
    """Output of the function-to-shallow pipeline."""

    net: FeedforwardNet
    degree: int
    width: int
    forms: int
    theta0: float
    h: float
    apriori_bound: float
    synthesis_residual: float
    audit_error: float


def _oracle_values(oracle: Callable[[np.ndarray], np.ndarray],
                   pts: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(oracle(x), dtype=float).ravel() for x in pts])


def compile_function_to_shallow(
    target: Union[Callable[[np.ndarray], np.ndarray], BernsteinModel],
    p: int, m: int, eps: float, sigma: ActivationInfo,
    theta0: Optional[float] = None, h: Optional[float] = None,
    omega: Optional[Modulus] = None, split: float = 0.5,
    degree: Optional[int] = None, degree_cap: int = 10 ** 9,
    synth_degree_cap: int = 12, audit_per_axis: int = 10,
) -> CompileResult:
    """Compile a function on the unit cube into a shallow network with a
    certified audit.

    The error budget splits ``split`` to the Bernstein stage and the rest to
    finite-difference synthesis.  The Bernstein degree is the smallest one
    whose measured lattice residual fits the budget (checked on a dense
    grid), further capped by the a-priori degree rule when a modulus is
    supplied; degrees beyond ``synth_degree_cap`` are refused because the
    difference stencils degenerate in double precision.

    The oracle runs once per point of the selection grid, of each Bernstein
    lattice tried and of the audit grid; the audit values serve both the
    audit error and, without ``omega``, the empirical modulus over every
    third audit point.
    """
    if not (0.0 < split < 1.0):
        raise ValidationError("split must be in (0, 1)")
    if eps <= 0.0:
        raise ValidationError("eps must be positive")
    per_axis = {1: 41, 2: 21, 3: 9}.get(p, 5)
    grid = _grid_points(p, per_axis)
    bern_budget = split * eps
    synth_budget = (1.0 - split) * eps

    if isinstance(target, BernsteinModel):
        model = target
        n = model.n
    else:
        targets = _oracle_values(target, grid)
        if degree is not None:
            n = degree
            model = bernstein_from_function(target, n, p, m)
        else:
            n = None
            candidates = [c for c in (1, 2, 3, 4, 6, 8, 12) if c <= synth_degree_cap]
            if omega is not None:
                try:
                    n_apriori = bernstein_degree_for(bern_budget, p, m, omega,
                                                     cap=degree_cap)
                    if n_apriori <= synth_degree_cap and n_apriori not in candidates:
                        candidates = sorted(set(candidates + [n_apriori]))
                except InfeasibleDegreeError:
                    pass
            model = None
            for cand in candidates:
                trial = bernstein_from_function(target, cand, p, m)
                resid = float(np.max(row_norms(bernstein_eval(trial, grid) - targets)))
                if resid <= bern_budget:
                    n, model = cand, trial
                    break
            if model is None:
                raise InfeasibleDegreeError(
                    f"no Bernstein degree <= {synth_degree_cap} meets the "
                    f"budget {bern_budget!r} on the selection grid",
                    synth_degree_cap,
                )
    if n > synth_degree_cap:
        raise InfeasibleDegreeError(
            f"degree {n} exceeds the synthesis cap {synth_degree_cap}", synth_degree_cap
        )

    coeffs = bernstein_to_coefficients(model)
    totals = []
    for j in range(m):
        cj = {exps: float(vec[j]) for exps, vec in coeffs.items() if vec[j] != 0.0}
        totals.append((cj, poly_total_degree(cj)))
    max_total = max((t for _c, t in totals), default=0)
    # the stencil order equals the total degree; double precision cannot
    # support high-order difference stencils
    if max_total > synth_degree_cap:
        raise InfeasibleDegreeError(
            f"trimmed polynomial has total degree {max_total}, beyond the "
            f"synthesis stencil cap {synth_degree_cap}", synth_degree_cap
        )
    per_output: List[LinearFormPoly] = [
        decompose_polynomial(cj, max(total, 1), p) for cj, total in totals
    ]

    if theta0 is None:
        theta0 = select_theta0(sigma, max(max_total, 1))
    kmax = max(max_total, 1)
    # below this step a k-th difference drops under the roundoff of its
    # 2^k-term alternating sum and the stencil reads pure noise
    h_floor = max((2.0 ** kmax * np.finfo(float).eps) ** (1.0 / (kmax + 1)), 1e-7)
    if h is None:
        h = min(max(synth_budget / kmax * 0.1, h_floor), 1e-2)

    audit = _grid_points(p, audit_per_axis)
    lattice_audit = bernstein_eval(model, audit)
    best = None
    trial_h = h
    for _ in range(6):
        shallow = merge_shallow([
            compile_poly_to_shallow(lf, sigma, theta0, trial_h).net
            for lf in per_output
        ])
        outputs = shallow(audit)
        resid = float(np.max(row_norms(outputs - lattice_audit)))
        if best is None or resid < best[1]:
            best = (shallow, resid, trial_h, outputs)
        if resid <= synth_budget:
            break
        trial_h /= 4.0
        if trial_h < h_floor:
            break
    shallow, synth_resid, used_h, outputs = best

    values = (lattice_audit if isinstance(target, BernsteinModel)
              else _oracle_values(target, audit))
    audit_error = float(np.max(row_norms(outputs - values)))
    if omega is None:
        omega = empirical_modulus(sample_pairs(audit[::3], values[::3]))
    fn = omega if callable(omega) else omega.__call__
    apriori = (1.0 + p / 4.0) * m * float(fn(1.0 / math.sqrt(n))) + synth_resid

    from ..network import width as net_width
    return CompileResult(shallow, n, net_width(shallow),
                         sum(len(lf.terms) for lf in per_output),
                         theta0, used_h, apriori, synth_resid, audit_error)


# -- Riemann smoothing of continuous activations ------------------------------

def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def riemann_smooth_activation(sigma: ActivationInfo, support: Tuple[float, float],
                              L: int, t: float) -> Tuple[float, float]:
    """L-term Riemann approximation of the mollified activation
    (sigma * phi)(t) with midpoint nodes, plus its modulus bound.

    phi is the standard smooth bump on the support interval, normalized to
    unit L1 mass by quadrature; the returned bound is
    omega(sigma, (b-a)/L) measured on the relevant window of sigma.
    """
    a, b = float(support[0]), float(support[1])
    if L < 1:
        raise ValidationError("L must be at least 1")
    if not b > a:
        raise ValidationError("support must be a nondegenerate interval")

    # normalize the bump to unit mass on [a, b]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    fine = np.linspace(a, b, 8193)
    mass = float(np.trapezoid(_bump((fine - mid) / half), fine))

    edges = np.linspace(a, b, L + 1)
    value = 0.0
    for l in range(L):
        lo, hi = edges[l], edges[l + 1]
        ys = np.linspace(lo, hi, 33)
        c_l = float(np.trapezoid(_bump((ys - mid) / half), ys)) / mass
        y_l = 0.5 * (lo + hi)
        value += c_l * float(sigma(np.array(t - y_l)))

    # empirical modulus of sigma at scale (b-a)/L over the window sigma sees
    delta = (b - a) / L
    us = np.linspace(t - b, t - a, max(20 * L + 1, 201))
    vals = np.asarray(sigma(us), dtype=float)
    step = us[1] - us[0]
    w = max(1, int(math.ceil(delta / step)))
    bound = 0.0
    for k in range(1, w + 1):
        if us[k] - us[0] > delta * (1.0 + 1e-12):
            break
        bound = max(bound, float(np.max(np.abs(vals[k:] - vals[:-k]))))
    return value, bound
