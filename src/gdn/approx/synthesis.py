"""Constructive network synthesis:

* finite-difference realization of derivatives of ``sigma(w z - theta)``,
  at the activation's registered offset theta0 for the stencil order,
* compilation of univariate-form polynomials, one per output, into one
  multi-output one-hidden-layer net with a smooth non-polynomial
  activation, in one pass per step h, and
* the full function-to-shallow pipeline: a fit stage (Bernstein lattice
  -> monomial coefficients) and a realize stage (polarization -> finite-
  difference synthesis), which retries smaller steps h until the net fits
  its half of the budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import (
    BadThetaError,
    InfeasibleDegreeError,
    UnsupportedError,
    ValidationError,
)
from ..manifolds.zoo import sup_norm
from ..network import ActivationInfo, AffineLayer, FeedforwardNet
from .bernstein import (
    BernsteinModel,
    bernstein_from_function,
    bernstein_to_coefficients,
    bernstein_weights,
)
from .modulus import Modulus, PairInputs, oracle_rows, pair_inputs, sampled_modulus_at
from .polynomials import (
    Coeffs,
    LinearFormPoly,
    decompose_polynomial,
    poly_total_degree,
    product_grid,
)

__all__ = [
    "finite_diff_derivative",
    "compile_poly_to_shallow",
    "compile_function_to_shallow",
    "cube_points",
    "CompileResult",
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


def _grid_points(p: int, per_axis: int) -> np.ndarray:
    # the (per_axis)^p grid on [0, 1]^p, as an (N, p) stack
    return product_grid(np.linspace(0.0, 1.0, per_axis), p)


def _form_degree(b: np.ndarray) -> int:
    # the degree of a univariate coefficient vector (0 when it is all zero)
    nz = np.nonzero(np.abs(b) > 0.0)[0]
    return int(nz[-1]) if nz.size else 0


def _require_smooth(sigma: ActivationInfo) -> None:
    if sigma.cls != "smooth-nonpoly":
        raise UnsupportedError(
            f"shallow synthesis needs a smooth non-polynomial activation, got {sigma.cls}"
        )


def compile_poly_to_shallow(forms: Sequence[LinearFormPoly], sigma: ActivationInfo,
                            theta0: float, h: float) -> FeedforwardNet:
    """One-hidden-layer realization of sums of univariate polynomials of
    linear forms, one output per form.

    Each positive degree j of each term reads the row j*h*a (shared bias
    -theta0).  The hidden layer has one neuron per distinct row, compared by
    value over all outputs' terms and laid out in order of first use, so
    outputs whose forms share directions share neurons; an output that
    reads one row from two terms gets the sum of the two weights, in term
    order.  The zero-order stencil evaluations fold into the output biases.
    Without any neuron the net is one affine layer of zeros plus the biases.
    Requires a smooth non-polynomial activation whose derivative estimates
    at -theta0 stay above 1e-6 up to the largest degree.
    """
    _require_smooth(sigma)
    max_k = max((_form_degree(b) for lf in forms for _a, b in lf.terms), default=0)
    # derivative estimates with the synthesis step, so stencil errors track O(h)
    derivs = [finite_diff_derivative(sigma, k, 1.0, theta0, h)
              for k in range(max_k + 1)]
    for k in range(1, max_k + 1):
        if abs(derivs[k]) <= 1e-6:
            raise BadThetaError(
                f"finite-difference estimate of sigma^({k})(-theta0) is "
                f"{derivs[k]:.3e}; pick another theta0"
            )
    sigma_at_theta = float(sigma(np.array(-theta0)))

    units = {}  # hidden row, by value -> its unit
    rows: List[np.ndarray] = []
    weights = []  # per output: {unit: output weight}
    out_b = np.zeros(len(forms))
    for q, lf in enumerate(forms):
        out_w = {}
        bias = 0.0
        for a, b in lf.terms:
            deg = _form_degree(b)
            bias += float(b[0])
            for j in range(1, deg + 1):
                row = j * h * a
                u = units.setdefault(tuple(row.tolist()), len(rows))
                if u == len(rows):
                    rows.append(row)
                c = 0.0
                for k in range(j, deg + 1):
                    if b[k] == 0.0:
                        continue
                    c += b[k] / (derivs[k] * h ** k) * (-1.0) ** (k - j) * math.comb(k, j)
                # a row the output already reads gets the sum, in term order
                out_w[u] = out_w[u] + c if u in out_w else c
            for k in range(1, deg + 1):
                if b[k] == 0.0:
                    continue
                bias += b[k] / (derivs[k] * h ** k) * (-1.0) ** k * sigma_at_theta
        weights.append(out_w)
        out_b[q] = bias

    if not rows:
        return FeedforwardNet(
            (AffineLayer(np.zeros((len(forms), forms[0].dim)), out_b),), sigma)
    W2 = np.zeros((len(forms), len(rows)))
    for q, out_w in enumerate(weights):
        W2[q, list(out_w)] = list(out_w.values())
    hidden = AffineLayer(np.stack(rows), np.full(len(rows), -theta0))
    return FeedforwardNet((hidden, AffineLayer(W2, out_b)), sigma)


@dataclass(frozen=True)
class CompileResult:
    """Output of the function-to-shallow pipeline."""

    net: FeedforwardNet
    degree: int
    apriori_bound: float


# the Bernstein degrees tried, smallest first; the largest is the synthesis
# cap, because higher-order difference stencils degenerate in double precision
_DEGREES = (1, 2, 3, 4, 6, 8, 12)
_DEGREE_CAP = _DEGREES[-1]
_AUDIT_PER_AXIS = 10


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _CubeGrid:
    """The (per_axis)^p grid on [0, 1]^p, built on first use and kept
    read-only, and the Bernstein sums of a model over it.

    A point's basis weights are its coordinates' weights, so the grid keeps
    one read-only (per_axis, n+1) table per degree n and contracts a model
    axis by axis straight from it: after axis i a row depends only on the
    point's first i+1 grid indices, so axis i takes one (1, n+1) @ (n+1,
    rest) product per distinct index prefix, per_axis^(i+1) of them, not N.
    Each product is the one ``bernstein_contract`` takes for every point
    with that prefix, so the sums have its bits.
    """

    def __init__(self, p: int, per_axis: int):
        self.p, self.per_axis = p, per_axis
        self._tables = {}

    @cached_property
    def points(self) -> np.ndarray:
        return _read_only(_grid_points(self.p, self.per_axis))

    def _table(self, n: int) -> np.ndarray:
        table = self._tables.get(n)
        if table is None:
            axis = np.linspace(0.0, 1.0, self.per_axis)[:, None]
            table = self._tables[n] = _read_only(bernstein_weights(n, 1, axis)[:, 0])
        return table

    def contract(self, model: BernsteinModel) -> np.ndarray:
        """The Bernstein sum of ``model`` at every grid point, (N, m)."""
        n1 = model.n + 1
        table = self._table(model.n)[None, :, None, :]
        acc = model.values
        for i in range(self.p):
            rest = n1 ** (self.p - 1 - i) * model.m
            # (prefixes, 1, n+1, rest) -> (prefixes, per_axis, 1, rest)
            acc = np.matmul(table, acc.reshape(-1, 1, n1, rest))
        return acc.reshape(-1, model.m)

    def lattice(self, rows: np.ndarray, n: int) -> Optional[BernsteinModel]:
        """The degree-n Bernstein model of the target whose rows on this grid
        are ``rows``, its lattice k / n read off them as a strided subgrid;
        None unless the lattice points are grid points bit for bit."""
        step, rest = divmod(self.per_axis - 1, n)
        if rest or (np.linspace(0.0, 1.0, self.per_axis)[::step].tobytes()
                    != (np.arange(n + 1) / n).tobytes()):
            return None
        grid = rows.reshape((self.per_axis,) * self.p + (rows.shape[1],))
        values = grid[(slice(None, None, step),) * self.p]
        return BernsteinModel(n, self.p, np.ascontiguousarray(values))


class _CubeSamples:
    """The samples of a compile on [0, 1]^p that depend on p alone: the
    selection grid, the audit grid, the stack of the points a compile
    without a modulus reads and the audit pairs' input side."""

    def __init__(self, p: int):
        self.selection = _CubeGrid(p, {1: 41, 2: 21, 3: 9}.get(p, 5))
        self.audit = _CubeGrid(p, _AUDIT_PER_AXIS)

    @cached_property
    def stack(self) -> np.ndarray:
        # the selection grid, then every third audit point
        return _read_only(np.concatenate([self.selection.points,
                                          self.audit.points[::3]]))

    @cached_property
    def audit_pairs(self) -> PairInputs:
        # every pair of every third audit point, read by the empirical modulus
        return pair_inputs(self.audit.points[::3])


@lru_cache(maxsize=None)
def _memo_samples(p: int) -> _CubeSamples:
    return _CubeSamples(p)


def _cube_samples(p: int) -> _CubeSamples:
    # each process builds the samples of p <= 3 once; no compile reaches a
    # larger p (sampling.ball_points refuses it), so nothing else is kept
    return _memo_samples(p) if p in (1, 2, 3) else _CubeSamples(p)


def cube_points(p: int, audit: bool) -> np.ndarray:
    """The fixed samples of a compile on [0, 1]^p, which it reads with one
    oracle call: the selection grid and then, when ``audit`` (the compile
    has no modulus), every third audit point.  Read-only."""
    samples = _cube_samples(p)
    return samples.stack if audit else samples.selection.points


def _bernstein_error(p: int, m: int, omega_t: float) -> float:
    # the paper's bound m (1 + p/4) omega(1/sqrt(n)) on the degree-n
    # Bernstein error, from omega_t = omega(1/sqrt(n))
    return m * (1.0 + p / 4.0) * omega_t


def _apriori_degree(budget: float, p: int, m: int, omega: Modulus) -> Optional[int]:
    """The smallest degree n <= 12 whose a-priori Bernstein error m (1 +
    p/4) omega(1/sqrt(n)) fits ``budget``; None when none does.  The rule
    is monotone in n, so this is its smallest degree whenever that is at
    most 12."""
    return next((n for n in range(1, _DEGREE_CAP + 1)
                 if _bernstein_error(p, m, float(omega(1.0 / math.sqrt(n)))) <= budget),
                None)


@dataclass(frozen=True)
class Fit:
    """What the fit stage hands the realize stage: the Bernstein degree,
    one monomial polynomial per output with its total degree, and the
    fitted polynomial's rows on the audit grid, (N, m)."""

    degree: int
    polys: Tuple[Tuple[Coeffs, int], ...]
    reference: np.ndarray


def _select_degree(target: Callable[[np.ndarray], np.ndarray],
                   samples: _CubeSamples, targets: np.ndarray, budget: float,
                   omega: Optional[Modulus]) -> Fit:
    """The fit stage: the Bernstein polynomial of the smallest candidate
    degree whose lattice residual on the selection grid, where the target's
    rows are ``targets``, fits ``budget``, with the a-priori degree of
    ``omega`` added as a candidate; refused with every candidate's residual
    when none fits.  A lattice that is a subgrid of the selection grid is
    read off ``targets``; the target is called only on the others."""
    grid = samples.selection
    p, m = grid.p, targets.shape[1]
    candidates = _DEGREES
    n_apriori = None if omega is None else _apriori_degree(budget, p, m, omega)
    if n_apriori is not None and n_apriori not in candidates:
        candidates = sorted(candidates + (n_apriori,))
    tried = []  # each degree with its selection-grid residual, for the refusal
    for n in candidates:
        model = grid.lattice(targets, n)
        if model is None:
            model = bernstein_from_function(target, n, p, m)
        resid = sup_norm(grid.contract(model) - targets)
        if resid <= budget:
            break
        tried.append(f"{n}: {resid:.3g}")
    else:
        raise InfeasibleDegreeError(
            f"no Bernstein degree <= {_DEGREE_CAP} meets the "
            f"budget {budget!r} on the selection grid; residual by "
            f"degree: {', '.join(tried)}"
        )
    coeffs = bernstein_to_coefficients(model)
    polys = []
    for j in range(m):
        cj = {exps: float(vec[j]) for exps, vec in coeffs.items() if vec[j] != 0.0}
        polys.append((cj, poly_total_degree(cj)))
    return Fit(n, tuple(polys), samples.audit.contract(model))


def _synthesize(fit: Fit, points: np.ndarray, sigma: ActivationInfo, budget: float):
    """The realize stage: (net, residual), the finite-difference shallow net
    of the fitted polynomials and its sup distance from ``fit.reference``
    on the audit ``points``.  The offset is the activation's registered
    theta0 for the stencil order (``ActivationInfo``).  Smaller steps h are
    tried until the residual fits ``budget``; the net of the smallest
    residual is kept."""
    max_total = max((t for _c, t in fit.polys), default=0)
    # the stencil order equals the total degree; double precision cannot
    # support high-order difference stencils
    if max_total > _DEGREE_CAP:
        raise InfeasibleDegreeError(
            f"trimmed polynomial has total degree {max_total}, beyond the "
            f"synthesis stencil cap {_DEGREE_CAP}"
        )
    per_output: List[LinearFormPoly] = [
        decompose_polynomial(cj, max(total, 1), points.shape[1]) for cj, total in fit.polys
    ]

    kmax = max(max_total, 1)
    theta0 = sigma.theta0[min(kmax, len(sigma.theta0)) - 1]
    # below this step a k-th difference drops under the roundoff of its
    # 2^k-term alternating sum and the stencil reads pure noise
    h_floor = max((2.0 ** kmax * np.finfo(float).eps) ** (1.0 / (kmax + 1)), 1e-7)
    h = min(max(budget / kmax * 0.1, h_floor), 1e-2)

    best = None
    for _ in range(6):
        shallow = compile_poly_to_shallow(per_output, sigma, theta0, h)
        resid = sup_norm(shallow(points) - fit.reference)
        if best is None or resid < best[1]:
            best = (shallow, resid)
        if resid <= budget or h / 4.0 < h_floor:
            break
        h /= 4.0
    return best


def compile_function_to_shallow(
    target: Callable[[np.ndarray], np.ndarray],
    p: int, m: int, eps: float, sigma: ActivationInfo,
    omega: Optional[Modulus] = None, rows: Optional[np.ndarray] = None,
) -> CompileResult:
    """Compile a function on the unit cube into a shallow network, with the
    a-priori bound of its error: the fit stage, then the realize stage.

    The error budget splits evenly: half to the fit, half to
    finite-difference synthesis.  The fit's Bernstein degree is the
    smallest candidate whose measured lattice residual fits its half
    (checked on a dense grid); with a modulus, the a-priori candidate is
    added: the smallest degree n <= 12 with m (1 + p/4) omega(1/sqrt(n))
    within that half.  The fit hands the realize stage a ``Fit``: one
    monomial polynomial per output and the fitted rows on the audit grid of
    10 points per axis, against which the synthesis residual is measured.
    Degrees and total polynomial degrees above 12 are refused, because the
    difference stencils degenerate in double precision.  The error against
    the target is measured by the caller (``compile_gdn`` audits the GDN
    on the geodesic ball).

    The target takes an (N, p) stack and returns an (N, m) stack.  It runs
    once on ``cube_points(p, omega is None)``: the selection grid and,
    without ``omega`` only, every third audit point, whose empirical
    modulus is read at its one point t = 1/sqrt(n) by
    ``sampled_modulus_at``: of the 55,611 pairs at p = 3, only the pairs
    within input distance t get an output distance (12,791 at n = 4).
    ``rows``, when given, are the target's rows on those points, read by
    the caller, and the target is not called on them again.  A Bernstein
    lattice that is a subgrid of the selection grid bit for bit (degrees
    1, 2, 4 and 8 at p = 1 and 3; 1, 2 and 4 at p = 2) is read off its
    rows, and the target runs once more only on each other lattice tried.

    The samples that depend on p alone are built once per process for p <=
    3, each only when read: the grids, their Bernstein basis tables per
    degree, the stack of ``cube_points`` and the audit pairs' input side
    sorted by input distance.  They are read-only, so a target must not
    write to its input; at p = 3 they hold under 1.5 MB.

    An activation that is not smooth non-polynomial is refused with
    ``UnsupportedError`` before the target is read.
    """
    if not (eps > 0.0):
        raise ValidationError("eps must be positive")
    _require_smooth(sigma)
    samples = _cube_samples(p)
    if rows is None:
        rows = oracle_rows(target, cube_points(p, omega is None), m)
    k = len(samples.selection.points)
    fit = _select_degree(target, samples, rows[:k], 0.5 * eps, omega)
    net, residual = _synthesize(fit, samples.audit.points, sigma, 0.5 * eps)
    # the bound reads the modulus at its one point 1/sqrt(n); without
    # ``omega``, the empirical modulus is read there directly
    t = 1.0 / math.sqrt(fit.degree)
    omega_t = (float(omega(t)) if omega is not None else sampled_modulus_at(
        samples.audit_pairs, rows[k:], t))
    return CompileResult(net, fit.degree, _bernstein_error(p, m, omega_t) + residual)
