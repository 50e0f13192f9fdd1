"""Independent closed forms for checking gdn outputs.

Nothing here imports gdn.  The targets, charts, distances and the model
interpreter are written from their mathematical definitions with
numpy alone, so a check that passes does not rest on the code under test:

* targets: the Rodrigues rotation, Moebius addition, the congruence
  A -> Q^T A Q, and the benchmark polynomials;
* distances: great-circle (atan2 form), Poincare (arcosh form), affine-
  invariant SPD (eigenvalues of the Cholesky-whitened pair), Euclidean;
* charts: the exp/log conventions documented in the gdn model format
  (Poincare Exp_x(v) = x (+) Exp_0(v); SPD metric-normal coordinates on
  Frobenius-isometric upper-triangle vectors);
* ``interpret_model``: evaluates a saved GDN JSON as Exp o net o Log.
"""
from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)


# -- manifolds ---------------------------------------------------------------

class Euclidean:
    def __init__(self, p: int):
        self.dim = p

    def exp(self, x, v):
        return x + v

    def log(self, x, y):
        return y - x

    def dist(self, x, y):
        return float(np.linalg.norm(y - x))

    def basis(self, x):
        return np.eye(self.dim)


class Sphere2:
    """Unit sphere in R^3; tangents are ambient vectors orthogonal to x."""

    dim = 2

    def exp(self, x, v):
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return x.copy()
        y = math.cos(nv) * x + math.sin(nv) * (v / nv)
        return y / np.linalg.norm(y)

    def log(self, x, y):
        w = y - float(x @ y) * x
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return np.zeros(3)
        return self.dist(x, y) * (w / nw)

    def dist(self, x, y):
        return math.atan2(float(np.linalg.norm(np.cross(x, y))), float(x @ y))

    def basis(self, x):
        return np.linalg.svd(x[None, :])[2][1:].T


def mobius_add(a, b, c: float):
    ab, a2, b2 = float(a @ b), float(a @ a), float(b @ b)
    num = (1.0 + 2.0 * c * ab + c * b2) * a + (1.0 - c * a2) * b
    return num / (1.0 + 2.0 * c * ab + c * c * a2 * b2)


class Poincare:
    def __init__(self, p: int, c: float):
        self.dim, self.c = p, c

    def exp(self, x, v):
        sc, nv = math.sqrt(self.c), float(np.linalg.norm(v))
        step = v if nv == 0.0 else math.tanh(sc * nv / 2.0) / (sc * nv) * v
        return mobius_add(x, step, self.c)

    def log(self, x, y):
        z = mobius_add(-x, y, self.c)
        sc, nz = math.sqrt(self.c), float(np.linalg.norm(z))
        return z if nz == 0.0 else (2.0 / sc) * math.atanh(sc * nz) / nz * z

    def dist(self, x, y):
        c = self.c
        gap = float(np.sum((x - y) ** 2))
        den = (1.0 - c * float(x @ x)) * (1.0 - c * float(y @ y))
        return math.acosh(1.0 + 2.0 * c * gap / den) / math.sqrt(c)

    def basis(self, x):
        return np.eye(self.dim)


def sym_unvec(v):
    """Frobenius-isometric upper-triangle vector -> symmetric matrix."""
    n = int(round((math.sqrt(8 * len(v) + 1) - 1) / 2))
    iu, ju = np.triu_indices(n)
    vals = np.where(iu == ju, v, v / _SQRT2)
    A = np.zeros((n, n))
    A[iu, ju] = vals
    A[ju, iu] = vals
    return A


def sym_vec(A):
    iu, ju = np.triu_indices(A.shape[0])
    vals = 0.5 * (A + A.T)[iu, ju]
    return np.where(iu == ju, vals, vals * _SQRT2)


def _spectral(A, fn):
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    return (V * fn(w)) @ V.T


class SPD:
    """Affine-invariant SPD(n) in metric-normal tangent coordinates."""

    def __init__(self, n: int):
        self.dim = n * (n + 1) // 2

    def exp(self, x, v):
        sA = _spectral(sym_unvec(x), np.sqrt)
        return sym_vec(sA @ _spectral(sym_unvec(v), np.exp) @ sA)

    def log(self, x, y):
        isA = _spectral(sym_unvec(x), lambda w: 1.0 / np.sqrt(w))
        return sym_vec(_spectral(isA @ sym_unvec(y) @ isA, np.log))

    def dist(self, x, y):
        # eigenvalues of A^-1 B, from L^-1 B L^-T with A = L L^T
        L = np.linalg.cholesky(sym_unvec(x))
        W = np.linalg.solve(L, np.linalg.solve(L, sym_unvec(y)).T)
        lam = np.linalg.eigvalsh(0.5 * (W + W.T))
        return float(np.sqrt(np.sum(np.log(lam) ** 2)))

    def basis(self, x):
        return np.eye(self.dim)


def manifold(identifier: str):
    fam, *params = identifier.split(":")
    if fam == "euclidean":
        return Euclidean(int(params[0]))
    if fam == "sphere" and params == ["2"]:
        return Sphere2()
    if fam == "poincare":
        return Poincare(int(params[0]), float(params[1]))
    if fam == "spd":
        return SPD(int(params[0]))
    raise ValueError(f"no independent closed form for {identifier!r}")


# -- targets -----------------------------------------------------------------

def target(name: str, base_x, seed: int):
    """Closed form of a gdn command-line target (see ``gdn.targets``)."""
    if name == "rotation":
        # Rodrigues: angle pi/4 about the axis through the base point
        a = base_x / np.linalg.norm(base_x)
        K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        t = math.pi / 4.0
        R = np.eye(3) + math.sin(t) * K + (1.0 - math.cos(t)) * (K @ K)
        return lambda x: R @ x
    if name == "mobius-shift":
        a = np.zeros(len(base_x))
        a[0] = 0.3  # default shift 0.3 / sqrt(c) at c = 1
        return lambda x: mobius_add(a, x, 1.0)
    if name == "spd-congruence":
        n = int(round((math.sqrt(8 * len(base_x) + 1) - 1) / 2))
        Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
        return lambda x: sym_vec(Q.T @ sym_unvec(x) @ Q)
    polys = {
        "poly:x1*x2*x3": lambda x: x[0] * x[1] * x[2],
        "poly:x1^2+x2^2+x3^2": lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2,
        "poly:x1^2-x2^2+x1*x2": lambda x: x[0] ** 2 - x[1] ** 2 + x[0] * x[1],
    }
    if name in polys:
        f = polys[name]
        return lambda x: np.array([f(x)])
    raise ValueError(f"no independent closed form for target {name!r}")


# -- sampling and model interpretation ----------------------------------------

def ball_points(space, base, radius: float, count: int, rng) -> list:
    """``count`` seeded points of the geodesic ball of ``radius`` about
    ``base``: uniform directions at radius ``radius * U**(1/p)``, pushed
    through the closed-form exp."""
    E = space.basis(base)
    p = space.dim
    out = []
    for _ in range(count):
        d = rng.standard_normal(p)
        r = radius * rng.random() ** (1.0 / p)
        out.append(space.exp(base, E @ (r * d / np.linalg.norm(d))))
    return out


_ACTIVATIONS = {"exp": np.exp}


def interpret_model(model: dict):
    """Evaluate a saved GDN dictionary without gdn: Exp o net o Log."""
    dom, cod = manifold(model["domain"]), manifold(model["codomain"])
    bx = np.array(model["base_x"], dtype=float)
    by = np.array(model["base_y"], dtype=float)
    layers = [(np.array(l["weights"], dtype=float), np.array(l["bias"], dtype=float))
              for l in model["layers"]]
    act = _ACTIVATIONS[model["activation"]["name"]]

    def f(x):
        h = dom.log(bx, x)
        for i, (W, b) in enumerate(layers):
            h = W @ h + b
            if i != len(layers) - 1:
                h = act(h)
        return cod.exp(by, h)

    return f


def param_count(model: dict) -> int:
    return sum(len(l["bias"]) * (len(l["weights"][0]) + 1) for l in model["layers"])
