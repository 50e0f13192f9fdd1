"""Command-line front end.

Subcommands: estimate | compile | eval | certify | bench.
Exit codes: 0 success, 1 computational failure, 2 usage or validation
error.  Fixed seeds make runs deterministic (bench rows omit wall time
unless --timing is passed).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__
from .approx.estimates import depth_estimate, efficient_complexity
from .approx.certify import certify_efficient
from .approx.modulus import LipschitzModulus, ModulusEstimate, modulus_from_samples
from .approx.verticalize import split_outputs, verticalize
from .assemble import audit_gdn, compile_gdn, estimate_chart_lipschitz, pullback
from .errors import GdnError, ParseError, ValidationError
from .manifolds.core import resolve_manifold
from .manifolds.zoo import check_point
from .model import GDNModel, gdn_from_dict, save_gdn
from .network import get_activation, net_from_dict, param_count, width
from .sampling import ball_points
from .targets import resolve_target

_FMT = "%.17g"


def _json_out(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True))
    sys.stdout.write("\n")


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        data = json.loads(text)
        return np.asarray(data, dtype=float).ravel()
    except (json.JSONDecodeError, TypeError, ValueError) as e:
        raise ParseError(f"{what} must be a JSON array of numbers: {e}") from e


def _load_modulus(args) -> object:
    if args.modulus_file:
        with open(args.modulus_file, "r", encoding="utf-8") as f:
            d = json.load(f)
        try:
            return ModulusEstimate(np.array(d["knots"], dtype=float),
                                   np.array(d["values"], dtype=float))
        except (KeyError, TypeError) as e:
            raise ParseError(f"malformed modulus file: {e}") from e
    if args.lip is None:
        raise ParseError("provide --lip or --modulus-file")
    return LipschitzModulus(args.lip)


def cmd_estimate(args, parser) -> int:
    if args.efficient_n is not None:
        result = efficient_complexity(args.p, args.m, args.efficient_n, args.eps)
        _json_out(result.to_dict())
        return 0
    if args.activation_class is None:
        parser.error("either --class or --efficient-n is required")
    if args.activation_class == "continuous" and args.B is None:
        parser.error("--class continuous requires --B")
    for name in ("delta", "kappa1", "kappa2"):
        if getattr(args, name) is None:
            parser.error(f"--{name} is required for depth estimates")
    modulus = _load_modulus(args)
    sigma_modulus = LipschitzModulus(args.sigma_lip) if args.sigma_lip else None
    est = depth_estimate(args.activation_class, args.p, args.m, args.eps,
                         args.delta, modulus, args.kappa1, args.kappa2,
                         B=args.B, sigma_modulus=sigma_modulus)
    _json_out(est.to_dict())
    return 0


def cmd_compile(args, parser) -> int:
    domain = resolve_manifold(args.domain)
    codomain = resolve_manifold(args.codomain)
    base_x = _parse_vector(args.base_x, "--base-x")
    check_point(domain, base_x)
    inj = domain.inj_lower(base_x)
    if not (0.0 < args.radius < inj):
        parser.error(f"--radius must lie in (0, {inj!r}) for {domain.id}")
    target = resolve_target(args.target, domain, base_x, seed=args.seed)
    if args.base_y == "auto":
        base_y = np.asarray(target.fn(base_x), dtype=float)
    else:
        base_y = _parse_vector(args.base_y, "--base-y")
    sigma = get_activation(args.activation)
    modulus = LipschitzModulus(args.lip) if args.lip else None

    compiled = compile_gdn(domain, codomain, base_x, base_y, target.fn,
                           args.radius, args.eps, sigma, omega=modulus,
                           audit_count=args.grid, seed=args.seed)
    model = compiled.model
    measured = compiled.audit_error
    if args.verticalize is not None:
        lo, hi = (float(t) for t in args.verticalize.split(","))
        strategy = ("exact-pwl" if sigma.cls == "piecewise-linear"
                    else "scaled-identity")
        # lam ~ sqrt(2 eps_machine) balances linearization error against
        # decode roundoff for registers of any magnitude
        deep = verticalize(split_outputs(model.core), (lo, hi), strategy,
                           lam=2.1e-8)
        model = GDNModel(domain, codomain, model.base_x, model.base_y, deep.net)
        measured = audit_gdn(model, target.fn, args.radius, args.grid)

    if args.out:
        save_gdn(model, args.out)
    summary = {
        "target": args.target,
        "eps": args.eps,
        "measured_error": measured,
        "apriori_bound": compiled.apriori_bound,
        "bernstein_degree": compiled.compile_result.degree,
        "width": width(model.core),
        "depth": model.core.depth,
        "param_count": param_count(model.core),
        "audit_points": compiled.audit_count,
        "out": args.out,
    }
    _json_out(summary)
    if measured <= args.eps:
        return 0
    sys.stderr.write(
        f"measured error {measured!r} exceeds the budget {args.eps!r}\n")
    return 1


def cmd_eval(args, parser) -> int:
    with open(args.model, "r", encoding="utf-8") as f:
        payload = json.load(f)
    x = _parse_vector(args.input, "--input")
    if "domain" in payload:
        model = gdn_from_dict(payload)
        y = model(x)
    else:
        y = net_from_dict(payload)(x)
    _json_out({"output": [float(t) for t in np.asarray(y).ravel()]})
    return 0


def _read_csv_points(path: str) -> List[np.ndarray]:
    points = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                points.append(np.array([float(t) for t in line.split(",")]))
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: malformed CSV row: {e}") from e
    if not points:
        raise ParseError(f"{path}: no data rows")
    return points


def cmd_certify(args, parser) -> int:
    domain = resolve_manifold(args.domain)
    codomain = resolve_manifold(args.codomain)
    dataset = _read_csv_points(args.dataset)
    values = _read_csv_points(args.values)
    base_x = _parse_vector(args.base_x, "--base-x")
    base_y = _parse_vector(args.base_y, "--base-y")
    cert = certify_efficient(dataset, values, domain, codomain, base_x, base_y,
                             n=args.n)
    payload = cert.to_dict()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    _json_out(payload)
    return 0


_BENCH_COLUMNS = ("target", "eps", "measured_error", "width", "depth",
                  "param_count", "predicted_depth_order")


def cmd_bench(args, parser) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        config = json.load(f)
    runs = config.get("runs")
    if not runs:
        raise ParseError("bench config needs a non-empty 'runs' list")
    header = list(_BENCH_COLUMNS) + (["wall_time_s"] if args.timing else [])
    rows = [",".join(header)]
    for run in runs:
        t0 = time.perf_counter()
        domain = resolve_manifold(run["domain"])
        codomain = resolve_manifold(run["codomain"])
        base_x = np.asarray(run["base_x"], dtype=float)
        seed = int(run.get("seed", 0))
        target = resolve_target(run["target"], domain, base_x, seed=seed)
        base_y = (np.asarray(target.fn(base_x), dtype=float)
                  if run.get("base_y", "auto") == "auto"
                  else np.asarray(run["base_y"], dtype=float))
        sigma = get_activation(run.get("activation", "exp"))
        radius = float(run["radius"])
        eps = float(run["eps"])
        grid = int(run.get("grid", 200))

        compiled = compile_gdn(domain, codomain, base_x, base_y, target.fn,
                               radius, eps, sigma, audit_count=grid, seed=seed)
        # order-level depth prediction from sampled chart data
        k1, _ = estimate_chart_lipschitz(domain, base_x, radius, pairs=2000,
                                         seed=seed)
        _, k2 = estimate_chart_lipschitz(
            codomain, compiled.model.base_y,
            max(0.5, min(radius, 0.9 * codomain.inj_lower(compiled.model.base_y))),
            pairs=2000, seed=seed + 1)
        probe = [0.5 * (t / radius + 1.0) for t in ball_points(24, domain.dim, radius)]
        pulled = pullback(domain, codomain, base_x, compiled.model.base_y,
                          target.fn, radius)
        omega = modulus_from_samples(pulled, probe)
        est = depth_estimate("smooth", domain.dim, codomain.dim, eps, radius,
                             omega, k1, k2)
        wall = time.perf_counter() - t0
        row = [
            run["target"],
            _FMT % eps,
            _FMT % compiled.audit_error,
            str(width(compiled.model.core)),
            str(compiled.model.core.depth),
            str(param_count(compiled.model.core)),
            _FMT % est.depth_order,
        ]
        if args.timing:
            row.append(_FMT % wall)
        rows.append(",".join(row))
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdn",
        description="Geometric deep networks: estimators, constructive "
                    "compilation, dataset certification, and benchmarks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="depth/width/parameter estimates")
    est.add_argument("--class", dest="activation_class",
                     choices=("smooth", "poly", "continuous"))
    est.add_argument("--p", type=int, required=True)
    est.add_argument("--m", type=int, required=True)
    est.add_argument("--eps", type=float, required=True)
    est.add_argument("--delta", type=float)
    est.add_argument("--lip", type=float)
    est.add_argument("--modulus-file")
    est.add_argument("--kappa1", type=float)
    est.add_argument("--kappa2", type=float)
    est.add_argument("--B", type=float)
    est.add_argument("--sigma-lip", type=float,
                     help="Lipschitz constant of the activation (continuous class)")
    est.add_argument("--efficient-n", type=int,
                     help="report polynomial rates for an n-efficient dataset")

    comp = sub.add_parser("compile", help="compile a target into a GDN")
    comp.add_argument("--target", required=True)
    comp.add_argument("--domain", required=True)
    comp.add_argument("--codomain", required=True)
    comp.add_argument("--base-x", required=True)
    comp.add_argument("--base-y", default="auto")
    comp.add_argument("--radius", type=float, required=True)
    comp.add_argument("--eps", type=float, required=True)
    comp.add_argument("--activation", default="exp")
    comp.add_argument("--lip", type=float,
                      help="Lipschitz constant of the target (optional)")
    comp.add_argument("--grid", type=int, default=200,
                      help="audit sample count")
    comp.add_argument("--seed", type=int, default=0)
    comp.add_argument("--out")
    comp.add_argument("--verticalize", metavar="LO,HI",
                      help="rewrite the core deep-narrow over the given box")

    ev = sub.add_parser("eval", help="evaluate a saved net or GDN")
    ev.add_argument("--model", required=True)
    ev.add_argument("--input", required=True)

    cert = sub.add_parser("certify", help="certify dataset efficiency")
    cert.add_argument("--dataset", required=True)
    cert.add_argument("--values", required=True)
    cert.add_argument("--domain", required=True)
    cert.add_argument("--codomain", required=True)
    cert.add_argument("--base-x", required=True)
    cert.add_argument("--base-y", required=True)
    cert.add_argument("--n", type=int)
    cert.add_argument("--out")

    bench = sub.add_parser("bench", help="batch compile-and-audit runs")
    bench.add_argument("config", help="bench config JSON path")
    bench.add_argument("--out")
    bench.add_argument("--timing", action="store_true",
                       help="append wall-clock times (breaks byte-identical reports)")

    return parser


_DISPATCH = {
    "estimate": cmd_estimate,
    "compile": cmd_compile,
    "eval": cmd_eval,
    "certify": cmd_certify,
    "bench": cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args, parser)
    except (ParseError, ValidationError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except GdnError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except FileNotFoundError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
