"""Command-line front end.

Subcommands: estimate | compile | eval | certify | bench.
Exit codes: 0 success, 1 computational failure, 2 usage or validation
error.  Fixed seeds make runs deterministic (bench rows omit wall time
unless --timing is passed).

A call builds and imports only what its command runs.  When argv[0] names
a command, that command's own parser (prog ``gdn <command>``) parses the
rest of argv: one ``ArgumentParser`` and one parse.  The full parser, the
top level with all five subparsers, is built only for the text it alone
gives: the top-level help and version, an argv that does not start with a
command, arguments the command's parser leaves over, and the usage errors
``cmd_estimate`` raises.  The compiler (``approx``, ``assemble``,
``sampling``) is imported inside the commands that use it.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .errors import GdnError, ParseError, ValidationError
from .manifolds.core import log_chart_lipschitz, resolve_manifold
from .manifolds.zoo import as_point
from .model import GDNModel, gdn_from_dict, save_gdn
from .network import get_activation, net_from_dict, param_count, width
# a module-level name: perfbench/spans.py reads gdn.cli.resolve_target to
# count the target oracle's calls
from .targets import resolve_target

_FMT = "%.17g"


class UsageError(Exception):
    """An argument combination a command refuses; ``main`` reports it
    through the full parser, as argparse reports its own usage errors."""


def _json_out(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True))
    sys.stdout.write("\n")


def _parse_array(text: str, what: str) -> np.ndarray:
    try:
        return np.asarray(json.loads(text), dtype=float)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{what} must be a JSON array of numbers: {e}") from e


def _parse_vector(text: str, what: str) -> np.ndarray:
    return _parse_array(text, what).ravel()


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise ParseError(f"{path}: malformed JSON: {e}") from e


def _load_modulus(args) -> object:
    from .approx.modulus import LipschitzModulus, ModulusEstimate

    if args.modulus_file:
        d = _load_json(args.modulus_file)
        if not isinstance(d, dict):
            raise ParseError(f"{args.modulus_file}: a modulus file must be a JSON "
                             f"object, got {json.dumps(d)}")
        try:
            knots, values = (np.array(d[key], dtype=float) for key in ("knots", "values"))
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed modulus file: {e}") from e
        return ModulusEstimate(knots, values)
    if args.lip is None:
        raise ParseError("provide --lip or --modulus-file")
    return LipschitzModulus(args.lip)


def cmd_estimate(args) -> int:
    from .approx.estimates import depth_estimate, efficient_complexity
    from .approx.modulus import LipschitzModulus

    if args.efficient_n is not None:
        result = efficient_complexity(args.p, args.m, args.efficient_n, args.eps)
        _json_out(result.to_dict())
        return 0
    if args.activation_class is None:
        raise UsageError("either --class or --efficient-n is required")
    if args.activation_class == "continuous" and args.B is None:
        raise UsageError("--class continuous requires --B")
    for name in ("delta", "kappa1", "kappa2"):
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for depth estimates")
    modulus = _load_modulus(args)
    sigma_modulus = (LipschitzModulus(args.sigma_lip)
                     if args.sigma_lip is not None else None)
    est = depth_estimate(args.activation_class, args.p, args.m, args.eps,
                         args.delta, modulus, args.kappa1, args.kappa2,
                         B=args.B, sigma_modulus=sigma_modulus)
    _json_out(est.to_dict())
    return 0


def _resolve_run(domain, codomain, base_x, target, base_y, activation, seed):
    """The manifolds, base points, target and activation of a ``compile`` or
    of a ``bench`` run; base_x is checked by ``as_point`` before the target
    sees it (the compile's chart finds a base that is not SPD), and base_y
    "auto" is passed on for ``compile_gdn`` to evaluate after its checks."""
    domain, codomain = resolve_manifold(domain), resolve_manifold(codomain)
    base_x = as_point(domain, np.asarray(base_x, dtype=float).ravel())
    target = resolve_target(target, domain, base_x, seed=seed)
    if not (isinstance(base_y, str) and base_y == "auto"):
        base_y = np.asarray(base_y, dtype=float).ravel()
    return domain, codomain, base_x, target, base_y, get_activation(activation)


def _check_out_path(path: str) -> None:
    # refuse an output file that cannot be created before the work that
    # fills it, and create nothing
    if os.path.isdir(path):
        raise ValidationError(f"--out {path}: is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ValidationError(f"--out {path}: no directory {parent}")


def cmd_compile(args) -> int:
    from .approx.modulus import LipschitzModulus
    from .assemble import audit_gdn, compile_gdn

    if args.out:
        _check_out_path(args.out)
    domain, codomain, base_x, target, base_y, sigma = _resolve_run(
        args.domain, args.codomain, _parse_vector(args.base_x, "--base-x"),
        args.target, args.base_y if args.base_y == "auto"
        else _parse_vector(args.base_y, "--base-y"), args.activation, args.seed)
    modulus = LipschitzModulus(args.lip) if args.lip is not None else None
    if args.verticalize is not None:
        try:
            lo, hi = (float(t) for t in args.verticalize.split(","))
        except ValueError as e:
            raise ParseError(f"--verticalize must be LO,HI, got {args.verticalize!r}") from e
        from .approx.verticalize import as_box, verticalize

        # a box verticalize would refuse is refused before the compile
        box = as_box((lo, hi), domain.chart_dim)

    compiled = compile_gdn(domain, codomain, base_x, base_y, target.fn,
                           args.radius, args.eps, sigma, omega=modulus,
                           audit_count=args.grid)
    model = compiled.model
    measured = compiled.audit_error
    if args.verticalize is not None:
        model = GDNModel(model.chart_x, model.chart_y, verticalize(model.core, box))
        measured = audit_gdn(model, target.fn, args.radius, args.grid)

    if args.out:
        save_gdn(model, args.out)
    summary = {
        "target": args.target,
        "eps": args.eps,
        "measured_error": measured,
        "apriori_bound": compiled.apriori_bound,
        "bernstein_degree": compiled.degree,
        "width": width(model.core),
        "depth": model.core.depth,
        "param_count": param_count(model.core),
        "audit_points": args.grid,
        "out": args.out,
    }
    _json_out(summary)
    if measured <= args.eps:
        return 0
    sys.stderr.write(
        f"measured error {measured!r} exceeds the budget {args.eps!r}\n")
    return 1


def cmd_eval(args) -> int:
    payload = _load_json(args.model)
    if not isinstance(payload, dict):
        raise ParseError(f"{args.model}: a model must be a JSON object, "
                         f"got {json.dumps(payload)}")
    # one point (flattened), or a 2-D array of points evaluated as one stack
    x = _parse_array(args.input, "--input")
    if x.ndim > 2 or (x.ndim == 2 and x.size == 0):
        raise ParseError(f"--input must be one point or a non-empty 2-D array of "
                         f"points, got shape {x.shape}")
    if x.ndim < 2:
        x = x.ravel()
    model = gdn_from_dict(payload) if "domain" in payload else net_from_dict(payload)
    # an activation may overflow on a far input, and the warning adds nothing:
    # exp's inf fails the layer's finiteness check, and sigmoid's 1 / (1 + inf)
    # is its limit 0
    with np.errstate(over="ignore"):
        y = np.asarray(model(x))
    _json_out({"output": y.tolist() if x.ndim == 2 else [float(t) for t in y.ravel()]})
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


def cmd_certify(args) -> int:
    from .approx.certify import certify_efficient

    if args.out:
        _check_out_path(args.out)
    domain = resolve_manifold(args.domain)
    codomain = resolve_manifold(args.codomain)
    dataset = _read_csv_points(args.dataset)
    values = _read_csv_points(args.values)
    base_x = _parse_vector(args.base_x, "--base-x")
    base_y = _parse_vector(args.base_y, "--base-y")
    cert = certify_efficient(dataset, values, domain, codomain, base_x, base_y)
    # the bytes _json_out prints, written to --out as well
    text = json.dumps(cert.to_dict(), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    sys.stdout.write(text)
    return 0


_BENCH_COLUMNS = ("target", "eps", "measured_error", "width", "depth",
                  "param_count", "predicted_depth_order")


def _run_number(run: dict, key: str, kind, default=None):
    # a bench run's number of the JSON type ``kind``; a bool is no number
    value = run[key] if default is None else run.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is int else "a number"
        raise ParseError(f"{key} must be {noun}, got {value!r}")
    return value


def _bench_row(i: int, run: dict, timing: bool) -> List[str]:
    # the CSV fields of bench run i; every error it raises names the run
    from .approx.estimates import depth_estimate
    from .approx.modulus import modulus_from_samples
    from .assemble import compile_gdn, pullback
    from .sampling import ball_points

    t0 = time.perf_counter()
    try:
        if not isinstance(run, dict):
            raise ParseError(f"a run must be a JSON object, got {run!r}")
        try:
            seed = _run_number(run, "seed", int, 0)
            domain, codomain, base_x, target, base_y, sigma = _resolve_run(
                run["domain"], run["codomain"], run["base_x"], run["target"],
                run.get("base_y", "auto"), run.get("activation", "exp"), seed)
            radius = float(_run_number(run, "radius", (int, float)))
            eps = float(_run_number(run, "eps", (int, float)))
            grid = _run_number(run, "grid", int, 200)
        except KeyError as e:
            raise ParseError(f"missing key {e}") from e
        except (TypeError, ValueError, OverflowError) as e:
            if isinstance(e, GdnError):
                raise
            raise ParseError(str(e)) from e

        compiled = compile_gdn(domain, codomain, base_x, base_y, target.fn,
                               radius, eps, sigma, audit_count=grid)
        # order-level depth prediction from the closed-form chart constants;
        # the smallest exp-chart expansion is the log chart's reciprocal
        k1 = log_chart_lipschitz(domain, radius)
        k2 = 1.0 / log_chart_lipschitz(
            codomain, min(radius, 0.9 * codomain.inj_lower))
        probe = 0.5 * (ball_points(24, domain.dim, radius) / radius + 1.0)
        pulled = pullback(compiled.model.chart_x, compiled.model.chart_y,
                          target.fn, radius)
        omega = modulus_from_samples(pulled, probe)
        est = depth_estimate("smooth", domain.dim, codomain.dim, eps, radius,
                             omega, k1, k2)
    except GdnError as e:
        # same class, attributes and exit code, with the run named
        e.args = (f"bench run {i}: {e}",)
        raise
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
    if timing:
        row.append(_FMT % wall)
    return row


def cmd_bench(args) -> int:
    config = _load_json(args.config)
    runs = config.get("runs") if isinstance(config, dict) else None
    if not runs or not isinstance(runs, list):
        raise ParseError("bench config needs a non-empty 'runs' list")
    header = list(_BENCH_COLUMNS) + (["wall_time_s"] if args.timing else [])
    # each row is written as soon as its run finishes, so a failing run
    # leaves the rows before it in the report
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as report:
        report.write(",".join(header) + "\n")
        for i, run in enumerate(runs):
            report.write(",".join(_bench_row(i, run, args.timing)) + "\n")
            report.flush()
    return 0


def _estimate_arguments(est: argparse.ArgumentParser) -> None:
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


def _compile_arguments(comp: argparse.ArgumentParser) -> None:
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
                      help="rewrite the core deep-narrow over the given box: "
                           "one layer per hidden unit that an output reads, carrying "
                           "registers through a small first-order window of the "
                           "smooth activation")


def _eval_arguments(ev: argparse.ArgumentParser) -> None:
    ev.add_argument("--model", required=True)
    ev.add_argument("--input", required=True)


def _certify_arguments(cert: argparse.ArgumentParser) -> None:
    cert.add_argument("--dataset", required=True)
    cert.add_argument("--values", required=True)
    cert.add_argument("--domain", required=True)
    cert.add_argument("--codomain", required=True)
    cert.add_argument("--base-x", required=True)
    cert.add_argument("--base-y", required=True)
    cert.add_argument("--out")


def _bench_arguments(bench: argparse.ArgumentParser) -> None:
    bench.add_argument("config", help="bench config JSON path")
    bench.add_argument("--out")
    bench.add_argument("--timing", action="store_true",
                       help="append wall-clock times (breaks byte-identical reports)")


# name -> (help, adds the command's arguments to its parser, runner)
_COMMANDS = {
    "estimate": ("depth/width/parameter estimates", _estimate_arguments, cmd_estimate),
    "compile": ("compile a target into a GDN", _compile_arguments, cmd_compile),
    "eval": ("evaluate a saved net or GDN", _eval_arguments, cmd_eval),
    "certify": ("certify dataset efficiency", _certify_arguments, cmd_certify),
    "bench": ("batch compile-and-audit runs", _bench_arguments, cmd_bench),
}


def build_parser() -> argparse.ArgumentParser:
    """The full ``gdn`` parser: the top level and all five subparsers.
    ``main`` builds it only where the command's own parser cannot give the
    text: ``-h``, ``--version``, an argv that does not start with a command,
    arguments left over after the command's parse (reported as
    unrecognized), and a ``UsageError``."""
    parser = argparse.ArgumentParser(
        prog="gdn",
        description="Geometric deep networks: estimators, constructive "
                    "compilation, dataset certification, and benchmarks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _run) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, the same as its subparser in
    ``build_parser``: argparse's subparser action parses the arguments after
    the command with exactly that parser."""
    parser = argparse.ArgumentParser(prog=f"gdn {name}")
    _COMMANDS[name][1](parser)
    return parser


def parse_argv(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed as the full parser parses it, by the command's own parser
    where argv[0] names a command and nothing is left over."""
    if argv and argv[0] in _COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    # -h, --version, no command first, or arguments left over: the full
    # parser, which reports leftovers as unrecognized
    return build_parser().parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = parse_argv(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except UsageError as e:
        build_parser().error(str(e))
    except (ParseError, ValidationError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except GdnError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
