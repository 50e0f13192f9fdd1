#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of gdn.

Drives gdn in-process through its public entry points, ``gdn.cli.main`` and
``GDNModel.__call__``, as one closed-loop client: the next operation starts
when the previous one returns.  GDN_THREADS is unset (one audit worker) and
BLAS threads are pinned to 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Workloads (each a round-robin over three cases, repeated for --seconds):

* compile-charts: ``gdn compile`` of sphere2-rotation, poincare2-mobius,
  spd2-congruence (chart kernels, exp-chart Lipschitz sampling);
* compile-cube: ``gdn compile`` of cube3-product, cube3-quadratic,
  cube2-mixed (approximation engine and target oracle);
* eval-stream: ``GDNModel.__call__`` on the three stored chart models;
* eval-cli: in-process ``gdn eval`` on the three stored chart models.

The seed draws the inputs: the compile ``--seed`` (which also picks the
spd-congruence target), the re-audit points, and the eval points.  Every
output is checked against the independent closed forms in ``oracle.py``.
With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run (see ``spans.py``).
Times are host-speed corrected (see ``clock.py``).  ``--workload all``
runs each workload in its own process and prints one row per workload.
"""
import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GDN_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from array import array  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import clock  # noqa: E402
import oracle  # noqa: E402
from cases import CHART_CASES, CUBE_CASES, MODEL_SEED  # noqa: E402

WORKLOADS = ("compile-charts", "compile-cube", "eval-stream", "eval-cli")
SETUP_CHILDREN = 4      # extra set-ups in fresh processes, for the setup_s median
REAUDIT_POINTS = 64     # independent re-audit points per compiled model
EVAL_POINTS = 256       # seeded points per model, cycled (eval-stream)
CLI_POINTS = 64         # seeded points per model, cycled (eval-cli)
EVAL_BLOCK = 32         # GDNModel.__call__ evaluations per timed operation
MAX_TRACED_PASSES = 8   # bounds the spans kept in memory
TAILS = (99.9, 99.0, 90.0)


def import_gdn():
    """Import gdn from the sources next to the benchmark, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "gdn", "__init__.py")):
        raise SystemExit(f"perfbench: no gdn sources at {SRC}")
    sys.path.insert(0, SRC)
    import gdn.cli
    import gdn.model
    if not os.path.abspath(gdn.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported gdn from {gdn.__file__}, not {SRC}")
    return gdn


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 32, *stream])


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call_cli(gdn, argv):
    """One in-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = gdn.cli.main(argv)
        except SystemExit as e:  # argparse rejecting the arguments
            return e.code, "", err.getvalue()
        except Exception as e:  # a crash is a failed operation, not a benchmark error
            return -1, "", f"{type(e).__name__}: {e}"
    return rc, out.getvalue(), err.getvalue()


class CompileWorkload:
    """In-process ``gdn compile`` of each case, re-audited independently."""

    op_kind = "compile"
    per_op = 1
    kernels = (clock.NUMERIC,)

    def __init__(self, gdn, cases, seed):
        self.gdn, self.cases = gdn, cases
        self.repeats = [c.repeat for c in cases]
        self.compile_seed = seed % 100_000
        os.makedirs(OUT_DIR, exist_ok=True)
        self.out = [os.path.join(OUT_DIR, f"{c.name}.json") for c in cases]
        self.argv = [c.compile_argv(self.compile_seed, out) for c, out in zip(cases, self.out)]
        self.checks = []
        for k, c in enumerate(cases):
            dom, cod = oracle.manifold(c.domain), oracle.manifold(c.codomain)
            base = np.array(c.base_x, dtype=float)
            points = oracle.ball_points(dom, base, c.radius, REAUDIT_POINTS, _rng(seed, 1, k))
            self.checks.append((cod, oracle.target(c.target, base, self.compile_seed), points))
        self.digests, self.params, self.degree, self.reaudit, self.verdict = {}, {}, {}, {}, {}

    def run(self, k):
        return _call_cli(self.gdn, self.argv[k])

    def check(self, k, result):
        failure = self._check(k, result)
        return [failure] if failure else []

    def _check(self, k, result):
        rc, out, err = result
        if rc != 0:
            return f"exit code {rc}: {err.strip()}"
        summary = json.loads(out)
        eps = self.cases[k].eps
        if not summary["measured_error"] <= eps:
            return f"measured_error {summary['measured_error']!r} > eps {eps!r}"
        with open(self.out[k], "rb") as f:
            data = f.read()
        digest = _sha(data)
        if k in self.digests:
            if digest != self.digests[k]:
                return "model bytes differ between compiles"
            return self.verdict[k]
        model = json.loads(data)
        cod, target, points = self.checks[k]
        f = oracle.interpret_model(model)
        worst = max(cod.dist(f(x), target(x)) for x in points)
        self.digests[k], self.params[k] = digest, oracle.param_count(model)
        self.degree[k] = (summary["bernstein_degree"], oracle.manifold(self.cases[k].domain).dim)
        self.reaudit[k] = worst
        self.verdict[k] = (None if worst <= eps else
                           f"independent re-audit error {worst!r} > eps {eps!r}")
        return self.verdict[k]

    def model_params(self):
        return sum(self.params.values())

    def report(self):
        return [f"  {c.name}: model sha256 {self.digests.get(k, '-')}  "
                f"re-audit max error {self.reaudit.get(k, float('nan')):.3g} "
                f"(eps {c.eps}, {REAUDIT_POINTS} points)"
                for k, c in enumerate(self.cases)]


class EvalWorkload:
    """Evaluations of the stored chart models at seeded points inside 0.9 x
    radius, checked against the oracle; repeats must give identical bytes.

    eval-cli times each ``gdn eval`` call; eval-stream times blocks of
    ``EVAL_BLOCK`` consecutive ``GDNModel.__call__`` evaluations, so that
    per-point bookkeeping neither dilutes the timing nor grows with speed.
    """

    def __init__(self, gdn, seed, cli):
        self.gdn, self.cases, self.cli = gdn, CHART_CASES, cli
        self.op_kind = "gdn eval call" if cli else "GDNModel.__call__ point"
        self.per_op = 1 if cli else EVAL_BLOCK
        self.kernels = (clock.NUMERIC, clock.CLI) if cli else (clock.NUMERIC,)
        self.repeats = [1] * len(self.cases)
        count = CLI_POINTS if cli else EVAL_POINTS
        self.models, self.points, self.checks, self.params = [], [], [], 0
        for k, c in enumerate(self.cases):
            with open(c.model_path, "r", encoding="utf-8") as f:
                payload = json.load(f)
            self.params += oracle.param_count(payload)
            self.models.append(None if cli else gdn.model.gdn_from_dict(payload))
            dom, cod = oracle.manifold(c.domain), oracle.manifold(c.codomain)
            base = np.array(c.base_x, dtype=float)
            pts = oracle.ball_points(dom, base, 0.9 * c.radius, count, _rng(seed, 2, k))
            self.points.append(pts)
            self.checks.append((cod, oracle.target(c.target, base, MODEL_SEED), c.eps))
        self.argv = [[["eval", "--model", c.model_path, "--input", json.dumps(x.tolist())]
                      for x in pts] for c, pts in zip(self.cases, self.points)]
        self.next = [0] * len(self.cases)
        self.first = [{} for _ in self.cases]

    def run(self, k):
        first = self.next[k]
        self.next[k] = (first + self.per_op) % len(self.points[k])
        if self.cli:
            return [(first, _call_cli(self.gdn, self.argv[k][first]))]
        model, points, results = self.models[k], self.points[k], []
        for j in range(first, first + self.per_op):
            i = j % len(points)
            try:
                results.append((i, model(points[i])))
            except Exception as e:  # a raise is a failed evaluation
                results.append((i, e))
        return results

    def check(self, k, results):
        return [f for f in (self._check(k, i, out) for i, out in results) if f]

    def _check(self, k, i, out):
        if isinstance(out, Exception):
            return f"{type(out).__name__}: {out}"
        if self.cli:
            rc, text, err = out
            if rc != 0:
                return f"exit code {rc}: {err.strip()}"
            data = text.encode()
        else:
            data = np.asarray(out, dtype=float).tobytes()
        if i in self.first[k]:
            first, verdict = self.first[k][i]
            return verdict if data == first else "output differs between repeats"
        y = np.array(json.loads(text)["output"]) if self.cli else np.asarray(out, dtype=float)
        cod, target, eps = self.checks[k]
        dist = cod.dist(y, target(self.points[k][i]))
        verdict = None if dist <= eps else f"point {i}: error {dist!r} > eps {eps!r}"
        self.first[k][i] = (data, verdict)
        return verdict

    def model_params(self):
        return self.params

    def report(self):
        lines = []
        for k, c in enumerate(self.cases):
            seen = self.first[k]
            stream = b"".join(seen[i][0] for i in sorted(seen))
            lines.append(f"  {c.name}: output sha256 {_sha(stream)} over {len(seen)} points")
        return lines


def build(gdn, name, seed):
    if name == "compile-charts":
        return CompileWorkload(gdn, CHART_CASES, seed)
    if name == "compile-cube":
        return CompileWorkload(gdn, CUBE_CASES, seed)
    return EvalWorkload(gdn, seed, cli=(name == "eval-cli"))


def pass_order(repeats):
    """Smooth weighted round-robin: case k appears ``repeats[k]`` times per
    pass, spread evenly, so that each case samples the whole pass."""
    total, credit, order = sum(repeats), [0] * len(repeats), []
    for _ in range(total):
        credit = [c + w for c, w in zip(credit, repeats)]
        k = credit.index(max(credit))
        credit[k] -= total
        order.append(k)
    return order


class Ops:
    """Per-operation records, kept in flat arrays so that the benchmark's
    bookkeeping adds little to ``peak_rss_mb`` however many operations run."""

    def __init__(self):
        self.case, self.traced = array("i"), array("b")
        self.t0, self.t1, self.busy0, self.busy1 = (array("d") for _ in range(4))
        self.failures = []  # (case index, reason)

    def __len__(self):
        return len(self.case)


def measure(workload, seconds, sampler, tracer):
    """Passes over the cases until ``seconds`` have passed and every case
    has an untraced operation (and, when tracing, a traced one).  Passes
    alternate untraced and traced, starting untraced."""
    order = pass_order(workload.repeats)
    ops = Ops()
    have = np.zeros((2, len(workload.cases)), dtype=int)
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1 and passes // 2 < MAX_TRACED_PASSES
        if traced:
            tracer.install()
        try:
            for k in order:
                if tracer:
                    tracer.op = len(ops)
                b0 = sampler.busy
                t0 = time.perf_counter()
                result = workload.run(k)
                t1 = time.perf_counter()
                b1 = sampler.busy
                ops.case.append(k)
                ops.traced.append(traced)
                ops.t0.append(t0)
                ops.t1.append(t1)
                ops.busy0.append(b0)
                ops.busy1.append(b1)
                ops.failures += [(k, why) for why in workload.check(k, result)]
                have[int(traced), k] += 1
                if (time.perf_counter() >= deadline and have[0].min() >= 1
                        and (tracer is None or have[1].min() >= 1)):
                    return ops
        finally:
            if traced:
                tracer.uninstall()
        passes += 1


def tail_label(n):
    for q in TAILS:
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def child_setup(args):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tracer, case_of, traced, factor, workload):
    """Per-layer metrics per round (one evaluation or compile of each case),
    from the traced operations; prints the exact per-case counts."""
    from spans import LAYERS, LAYER_NAMES
    n_ops = len(case_of)
    layer = np.array(tracer.layer, dtype=np.int64)
    span_op = np.array(tracer.op_id, dtype=np.int64)
    self_s = tracer.self_times() * factor[span_op] if layer.size else np.zeros(0)
    shape = (n_ops, len(LAYER_NAMES))
    calls, amounts, selfs = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    np.add.at(calls, (span_op, layer), 1.0)
    np.add.at(amounts, (span_op, layer), np.array(tracer.amount))
    np.add.at(selfs, (span_op, layer), self_s)
    oracle_calls = np.array([tracer.oracle_calls.get(i, 0) for i in range(n_ops)])
    oracle_distinct = np.array([len(tracer.oracle_inputs.get(i, ())) for i in range(n_ops)])

    # per-case means over traced operations, scaled to one evaluation
    round_ = {"calls": 0.0, "amounts": 0.0, "selfs": 0.0, "oracle": 0.0,
              "distinct": 0.0, "useful": 0.0}
    table = []
    print("traced counts per compile or evaluation, by case:")
    for k, c in enumerate(workload.cases):
        idx = np.nonzero(traced & (case_of == k))[0]
        per = {"calls": calls[idx], "amounts": amounts[idx], "selfs": selfs[idx],
               "oracle": oracle_calls[idx], "distinct": oracle_distinct[idx]}
        mean = {key: val.mean(0) / workload.per_op for key, val in per.items()}
        exact = all(np.all(val == val[0]) for key, val in per.items() if key != "selfs")
        if k in getattr(workload, "degree", {}):
            deg, p = workload.degree[k]
            mean["useful"] = float((deg + 1) ** p)
        for key in round_:
            round_[key] = round_[key] + mean.get(key, 0.0)
        counts = {"oracle_calls": float(mean["oracle"]),
                  "oracle_distinct": float(mean["distinct"])}
        for j, (name, _module, _func, amount) in enumerate(LAYERS):
            if mean["calls"][j]:
                counts[f"{name}.calls"] = float(mean["calls"][j])
                if amount:
                    counts[f"{name}.amount"] = float(mean["amounts"][j])
        table.append({"case": c.name, "repeat_exact": exact, **counts})
        shown = ", ".join(f"{key} {val:g}" for key, val in counts.items())
        print(f"  {c.name} ({len(idx)} traced ops, counts {'exact' if exact else 'VARY'} "
              f"across them): {shown}")
    print(f"  counts sha256 {_sha(json.dumps(table, sort_keys=True).encode())}")

    metrics = {}
    for j, name in enumerate(LAYER_NAMES):
        metrics[f"{name}.calls"] = (round_["calls"][j], "count")
        metrics[f"{name}.self_s"] = (round_["selfs"][j], "s")
    amount_of = dict(zip(LAYER_NAMES, round_["amounts"]))
    lattice = amount_of["approx.bernstein_from_function"]
    oracle = round_["oracle"]
    metrics["targets.oracle.calls"] = (oracle, "count")
    metrics["targets.oracle.distinct_ratio"] = (
        round_["distinct"] / oracle if oracle else 0.0, "ratio")
    metrics["approx.empirical_modulus.pairs"] = (amount_of["approx.empirical_modulus"], "count")
    metrics["sampling.audit_map.items"] = (amount_of["sampling.audit_map"], "count")
    metrics["approx.lattice_points"] = (lattice, "count")
    metrics["approx.lattice_useful_ratio"] = (
        round_["useful"] / lattice if lattice else 0.0, "ratio")
    return metrics


def run_one(args):
    gdn = import_gdn()
    workload = build(gdn, args.workload, args.seed)
    setup = (time.perf_counter() - T_START) * clock.setup_factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0
    if not args.trace:
        setups = [setup] + [child_setup(args) for _ in range(SETUP_CHILDREN)]

    sampler = clock.SpeedSampler(workload.kernels)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(sampler)
        for name in tracer.missing:
            print(f"warning: traced function {name} not found; its metrics read 0")
    with sampler:
        ops = measure(workload, args.seconds, sampler, tracer)

    case_of = np.array(ops.case)
    traced = np.array(ops.traced, dtype=bool)
    t0, t1 = np.array(ops.t0), np.array(ops.t1)
    raw = ((t1 - t0) - (np.array(ops.busy1) - np.array(ops.busy0))) / workload.per_op
    factor = sampler.factors(t0, t1)
    corrected = raw * factor
    failures = [(workload.cases[k].name, why) for k, why in ops.failures]
    attempted = len(ops) * workload.per_op

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"env: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {np.__version__}, GDN_THREADS unset, BLAS threads 1, "
          f"closed loop, 1 client")
    print(f"host speed: median correction factor {np.median(factor):.3f} "
          f"(corrected = raw x factor; {len(sampler.times)} reference samples)")
    print(f"per {workload.op_kind} (untraced; ms, host-corrected; raw median for comparison):")
    medians = []
    for k, c in enumerate(workload.cases):
        sel = (case_of == k) & ~traced
        vals = corrected[sel] * 1e3
        med = float(np.median(vals))
        medians.append(med)
        q = tail_label(vals.size)
        tail = f"p{q:g} {np.percentile(vals, q):.4g}" if q else "p- (too few samples)"
        print(f"  case{k + 1} {c.name}: n {vals.size}  p50 {med:.4g}  {tail}  "
              f"raw p50 {np.median(raw[sel]) * 1e3:.4g}")
    print("outputs:")
    for line in workload.report():
        print(line)
    for case, why in failures[:20]:
        print(f"FAILED {case}: {why}")
    print(f"error_rate {len(failures) / attempted:.6g} ({len(failures)} failed of "
          f"{attempted} attempted)")

    correct = not failures
    if args.trace:
        metrics = layer_metrics(tracer, case_of, traced, factor, workload)
        overhead = 0.0
        for k in range(len(workload.cases)):
            on = corrected[(case_of == k) & traced]
            off = corrected[(case_of == k) & ~traced]
            overhead += float(np.median(on) - np.median(off))
        metrics["trace.overhead_ms"] = (overhead * 1e3, "ms")
        print(f"tracing overhead per round: {overhead * 1e3:.4g} ms "
              f"(traced minus untraced medians, summed over cases)")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}.npz")
        tracer.save(path)
        print(f"spans: {len(tracer.layer)} written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = {"setup_s": (float(np.median(setups)), "s")}
        for k, med in enumerate(medians):
            metrics[f"case{k + 1}_ms"] = (med, "ms")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["model_params"] = (float(workload.model_params()), "count")
        print(f"setup_s samples: {', '.join(f'{s:.4g}' for s in setups)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload once, untraced, in its own process; one row each."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {name} failed: {proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    names = list(rows[0][1]["metrics"])
    units = [rows[0][1]["metrics"][n]["unit"] for n in names]
    header = ["workload"] + [f"{n} [{u}]" for n, u in zip(names, units)] + ["error_rate"]
    print(" | ".join(header))
    for name, result in rows:
        vals = [f"{result['metrics'][n]['value']:.5g}" for n in names]
        rate = f"{result['failed'] / result['attempted']:.3g} of {result['attempted']}"
        print(" | ".join([name] + vals + [rate]))
    print("caseN_ms is one gdn compile (compile-*), one GDNModel.__call__ point "
          "(eval-stream) or one gdn eval call (eval-cli) of the Nth case:")
    for name in WORKLOADS:
        cases = CUBE_CASES if name == "compile-cube" else CHART_CASES
        print(f"  {name}: " + ", ".join(f"case{k + 1} {c.name}" for k, c in enumerate(cases)))
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
