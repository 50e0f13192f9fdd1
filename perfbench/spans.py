"""Span tracing of gdn's layers from outside the program.

``Tracer.install`` replaces each traced function at every place gdn binds
it: the defining module (which also catches intra-module calls, since
globals are looked up at call time) and every module that imported the
name with ``from ... import``.  Each call records a span: layer, operation
id, parent span, start, end, and the interval-timer time spent inside it.
Spans stay in flat in-memory arrays until ``save`` writes them out.

The oracle is counted, not spanned: ``gdn.cli.resolve_target`` is wrapped
so that the ``Target.fn`` it returns counts calls and distinct inputs.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np


# (layer name, defining module, function, amount recorded per call or None)
LAYERS = [
    ("manifolds.exp_map", "gdn.manifolds.zoo", "exp_map", None),
    ("manifolds.log_map", "gdn.manifolds.zoo", "log_map", None),
    ("manifolds.distance", "gdn.manifolds.zoo", "distance", None),
    ("manifolds.check_point", "gdn.manifolds.zoo", "check_point", None),
    ("manifolds.random_tangent", "gdn.manifolds.zoo", "random_tangent", None),
    ("manifolds.jacobi_eigh", "gdn.manifolds.sym", "jacobi_eigh", None),
    ("assemble.compile_gdn", "gdn.assemble", "compile_gdn", None),
    ("assemble.estimate_exp_lipschitz", "gdn.assemble", "estimate_exp_lipschitz", None),
    ("assemble.audit_gdn", "gdn.assemble", "audit_gdn", None),
    ("sampling.geodesic_ball_points", "gdn.sampling", "geodesic_ball_points", None),
    ("sampling.audit_map", "gdn.sampling", "audit_map",
     lambda b: len(b.arguments["items"])),
    ("approx.bernstein_from_function", "gdn.approx.bernstein", "bernstein_from_function",
     lambda b: (b.arguments["n"] + 1) ** b.arguments["p"]),
    ("approx.bernstein_eval", "gdn.approx.bernstein", "bernstein_eval", None),
    ("approx.bernstein_to_coefficients", "gdn.approx.bernstein",
     "bernstein_to_coefficients", None),
    ("approx.decompose_polynomial", "gdn.approx.polynomials", "decompose_polynomial", None),
    ("approx.compile_poly_to_shallow", "gdn.approx.synthesis", "compile_poly_to_shallow", None),
    ("approx.select_theta0", "gdn.approx.synthesis", "select_theta0", None),
    ("approx.compile_function_to_shallow", "gdn.approx.synthesis",
     "compile_function_to_shallow", None),
    ("approx.empirical_modulus", "gdn.approx.modulus", "empirical_modulus",
     lambda b: len(b.arguments["pairs"])),
    ("network.eval_net", "gdn.network", "eval_net", None),
    ("model.gdn_eval", "gdn.model", "gdn_eval", None),
    ("model.gdn_from_dict", "gdn.model", "gdn_from_dict", None),
    ("cli.main", "gdn.cli", "main", None),
]
LAYER_NAMES = [layer[0] for layer in LAYERS]


class Tracer:
    def __init__(self, sampler):
        self.sampler = sampler
        self.op = -1
        self.layer = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.paused = array("d")  # interval-timer seconds inside the span
        self.amount = array("d")
        self.oracle_calls: dict = {}
        self.oracle_inputs: dict = {}
        self.missing: list = []
        self._stack = [-1]
        self._patched: list = []
        self._wrappers = {}
        for index, (name, module, func, amount) in enumerate(LAYERS):
            try:
                original = getattr(importlib.import_module(module), func)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{func}")
                continue
            self._wrappers[index] = (original, self._span(index, original, amount))
        resolver = importlib.import_module("gdn.cli").resolve_target
        self._resolver = (resolver, self._counting_resolver(resolver))

    def _span(self, index, fn, amount):
        sig = inspect.signature(fn)
        tracer, sampler = self, self.sampler
        layer, op_id, parent = self.layer, self.op_id, self.parent
        start, end, paused, amounts = self.start, self.end, self.paused, self.amount
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(layer)
            layer.append(index)
            op_id.append(tracer.op)
            parent.append(stack[-1])
            amounts.append(amount(sig.bind(*args, **kwargs)) if amount else 1.0)
            end.append(0.0)
            paused.append(sampler.busy)
            stack.append(i)
            start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = time.perf_counter()
                paused[i] = sampler.busy - paused[i]
                stack.pop()

        return wrapper

    def _counting_resolver(self, resolve):
        tracer = self

        @functools.wraps(resolve)
        def resolve_counted(*args, **kwargs):
            target = resolve(*args, **kwargs)
            fn = target.fn
            op = tracer.op
            tracer.oracle_calls.setdefault(op, 0)
            seen = tracer.oracle_inputs.setdefault(op, set())

            def counted(x):
                tracer.oracle_calls[op] += 1
                seen.add(np.asarray(x, dtype=float).tobytes())
                return fn(x)

            return dataclasses.replace(target, fn=counted)

        return resolve_counted

    def _sites(self, original):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gdn" or name.startswith("gdn.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    yield module, attr

    def install(self):
        pairs = list(self._wrappers.values()) + [self._resolver]
        for original, wrapper in pairs:
            for module, attr in self._sites(original):
                setattr(module, attr, wrapper)
                self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus interval-timer pauses minus the
        time covered by direct children."""
        dur = np.array(self.end) - np.array(self.start) - np.array(self.paused)
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return dur - covered

    def save(self, path: str) -> None:
        np.savez(path, layer_names=np.array(LAYER_NAMES),
                 layer=np.array(self.layer), op=np.array(self.op_id),
                 parent=np.array(self.parent), start=np.array(self.start),
                 end=np.array(self.end), paused=np.array(self.paused),
                 amount=np.array(self.amount))
