"""Host-speed-corrected timing.

On a shared host the speed of a core drifts by up to 2x over seconds to
minutes, so raw wall times of the same work differ run to run by far more
than a regression worth catching.  Every timing is therefore corrected by
reference kernels that the benchmark owns and the program cannot change:

* a SIGALRM interval timer runs the kernels every ``INTERVAL_S`` of wall
  time, in the measured thread itself, and records their durations;
* an operation's raw time excludes the time spent in those interruptions;
* its corrected time is ``raw * nominal / hm`` for each kernel, where
  ``hm`` is the harmonic mean of that kernel's durations within
  ``WINDOW_S`` of the operation (the harmonic mean tracks the average
  speed and discounts a sample stretched by descheduling); with two
  kernels, the geometric mean of the two factors is used.

A corrected time is the time the operation takes when the kernels run at
their nominal speed; the raw times are printed alongside.

Different code slows by different amounts, so each workload uses kernels
like its operation.  Compiles and model evaluations are small numpy calls
in Python loops: ``NUMERIC`` alone.  A ``gdn eval`` call is half command-
line plumbing: ``NUMERIC`` and ``CLI``.  Set-up runs before the timer and
is mostly module execution: a burst of ``NUMERIC`` and ``INTERPRETER``
right after it.  Each choice is the one that, of those tried, left the
least drift in that operation's corrected times on the reference host.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import signal
import time

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.2

_V = np.linspace(0.1, 0.9, 3)
_M = np.array([[0.9, 0.1, 0.0], [0.1, 0.8, 0.1], [0.0, 0.1, 0.9]])
_SAMPLE_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models",
                            "sphere2-rotation.json")


def numeric_kernel() -> float:
    """Small numpy calls and float arithmetic, like gdn's inner loops."""
    acc = 0.0
    v = _V
    for i in range(40):
        v = _M @ v + 0.01
        acc += float(np.linalg.norm(v)) + math.sin(0.1 * i)
        for t in (0.5, 1.5, 2.5):
            acc = (acc + t * i) % 997.0
    return acc


def cli_kernel() -> str:
    """Command-line plumbing: build and run an argparse parser, read and
    decode a small JSON file, encode a reply."""
    parser = argparse.ArgumentParser(prog="ref")
    sub = parser.add_subparsers(dest="command")
    cmd = sub.add_parser("run")
    for i in range(6):
        cmd.add_argument(f"--opt{i}", type=float)
    args = parser.parse_args(["run", "--opt1", "2.5", "--opt3", "1e-3"])
    with open(_SAMPLE_JSON, "r", encoding="utf-8") as f:
        payload = json.load(f)
    return json.dumps({"out": [float(t) for t in payload["base_x"]], "opt": args.opt1})


def interpreter_kernel() -> float:
    """Interpreter-only work: float arithmetic over a small list."""
    acc = 0.0
    xs = [0.5] * 8
    for i in range(150):
        for x in xs:
            acc += x * i
        acc = acc % 1000.0
    return acc


# (kernel, nominal seconds): the nominal is about the kernel's time on an
# idle core of the reference host (2-vCPU x86-64 VM, Python 3.11, numpy
# 2.4).  It only fixes the unit of corrected times, so it is never re-tuned.
NUMERIC = (numeric_kernel, 1.7e-4)
CLI = (cli_kernel, 5.7e-4)
INTERPRETER = (interpreter_kernel, 7.0e-5)


def setup_factor(count: int = 40) -> float:
    """Correction factor for set-up, from back-to-back kernel runs right
    after it."""
    factors = []
    for kernel, nominal in (NUMERIC, INTERPRETER):
        inv = 0.0
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            inv += 1.0 / (time.perf_counter() - t0)
        factors.append(nominal * inv / count)
    return math.exp(sum(math.log(f) for f in factors) / len(factors))


class SpeedSampler:
    """Interval-timer sampling of the reference kernels.

    ``busy`` is the running total of seconds spent in the timer handler;
    read it before and after an operation and subtract the difference from
    the operation's wall time.
    """

    def __init__(self, kernels):
        self.kernels = list(kernels)
        self.times: list = []
        self.durations = [[] for _ in self.kernels]
        self.busy = 0.0
        self._old = None

    def _handler(self, signum, frame):
        t_start = time.perf_counter()
        self.times.append(t_start)
        for (kernel, _nominal), durations in zip(self.kernels, self.durations):
            t0 = time.perf_counter()
            kernel()
            durations.append(time.perf_counter() - t0)
        self.busy += time.perf_counter() - t_start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factors(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Correction factor for each interval [starts[i], ends[i]]."""
        if not self.times:
            raise RuntimeError("the interval timer recorded no reference samples")
        t = np.asarray(self.times)
        lo = np.searchsorted(t, starts - WINDOW_S)
        hi = np.searchsorted(t, ends + WINDOW_S)
        n = hi - lo
        per_kernel = []
        for (_kernel, nominal), durations in zip(self.kernels, self.durations):
            inv = 1.0 / np.asarray(durations)
            cum = np.concatenate([[0.0], np.cumsum(inv)])
            # an interval with no sample nearby falls back to the run's mean
            mean_inv = np.where(n > 0, (cum[hi] - cum[lo]) / np.maximum(n, 1), inv.mean())
            per_kernel.append(nominal * mean_inv)
        return np.exp(np.mean(np.log(per_kernel), axis=0))
