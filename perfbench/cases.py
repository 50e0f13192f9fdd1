"""The benchmark's compile cases and the stored models eval workloads load.

Each case is one ``gdn compile`` invocation.  Why each was chosen:

* sphere2-rotation, poincare2-mobius, spd2-congruence stop at Bernstein
  degree 1, so their time goes to the chart kernels and to
  ``estimate_exp_lipschitz``; they skip the pairwise modulus and the degree
  search.  spd2-congruence passes ``--lip 2`` (the congruence is an
  isometry, so its cube pullback is 2r-Lipschitz), which skips the O(N^2)
  empirical modulus that otherwise makes the compile take about 100 s.
* cube3-product, cube3-quadratic, cube2-mixed are Euclidean, so the charts
  are trivial and time goes to ``approx`` and the target oracle:
  cube3-product evaluates the empirical modulus per audit pair, cube3-
  quadratic also walks degree candidates 1 to 4, and cube2-mixed reaches
  degree 3 without the pairwise blow-up.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL_DIR = os.path.join(HERE, "models")
# compile seed of the stored models (it also seeds the spd-congruence target)
MODEL_SEED = 0


@dataclass(frozen=True)
class Case:
    name: str
    target: str
    domain: str
    codomain: str
    base_x: tuple
    radius: float
    eps: float
    lip: Optional[float] = None
    # compiles of this case per pass, spread through the pass, so that a
    # cheap case gets enough samples for a steady median next to a costly one
    repeat: int = 1

    def compile_argv(self, seed: int, out: str) -> List[str]:
        argv = ["compile", "--target", self.target, "--domain", self.domain,
                "--codomain", self.codomain, "--base-x", json.dumps(list(self.base_x)),
                "--radius", repr(self.radius), "--eps", repr(self.eps),
                "--seed", str(seed), "--out", out]
        if self.lip is not None:
            argv += ["--lip", repr(self.lip)]
        return argv

    @property
    def model_path(self) -> str:
        return os.path.join(MODEL_DIR, f"{self.name}.json")


CHART_CASES = [
    Case("sphere2-rotation", "rotation", "sphere:2", "sphere:2", (0, 0, 1), 1.5707, 0.1,
         repeat=4),
    Case("poincare2-mobius", "mobius-shift", "poincare:2:1", "poincare:2:1", (0, 0),
         1.0, 0.05, repeat=4),
    Case("spd2-congruence", "spd-congruence", "spd:2", "spd:2", (1, 0, 1), 1.0, 0.05,
         lip=2.0),
]

CUBE_CASES = [
    Case("cube3-product", "poly:x1*x2*x3", "euclidean:3", "euclidean:1", (0, 0, 0),
         0.5, 0.05),
    Case("cube3-quadratic", "poly:x1^2+x2^2+x3^2", "euclidean:3", "euclidean:1",
         (0, 0, 0), 0.3, 0.15),
    Case("cube2-mixed", "poly:x1^2-x2^2+x1*x2", "euclidean:2", "euclidean:1", (0, 0),
         0.3, 0.08, repeat=10),
]
