"""Pinned outputs: the bytes every "same outputs" claim in CHANGES.md rests on.

Three ``gdn compile`` runs (the sphere2-rotation, poincare2-mobius and
cube2-mixed cases of the benchmark, with its arguments) and one 3-run
``gdn bench`` config go through ``gdn.cli.main`` at seed 0.  Each compile
must reproduce its summary JSON (without ``out``) and the sha256 of its
model file, and the bench its CSV, exactly.  spd is left out: its bytes
depend on LAPACK rounding.

The values were recorded with numpy 2.4.6 (OpenBLAS 0.3.31) on x86-64
Linux; another numpy build may round differently.  Re-record them only
together with a CHANGES.md note saying that outputs changed on purpose.
"""
import hashlib
import json

import pytest

from gdn.cli import main

COMPILES = {
    "sphere2-rotation": (
        ["--target", "rotation", "--domain", "sphere:2", "--codomain", "sphere:2",
         "--base-x", "[0, 0, 1]", "--radius", "1.5707", "--eps", "0.1"],
        {"apriori_bound": 10.369362581822738, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.1,
         "measured_error": 0.002517015418844584, "param_count": 31,
         "target": "rotation", "width": 4},
        "01bf4134aa1becd23f655a13745e4741fbf0765f293d17629d9edae9600f0016",
    ),
    "poincare2-mobius": (
        ["--target", "mobius-shift", "--domain", "poincare:2:1",
         "--codomain", "poincare:2:1", "--base-x", "[0, 0]", "--radius", "1.0",
         "--eps", "0.05"],
        {"apriori_bound": 8.206940566367983, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.05,
         "measured_error": 0.0006452287500098072, "param_count": 12,
         "target": "mobius-shift", "width": 2},
        "307631f31f7ecaf16092840bdddf6eb0bc662369a07041681a3b6656a4b18fa1",
    ),
    "cube2-mixed": (
        ["--target", "poly:x1^2-x2^2+x1*x2", "--domain", "euclidean:2",
         "--codomain", "euclidean:1", "--base-x", "[0, 0]", "--radius", "0.3",
         "--eps", "0.08"],
        {"apriori_bound": 0.2720543161757637, "audit_points": 200,
         "bernstein_degree": 3, "depth": 1, "eps": 0.08,
         "measured_error": 0.02861059905317087, "param_count": 33,
         "target": "poly:x1^2-x2^2+x1*x2", "width": 8},
        "8e80d1528690898af183a44f2d0c69cfcd01399c7d28af5f2be9f0a11a908aaf",
    ),
}

BENCH_RUNS = [
    {"target": "rotation", "domain": "sphere:2", "codomain": "sphere:2",
     "base_x": [0, 0, 1], "radius": 1.0, "eps": 0.1, "grid": 50, "seed": 0},
    {"target": "mobius-shift", "domain": "poincare:2:1", "codomain": "poincare:2:1",
     "base_x": [0, 0], "radius": 0.5, "eps": 0.1, "grid": 50, "seed": 0},
    {"target": "poly:x1*x2", "domain": "euclidean:2", "codomain": "euclidean:1",
     "base_x": [0.5, 0.5], "radius": 0.5, "eps": 0.1, "grid": 50, "seed": 0},
]

BENCH_CSV = (
    "target,eps,measured_error,width,depth,param_count,predicted_depth_order\n"
    "rotation,0.10000000000000001,0.0015913890378463551,4,1,31,768560.97066045296\n"
    "mobius-shift,0.10000000000000001,0.00075389709538568504,2,1,12,25057.606407227137\n"
    "poly:x1*x2,0.10000000000000001,0.0010230983069935418,4,1,17,5404.4441112402474\n"
)


@pytest.mark.parametrize("case", sorted(COMPILES))
def test_compile_outputs_pinned(case, capsys, tmp_path):
    args, summary, model_sha = COMPILES[case]
    out = tmp_path / "model.json"
    assert main(["compile", *args, "--seed", "0", "--out", str(out)]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got.pop("out") == str(out)
    assert got == summary
    assert hashlib.sha256(out.read_bytes()).hexdigest() == model_sha


def test_bench_csv_pinned(capsys, tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"runs": BENCH_RUNS}))
    assert main(["bench", str(cfg)]) == 0
    assert capsys.readouterr().out == BENCH_CSV
