"""Pinned outputs: the bytes every "same outputs" claim in CHANGES.md rests on.

The six ``gdn compile`` runs of the benchmark (sphere2-rotation,
poincare2-mobius, spd2-congruence, cube3-product, cube3-quadratic and
cube2-mixed, with its arguments), three cube compiles whose stencil offset
is not the activation's order-1 offset, two two-output polynomial compiles,
two ``--verticalize`` compiles and one 3-run ``gdn bench`` config go through
``gdn.cli.main`` at seed 0.  The offset compiles are cube3-product with
softplus (order 3, offset -1.3) and with sigmoid (order 3, offset 0.7), and
cube3-quadratic with sigmoid (order 2, offset -1.3).  The two-output
compiles are the edge cases of the multi-output shallow core: a constant
output next to a hidden block, and no hidden layer at all.  The
``--verticalize`` compiles rewrite a core deep-narrow with a smooth
activation: softplus over a 3-output core whose outputs share its two
hidden units, and the default exp over a 2-output core.  The p = 3
compiles read their modulus over the 55,611 audit-grid pairs
(``apriori_bound`` pins the windowed read); cube3-quadratic is also the
one that walks Bernstein degrees 1 to 4 and evaluates exponent-2 powers.
Each compile, run twice in one process, must reproduce its summary JSON
(without ``out``) and the sha256 of its model file both times, and the
bench its CSV, exactly.  spd:2 takes its matrix functions in closed form;
only spd:n with n >= 3 goes through LAPACK's eigensolver, and none is
pinned.

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
        {"apriori_bound": 9.426942604661795, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.1,
         "measured_error": 0.0027687104804821577, "param_count": 17,
         "target": "rotation", "width": 2},
        "e00bc0b03724ea22cc5302e108c309249586443a700e6ed4003d24ac7a14d6fa",
    ),
    "poincare2-mobius": (
        ["--target", "mobius-shift", "--domain", "poincare:2:1",
         "--codomain", "poincare:2:1", "--base-x", "[0, 0]", "--radius", "1.0",
         "--eps", "0.05"],
        {"apriori_bound": 7.522299379136211, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.05,
         "measured_error": 0.0007039603963894114, "param_count": 12,
         "target": "mobius-shift", "width": 2},
        "484ff4935668363ef27d57961b47f76e6d20798f39dc2881cbe99865f5cb18f2",
    ),
    "spd2-congruence": (
        ["--target", "spd-congruence", "--domain", "spd:2", "--codomain", "spd:2",
         "--base-x", "[1, 0, 1]", "--radius", "1.0", "--eps", "0.05", "--lip", "2.0"],
        {"apriori_bound": 11.793090497681849, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.05,
         "measured_error": 0.0009564234876710698, "param_count": 24,
         "target": "spd-congruence", "width": 3},
        "f56c514841ef838c7e7d65c49ed874a3f59d977d7559c7e77060998f98248210",
    ),
    "cube3-product": (
        ["--target", "poly:x1*x2*x3", "--domain", "euclidean:3",
         "--codomain", "euclidean:1", "--base-x", "[0, 0, 0]", "--radius", "0.5",
         "--eps", "0.05"],
        {"apriori_bound": 0.43917073183615685, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.05,
         "measured_error": 0.0005004717860871075, "param_count": 136,
         "target": "poly:x1*x2*x3", "width": 27},
        "45da57c107454d9141f7a808a11cd2597d78771eaa81c25c7b80002dba390357",
    ),
    "cube3-quadratic": (
        ["--target", "poly:x1^2+x2^2+x3^2", "--domain", "euclidean:3",
         "--codomain", "euclidean:1", "--base-x", "[0, 0, 0]", "--radius", "0.3",
         "--eps", "0.15"],
        {"apriori_bound": 0.35792364547491573, "audit_points": 200,
         "bernstein_degree": 4, "depth": 1, "eps": 0.15,
         "measured_error": 0.06695560130048563, "param_count": 31,
         "target": "poly:x1^2+x2^2+x3^2", "width": 6},
        "d31a53804f1d36bbf4978c4e5a83067a91066f007f0eadff023a4e781687b932",
    ),
    "cube2-mixed": (
        ["--target", "poly:x1^2-x2^2+x1*x2", "--domain", "euclidean:2",
         "--codomain", "euclidean:1", "--base-x", "[0, 0]", "--radius", "0.3",
         "--eps", "0.08"],
        {"apriori_bound": 0.24738774787331902, "audit_points": 200,
         "bernstein_degree": 3, "depth": 1, "eps": 0.08,
         "measured_error": 0.028614435698987917, "param_count": 33,
         "target": "poly:x1^2-x2^2+x1*x2", "width": 8},
        "c644cddac1cc21d58b12c482d4ea0c8d94b0f6ea0acabf770f395b2b966cdbb8",
    ),
    "cube3-product-softplus": (
        ["--target", "poly:x1*x2*x3", "--domain", "euclidean:3",
         "--codomain", "euclidean:1", "--base-x", "[0, 0, 0]", "--radius", "0.5",
         "--eps", "0.05", "--activation", "softplus"],
        {"apriori_bound": 0.43824167702859995, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.05,
         "measured_error": 0.00024169334817688432, "param_count": 136,
         "target": "poly:x1*x2*x3", "width": 27},
        "91acf075d3b5f5204f53234caca7f6ed132f762dcdaa48c480a8a422b7f323ab",
    ),
    "cube3-quadratic-sigmoid": (
        ["--target", "poly:x1^2+x2^2+x3^2", "--domain", "euclidean:3",
         "--codomain", "euclidean:1", "--base-x", "[0, 0, 0]", "--radius", "0.3",
         "--eps", "0.15", "--activation", "sigmoid"],
        {"apriori_bound": 0.3579980833481791, "audit_points": 200,
         "bernstein_degree": 4, "depth": 1, "eps": 0.15,
         "measured_error": 0.06672141402543076, "param_count": 31,
         "target": "poly:x1^2+x2^2+x3^2", "width": 6},
        "c307d1bd3656298807b0de321a0de3373ba7364e31d696755a15381593a5e552",
    ),
    "cube3-product-sigmoid": (
        ["--target", "poly:x1*x2*x3", "--domain", "euclidean:3",
         "--codomain", "euclidean:1", "--base-x", "[0, 0, 0]", "--radius", "0.5",
         "--eps", "0.05", "--activation", "sigmoid"],
        {"apriori_bound": 0.4436466842628306, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.05,
         "measured_error": 0.002048964841993982, "param_count": 136,
         "target": "poly:x1*x2*x3", "width": 27},
        "d59d6989971efac267f96d39e284a7a3fcde5405517023ffeb24537bb619bc33",
    ),
    "poly-hidden-and-constant": (
        ["--target", "poly:x1*x2,3", "--domain", "euclidean:2",
         "--codomain", "euclidean:2", "--base-x", "[0.5, 0.5]", "--radius", "0.5",
         "--eps", "0.1"],
        {"apriori_bound": 3.0025046939990716, "audit_points": 200,
         "bernstein_degree": 1, "depth": 1, "eps": 0.1,
         "measured_error": 0.0012435190929425133, "param_count": 22,
         "target": "poly:x1*x2,3", "width": 4},
        "f227c41343c598bd32a0b6c1955b5ce9bc095810670ec33b2ca51e2cf3adb1c7",
    ),
    "poly-constants-only": (
        ["--target", "poly:2,3", "--domain", "euclidean:2",
         "--codomain", "euclidean:2", "--base-x", "[0.5, 0.5]", "--radius", "0.5",
         "--eps", "0.1"],
        {"apriori_bound": 0.0, "audit_points": 200,
         "bernstein_degree": 1, "depth": 0, "eps": 0.1,
         "measured_error": 0.0, "param_count": 6,
         "target": "poly:2,3", "width": 0},
        "9af848ae53cb590eae5ddbdac0cd2918bf446182590cd3f6bb6d128008b92782",
    ),
    "rotation-verticalized-softplus": (
        ["--target", "rotation", "--domain", "sphere:2", "--codomain", "sphere:2",
         "--base-x", "[0, 0, 1]", "--radius", "0.5", "--eps", "0.1",
         "--activation", "softplus", "--verticalize=-0.1,1.1"],
        {"apriori_bound": 3.000435939996516, "audit_points": 200,
         "bernstein_degree": 1, "depth": 2, "eps": 0.1,
         "measured_error": 0.0004386528937689594, "param_count": 108,
         "target": "rotation", "width": 7},
        "1e0a740905677d8ce7d1ca98ddbeda9be977404031b0f8c9db58c85de997f1f2",
    ),
    "poly-verticalized-exp": (
        ["--target", "poly:x1*x2,x1^2", "--domain", "euclidean:2",
         "--codomain", "euclidean:2", "--base-x", "[0.5, 0.5]", "--radius", "0.5",
         "--eps", "0.1", "--verticalize=-0.6,0.6"],
        {"apriori_bound": 1.946155325614172, "audit_points": 200,
         "bernstein_degree": 6, "depth": 6, "eps": 0.1,
         "measured_error": 0.0459370856817706, "param_count": 177,
         "target": "poly:x1*x2,x1^2", "width": 5},
        "61e1ecb3bc79a140ce17f67be1619e76d82de3fbfd3436d97fc8db7a8db98880",
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
    "rotation,0.10000000000000001,0.0017505219469371057,2,1,17,546175.54286804609\n"
    "mobius-shift,0.10000000000000001,0.00082763920102902548,2,1,12,17114.682551504236\n"
    "poly:x1*x2,0.10000000000000001,0.0011255442250709402,4,1,17,3691.3080467453565\n"
)


@pytest.mark.parametrize("case", sorted(COMPILES))
def test_compile_outputs_pinned(case, capsys, tmp_path, fresh_cube_samples):
    # twice: the first compile builds the cube samples of its dimension, the
    # second reads them
    args, summary, model_sha = COMPILES[case]
    out = tmp_path / "model.json"
    for _ in range(2):
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
