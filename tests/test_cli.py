"""Command-line front end: subcommand behavior and exit codes."""
import argparse
import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import gdn.approx.certify
import gdn.approx.estimates
import gdn.assemble
import gdn.cli
import gdn.model
from gdn.cli import cmd_bench, main
from gdn.errors import InfeasibleDegreeError, ValidationError
from gdn.model import gdn_from_dict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    def test_smooth_hand_value(self, capsys):
        code, out, _ = run(capsys, "estimate", "--class", "smooth", "--p", "1",
                           "--m", "1", "--eps", "0.1", "--delta", "0.5",
                           "--lip", "1", "--kappa1", "1", "--kappa2", "1")
        assert code == 0
        assert json.loads(out)["depth_order"] == pytest.approx(156.25)

    def test_efficient_width_window(self, capsys):
        code, out, _ = run(capsys, "estimate", "--efficient-n", "1", "--p", "1",
                           "--m", "2", "--eps", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert (payload["width_lo"], payload["width_hi"]) == (2, 28)

    def test_continuous_without_b_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--class", "continuous", "--p", "1", "--m", "1",
                  "--eps", "0.1", "--delta", "0.5", "--lip", "1",
                  "--kappa1", "1", "--kappa2", "1"])
        assert exc.value.code == 2

    def test_zero_sigma_lip_is_a_modulus(self, capsys):
        # LipschitzModulus(0) is a modulus, not a missing one (a usage
        # error, exit 2); its inverse is +inf, a constant activation's, so
        # the estimate is refused as singular, as a vanishing inverse is
        code, out, err = run(capsys, "estimate", "--class", "continuous", "--p", "1",
                             "--m", "1", "--eps", "0.1", "--delta", "0.5", "--lip", "1",
                             "--kappa1", "1", "--kappa2", "1", "--B", "1",
                             "--sigma-lip", "0")
        assert code == 1
        assert out == ""
        assert "activation modulus inverse is infinite" in err

    @pytest.mark.parametrize("modulus", [
        ["--class", "smooth", "--lip", "inf"],
        ["--class", "continuous", "--lip", "1", "--B", "1", "--sigma-lip", "inf"],
    ])
    def test_infinite_lipschitz_constant_exits_2(self, capsys, modulus):
        code, out, err = run(capsys, "estimate", *modulus, "--p", "1", "--m", "1",
                             "--eps", "0.1", "--delta", "0.5",
                             "--kappa1", "1", "--kappa2", "1")
        assert code == 2 and out == ""
        assert err == "error: Lipschitz constant must be finite and nonnegative, got inf\n"

    ESTIMATE = {"--eps": "0.1", "--delta": "0.5", "--kappa1": "1", "--kappa2": "1",
                "--B": "1"}

    @pytest.mark.parametrize("flag, message", [
        ("--eps", "eps must be positive and finite, got inf"),
        ("--delta", "delta must be positive and finite, got inf"),
        ("--kappa1", "kappa1 must be positive and finite, got inf"),
        ("--kappa2", "kappa2 must be positive and finite, got inf"),
        ("--B", "B must be finite, got inf"),
    ])
    @pytest.mark.parametrize("cls", ["smooth", "continuous"])
    def test_infinite_input_exits_2_before_any_computation(self, capsys, monkeypatch,
                                                           flag, message, cls):
        def refuse(*args, **kwargs):
            raise AssertionError(f"computed with {flag} inf")

        monkeypatch.setattr(gdn.approx.estimates, "modulus_inverse", refuse)
        values = {**self.ESTIMATE, flag: "inf"}
        code, out, err = run(capsys, "estimate", "--class", cls, "--p", "1", "--m", "1",
                             "--lip", "1", "--sigma-lip", "1",
                             *(t for kv in values.items() for t in kv))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("B", ["-1", "0", "-0.0"])
    @pytest.mark.parametrize("cls", ["smooth", "poly", "continuous"])
    def test_nonpositive_b_exits_2_for_every_class(self, capsys, cls, B):
        values = {**self.ESTIMATE, "--B": B}
        code, out, err = run(capsys, "estimate", "--class", cls, "--p", "1", "--m", "1",
                             "--lip", "1", "--sigma-lip", "1",
                             *(t for kv in values.items() for t in kv))
        assert code == 2 and out == ""
        assert err == f"error: B must be positive, got {float(B)!r}\n"

    @pytest.mark.parametrize("cls", ["smooth", "poly"])
    def test_positive_b_is_reported_and_changes_nothing_else(self, capsys, cls):
        argv = ["estimate", "--class", cls, "--p", "1", "--m", "1", "--eps", "0.1",
                "--delta", "0.5", "--lip", "1", "--kappa1", "1", "--kappa2", "1"]
        code, out, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv, "--B", "2")
        assert code == code_b == 0
        assert json.loads(out_b) == {**json.loads(out), "B": 2.0}

    @pytest.mark.parametrize("bad", [["--m", "0"], ["--p", "0"], ["--p", "-3"]])
    def test_nonpositive_dimensions_exit_2(self, capsys, bad):
        code, out, err = run(capsys, "estimate", "--class", "smooth", "--p", "1",
                             "--m", "1", *bad, "--eps", "0.1", "--delta", "0.5",
                             "--lip", "1", "--kappa1", "1", "--kappa2", "1")
        assert code == 2 and out == ""
        assert err == "error: p and m must be positive integers\n"

    def test_modulus_file(self, capsys, tmp_path):
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps({"knots": [0.0, 0.08, 1.0],
                                   "values": [0.0, 0.05, 1.0]}))
        code, out, _ = run(capsys, "estimate", "--class", "smooth", "--p", "1",
                           "--m", "1", "--eps", "0.1", "--delta", "0.5",
                           "--modulus-file", str(mod), "--kappa1", "1",
                           "--kappa2", "1")
        assert code == 0
        assert json.loads(out)["depth_order"] > 0

    @pytest.mark.parametrize("argv, message", [
        (["--class", "continuous", "--m", "2", "--delta", "0.5", "--B", "2", "--sigma-lip", "1"],
         "continuous estimate: 2^((2 delta)^2 / r^2 + 1) overflows"),
        (["--class", "smooth", "--p", "3", "--delta", "1e100"],
         "smooth estimate: (2 delta)^6 overflows"),
        (["--class", "poly", "--delta", "1e60"], "poly estimate: (2 delta)^6 overflows"),
        (["--class", "smooth", "--delta", "0.5", "--lip", "1e160"],
         "smooth estimate: depth_order overflows"),
        (["--class", "smooth", "--delta", "0.5", "--lip", "1e153"],
         "smooth estimate: params_order overflows"),
    ], ids=["continuous", "smooth", "poly", "depth-quotient", "params-product"])
    def test_overflow_exits_1_naming_the_class_and_quantity(self, capsys, argv, message):
        # finite inputs whose float **, or whose quotient or product of
        # finite values, leaves the float range
        values = {"--p": "1", "--m": "1", "--eps": "0.1", "--lip": "1", "--kappa1": "1",
                  "--kappa2": "1", **dict(zip(argv[::2], argv[1::2]))}
        code, out, err = run(capsys, "estimate", *(t for kv in values.items() for t in kv))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_vanishing_modulus_inverse_exits_1(self, capsys):
        code, out, err = run(capsys, "estimate", "--class", "smooth", "--p", "1", "--m", "1",
                             "--eps", "0.1", "--delta", "0.5", "--lip", "1e300",
                             "--kappa1", "1e-300", "--kappa2", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: modulus inverse vanished") and err.count("\n") == 1


class TestCompileAndEval:
    def test_euclidean_poly_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "model.json"
        code, out, _ = run(capsys, "compile", "--target", "poly:x1*x2",
                           "--domain", "euclidean:2", "--codomain", "euclidean:1",
                           "--base-x", "[0.5,0.5]", "--radius", "0.5",
                           "--eps", "0.1", "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["measured_error"] <= 0.1
        with open(out_path, encoding="utf-8") as f:
            model = gdn_from_dict(json.load(f))
        x = np.array([0.7, 0.6])
        assert abs(model(x)[0] - 0.42) <= 0.1

        code, out, _ = run(capsys, "eval", "--model", str(out_path),
                           "--input", "[0.7,0.6]")
        assert code == 0
        assert json.loads(out)["output"][0] == pytest.approx(model(x)[0])

    MODELS = Path(__file__).resolve().parents[1] / "perfbench" / "models"
    # points of the stored models' domains, inside their injectivity balls
    POINTS = {"sphere2-rotation": [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8], [0.6, 0.0, 0.8]],
              "poincare2-mobius": [[0.0, 0.0], [0.3, -0.2], [-0.1, 0.4]],
              "spd2-congruence": [[1.0, 0.0, 1.0], [2.0, 0.3, 1.5], [0.8, -0.1, 0.6]]}

    @pytest.mark.parametrize("name", list(POINTS))
    def test_eval_of_a_2d_input_is_one_stacked_call(self, capsys, monkeypatch, name):
        # one gdn_eval call on the stack; each output row has the bits of
        # the point evaluated alone
        model, points = str(self.MODELS / f"{name}.json"), self.POINTS[name]
        alone = []
        for point in points:
            code, out, _ = run(capsys, "eval", "--model", model,
                               "--input", json.dumps(point))
            assert code == 0
            alone.append(json.loads(out)["output"])
        stacks = []
        inner = gdn.model.gdn_eval
        monkeypatch.setattr(gdn.model, "gdn_eval",
                            lambda m, x: stacks.append(np.shape(x)) or inner(m, x))
        code, out, _ = run(capsys, "eval", "--model", model, "--input", json.dumps(points))
        assert code == 0 and stacks == [(3, len(points[0]))]
        assert json.loads(out)["output"] == alone

    def test_eval_of_a_2d_input_to_a_net(self, capsys, tmp_path):
        model = tmp_path / "net.json"
        model.write_text(json.dumps({"layers": [{"weights": [[2.0, 1.0]], "bias": [0.5]}],
                                     "activation": {"name": "exp"}}))
        code, out, _ = run(capsys, "eval", "--model", str(model),
                           "--input", "[[1, 2], [0, -1]]")
        assert code == 0 and json.loads(out)["output"] == [[4.5], [-0.5]]

    @pytest.mark.parametrize("text,message", [
        ("[[]]", "--input must be one point or a non-empty 2-D array of points, "
                 "got shape (1, 0)"),
        ("[[[0, 0, 1]]]", "--input must be one point or a non-empty 2-D array of "
                          "points, got shape (1, 1, 3)"),
        ("[[0, 0, 1], [0, 1]]", "--input must be a JSON array of numbers: "),
        ("[[0, 0], [0, 1]]", "point of sphere:2 must have length 3, got 2"),
    ])
    def test_eval_input_of_a_bad_shape_exits_2_with_one_line(self, capsys, text, message):
        code, out, err = run(capsys, "eval", "--model",
                             str(self.MODELS / "sphere2-rotation.json"), "--input", text)
        assert (code, out) == (2, "")
        assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_verticalized_compile(self, capsys, tmp_path):
        out_path = tmp_path / "deep.json"
        code, out, _ = run(capsys, "compile", "--target", "poly:x1*x2",
                           "--domain", "euclidean:2", "--codomain", "euclidean:1",
                           "--base-x", "[0.5,0.5]", "--radius", "0.5",
                           "--eps", "0.1", "--verticalize=-0.6,0.6",
                           "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["measured_error"] <= 0.1
        assert summary["depth"] >= 2  # deep-narrow rewrite
        assert summary["width"] <= 2 + 1 + 2

    def test_verticalized_rotation_skips_zero_weights(self, capsys):
        # the rotation core has 3 outputs over one 2-unit hidden layer, and
        # its third output reads no unit: one deep layer per unit
        code, out, _ = run(capsys, "compile", "--target", "rotation",
                           "--domain", "sphere:2", "--codomain", "sphere:2",
                           "--base-x", "[0,0,1]", "--radius", "0.5", "--eps", "0.1",
                           "--activation", "softplus", "--verticalize=-0.1,1.1")
        assert code == 0
        summary = json.loads(out)
        assert summary["depth"] == 2
        assert summary["measured_error"] <= 0.1

    def test_zero_lip_is_honored(self, capsys, monkeypatch):
        # --lip 0 is a modulus like --lip 1e-300: no empirical modulus read
        import gdn.approx.synthesis as synthesis

        def refuse(*args, **kwargs):
            raise AssertionError("read the empirical modulus despite --lip")

        monkeypatch.setattr(synthesis, "sampled_modulus_at", refuse)
        bounds = []
        for lip in ("0", "1e-300"):
            code, out, _ = run(capsys, "compile", "--target", "poly:x1*x2",
                               "--domain", "euclidean:2", "--codomain", "euclidean:1",
                               "--base-x", "[0.5,0.5]", "--radius", "0.5",
                               "--eps", "0.1", "--lip", lip)
            assert code == 0
            bounds.append(json.loads(out)["apriori_bound"])
        assert bounds[0] == bounds[1] < 0.01

    def test_audit_pairs_built_once_per_dimension(self, capsys, monkeypatch,
                                                  fresh_cube_samples):
        # an spd2 --lip compile (p = 3) never builds the audit pairs' input
        # side, and two cube3 compiles build it once
        import gdn.approx.synthesis as synthesis

        built = []
        inner = synthesis.pair_inputs
        monkeypatch.setattr(synthesis, "pair_inputs",
                            lambda xs: built.append(len(xs)) or inner(xs))
        code, _, _ = run(capsys, "compile", "--target", "spd-congruence",
                         "--domain", "spd:2", "--codomain", "spd:2", "--base-x", "[1,0,1]",
                         "--radius", "1.0", "--eps", "0.05", "--lip", "2.0")
        assert code == 0 and built == []
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "compile", "--target", "poly:x1*x2*x3",
                               "--domain", "euclidean:3", "--codomain", "euclidean:1",
                               "--base-x", "[0,0,0]", "--radius", "0.5", "--eps", "0.05")
            assert code == 0
            outs.append(out)
        assert built == [334]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("case", [
        ["--target", "rotation", "--domain", "sphere:2", "--codomain", "sphere:2",
         "--base-x", "[0,0,1]", "--radius", "1.5707", "--eps", "0.1"],
        ["--target", "spd-congruence", "--domain", "spd:2", "--codomain", "spd:2",
         "--base-x", "[1,0,1]", "--radius", "1.0", "--eps", "0.05", "--lip", "2.0"],
    ])
    def test_one_synthesis_pass_per_h_try(self, capsys, monkeypatch, case):
        # every output of the core comes out of one compile_poly_to_shallow
        # call per step h, and these compiles fit at the first h
        import gdn.approx.synthesis as synthesis
        steps = []
        inner = synthesis.compile_poly_to_shallow

        def counted(forms, sigma, theta0, h):
            steps.append(h)
            return inner(forms, sigma, theta0, h)

        monkeypatch.setattr(synthesis, "compile_poly_to_shallow", counted)
        code, _, _ = run(capsys, "compile", *case)
        assert code == 0
        assert len(steps) == 1

    def test_apriori_degree_off_the_candidate_list_is_tried(self, capsys):
        # the candidates 1, 2, 3, 4 miss the budget and 6 meets it; with
        # --lip 0.085 the a-priori rule gives 5, which is no listed degree,
        # and it meets the budget first
        argv = ["compile", "--target", "poly:x1^2", "--domain", "euclidean:1",
                "--codomain", "euclidean:1", "--base-x", "[0]", "--radius", "0.48",
                "--eps", "0.1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["bernstein_degree"] == 6
        code, out, _ = run(capsys, *argv, "--lip", "0.085")
        assert code == 0
        summary = json.loads(out)
        assert summary["bernstein_degree"] == 5
        assert summary["measured_error"] == pytest.approx(0.046079059413145294, rel=1e-9)
        assert summary["apriori_bound"] == pytest.approx(0.047604952260245734, rel=1e-9)

    def test_compile_past_the_budget_prints_its_summary_and_exits_1(self, capsys):
        # exit 0 only within the budget: a compile that runs to the end but
        # measures past eps still prints its summary
        code, out, err = run(capsys, "compile", "--target", "poly:50*x1*x2*x3",
                             "--domain", "euclidean:3", "--codomain", "euclidean:1",
                             "--base-x", "[0,0,0]", "--radius", "1.0", "--eps", "0.05")
        assert code == 1
        assert json.loads(out)["measured_error"] == 0.0645468928329489
        assert err == "measured error 0.0645468928329489 exceeds the budget 0.05\n"

    def test_base_y_given_is_base_y_auto(self, capsys, tmp_path):
        # the rotation fixes its axis, so auto evaluates the target at
        # base_x to the base_y given here
        argv = ["compile", "--target", "rotation", "--domain", "sphere:2",
                "--codomain", "sphere:2", "--base-x", "[0,0,1]", "--radius", "1",
                "--eps", "0.1"]
        models, summaries = [], []
        for base_y in ("auto", "[0,0,1]"):
            out_path = tmp_path / f"model-{len(models)}.json"
            code, out, _ = run(capsys, *argv, "--base-y", base_y, "--out", str(out_path))
            assert code == 0
            models.append(out_path.read_bytes())
            summaries.append({**json.loads(out), "out": None})
        assert models[0] == models[1]
        assert summaries[0] == summaries[1]

    def test_radius_guard_exits_2(self, capsys):
        # checked once, by compile_gdn: one error line and no usage text
        code, out, err = run(capsys, "compile", "--target", "rotation",
                             "--domain", "sphere:2", "--codomain", "sphere:2",
                             "--base-x", "[0,0,1]", "--radius", "3.5", "--eps", "0.1")
        assert code == 2
        assert out == ""
        assert err == ("error: radius must satisfy 0 < radius < "
                       "inj(3.141592653589793), got 3.5\n")

    def test_infeasible_degree_lists_what_it_tried(self, capsys):
        code, out, err = run(capsys, "compile", "--target", "poly:x1^2",
                             "--domain", "euclidean:1", "--codomain", "euclidean:1",
                             "--base-x", "[0]", "--radius", "1", "--eps", "0.1")
        assert code == 1 and out == ""
        prefix = ("error: no Bernstein degree <= 12 meets the budget 0.05 on the "
                  "selection grid; residual by degree: ")
        assert err.startswith(prefix)
        tried = [pair.split(": ") for pair in err[len(prefix):].strip().split(", ")]
        assert [int(n) for n, _r in tried] == [1, 2, 3, 4, 6, 8, 12]
        residuals = [float(r) for _n, r in tried]
        assert all(r > 0.05 for r in residuals)
        assert residuals == sorted(residuals, reverse=True)

    def test_fit_past_the_stencil_cap_exits_1(self, capsys):
        # the fitted polynomial's total degree 14 is past the difference
        # stencils' cap, so the realize stage refuses it
        code, out, err = run(capsys, "compile", "--target", "poly:x1^7*x2^7",
                             "--domain", "euclidean:2", "--codomain", "euclidean:1",
                             "--base-x", "[0,0]", "--radius", "0.8", "--eps", "0.02")
        assert (code, out) == (1, "")
        assert err == ("error: trimmed polynomial has total degree 14, beyond the "
                       "synthesis stencil cap 12\n")

    @pytest.mark.parametrize("argv", [
        ["--target", "poly:x1", "--domain", "euclidean:1", "--base-x", "[0]",
         "--radius", "1e300"],
        ["--target", "poly:x1*x2", "--domain", "euclidean:2", "--base-x", "[1e300,0]",
         "--radius", "1"],
    ])
    def test_rows_past_the_square_root_of_the_float_maximum_have_finite_residuals(
            self, capsys, argv):
        # the pullback's rows pass 1.3e154, where a squared norm overflows;
        # the refusal is right (the fit's rounding alone is about 1e284),
        # but it lists each degree's finite residual and warns of nothing
        code, out, err = run(capsys, "compile", *argv, "--codomain", "euclidean:1",
                             "--eps", "0.1")
        assert (code, out) == (1, "")
        prefix = ("error: no Bernstein degree <= 12 meets the budget 0.05 on the "
                  "selection grid; residual by degree: ")
        assert err.startswith(prefix) and err.count("\n") == 1
        residuals = [float(pair.split(": ")[1])
                     for pair in err[len(prefix):].strip().split(", ")]
        assert len(residuals) == 7 and np.isfinite(residuals).all()

    def test_target_overflow_exits_2_with_one_line(self, capsys):
        # (-7.5)^400 passes the float range: the first such point the oracle sees
        code, out, err = run(capsys, "compile", "--target", "poly:x1^400",
                             "--domain", "euclidean:1", "--codomain", "euclidean:1",
                             "--base-x", "[0]", "--radius", "10", "--eps", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: target poly:x1^400 overflows at [-7.5]\n"

    @pytest.mark.parametrize("p", [4, 9])
    def test_domain_past_the_ball_sampler_exits_1(self, capsys, p):
        # past the Halton bases (p >= 9) the same refusal and exit code as
        # at p = 4
        code, out, err = run(capsys, "compile", "--target", "poly:x1",
                             "--domain", f"euclidean:{p}", "--codomain", "euclidean:1",
                             "--base-x", json.dumps([0] * p), "--radius", "0.5",
                             "--eps", "0.1")
        assert (code, out) == (1, "")
        assert err == "error: deterministic ball sampling is wired for dim <= 3\n"

    def test_unknown_target_exits_2(self, capsys):
        code, _, err = run(capsys, "compile", "--target", "frobnicate",
                           "--domain", "euclidean:1", "--codomain", "euclidean:1",
                           "--base-x", "[0]", "--radius", "1.0", "--eps", "0.1")
        assert code == 2
        assert "target" in err

    @pytest.mark.parametrize("radius,norm", [("1e100", "7.071067811865477e+99"),
                                             ("1e300", "7.071067811865476e+299")])
    def test_poincare_exp_past_the_ball_exits_1(self, capsys, radius, norm):
        # tanh rounds to 1 on the pullback's tangents, and past 1.3e154 their
        # squared norms overflow: once a model of error 0 (exit 0, with an
        # overflow warning) or a refused point (exit 2)
        code, out, err = run(capsys, "compile", "--target", "mobius-shift",
                             "--domain", "poincare:2:1", "--codomain", "poincare:2:1",
                             "--base-x", "[0,0]", "--radius", radius, "--eps", "0.1")
        assert (code, out) == (1, "")
        assert err == ("error: the poincare exponential map rounds onto the boundary "
                       f"c|y|^2 = 1 at tangent norm {norm}\n")

    @pytest.mark.parametrize("activation,x,code,printed", [
        ("exp", "[1e6]", 1, ""),
        ("sigmoid", "[-1e6]", 0, '{\n  "output": [\n    -234887.46265042105\n  ]\n}\n'),
    ])
    def test_eval_of_a_far_input_warns_of_nothing(self, capsys, tmp_path, activation, x,
                                                  code, printed):
        # exp overflows on the far input: exp's inf is refused after its
        # layer, and sigmoid's is its limit 0
        model = tmp_path / "model.json"
        assert run(capsys, "compile", "--target", "poly:x1^2", "--domain", "euclidean:1",
                   "--codomain", "euclidean:1", "--base-x", "[0]", "--radius", "0.3",
                   "--eps", "0.1", "--activation", activation, "--out", str(model))[0] == 0
        err = "" if code == 0 else "error: non-finite value after layer 0\n"
        assert run(capsys, "eval", "--model", str(model), "--input", x) == (code, printed, err)


# the refusals below are reached from the command line only through these
# inputs; a {name} in an argument is the path of the file REFUSAL_FILES[name]
REFUSAL_FILES = {
    "start": {"knots": [0.1, 1.0], "values": [0.0, 1.0]},
    "knots": {"knots": [0.0, 1.0, 1.0], "values": [0.0, 1.0, 2.0]},
    "values": {"knots": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 0.5]},
    "infinite": {"knots": [0.0, 1.0], "values": [0.0, math.inf]},
    "codomain": {"layers": [{"weights": [[1.0]], "bias": [0.0]}],
                 "activation": {"name": "exp"}, "domain": "euclidean:1",
                 "codomain": "euclidean:2", "base_x": [0.0], "base_y": [0.0, 0.0]},
    "vector": {"layers": [{"weights": [1.0], "bias": [0.0]}], "activation": {"name": "exp"}},
    "bias": {"layers": [{"weights": [[1.0], [2.0]], "bias": [0.0]}],
             "activation": {"name": "exp"}},
    "nan": {"layers": [{"weights": [[math.nan]], "bias": [0.0]}],
            "activation": {"name": "exp"}},
    "empty": {"layers": [], "activation": {"name": "exp"}},
    "chain": {"layers": [{"weights": [[1.0], [1.0]], "bias": [0.0, 0.0]},
                         {"weights": [[1.0]], "bias": [0.0]}], "activation": {"name": "exp"}},
    "gelu": {"layers": [{"weights": [[1.0]], "bias": [0.0]}], "activation": {"name": "gelu"}},
}
SMOOTH_ESTIMATE = ["estimate", "--class", "smooth", "--p", "1", "--m", "1", "--eps", "0.1",
                   "--delta", "0.5", "--kappa1", "1", "--kappa2", "1"]


def _compile(target, domain, base_x):
    return ["compile", "--target", target, "--domain", domain, "--codomain", domain,
            "--base-x", base_x, "--radius", "0.5", "--eps", "0.1"]


class TestRefusals:
    """Each refusal exits 2 with its one ``error:`` line."""

    @pytest.mark.parametrize("argv,line", [
        (_compile("rotation", "sphere:3", "[0,0,0,1]"),
         "rotation target requires domain sphere:2"),
        (_compile("mobius-shift", "euclidean:2", "[0,0]"),
         "mobius-shift target requires a poincare domain"),
        (_compile("mobius-shift:5", "poincare:2:1", "[0,0]"),
         "mobius shift lies outside the ball"),
        (_compile("spd-congruence", "euclidean:3", "[1,0,1]"),
         "spd-congruence target requires an spd domain"),
        (_compile("poly:x1", "sphere:2", "[0,0,1]"), "poly targets require a euclidean domain"),
        (_compile("poly:", "euclidean:1", "[0]"),
         "poly target needs an expression, e.g. poly:x1*x2"),
        (SMOOTH_ESTIMATE, "provide --lip or --modulus-file"),
        (SMOOTH_ESTIMATE + ["--modulus-file", "{start}"],
         "a modulus estimate must start at (0, 0)"),
        (SMOOTH_ESTIMATE + ["--modulus-file", "{knots}"], "knots must be strictly increasing"),
        (SMOOTH_ESTIMATE + ["--modulus-file", "{values}"], "modulus values must be nondecreasing"),
        (SMOOTH_ESTIMATE + ["--modulus-file", "{infinite}"], "modulus data must be finite"),
        (["estimate", "--class", "continuous", "--p", "1", "--m", "1", "--eps", "0.1",
          "--delta", "0.5", "--lip", "1", "--kappa1", "1", "--kappa2", "1", "--B", "1"],
         "the continuous class requires an activation modulus"),
        (["estimate", "--efficient-n", "0", "--p", "1", "--m", "1", "--eps", "0.1"],
         "p, m, n must be positive integers"),
        (["eval", "--model", "{codomain}", "--input", "[0.5]"],
         "core output dim 1 != codomain chart dim 2"),
        (["eval", "--model", "{vector}", "--input", "[0.5]"],
         "layer weights must be a matrix, got ndim=1"),
        (["eval", "--model", "{bias}", "--input", "[0.5]"],
         "bias length 1 does not match output dim 2"),
        (["eval", "--model", "{nan}", "--input", "[0.5]"], "layer parameters must be finite"),
        (["eval", "--model", "{empty}", "--input", "[0.5]"],
         "a network needs at least one affine layer"),
        (["eval", "--model", "{chain}", "--input", "[0.5]"], "layer dims do not chain: 2 -> 1"),
        (["eval", "--model", "{gelu}", "--input", "[0.5]"],
         "unknown activation 'gelu'; known: ['exp', 'leaky-relu', 'relu', 'sigmoid', "
         "'softplus', 'square', 'tanh']"),
    ], ids=["rotation", "mobius-domain", "mobius-shift", "spd-congruence", "poly-domain",
            "poly-empty", "no-modulus", "modulus-start", "modulus-knots", "modulus-values",
            "modulus-infinite", "no-sigma-lip", "efficient-n", "model-codomain",
            "net-vector", "net-bias", "net-nan", "net-empty", "net-chain", "net-activation"])
    def test_refusal(self, capsys, tmp_path, argv, line):
        paths = {}
        for name, payload in REFUSAL_FILES.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
        argv = [a.format(**paths) for a in argv]
        assert run(capsys, *argv) == (2, "", f"error: {line}\n")

    def test_missing_delta_is_a_usage_error(self, capsys):
        argv = [a for a in SMOOTH_ESTIMATE if a not in ("--delta", "0.5")] + ["--lip", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gdn ")
        assert err.endswith("\ngdn: error: --delta is required for depth estimates\n")

    def test_duplicate_abscissae(self, capsys, tmp_path):
        (tmp_path / "ds.csv").write_text("0\n0.5\n0.5\n")
        (tmp_path / "vals.csv").write_text("0\n1\n2\n")
        assert run(capsys, "certify", "--dataset", str(tmp_path / "ds.csv"),
                   "--values", str(tmp_path / "vals.csv"), "--domain", "euclidean:1",
                   "--codomain", "euclidean:1", "--base-x", "[0]", "--base-y", "[0]") == (
            2, "", "error: chart abscissae must be distinct for interpolation\n")


class TestCertify:
    def test_three_point_dataset(self, capsys, tmp_path):
        ds = tmp_path / "ds.csv"
        vals = tmp_path / "vals.csv"
        ds.write_text("0\n0.5\n1\n")
        vals.write_text("0\n0.25\n1\n")
        code, out, _ = run(capsys, "certify", "--dataset", str(ds),
                           "--values", str(vals), "--domain", "euclidean:1",
                           "--codomain", "euclidean:1", "--base-x", "[0]",
                           "--base-y", "[0]")
        assert code == 0
        cert = json.loads(out)
        assert cert["certified"] and cert["n"] == 2

    def test_out_file_holds_the_bytes_printed(self, capsys, tmp_path):
        ds = tmp_path / "ds.csv"
        vals = tmp_path / "vals.csv"
        ds.write_text("0\n0.25\n0.5\n1\n")
        vals.write_text("0.1\n0.3\n0.2\n0.7\n")
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certify", "--dataset", str(ds),
                           "--values", str(vals), "--domain", "euclidean:1",
                           "--codomain", "euclidean:1", "--base-x", "[0]",
                           "--base-y", "[0]", "--out", str(cert))
        assert code == 0
        assert cert.read_bytes() == out.encode("utf-8")
        assert json.loads(out)["C_star"] == 4

    def test_comment_and_blank_lines_are_skipped(self, capsys, tmp_path):
        ds = tmp_path / "ds.csv"
        vals = tmp_path / "vals.csv"
        ds.write_text("# abscissae\n0\n\n0.5\n  \n1\n")
        vals.write_text("0\n0.25\n# last\n1\n\n")
        argv = ["certify", "--dataset", str(ds), "--values", str(vals),
                "--domain", "euclidean:1", "--codomain", "euclidean:1",
                "--base-x", "[0]", "--base-y", "[0]"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        cert = json.loads(out)
        assert cert["certified"] and cert["n"] == 2
        ds.write_text("# nothing but comments\n\n   \n#0.5\n")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {ds}: no data rows\n"

    def test_n_is_not_an_option(self, capsys, tmp_path):
        # the order n is the dataset size less one, not an option
        ds = tmp_path / "ds.csv"
        ds.write_text("0\n0.5\n1\n")
        with pytest.raises(SystemExit) as info:
            main(["certify", "--dataset", str(ds), "--values", str(ds),
                  "--domain", "euclidean:1", "--codomain", "euclidean:1",
                  "--base-x", "[0]", "--base-y", "[0]", "--n", "7"])
        assert info.value.code == 2
        assert "unrecognized arguments: --n 7" in capsys.readouterr().err

    def test_singular_vandermonde_exits_1(self, capsys, tmp_path):
        # x^2 underflows to 0 at both nonzero abscissae
        ds = tmp_path / "ds.csv"
        vals = tmp_path / "vals.csv"
        ds.write_text("0\n1e-200\n2e-200\n")
        vals.write_text("0\n1\n0\n")
        code, out, err = run(capsys, "certify", "--dataset", str(ds),
                             "--values", str(vals), "--domain", "euclidean:1",
                             "--codomain", "euclidean:1", "--base-x", "[0]",
                             "--base-y", "[0]")
        assert (code, out) == (1, "")
        assert err == ("error: the Vandermonde matrix of the 3 chart abscissae "
                       "is singular\n")

    def test_malformed_csv_names_line(self, capsys, tmp_path):
        ds = tmp_path / "ds.csv"
        vals = tmp_path / "vals.csv"
        ds.write_text("0\nnot-a-number\n")
        vals.write_text("0\n0\n")
        code, _, err = run(capsys, "certify", "--dataset", str(ds),
                           "--values", str(vals), "--domain", "euclidean:1",
                           "--codomain", "euclidean:1", "--base-x", "[0]",
                           "--base-y", "[0]")
        assert code == 2
        assert ":2:" in err

    def test_out_of_ball_exits_1(self, capsys, tmp_path):
        ds = tmp_path / "ds.csv"
        vals = tmp_path / "vals.csv"
        ds.write_text("0,0,1\n")
        vals.write_text("0,0,-1\n")  # value antipodal to the codomain base
        code, _, err = run(capsys, "certify", "--dataset", str(ds),
                           "--values", str(vals), "--domain", "sphere:2",
                           "--codomain", "sphere:2", "--base-x", "[0,0,1]",
                           "--base-y", "[0,0,1]")
        assert code == 1


class TestBench:
    CONFIG = {
        "runs": [
            {"target": "poly:x1", "domain": "euclidean:1",
             "codomain": "euclidean:1", "base_x": [0.0], "radius": 1.0,
             "eps": 0.2, "activation": "exp", "grid": 50, "seed": 1},
            {"target": "poly:x1", "domain": "euclidean:1",
             "codomain": "euclidean:1", "base_x": [0.0], "radius": 1.0,
             "eps": 0.05, "activation": "exp", "grid": 50, "seed": 1},
        ]
    }

    def test_csv_shape_and_error_ordering(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(self.CONFIG))
        code, out, _ = run(capsys, "bench", str(cfg))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[0] == "target"
        assert len(lines) == 3
        e_loose = float(lines[1].split(",")[2])
        e_tight = float(lines[2].split(",")[2])
        assert e_tight <= e_loose + 1e-12

    def test_byte_identical_reports(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(self.CONFIG))
        _, out1, _ = run(capsys, "bench", str(cfg))
        _, out2, _ = run(capsys, "bench", str(cfg))
        assert out1 == out2

    def test_timing_appends_one_column(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(self.CONFIG))
        _, plain, _ = run(capsys, "bench", str(cfg))
        code, timed, _ = run(capsys, "bench", str(cfg), "--timing")
        assert code == 0
        plain, timed = plain.splitlines(), timed.splitlines()
        assert timed[0] == plain[0] + ",wall_time_s"
        assert len(timed) == len(plain) == 3
        for row, with_time in zip(plain[1:], timed[1:]):
            head, wall = with_time.rsplit(",", 1)
            assert head == row and float(wall) > 0.0

    def test_torus_codomain_predicts_like_the_line(self, capsys, tmp_path):
        # poly:x1 stays within 0.2 of base 0.25, where the torus chart is the
        # line's: the codomain chart constant must not wrap round the torus
        runs = [{"target": "poly:x1", "domain": "euclidean:1", "codomain": cod,
                 "base_x": [0.25], "radius": 0.2, "eps": 0.1, "grid": 50}
                for cod in ("torus:1", "euclidean:1")]
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"runs": runs}))
        code, out, _ = run(capsys, "bench", str(cfg))
        assert code == 0
        torus, line = (float(row.split(",")[-1]) for row in out.splitlines()[1:])
        assert torus == line < 10.0

    ROTATION = {"target": "rotation", "domain": "sphere:2", "codomain": "sphere:2",
                "base_x": [0, 0, 1], "radius": 1.0, "eps": 0.1, "grid": 50}
    # poly:x1^2 on the line at eps 0.1 fits no Bernstein degree up to the cap
    INFEASIBLE = {"target": "poly:x1^2", "domain": "euclidean:1",
                  "codomain": "euclidean:1", "base_x": [0.0], "radius": 1.0,
                  "eps": 0.1, "grid": 50}

    def report(self, capsys, tmp_path, runs, to_file):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"runs": runs}))
        out = tmp_path / "report.csv"
        code, stdout, err = run(capsys, "bench", str(cfg),
                                *(["--out", str(out)] if to_file else []))
        return code, out.read_text() if to_file else stdout, err

    @pytest.mark.parametrize("to_file", [False, True])
    def test_failing_compile_names_its_run_after_the_rows_before_it(
            self, capsys, tmp_path, to_file):
        _, first, _ = self.report(capsys, tmp_path, [self.ROTATION], to_file)
        code, text, err = self.report(
            capsys, tmp_path, [self.ROTATION, {**self.ROTATION, "radius": 4.0}], to_file)
        assert code == 2
        assert err.startswith("error: bench run 1: radius must satisfy")
        assert text == first and text.count("\n") == 2

    def test_infeasible_compile_keeps_its_class_cap_and_exit_code(self, capsys, tmp_path):
        code, text, err = self.report(
            capsys, tmp_path, [self.CONFIG["runs"][0], self.INFEASIBLE], False)
        assert code == 1 and text.count("\n") == 2
        assert err.startswith("error: bench run 1: no Bernstein degree <= 12")
        cfg = tmp_path / "bench.json"
        with pytest.raises(InfeasibleDegreeError) as info:
            cmd_bench(argparse.Namespace(config=str(cfg), out=None, timing=False))
        assert str(info.value).startswith("bench run 1: ")

    def test_base_x_of_the_wrong_length_is_a_usage_error(self, capsys, tmp_path):
        bad = {"target": "mobius-shift", "domain": "poincare:2:1",
               "codomain": "poincare:2:1", "base_x": [0, 0, 0], "radius": 0.5,
               "eps": 0.1}
        TestUsageErrors().bench(capsys, tmp_path, bad, "must have length 2, got 3")

    @pytest.mark.parametrize("base_x", [[1, 0, 1, 0], [1, 2, 1]])
    def test_bad_base_x_keeps_its_class_at_every_stage(self, capsys, tmp_path, base_x):
        # a wrong length is found while resolving the run, a matrix that is
        # not SPD by the compile's chart: both are the same ValidationError
        bad = {"target": "spd-congruence", "domain": "spd:2", "codomain": "spd:2",
               "base_x": base_x, "radius": 0.5, "eps": 0.1}
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"runs": [bad]}))
        with pytest.raises(ValidationError) as info:
            cmd_bench(argparse.Namespace(config=str(cfg), out=None, timing=False))
        assert type(info.value) is ValidationError
        assert str(info.value).startswith("bench run 0: ")
        TestUsageErrors().bench(capsys, tmp_path, bad)


class TestUsageErrors:
    """Malformed input exits 2 with one ``error:`` line, not a traceback."""

    COMPILE = ["compile", "--target", "poly:x1*x2", "--domain", "euclidean:2",
               "--codomain", "euclidean:1", "--base-x", "[0.5,0.5]",
               "--radius", "0.5", "--eps", "0.1"]

    def assert_usage_error(self, capsys, argv, *needles):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        for needle in needles:
            assert needle in err

    def test_malformed_poly_coefficient(self, capsys):
        argv = [a if a != "poly:x1*x2" else "poly:1.5.2*x1" for a in self.COMPILE]
        self.assert_usage_error(capsys, argv, "'1.5.2'")

    def test_verticalize_needs_two_numbers(self, capsys):
        self.assert_usage_error(capsys, self.COMPILE + ["--verticalize", "1"],
                                "--verticalize", "'1'")

    @pytest.mark.parametrize("box,needle", [("1,0", "lo <= hi"), ("nan,1", "finite")])
    def test_bad_verticalize_box_is_refused_before_compiling(self, capsys, monkeypatch,
                                                             box, needle):
        def refuse(*args, **kwargs):
            raise AssertionError("compiled before the box was checked")

        monkeypatch.setattr(gdn.assemble, "compile_gdn", refuse)
        self.assert_usage_error(capsys, self.COMPILE + [f"--verticalize={box}"],
                                "verticalization box", needle)

    def test_nan_eps_is_refused_before_any_oracle_call(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called the oracle with eps nan")

        monkeypatch.setattr(gdn.assemble, "oracle_rows", refuse)
        for eps in ("nan", "inf"):
            argv = [a if a != "0.1" else eps for a in self.COMPILE]
            self.assert_usage_error(capsys, argv, "eps must be positive")

    def test_infinite_lip_is_refused_before_compiling(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("compiled with an infinite Lipschitz constant")

        monkeypatch.setattr(gdn.assemble, "compile_gdn", refuse)
        self.assert_usage_error(capsys, self.COMPILE + ["--lip", "inf"],
                                "Lipschitz constant must be finite")

    def test_empty_audit_grid(self, capsys):
        self.assert_usage_error(capsys, self.COMPILE + ["--grid", "0"], "got 0")

    def test_audit_grid_past_the_budget_is_refused_before_compiling(self, capsys,
                                                                    monkeypatch):
        # euclidean:2 -> euclidean:1: 2*2 + 2 + 2 + 2*1 + 1 = 11 floats a point
        def refuse(*args, **kwargs):
            raise AssertionError("called the oracle before the audit size was checked")

        monkeypatch.setattr(gdn.assemble, "oracle_rows", refuse)
        t0 = time.perf_counter()
        self.assert_usage_error(capsys, self.COMPILE + ["--grid", "1000000000"],
                                "an audit of 1000000000 points would hold 88000000000 "
                                "bytes of arrays, past the budget of 268435456 bytes")
        assert time.perf_counter() - t0 < 2.0

    def test_curvature_whose_square_overflows(self, capsys):
        # refused with the manifold, before a Moebius sum squares it
        code, out, err = run(capsys, "compile", "--target", "mobius-shift",
                             "--domain", "poincare:2:1e300", "--codomain", "poincare:2:1e300",
                             "--base-x", "[0,0]", "--radius", "1", "--eps", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: poincare curvature must have a finite square, got 1e+300\n"

    def test_bench_run_audit_grid_past_the_budget(self, capsys, tmp_path):
        self.bench(capsys, tmp_path, {**TestBench.CONFIG["runs"][0], "grid": 10 ** 9},
                   "an audit of 1000000000 points would hold", "past the budget")

    @pytest.mark.parametrize("target,domain,base", [
        ("rotation:abc", "sphere:2", "[0,0,1]"),
        ("mobius-shift:abc", "poincare:2:1", "[0,0]"),
        ("spd-congruence:abc", "spd:2", "[1,0,1]"),
    ])
    def test_target_argument_must_be_a_number(self, capsys, target, domain, base):
        self.assert_usage_error(
            capsys, ["compile", "--target", target, "--domain", domain,
                     "--codomain", domain, "--base-x", base, "--radius", "0.5",
                     "--eps", "0.1"], "'abc'", target.split(":")[0])

    def bench(self, capsys, tmp_path, bad_run, *needles):
        good = TestBench.CONFIG["runs"][0]
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"runs": [good, bad_run]}))
        self.assert_usage_error(capsys, ["bench", str(cfg)], "bench run 1", *needles)

    # a rotation compile whose cube corners lie at 2.23 * sqrt(2) = 3.1537,
    # past inj(sphere:2) = pi, one whose cube rescale 1 / (2 radius) passes
    # the float range, and one with a piecewise-linear activation
    ROTATION = {"target": "rotation", "domain": "sphere:2", "codomain": "sphere:2",
                "base_x": [0, 0, 1], "radius": 1.0, "eps": 0.1, "grid": 50}
    # new cases go last, with their own id, so that the others keep theirs
    UNREACHABLE = [({"radius": 2.23}, "radius * sqrt(p) must be below inj("),
                   ({"activation": "relu"}, "activation, got piecewise-linear"),
                   pytest.param({"radius": 1e-320},
                                "radius 1e-320 is too small: the cube rescale",
                                id="subnormal-radius")]

    @pytest.mark.parametrize("change,needle", UNREACHABLE)
    def test_unreachable_compile_is_refused_before_any_oracle_call(
            self, capsys, monkeypatch, change, needle):
        def refuse(*args, **kwargs):
            raise AssertionError("called the oracle before the compile was checked")

        monkeypatch.setattr(gdn.assemble, "oracle_rows", refuse)
        self.assert_usage_error(capsys, self.compile_argv({**self.ROTATION, **change}),
                                needle)

    @staticmethod
    def compile_argv(run_):
        argv = ["compile"]
        for key, value in run_.items():
            argv += [f"--{key.replace('_', '-')}",
                     value if isinstance(value, str) else json.dumps(value)]
        return argv

    @pytest.mark.parametrize("change,needle", UNREACHABLE)
    def test_bench_run_unreachable(self, capsys, tmp_path, change, needle):
        self.bench(capsys, tmp_path, {**self.ROTATION, **change}, needle)

    @staticmethod
    def count_oracle_calls(monkeypatch):
        """The shape of every call to the target ``gdn.cli`` resolves."""
        calls = []
        resolve = gdn.cli.resolve_target

        def counted(*args, **kwargs):
            target = resolve(*args, **kwargs)

            def fn(x):
                calls.append(np.shape(x))
                return target.fn(x)

            return dataclasses.replace(target, fn=fn)

        monkeypatch.setattr(gdn.cli, "resolve_target", counted)
        return calls

    # base_y "auto" is the target's value at base_x, read after the checks
    @pytest.mark.parametrize("change,needle", UNREACHABLE[:2] + [
        ({"eps": -1}, "eps must be positive"), ({"grid": 0}, "at least 1 point, got 0")]
        + UNREACHABLE[2:])
    @pytest.mark.parametrize("command", ["compile", "bench"])
    def test_refused_compile_calls_no_oracle(self, capsys, monkeypatch, tmp_path,
                                             command, change, needle):
        calls = self.count_oracle_calls(monkeypatch)
        run_ = {**self.ROTATION, **change}
        if command == "bench":
            cfg = tmp_path / "bench.json"
            cfg.write_text(json.dumps({"runs": [run_]}))
            self.assert_usage_error(capsys, ["bench", str(cfg)], "bench run 0", needle)
        else:
            self.assert_usage_error(capsys, self.compile_argv(run_), needle)
        assert calls == []

    # the compile argv of each benchmark case, with its target calls and rows:
    # base_y "auto" (1 row), one read of the 64 probe points, the selection
    # grid and, without --lip, 34 (p = 2) or 334 (p = 3) audit points, each
    # lattice tried that is no subgrid of the selection grid (degree 3 for
    # the last two) and the 200-point geodesic audit
    PERFBENCH = {
        "sphere2-rotation": (["rotation", "sphere:2", "[0, 0, 1]", "1.5707", "0.1"],
                             3, 740),
        "poincare2-mobius": (["mobius-shift", "poincare:2:1", "[0, 0]", "1.0", "0.05"],
                             3, 740),
        "spd2-congruence": (["spd-congruence", "spd:2", "[1, 0, 1]", "1.0", "0.05",
                             "--lip", "2.0"], 3, 994),
        "cube3-product": (["poly:x1*x2*x3", "euclidean:3", "[0, 0, 0]", "0.5", "0.05"],
                          3, 1328),
        "cube3-quadratic": (["poly:x1^2+x2^2+x3^2", "euclidean:3", "[0, 0, 0]", "0.3",
                             "0.15"], 4, 1392),
        "cube2-mixed": (["poly:x1^2-x2^2+x1*x2", "euclidean:2", "[0, 0]", "0.3", "0.08"],
                        4, 756),
    }

    @pytest.mark.parametrize("case", list(PERFBENCH))
    def test_oracle_calls_per_benchmark_compile(self, capsys, monkeypatch, case):
        (target, domain, base_x, radius, eps, *lip), count, rows = self.PERFBENCH[case]
        codomain = "euclidean:1" if domain.startswith("euclidean") else domain
        calls = self.count_oracle_calls(monkeypatch)
        code, _, _ = run(capsys, "compile", "--target", target, "--domain", domain,
                         "--codomain", codomain, "--base-x", base_x, "--radius", radius,
                         "--eps", eps, "--seed", "0", *lip)
        assert code == 0
        assert len(calls) == count
        assert sum(shape[0] if len(shape) == 2 else 1 for shape in calls) == rows

    def test_auto_base_y_is_the_first_oracle_call(self, capsys, monkeypatch, tmp_path):
        calls = self.count_oracle_calls(monkeypatch)
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"runs": [self.ROTATION]}))
        assert run(capsys, "bench", str(cfg))[0] == 0
        assert calls[0] == (3,) and len(calls) > 1

    @pytest.mark.parametrize("payload", ["5", "null", "true", "1.5", "[1]"])
    def test_model_file_not_an_object(self, capsys, tmp_path, payload):
        model = tmp_path / "model.json"
        model.write_text(payload + "\n")
        self.assert_usage_error(capsys, ["eval", "--model", str(model), "--input", "[0]"],
                                f"{model}: a model must be a JSON object, got {payload}")

    # a one-layer euclidean:1 model and the malformed variants of it
    MODEL = {"layers": [{"weights": [[1.0]], "bias": [0.0]}], "activation": {"name": "exp"},
             "domain": "euclidean:1", "codomain": "euclidean:1", "base_x": [0.0],
             "base_y": [0.0]}

    @pytest.mark.parametrize("change,message", [
        ({"layers": [{"weights": "abc", "bias": [0.0]}]},
         "malformed network dictionary: could not convert string to float: 'abc'"),
        ({"layers": [{"weights": [[1, "x"]], "bias": [0.0]}]},
         "malformed network dictionary: could not convert string to float: 'x'"),
        ({"base_x": "abc"}, "malformed GDN dictionary: could not convert string to float: 'abc'"),
        ({"domain": 5}, "a manifold identifier must be a string, got 5"),
    ], ids=["weights-abc", "weights-x", "base_x-abc", "domain-5"])
    def test_malformed_model_values(self, capsys, tmp_path, change, message):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(self.MODEL))
        assert run(capsys, "eval", "--model", str(model), "--input", "[0.5]")[0] == 0
        model.write_text(json.dumps({**self.MODEL, **change}))
        code, out, err = run(capsys, "eval", "--model", str(model), "--input", "[0.5]")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("key,needle", [
        ("domain", "a manifold identifier must be a string, got 5"),
        ("target", "a target name must be a string, got 5"),
    ], ids=["domain", "target"])
    def test_bench_run_name_not_a_string(self, capsys, tmp_path, key, needle):
        self.bench(capsys, tmp_path, {**TestBench.CONFIG["runs"][0], key: 5}, needle)

    def test_bench_run_missing_codomain(self, capsys, tmp_path):
        run_ = {k: v for k, v in TestBench.CONFIG["runs"][0].items() if k != "codomain"}
        self.bench(capsys, tmp_path, run_, "codomain")

    def test_bench_run_radius_not_a_number(self, capsys, tmp_path):
        self.bench(capsys, tmp_path, {**TestBench.CONFIG["runs"][0], "radius": "abc"},
                   "'abc'")

    @pytest.mark.parametrize("key, value, needle", [
        ("grid", 1.5, "grid must be an integer, got 1.5"),
        ("grid", "7", "grid must be an integer, got '7'"),
        ("grid", True, "grid must be an integer, got True"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", 1.0, "seed must be an integer, got 1.0"),
        ("radius", True, "radius must be a number, got True"),
        ("radius", [1.0], "radius must be a number, got [1.0]"),
        ("eps", "0.1", "eps must be a number, got '0.1'"),
        ("eps", False, "eps must be a number, got False"),
    ])
    def test_bench_run_number_of_the_wrong_json_type(self, capsys, tmp_path, key, value,
                                                     needle):
        self.bench(capsys, tmp_path, {**TestBench.CONFIG["runs"][0], key: value}, needle)

    def test_bench_run_integer_past_the_float_range(self, capsys, tmp_path):
        self.bench(capsys, tmp_path, {**TestBench.CONFIG["runs"][0], "radius": 10 ** 400},
                   "int too large to convert to float")

    def test_bench_run_integer_radius_and_eps_are_numbers(self, capsys, tmp_path):
        run_ = {**TestBench.CONFIG["runs"][0], "radius": 1, "eps": 1}
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"runs": [run_]}))
        assert run(capsys, "bench", str(cfg))[0] == 0

    def test_bench_run_nan_eps(self, capsys, tmp_path):
        for eps in (float("nan"), float("inf")):
            self.bench(capsys, tmp_path, {**TestBench.CONFIG["runs"][0], "eps": eps},
                       "eps must be positive")

    def test_bench_run_not_an_object(self, capsys, tmp_path):
        self.bench(capsys, tmp_path, 1, "a run must be a JSON object, got 1")

    def test_bench_runs_not_a_list(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps({"runs": {"a": 1}}))
        self.assert_usage_error(capsys, ["bench", str(cfg)], "non-empty 'runs' list")

    @pytest.mark.parametrize("command", ["compile", "eval", "bench"])
    def test_directory_in_place_of_a_file(self, capsys, tmp_path, command):
        argv = {"compile": self.COMPILE + ["--out", str(tmp_path)],
                "eval": ["eval", "--model", str(tmp_path), "--input", "[0]"],
                "bench": ["bench", str(tmp_path)]}[command]
        self.assert_usage_error(capsys, argv, str(tmp_path))

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_certify_out_is_refused_before_certifying(self, capsys, tmp_path,
                                                                 monkeypatch, where):
        def refuse(*args, **kwargs):
            raise AssertionError("certified before the output path was checked")

        monkeypatch.setattr(gdn.approx.certify, "certify_efficient", refuse)
        ds = tmp_path / "ds.csv"
        ds.write_text("0\n0.5\n1\n")
        out = tmp_path if where == "directory" else tmp_path / "missing" / "c.json"
        code, stdout, err = run(capsys, "certify", "--dataset", str(ds), "--values", str(ds),
                                "--domain", "euclidean:1", "--codomain", "euclidean:1",
                                "--base-x", "[0]", "--base-y", "[0]", "--out", str(out))
        message = "is a directory" if where == "directory" else f"no directory {out.parent}"
        assert (code, stdout, err) == (2, "", f"error: --out {out}: {message}\n")
        assert list(tmp_path.iterdir()) == [ds]

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_is_refused_before_compiling(self, capsys, tmp_path,
                                                        monkeypatch, where):
        def refuse(*args, **kwargs):
            raise AssertionError("compiled before the output path was checked")

        monkeypatch.setattr(gdn.assemble, "compile_gdn", refuse)
        out = tmp_path if where == "directory" else tmp_path / "missing" / "m.json"
        self.assert_usage_error(capsys, self.COMPILE + ["--out", str(out)], str(out))
        assert list(tmp_path.iterdir()) == []

    def test_malformed_bench_config(self, capsys, tmp_path):
        cfg = tmp_path / "bench.json"
        cfg.write_text('{"runs": [')
        self.assert_usage_error(capsys, ["bench", str(cfg)], "malformed JSON")

    def test_malformed_model_file(self, capsys, tmp_path):
        model = tmp_path / "model.json"
        model.write_text("{not json")
        self.assert_usage_error(capsys, ["eval", "--model", str(model), "--input", "[0]"],
                                "malformed JSON")

    def test_malformed_modulus_file(self, capsys, tmp_path):
        mod = tmp_path / "mod.json"
        mod.write_text('{"knots": [0.0,')
        self.assert_usage_error(
            capsys, ["estimate", "--class", "smooth", "--p", "1", "--m", "1",
                     "--eps", "0.1", "--delta", "0.5", "--modulus-file", str(mod),
                     "--kappa1", "1", "--kappa2", "1"], "malformed JSON")

    @pytest.mark.parametrize("payload, needle", [
        ({"knots": [0.0, "a"], "values": [0.0, 1.0]},
         "malformed modulus file: could not convert string to float: 'a'"),
        ({"knots": [0.0, 1.0], "values": [0.0, "a"]},
         "malformed modulus file: could not convert string to float: 'a'"),
        ([1, 2], "a modulus file must be a JSON object, got [1, 2]"),
        ({"knots": [[0, 1]], "values": [[0, 1]]},
         "knots and values must be non-empty, aligned 1-D arrays"),
        ({"knots": [0.0, 1.0]}, "malformed modulus file: 'values'"),
    ], ids=["knot-a", "value-a", "list", "2-D", "no-values"])
    def test_malformed_modulus_values(self, capsys, tmp_path, payload, needle):
        mod = tmp_path / "mod.json"
        mod.write_text(json.dumps(payload))
        self.assert_usage_error(
            capsys, ["estimate", "--class", "smooth", "--p", "1", "--m", "1",
                     "--eps", "0.1", "--delta", "0.5", "--modulus-file", str(mod),
                     "--kappa1", "1", "--kappa2", "1"], needle)
