"""Pinned help and error text of ``gdn``: stdout, stderr and exit code of each
argv below, byte for byte, at an 80-column terminal.  A call whose argv[0]
names a command builds that command's subparser alone, and any other call
builds all five with only the command's arguments; these pin that the help,
the version, the usage errors and ``cmd_estimate``'s ``parser.error`` read
the same either way.  The text is argparse's on Python 3.11.  Two compile
refusals that ``compile_gdn`` raises before any oracle call are pinned with
them.  The count of parsers each kind of call builds is checked below.
"""
import argparse

import pytest

from gdn.cli import _COMMANDS, build_parser, main

TOP_HELP = (
    "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
    "\n"
    "Geometric deep networks: estimators, constructive compilation, dataset\n"
    "certification, and benchmarks.\n"
    "\n"
    "positional arguments:\n"
    "  {estimate,compile,eval,certify,bench}\n"
    "    estimate            depth/width/parameter estimates\n"
    "    compile             compile a target into a GDN\n"
    "    eval                evaluate a saved net or GDN\n"
    "    certify             certify dataset efficiency\n"
    "    bench               batch compile-and-audit runs\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --version             show program's version number and exit\n"
)

# name -> (argv, exit code, stdout, stderr)
PINNED = {
    "help": (
        ["-h"], 0,
        TOP_HELP,
        "",
    ),
    "version": (
        ["--version"], 0,
        "0.1.0\n",
        "",
    ),
    "no-command": (
        [], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: the following arguments are required: command\n",
    ),
    "unknown-command": (
        ["bogus"], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: argument command: invalid choice: 'bogus' (choose from "
        "'estimate', 'compile', 'eval', 'certify', 'bench')\n",
    ),
    "double-dash": (
        ["--", "eval", "--model", "x", "--input", "[0]"], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: argument command: invalid choice: '--' (choose from "
        "'estimate', 'compile', 'eval', 'certify', 'bench')\n",
    ),
    "estimate-help": (
        ["estimate", "-h"], 0,
        "usage: gdn estimate [-h] [--class {smooth,poly,continuous}] --p P --m "
        "M --eps\n"
        "                    EPS [--delta DELTA] [--lip LIP]\n"
        "                    [--modulus-file MODULUS_FILE] [--kappa1 KAPPA1]\n"
        "                    [--kappa2 KAPPA2] [--B B] [--sigma-lip SIGMA_LIP]\n"
        "                    [--efficient-n EFFICIENT_N]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --class {smooth,poly,continuous}\n"
        "  --p P\n"
        "  --m M\n"
        "  --eps EPS\n"
        "  --delta DELTA\n"
        "  --lip LIP\n"
        "  --modulus-file MODULUS_FILE\n"
        "  --kappa1 KAPPA1\n"
        "  --kappa2 KAPPA2\n"
        "  --B B\n"
        "  --sigma-lip SIGMA_LIP\n"
        "                        Lipschitz constant of the activation (continuous\n"
        "                        class)\n"
        "  --efficient-n EFFICIENT_N\n"
        "                        report polynomial rates for an n-efficient dataset\n",
        "",
    ),
    "compile-help": (
        ["compile", "-h"], 0,
        "usage: gdn compile [-h] --target TARGET --domain DOMAIN --codomain CODOMAIN\n"
        "                   --base-x BASE_X [--base-y BASE_Y] --radius RADIUS "
        "--eps EPS\n"
        "                   [--activation ACTIVATION] [--lip LIP] [--grid GRID]\n"
        "                   [--seed SEED] [--out OUT] [--verticalize LO,HI]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --target TARGET\n"
        "  --domain DOMAIN\n"
        "  --codomain CODOMAIN\n"
        "  --base-x BASE_X\n"
        "  --base-y BASE_Y\n"
        "  --radius RADIUS\n"
        "  --eps EPS\n"
        "  --activation ACTIVATION\n"
        "  --lip LIP             Lipschitz constant of the target (optional)\n"
        "  --grid GRID           audit sample count\n"
        "  --seed SEED\n"
        "  --out OUT\n"
        "  --verticalize LO,HI   rewrite the core deep-narrow over the given box: one\n"
        "                        layer per hidden unit that an output reads, carrying\n"
        "                        registers exactly (piecewise-linear activation) or\n"
        "                        through a small smooth window (smooth activation)\n",
        "",
    ),
    # cube corners at 2.23 * sqrt(2) = 3.1537, past inj(sphere:2) = pi
    "compile-corners-past-inj": (
        ["compile", "--target", "rotation", "--domain", "sphere:2", "--codomain",
         "sphere:2", "--base-x", "[0,0,1]", "--radius", "2.23", "--eps", "0.1"], 2,
        "",
        "error: radius * sqrt(p) must be below inj(3.141592653589793), since the "
        "pullback reads the cube corners at that tangent norm; got 3.153696244092002 "
        "(radius 2.23, p = 2)\n",
    ),
    "compile-piecewise-linear-activation": (
        ["compile", "--target", "rotation", "--domain", "sphere:2", "--codomain",
         "sphere:2", "--base-x", "[0,0,1]", "--radius", "1", "--eps", "0.1",
         "--activation", "relu"], 2,
        "",
        "error: shallow synthesis needs a smooth non-polynomial activation, got "
        "piecewise-linear\n",
    ),
    "eval-help": (
        ["eval", "-h"], 0,
        "usage: gdn eval [-h] --model MODEL --input INPUT\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --model MODEL\n"
        "  --input INPUT\n",
        "",
    ),
    "certify-help": (
        ["certify", "-h"], 0,
        "usage: gdn certify [-h] --dataset DATASET --values VALUES --domain DOMAIN\n"
        "                   --codomain CODOMAIN --base-x BASE_X --base-y BASE_Y\n"
        "                   [--out OUT]\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --dataset DATASET\n"
        "  --values VALUES\n"
        "  --domain DOMAIN\n"
        "  --codomain CODOMAIN\n"
        "  --base-x BASE_X\n"
        "  --base-y BASE_Y\n"
        "  --out OUT\n",
        "",
    ),
    "bench-help": (
        ["bench", "-h"], 0,
        "usage: gdn bench [-h] [--out OUT] [--timing] config\n"
        "\n"
        "positional arguments:\n"
        "  config      bench config JSON path\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT\n"
        "  --timing    append wall-clock times (breaks byte-identical reports)\n",
        "",
    ),
    "estimate-no-class": (
        ["estimate", "--p", "1", "--m", "1", "--eps", "0.1"], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: either --class or --efficient-n is required\n",
    ),
    "eval-model-without-value": (
        ["eval", "--model"], 2,
        "",
        "usage: gdn eval [-h] --model MODEL --input INPUT\n"
        "gdn eval: error: argument --model: expected one argument\n",
    ),
    # the command's arguments are added though the command is not argv[0]
    "option-before-command": (
        ["--foo", "eval", "--model", "x", "--input", "[0]"], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: unrecognized arguments: --foo\n",
    ),
    # an option of the top level before the command: all five are built
    "help-before-command": (
        ["-h", "eval"], 0,
        TOP_HELP,
        "",
    ),
    "long-help-before-command": (
        ["--help", "compile"], 0,
        TOP_HELP,
        "",
    ),
    # the command's subparser alone, its usage still listing all five
    "unrecognized-after-command": (
        ["eval", "--model", "x", "--input", "[0]", "--bogus"], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: unrecognized arguments: --bogus\n",
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_cli_text_is_pinned(capsys, monkeypatch, name):
    argv, code, stdout, stderr = PINNED[name]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(list(argv))
    except SystemExit as e:
        got = e.code
    out = capsys.readouterr()
    assert (got, out.out, out.err) == (code, stdout, stderr)



# argv -> ArgumentParser instances one call builds: the top level and the
# subparsers built.  Counts, as wall time on a shared host is not repeatable
PARSERS_BUILT = [
    (["eval", "--model", "x", "--input", "[0]"], 2),
    (["compile", "--target", "rotation"], 2),
    (["-h"], 1 + len(_COMMANDS)),
    (["--foo", "eval", "--model", "x", "--input", "[0]"], 1 + len(_COMMANDS)),
]


@pytest.mark.parametrize("argv,count", PARSERS_BUILT)
def test_parsers_built_per_call(capsys, monkeypatch, argv, count):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    try:
        main(list(argv))
    except SystemExit:
        pass
    assert len(built) == count


def _subparsers(argv):
    [sub] = [a for a in build_parser(argv)._actions
             if isinstance(a, argparse._SubParsersAction)]
    return sub


def test_one_subparser_usage_lists_every_command():
    sub = _subparsers(["eval"])
    assert list(sub.choices) == ["eval"]
    assert sub.metavar == "{" + ",".join(_COMMANDS) + "}"
    sub = _subparsers(["-h", "eval"])
    assert list(sub.choices) == list(_COMMANDS) and sub.metavar is None
