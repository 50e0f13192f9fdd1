"""Pinned help and error text of ``gdn``: stdout, stderr and exit code of each
argv below, byte for byte, at an 80-column terminal.  A call whose argv[0]
names a command parses with that command's own parser, and the full parser
(the top level and all five subparsers) is built only for the top-level
help and version, an argv that does not start with a command, arguments
left over, and ``cmd_estimate``'s usage errors; these pin that every kind of
call reads as the full parser alone would print it.  The text is
argparse's on Python 3.11.  Two compile refusals that ``compile_gdn``
raises before any oracle call are pinned with them.  Below, the count of
parsers each kind of call builds, and the namespaces of both parsers.
"""
import argparse

import pytest

from gdn.cli import _COMMANDS, build_parser, command_parser, main, parse_argv

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

COMPILE_USAGE = (
    "usage: gdn compile [-h] --target TARGET --domain DOMAIN --codomain CODOMAIN\n"
    "                   --base-x BASE_X [--base-y BASE_Y] --radius RADIUS "
    "--eps EPS\n"
    "                   [--activation ACTIVATION] [--lip LIP] [--grid GRID]\n"
    "                   [--seed SEED] [--out OUT] [--verticalize LO,HI]\n"
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
        COMPILE_USAGE +
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
        "                        registers through a small first-order window of the\n"
        "                        smooth activation\n",
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
    # left over by the command's parser: the full parser reports it
    "unrecognized-after-command": (
        ["eval", "--model", "x", "--input", "[0]", "--bogus"], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: unrecognized arguments: --bogus\n",
    ),
    # --version belongs to the top level alone, so after a command it is left over
    "version-after-command": (
        ["eval", "--model", "x", "--input", "[0]", "--version"], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: unrecognized arguments: --version\n",
    ),
    "estimate-continuous-without-B": (
        ["estimate", "--class", "continuous", "--p", "1", "--m", "1", "--eps", "0.1",
         "--delta", "0.5", "--kappa1", "1", "--kappa2", "1", "--lip", "1"], 2,
        "",
        "usage: gdn [-h] [--version] {estimate,compile,eval,certify,bench} ...\n"
        "gdn: error: --class continuous requires --B\n",
    ),
    "compile-ambiguous-abbreviation": (
        ["compile", "--b", "[0]", "--target", "rotation"], 2,
        "",
        COMPILE_USAGE +
        "gdn compile: error: ambiguous option: --b could match --base-x, --base-y\n",
    ),
    "compile-missing-required": (
        ["compile", "--target", "rotation"], 2,
        "",
        COMPILE_USAGE +
        "gdn compile: error: the following arguments are required: --domain, "
        "--codomain, --base-x, --radius, --eps\n",
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



# argv -> ArgumentParser instances one call builds: the command's own parser,
# the full parser's top level and five subparsers, or both.  Counts, as wall
# time on a shared host is not repeatable
FULL = 1 + len(_COMMANDS)
PARSERS_BUILT = [
    (["eval", "--model", "x", "--input", "[0]"], 1),
    (["compile", "--target", "rotation"], 1),
    (["-h"], FULL),
    (["--foo", "eval", "--model", "x", "--input", "[0]"], FULL),
    (["eval", "--model", "x", "--input", "[0]", "--version"], 1 + FULL),
    (["eval", "--model", "x", "--input", "[0]", "--bogus"], 1 + FULL),
    (["estimate", "--p", "1", "--m", "1", "--eps", "0.1"], 1 + FULL),
    (["compile", "--b", "[0]", "--target", "rotation"], 1),
    (["bench", "-h"], 1),
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


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_command_parser_is_the_full_parsers_subparser(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    [sub] = [a for a in build_parser([name])._actions
             if isinstance(a, argparse._SubParsersAction)]
    full, own = sub.choices[name], command_parser(name)
    assert own.prog == full.prog == f"gdn {name}"
    assert own.format_help() == full.format_help()


# argvs the command's own parser parses with nothing left over
SAME_NAMESPACE = {
    "estimate-defaults": ["estimate", "--p", "2", "--m", "1", "--eps", "0.1"],
    "estimate-equals-and-negative": [
        "estimate", "--class=smooth", "--p=2", "--m", "1", "--eps", "-0.5",
        "--kappa1", "-2", "--delta=1e-3"],
    "compile-defaults": [
        "compile", "--target", "rotation", "--domain", "sphere:2", "--codomain",
        "sphere:2", "--base-x", "[0,0,1]", "--radius", "1", "--eps", "0.1"],
    "compile-abbreviations": [
        "compile", "--tar", "rotation", "--dom", "sphere:2", "--cod=sphere:2",
        "--base-x=[0,0,1]", "--rad", "-1", "--eps", "-.01", "--verticalize=-1,1",
        "--seed", "-3", "--act", "tanh"],
    "eval-abbreviations": ["eval", "--mod", "m.json", "--in", "[-1, 2]"],
    "eval-equals": ["eval", "--model=m.json", "--input=[0.5]"],
    "certify": [
        "certify", "--dataset", "d.csv", "--values", "v.csv", "--domain",
        "euclidean:2", "--codomain", "euclidean:1", "--base-x", "[0,0]",
        "--base-y", "[0]", "--out", "c.json"],
    "bench-defaults": ["bench", "cfg.json"],
    "bench-timing": ["bench", "--timing", "cfg.json", "--out=o.csv"],
    "bench-double-dash": ["bench", "--out", "o.csv", "--timing", "--", "-cfg.json"],
    "bench-double-dash-option": ["bench", "--", "--timing"],
}


@pytest.mark.parametrize("name", list(SAME_NAMESPACE))
def test_command_parser_gives_the_full_parsers_namespace(name):
    argv = SAME_NAMESPACE[name]
    args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
    assert extras == []
    full = vars(build_parser(argv).parse_args(argv))
    assert vars(parse_argv(argv)) == full == {**vars(args), "command": argv[0]}
