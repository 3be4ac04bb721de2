"""The command line grammar, `quadalg <command> <file|-> [--max-degree N]
[--sigma id|nakayama|file] [--exit-zero]`, parsed directly and held to the
argparse parser it replaced (helpers.REFERENCE_PARSER): on every argv both
give the same values, both print the help and exit 0, or both refuse it
with exit 2.
"""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import example, given, settings, strategies as st
import pytest

from helpers import REFERENCE_PARSER
from quadalg import cli
from quadalg.cli import main

COMMAND_WORDS = st.sampled_from(sorted(cli.COMMANDS) + ["nosuch", "hilb"])
FILE_WORDS = st.sampled_from(["kxy.json", "-", "-3", "two words", ""])
DEGREE_NAMES = st.sampled_from(["--max-degree", "--max", "--m"])
DEGREES = st.sampled_from(["2", "4", "20001", "-3", "0", "1_0", "x", "2.5",
                           "", "-x"])
SIGMA_NAMES = st.sampled_from(["--sigma", "--sig", "--s"])
SIGMAS = st.sampled_from(["id", "nakayama", "file", "bad", "", "-x"])
FLAGS = st.sampled_from(["--exit-zero", "--exit", "--e", "--exit-zero=1",
                         "--e="])
HELP = st.sampled_from(["-h", "--help", "--he"])
UNKNOWN = st.sampled_from(["--bogus", "-x", "--max-degree-x"])


@st.composite
def option_items(draw):
    """(kind, arguments) of one option: --max-degree or --sigma with its
    value given separately or after `=`, or left out, a flag, a help
    request or an unknown option."""
    kind = draw(st.sampled_from(["degree", "sigma"] * 3 + [
        "flag", "bare", "help", "unknown"]))
    if kind in ("degree", "sigma", "bare"):
        names, values = ((DEGREE_NAMES, DEGREES)
                         if kind == "degree" or draw(st.booleans())
                         else (SIGMA_NAMES, SIGMAS))
        name = draw(names)
        if kind == "bare":
            return "bare", [name]
        value = draw(values)
        return "option", draw(st.sampled_from([[name, value],
                                               [f"{name}={value}"]]))
    return "option", [draw({"flag": FLAGS, "help": HELP,
                            "unknown": UNKNOWN}[kind])]


@st.composite
def argvs(draw):
    """An argv of the grammar with its ordinary mistakes: a command and a
    file, or fewer, or one more positional, in order, with options placed
    anywhere among them, repeated or not.  At most one `--` goes in,
    before a positional that follows no option missing its value: there
    every supported Python's argparse reads `--` alike."""
    items = [("positional", [draw(COMMAND_WORDS)]),
             ("positional", [draw(FILE_WORDS)]),
             ("positional", [draw(FILE_WORDS)])
             ][:draw(st.sampled_from([2, 2, 2, 0, 1, 3]))]
    for option in draw(st.lists(option_items(), max_size=4)):
        items.insert(draw(st.integers(0, len(items))), option)
    places = [i for i, (kind, _) in enumerate(items) if kind == "positional"
              and (i == 0 or items[i - 1][0] != "bare")]
    if places and draw(st.booleans()):
        items.insert(draw(st.sampled_from(places)), ("separator", ["--"]))
    return [arg for _, args in items for arg in args]


def _outcome(parse, argv):
    """The values a parse gives, or its exit code with whether it wrote
    to stdout and to stderr."""
    out, err = StringIO(), StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(list(argv))
    except SystemExit as exc:
        return exc.code, bool(out.getvalue()), bool(err.getvalue())
    return {name: getattr(args, name) for name in cli.Args._fields}


@settings(max_examples=400, deadline=None)
@given(argvs())
@example(["hilbert", "kxy.json", "--max-degree", "4"])
@example(["--sigma=id", "cy", "--exit-zero", "-", "--max", "6"])
@example(["cy", "-", "--sigma", "id", "--sigma", "file"])
@example(["hilbert", "--", "--exit-zero"])
@example(["hilbert", "kxy.json", "--max-degree", "-3"])
@example(["nosuch", "-h"])
@example(["hilbert", "-h", "nosuch"])
@example(["hilbert", "kxy.json", "--exit-zero", "--"])
@example(["hilbert", "kxy.json", "--"])
def test_the_grammar_parses_as_argparse_did(argv):
    expected = _outcome(REFERENCE_PARSER.parse_args, argv)
    assert _outcome(cli._parse_args, argv) == expected
    if isinstance(expected, tuple):
        code, wrote_out, wrote_err = expected
        assert (code, wrote_out, wrote_err) in ((0, True, False),
                                                (2, False, True))


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_the_usage_on_stdout(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith(cli.USAGE + "\n")
    for option in ("--max-degree", "--sigma", "--exit-zero", "--help"):
        assert option in out
    assert err == ""


def test_a_usage_error_exits_2_on_stderr_alone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcommand", "x"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: quadalg ")
    assert "quadalg: error: invalid command 'nosuchcommand'" in err


def test_the_cli_does_not_import_argparse():
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, quadalg.cli; sys.exit('argparse' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], cwd=src,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_the_cli_loads_neither_dataclasses_nor_inspect():
    # in a bare interpreter (-S, no site module) importing the CLI loads
    # neither: dataclasses generates its methods by exec, and it and
    # inspect pull in ast, dis and tokenize, more start-up time than the
    # package's own modules take
    src = Path(cli.__file__).resolve().parent.parent
    code = ("import sys, quadalg.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_importing_the_cli_compiles_no_annotation():
    # a record field annotated by a string becomes a typing.ForwardRef,
    # which compiles the string; after the standard library modules the
    # benchmark child loads first, importing the CLI compiles no source
    # string (a module loaded without cached bytecode compiles bytes)
    src = Path(cli.__file__).resolve().parent.parent
    code = "\n".join((
        "import argparse, builtins, contextlib, importlib, io, json",
        "import pkgutil, resource, sys, time, pathlib",
        "compiled = []",
        "real = builtins.compile",
        "def counted(source, *args, **kwargs):",
        "    if isinstance(source, str):",
        "        compiled.append(source)",
        "    return real(source, *args, **kwargs)",
        "builtins.compile = counted",
        "import quadalg.cli",
        "print(compiled)"))
    run = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
