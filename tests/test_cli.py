import argparse
import ast
import math
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from hilbchow import cli
from hilbchow.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture
def commuting(tmp_path):
    p = tmp_path / "commuting.pres"
    p.write_text("field Q\ngens x1 x2\nrel x1*x2 - x2*x1\n")
    return str(p)


@pytest.fixture
def ptfile(tmp_path):
    # the (x^2, y) point: x nilpotent, y zero, marked vector e2
    p = tmp_path / "pt.point"
    p.write_text("point\nfield Q\nn 2\nmat 0 1; 0 0\nmat 0 0; 0 0\nvec 0 1\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rep_ideal_command(capsys, commuting):
    code, out, _ = run(capsys, "rep-ideal", "--presentation", commuting,
                       "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rep-ideal"
    gens = [ln for ln in lines if ln.startswith("gen ")]
    assert len(gens) == 4
    # printed in a fixed order; each is an entry of the generic commutator
    assert gens == sorted(gens, key=lambda ln: lines.index(ln))


def test_check_rep_command(capsys, commuting):
    code, out, _ = run(capsys, "check-rep", "--presentation", commuting,
                       "--point", "point|field Q|n 2|mat 1 0; 0 2|mat 3 0; 0 4")
    assert code == 0 and out == "is-representation true\n"
    code, out, _ = run(capsys, "check-rep", "--presentation", commuting,
                       "--point", "point|field Q|n 2|mat 0 1; 0 0|mat 0 0; 1 0")
    assert code == 0 and out == "is-representation false\n"


def test_cyclic_command_and_violation(capsys, commuting, ptfile):
    code, out, _ = run(capsys, "cyclic", "--presentation", commuting,
                       "--point", ptfile)
    assert code == 0
    assert out == "cyclic true\nspan-dim 2\n"
    code, _, err = run(capsys, "cyclic", "--presentation", commuting,
                       "--point", "point|field Q|n 2|mat 0 1; 0 0|mat 0 0; 0 0|vec 1 0")
    assert code == 3
    assert "dimension 1" in err


def test_triple_to_ideal_and_back(capsys, commuting, ptfile, tmp_path):
    code, out, _ = run(capsys, "triple-to-ideal", "--presentation", commuting,
                       "--point", ptfile)
    assert code == 0
    assert out.splitlines()[0] == "ideal-presentation"
    ideal_file = tmp_path / "ideal.txt"
    ideal_file.write_text(out)
    code2, out2, _ = run(capsys, "ideal-to-triple", "--presentation", commuting,
                         "--point", str(ideal_file))
    assert code2 == 0
    assert out2.splitlines()[0] == "point"


def test_equiv_command(capsys, commuting, ptfile):
    code, out, _ = run(capsys, "equiv", "--presentation", commuting,
                       "--point", ptfile, "--point", ptfile)
    assert code == 0
    assert out.splitlines()[0] == "equivalent"
    assert out.splitlines()[1] == "g 1 0; 0 1"
    other = "point|field Q|n 2|mat 0 2; 0 0|mat 0 0; 0 0|vec 0 1"
    code, out, _ = run(capsys, "equiv", "--presentation", commuting,
                       "--point", ptfile, "--point", other)
    assert code == 0


def test_equiv_reads_both_points(capsys, commuting, ptfile):
    # an empty second point is a truncated block, not the first point again
    code, out, err = run(capsys, "equiv", "--presentation", commuting,
                         "--point", ptfile, "--point", "")
    assert (code, out, err) == (2, "", "error: truncated point block\n")


def test_stab_command(capsys, commuting, ptfile):
    code, out, _ = run(capsys, "stab", "--presentation", commuting,
                       "--point", ptfile)
    assert code == 0 and out == "stabilizer-trivial true\n"
    # a non-cyclic point: one precondition line, from the one cyclicity check
    code, out, err = run(capsys, "stab", "--presentation", commuting, "--point",
                         "point|field Q|n 2|mat 0 1; 0 0|mat 0 0; 0 0|vec 1 0")
    assert (code, out) == (3, "")
    assert err == "error: not cyclic: word span has dimension 1 < 2\n"


def test_invariants_command(capsys, commuting, ptfile):
    code, out, _ = run(capsys, "invariants", "--presentation", commuting,
                       "--point", ptfile, "--max-len", "2")
    assert code == 0
    assert out.splitlines()[0] == "invariant-table"
    assert "tr x1 = 0" in out


def test_gamma_command(capsys):
    code, out, _ = run(capsys, "gamma", "--expr", "x1+x2", "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "symtensor"
    assert "term {x1, x2} = 1" in out
    # degree 0 is the empty multiset with coefficient 1
    code, out, _ = run(capsys, "gamma", "--expr", "x1+x2", "--n", "0")
    assert (code, out) == (0, "symtensor\nfield Q\nm 2\ndegree 0\nterm {} = 1\n")


def test_dp_normalize_command(capsys):
    code, out, _ = run(capsys, "dp-normalize", "--expr", "x1^[1]*x1^[1]")
    assert code == 0
    assert "term (x1)^[2] = 2" in out
    code, out, _ = run(capsys, "dp-normalize", "--expr", "x1^[1]*x1^[1]",
                       "--field", "F2")
    assert code == 0
    assert "term" not in out  # 2 x^[2] vanishes over F_2


def test_law_coeffs_command(capsys, commuting, ptfile):
    code, out, _ = run(capsys, "law-coeffs", "--presentation", commuting,
                       "--point", ptfile, "--args", "1; x1")
    assert code == 0
    assert "coeff (2,0) = 1" in out


def test_hc_and_det_point_commands(capsys, commuting, ptfile):
    code, out, _ = run(capsys, "hc", "--presentation", commuting,
                       "--point", ptfile)
    assert code == 0
    assert "charpoly x1 = t^2" in out and "charpoly x2 = t^2" in out
    code2, out2, _ = run(capsys, "det-point", "--presentation", commuting,
                         "--point", ptfile)
    assert code2 == 0 and out2 == out
    # hc on a non-cyclic point: precondition exit
    bad = "point|field Q|n 2|mat 0 1; 0 0|mat 0 0; 0 0|vec 1 0"
    code3, _, err = run(capsys, "hc", "--presentation", commuting,
                        "--point", bad)
    assert code3 == 3


def test_cycle_command(capsys, commuting, ptfile):
    code, out, _ = run(capsys, "cycle", "--presentation", commuting,
                       "--point", ptfile)
    assert code == 0
    assert "point (0, 0) * 2" in out
    # split failure is a first-class result, not an error
    pres = "field Q|gens x1"
    comp = "point|field Q|n 2|mat 0 -1; 1 0"
    code2, out2, _ = run(capsys, "cycle", "--presentation", pres,
                         "--point", comp)
    assert code2 == 0
    assert out2.splitlines()[0] == "split-failure"
    assert "charpoly t^2 + 1" in out2
    # the second generator's charpoly (t^2 + 1)(t - 5)(t - 6) is named whole
    pt = "point|field Q|n 4|mat 1 0 0 0; 0 1 0 0; 0 0 2 0; 0 0 0 2" \
         "|mat 0 -1 0 0; 1 0 0 0; 0 0 5 0; 0 0 0 6"
    code3, out3, _ = run(capsys, "cycle", "--presentation", commuting, "--point", pt)
    assert (code3, out3) == (0, "split-failure\nfield Q\n"
                                "charpoly t^4 - 11*t^3 + 31*t^2 - 11*t + 30\n")


def test_cycle_rejects_non_commutative_presentation(capsys):
    pres = "field Q|gens x1 x2"
    pt = "point|field Q|n 1|mat 1|mat 2"
    code, _, err = run(capsys, "cycle", "--presentation", pres, "--point", pt)
    assert code == 3
    assert "commutative" in err


def test_enumerate_command(capsys):
    pres = "field F 2|gens x1"
    code, out, err = run(capsys, "enumerate", "--presentation", pres,
                         "--n", "2")
    assert code == 0
    assert "orbit-count 4" in out
    assert "elapsed-ms" not in out  # stdout is byte-stable
    assert "elapsed" in err
    code2, _, err2 = run(capsys, "enumerate", "--presentation", pres,
                         "--n", "2", "--budget", "3")
    assert code2 == 4
    code3, out3, _ = run(capsys, "enumerate", "--presentation", pres,
                         "--n", "2", "--workers", "2")
    assert code3 == 0 and out3 == out


# the count is written out up to the square of the budget and named as a
# power past it, so a sweep far past the budget is one short refusal, and
# one whose count has more than 4300 digits is no int-to-str traceback
@pytest.mark.parametrize("pres,n,budget,count", [
    ("field F 2|gens x1", 3000, 2 ** 30, "2^9000000"),
    ("field F 1000003|gens x1", 800, 2 ** 30, "1000003^640000"),
    ("field F 2|gens x1", 100, 2 ** 30, "2^10000"),
    ("field F 3|gens x1 x2", 2, 1000, "6561"),
], ids=["digits-past-the-limit", "large-q", "long-line", "written-out"])
def test_sweep_budget_refusal_is_one_short_line(capsys, pres, n, budget, count):
    code, out, err = run(capsys, "enumerate", "--presentation", pres,
                         "--n", str(n), "--budget", str(budget))
    assert (code, out) == (4, "")
    assert err == (f"error: a sweep would test {count} candidate tuples, "
                   f"more than the limit of {budget}\n")


def test_malformed_budget_env_exit_code(capsys, monkeypatch):
    # a budget that is not an integer is malformed input, not a traceback
    monkeypatch.setenv("HILBCHOW_BUDGET", "abc")
    code, out, err = run(capsys, "enumerate", "--presentation",
                         "field F 2|gens x1", "--n", "1")
    assert (code, out) == (2, "")
    assert err == "error: bad HILBCHOW_BUDGET value 'abc'\n"


# the budget is an integer in text, so it follows the ASCII 0-9 rule too
@pytest.mark.parametrize("raw", ["٣", "1_000", " 50"],
                         ids=["arabic-indic", "underscore", "leading-space"])
def test_non_decimal_budget_env_exit_code(capsys, monkeypatch, raw):
    monkeypatch.setenv("HILBCHOW_BUDGET", raw)
    code, out, err = run(capsys, "enumerate", "--presentation",
                         "field F 2|gens x1", "--n", "1")
    assert (code, out) == (2, "")
    assert err == f"error: bad HILBCHOW_BUDGET value {raw!r}\n"


def test_parse_error_exit_code(capsys, commuting):
    code, _, err = run(capsys, "check-rep", "--presentation", commuting,
                       "--point", "point|field Q|n 2|mat 0 1; 0")
    assert code == 2
    code2, _, _ = run(capsys, "rep-ideal", "--presentation", commuting)
    assert code2 == 2  # missing --n


def test_field_mismatch_is_precondition(capsys, commuting):
    code, _, _ = run(capsys, "check-rep", "--presentation", commuting,
                     "--point", "point|field F 2|n 2|mat 0 1; 0 0|mat 0 0; 0 0")
    assert code == 3


# Blocks cut short, or missing a line the block needs: each one must end in
# exit code 2 with a one-line message, never a traceback.
MALFORMED = [
    ("hc", "point"),
    ("hc", "point|field Q"),
    ("det-point", "point"),
    ("det-point", "point|field Q"),
    ("cyclic", "point"),
    ("cyclic", "point|field Q"),
    ("ideal-to-triple", "ideal-presentation"),
    ("ideal-to-triple", "ideal-presentation|field Q|m 2"),
    ("ideal-to-triple", "ideal-presentation|field Q|m 2|n 1|basis 1|cyclic-index 0"),
    ("ideal-to-triple",
     "ideal-presentation|field Q|m 2|n 1|basis 1|cyclic-index 0|act x1 = 0"),
    ("ideal-to-triple", "ideal-presentation|field Q|m 1|n 1|basis 1|cyclic-index 0|act x1"),
    # scalars are [+|-]a[/b] only, not whatever `Fraction(str)` reads
    ("cyclic", "point|field Q|n 1|mat 1.5e3|mat 0|vec 1"),
    ("cyclic", "point|field F 7|n 1|mat 1_0.5|mat 0|vec 1"),
    ("cyclic", "point|field Q|n 1|mat 1|mat 0|vec 1_0"),
]


@pytest.mark.parametrize("command,block", MALFORMED)
def test_malformed_block_exit_code(capsys, commuting, command, block):
    code, out, err = run(capsys, command, "--presentation", commuting,
                         "--point", block)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# Expressions in each of the three grammars' homes: a denominator that is
# zero in the field, and parentheses nested past the parser's depth limit,
# are malformed input (exit 2), never a traceback.
DEEP = "(" * 600 + "x1" + ")" * 600
BAD_EXPRESSIONS = [
    ("gamma", "--expr", "1/3*x1", "--n", "2", "--field", "F3"),
    ("dp-normalize", "--expr", "1/3*x1^[1]", "--field", "F3"),
    ("rep-ideal", "--presentation", "field F 3|gens x1|rel 1/3*x1", "--n", "1"),
    ("gamma", "--expr", DEEP, "--n", "2"),
    ("dp-normalize", "--expr", DEEP + "^[1]"),
    ("rep-ideal", "--presentation", "field Q|gens x1|rel " + DEEP, "--n", "1"),
]


@pytest.mark.parametrize("argv", BAD_EXPRESSIONS, ids=lambda argv: argv[0])
def test_malformed_expression_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# An integer in text is [+|-]digits in the ASCII digits 0-9 wherever it
# appears, as in a scalar: the prime of a field header, a `key <int>` line,
# an expression's numbers and generator names.  `int` alone would read the
# Arabic-Indic digits and the underscores, and an integer past its digit
# limit would be a traceback.
LONG = "1" * 4301
NON_DECIMAL_INTEGERS = [
    ("cyclic", "--presentation", "field F 7|gens x1|rel x1",
     "--point", "point|field F ٧|n 1|mat 0|vec 1"),
    ("cyclic", "--presentation", "field F 7|gens x1|rel x1",
     "--point", "point|field F 0_7|n 1|mat 0|vec 1"),
    ("cyclic", "--presentation", "field Q|gens x1|rel x1",
     "--point", "point|field Q|n ١|mat 0|vec 1"),
    ("cyclic", "--presentation", "field Q|gens x1|rel x1",
     "--point", "point|field Q|n 0_1|mat 0|vec 1"),
    ("dp-normalize", "--expr", "٣*x1^[1]"),
    ("dp-normalize", "--expr", "x1^[١]"),
    ("gamma", "--expr", LONG + "*x1", "--n", "1"),
    ("gamma", "--expr", "x" + LONG, "--n", "1"),
]


# the integer options read their values by the same rule; argparse's message
# for a value refused before is unchanged
INTEGER_OPTIONS = [
    ("gamma", "--expr", "x1", "--n", "{}"),
    ("invariants", "--presentation", "field Q|gens x1",
     "--point", "point|field Q|n 1|mat 0", "--max-len", "{}"),
    ("enumerate", "--presentation", "field F 2|gens x1", "--n", "1", "--budget", "{}"),
    ("enumerate", "--presentation", "field F 2|gens x1", "--n", "1", "--workers", "{}"),
]


@pytest.mark.parametrize("value", ["٢", "１", " 2", "1_0", "abc"], ids=[
    "arabic-indic", "fullwidth", "leading-space", "underscore", "letters"])
@pytest.mark.parametrize("argv", INTEGER_OPTIONS,
                         ids=["n", "max-len", "budget", "workers"])
def test_non_decimal_integer_option_exit_code(capsys, argv, value):
    code, out, err = run(capsys, *(a.format(value) for a in argv))
    assert (code, out) == (2, "")
    assert err == f"error: argument {argv[-2]}: invalid int value: {value!r}\n"


@pytest.mark.parametrize("argv", NON_DECIMAL_INTEGERS, ids=[
    "prime-arabic", "prime-underscore", "key-arabic", "key-underscore",
    "expr-number", "expr-dp-degree", "expr-long-number", "expr-long-generator"])
def test_non_decimal_integer_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# expressions whose words would have 2^20 and 10^9 letters fail fast
@pytest.mark.parametrize("expr", ["(" * 20 + "x1" + ")^2" * 20, "x1^1000000000"],
                         ids=["squared", "power"])
@pytest.mark.parametrize("argv", [
    ("gamma", "--n", "2", "--expr", "{}"),
    ("dp-normalize", "--expr", "({})^[1]"),
    ("rep-ideal", "--n", "1", "--presentation", "field Q|gens x1|rel {}"),
], ids=lambda argv: argv[0])
def test_oversized_words_exit_code(capsys, argv, expr):
    code, out, err = run(capsys, *(a.format(expr) for a in argv))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "longer than" in err


# word tables of 2^41 - 1 words, or 10^9 + 1 on one generator, are refused
# before any product is formed
FREE2 = ("field Q|gens x1 x2", "point|field Q|n 2|mat 1 2; 3 4|mat 0 1; 1 0")


@pytest.mark.parametrize("argv", [
    ("det-point", "--presentation", FREE2[0], "--point", FREE2[1], "--max-len", "40"),
    ("hc", "--presentation", FREE2[0], "--point", FREE2[1] + "|vec 1 0",
     "--max-len", "40"),
    ("invariants", "--presentation", FREE2[0], "--point", FREE2[1] + "|vec 1 0",
     "--max-len", "40"),
    ("det-point", "--presentation", "field Q|gens x1", "--point",
     "point|field Q|n 2|mat 1 2; 3 4", "--max-len", "1000000000"),
], ids=["det-point", "hc", "invariants", "one-generator"])
def test_oversized_word_tables_exit_code(capsys, argv):
    # the count stops once it passes the limit, so it is a lower bound
    code, out, err = run(capsys, *argv)
    k, words = (2, 131071) if argv[2] == FREE2[0] else (1, 65537)
    assert (code, out, err) == (4, "", f"error: a word table to length {argv[-1]} on "
                                f"{k} matrices has at least {words} words, "
                                "more than the limit of 65536\n")


def test_oversized_gamma_degree_exit_code(capsys):
    code, out, err = run(capsys, "gamma", "--expr", "x1", "--n", "10000000")
    assert (code, out) == (2, "")
    assert err == "error: degree 10000000 exceeds the limit of 10000\n"


# sizes below their least value are precondition failures: exit 3, one line
@pytest.mark.parametrize("argv,message", [
    (("rep-ideal", "--presentation", "field Q|gens x1", "--n", "0"),
     "dimension must be at least 1"),
    (("enumerate", "--presentation", "field F 2|gens x1", "--n", "0"),
     "dimension must be at least 1"),
    (("enumerate", "--presentation", "field F 2|gens x1", "--n", "2", "--workers", "0"),
     "worker count must be at least 1"),
    (("gamma", "--expr", "x1", "--n", "-1"), "degree must be >= 0"),
], ids=["rep-ideal-n", "enumerate-n", "enumerate-workers", "gamma-n"])
def test_undersized_option_exit_code(capsys, argv, message):
    assert run(capsys, *argv) == (3, "", f"error: {message}\n")


# words far longer than the recursion limit evaluate: products are built
# letter by letter without recursing
@pytest.mark.parametrize("argv,expected", [
    (("check-rep", "--presentation", "field Q|gens x1|rel x1^2000", "--point",
      "point|field Q|n 1|mat 0"), "is-representation true\n"),
    (("rep-ideal", "--presentation", "field Q|gens x1|rel x1^2000", "--n", "1"),
     "rep-ideal\nfield Q\nm 1\nn 1\ngen xi_1_1_1^2000\n"),
    (("enumerate", "--presentation", "field F 2|gens x1|rel x1^2000", "--n", "1"),
     "enumeration-report\nq 2\nn 1\nm 1\nrep-points 1\ncyclic-pairs 1\n"
     "gl-order 1\norbit-count 1\n"),
], ids=["check-rep", "rep-ideal", "enumerate"])
def test_long_relation_words(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, expected)


def test_long_flat_expressions(capsys):
    code, out, _ = run(capsys, "gamma", "--expr", "+".join(["x1"] * 1500),
                       "--n", "1")
    assert code == 0 and "term {x1} = 1500" in out
    # (x1^[1])^1500 = 1500! x1^[1500]
    code, out, _ = run(capsys, "dp-normalize", "--expr", "*".join(["x1^[1]"] * 1500))
    assert code == 0 and out.endswith(f"term (x1)^[1500] = {math.factorial(1500)}\n")


def test_readme_inline_examples_run(capsys):
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        lines = [ln.strip() for ln in f]
    examples = [shlex.split(ln)[1:] for ln in lines
                if ln.startswith("hilbchow ")
                and ("--expr" in ln or ln.startswith("hilbchow enumerate"))]
    assert len(examples) >= 4
    for argv in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out, (argv, err)


def fresh_process(*argv):
    "Stdout of the CLI run in a new interpreter."
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "hilbchow.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    return done.stdout


def test_repeated_main_calls_match_fresh_processes(capsys, commuting, ptfile):
    other = "point|field Q|n 2|mat 0 2; 0 0|mat 0 0; 0 0|vec 0 1"
    calls = [("equiv", "--presentation", commuting, "--point", ptfile,
              "--point", other),
             ("hc", "--presentation", commuting, "--point", ptfile),
             ("equiv", "--presentation", commuting, "--point", other,
              "--point", ptfile)]
    outs = []
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    # a leaked `--point` list would make the second equiv see four points
    assert outs == [fresh_process(*argv) for argv in calls]


def test_argparse_failure_leaves_the_parser_usable(capsys, commuting, ptfile):
    argv = ("hc", "--presentation", commuting, "--point", ptfile)
    _, before, _ = run(capsys, *argv)
    code, out, err = run(capsys, "no-such-command")
    assert code == 2 and out == "" and "invalid choice" in err
    code, after, _ = run(capsys, *argv)
    assert code == 0 and after == before


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def loaded_after(code):
    """The `hilbchow` submodules, `dataclasses`, `inspect` and `multiprocessing`
    that a new interpreter has loaded once it has run `code`."""
    probe = (f"{code}\nimport sys\nprint(sorted(m.removeprefix('hilbchow.') for m in "
             "sys.modules if m.startswith('hilbchow.') or m in ('dataclasses', "
             "'inspect', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, check=True)
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_cli_import_leaves_the_process_pool_unloaded():
    # the CLI module loads only what building its parser needs
    assert loaded_after("import hilbchow") == set()
    assert loaded_after("import hilbchow.cli") == {"cli", "errors", "fields"}


# a cold request loads the modules its command runs: the divided-power side
# needs no matrices, and a sweep no norm points, ideals or divided powers;
# no request loads `dataclasses` or its `inspect`, since records derive from
# `_tokens.Record`
NO_DATACLASSES = {"dataclasses", "inspect"}
MATRIX_SIDE = {"linalg", "repvariety", "cyclic", "normpoints", "counting"}
COMMUTING = "field Q|gens x1 x2|rel x1*x2 - x2*x1"
POINT = "point|field Q|n 2|mat 0 1; 0 0|mat 0 0; 0 0|vec 1 1"


@pytest.mark.parametrize("argv, unused", [
    (("dp-normalize", "--expr", "(x1 + x2)^[2]"), MATRIX_SIDE | NO_DATACLASSES),
    (("gamma", "--expr", "x1*x2 - x2", "--n", "2"), MATRIX_SIDE | NO_DATACLASSES),
    (("enumerate", "--presentation", "field F 2|gens x1 x2|rel x1*x2 - x2*x1",
      "--n", "2"), {"normpoints", "cyclic", "divpow", "multiprocessing"} | NO_DATACLASSES),
    (("det-point", "--presentation", COMMUTING, "--point", POINT),
     {"counting", "divpow", "multiprocessing"} | NO_DATACLASSES),
    (("cyclic", "--presentation", COMMUTING, "--point", POINT),
     {"normpoints", "counting", "divpow", "multiprocessing"} | NO_DATACLASSES),
], ids=["dp-normalize", "gamma", "enumerate", "det-point", "cyclic"])
def test_cold_request_loads_only_what_its_command_runs(argv, unused):
    loaded = loaded_after(f"from hilbchow.cli import main\n"
                          f"assert main({list(argv)!r}) == 0")
    assert loaded >= {"cli", "errors", "fields"}
    assert not loaded & unused


def parser_options():
    "subcommand -> {(option, required)} as the parser declares them."
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {(a.option_strings[0][2:], a.required) for a in p._actions
                   if not isinstance(a, argparse._HelpAction)}
            for name, p in sub.choices.items()}


def test_parser_options_match_readme():
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        text = f.read()
    block = text.split("Subcommands:\n\n```\n", 1)[1].split("```", 1)[0]
    readme = {}
    for line in block.splitlines():
        # `[--opt V]` is optional, a bare `--opt V` required
        readme[line.split()[0]] = {(name, not bracket) for bracket, name
                                   in re.findall(r"(\[?)--([a-z-]+)", line)}
    assert parser_options() == readme
    assert sum(map(len, readme.values())) == 37


# one value each option accepts, for building valid command lines
SAMPLE = {"presentation": "field Q|gens x1", "point": "point|field Q|n 1|mat 1",
          "field": "Q", "n": "1", "max-len": "1", "budget": "1", "workers": "1",
          "expr": "x1", "args": "x1"}


@pytest.mark.parametrize("command", sorted(parser_options()))
def test_each_command_rejects_options_it_does_not_read(capsys, command):
    options = parser_options()[command]
    argv = [command]
    for name, required in sorted(options):
        if required:
            argv += ["--" + name, SAMPLE[name]]
    foreign = min(set(SAMPLE) - {name for name, _ in options})
    code, out, err = run(capsys, *argv, "--" + foreign, SAMPLE[foreign])
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: --{foreign} {SAMPLE[foreign]}\n"


PT = "point|field Q|n 2|mat 1 0; 0 2|vec 1 1"


@pytest.mark.parametrize("argv", [
    ("hc", "--field", "F7", "--presentation", "field Q|gens x1", "--point", PT),
    ("det-point", "--n", "4", "--presentation", "field Q|gens x1", "--point", PT),
    ("gamma", "--presentation", "field Q|gens x1", "--expr", "x1", "--n", "2"),
    ("hc", "--presentation", "field Q|gens x1", "--point", PT, "--bogus"),
    ("gamma", "--expr", "x1", "--n", "abc"),
    ("gamma", "--expr", "x1"),
    ("gamma", "--expr", "--n", "2"),
    ("equiv", "--presentation", "field Q|gens x1"),
    ("det-point", "--presentation", "field Q|gens x1", "--point", PT, "--point", PT),
    ("equiv", "--presentation", "field Q|gens x1", "--point", PT),
    ("no-such-command",),
    (),
], ids=["foreign-field", "foreign-n", "foreign-presentation", "unknown-option",
        "bad-int", "missing-n", "missing-expr-value", "missing-point",
        "repeated-point", "one-equiv-point", "unknown-command", "no-command"])
def test_argument_errors_are_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


LAW = ("law-coeffs", "--presentation", "field Q|gens x1", "--point", PT)


@pytest.mark.parametrize("spaced, glued", [
    (("gamma", "--expr", "-x1", "--n", "2"), ("gamma", "--expr=-x1", "--n", "2")),
    (("dp-normalize", "--expr", "-x1^[2]"), ("dp-normalize", "--expr=-x1^[2]")),
    (LAW + ("--args", "-x1; 1"), LAW + ("--args=-x1; 1",)),
], ids=["gamma", "dp-normalize", "law-coeffs"])
def test_option_value_with_a_leading_minus(capsys, spaced, glued):
    code, out, err = run(capsys, *spaced)
    assert (code, err) == (0, "") and out
    assert run(capsys, *glued) == (code, out, err)


@pytest.mark.parametrize("argv", [("--help",), ("gamma", "--help")])
def test_help_exits_zero(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("usage: hilbchow")


def dispatch_cases():
    """(id, argv) pairs that start with a command: help, a missing required
    option, an unknown option, a bad `--n`, and a valid line in full and
    with an abbreviated option."""
    cases = []
    for command, options in sorted(parser_options().items()):
        names = {name for name, _ in options}
        valid = [(name, SAMPLE[name]) for name, required in sorted(options) if required]
        flat = [tok for name, value in valid for tok in ("--" + name, value)]
        cases += [("help", (command, "--help")), ("h", (command, "-h")),
                  ("missing", (command,)), ("unknown", (command, *flat, "--bogus", "1")),
                  ("valid", (command, *flat))]
        if "n" in names:
            cases.append(("bad-n", (command, "--n", "x")))
        for name, short in (("presentation", "--pres"), ("expr", "--ex")):
            if name in names:
                rest = [tok for other, value in valid if other != name
                        for tok in ("--" + other, value)]
                cases.append((short[2:], (command, short, SAMPLE[name], *rest)))
    cases += [("glued", ("gamma", "--expr=-x1", "--n", "2")),
              ("dashes", ("gamma", "--", "--expr", "x1", "--n", "2")),
              ("repeated", ("gamma", "--expr", "x1", "--n", "2", "--n", "3")),
              ("bare-field", ("dp-normalize", "--expr", "x1^[2]", "--field"))]
    return [pytest.param(argv, id=f"{argv[0]}-{kind}") for kind, argv in cases]


def top_level(capsys, argv):
    """The top-level parser's reading of argv: its namespace, or the
    (exit code, stdout, stderr) of its refusal or help, as `main` reports it."""
    try:
        return cli._build_parser().parse_args(cli._glue_values(list(argv)))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return int(exc.code or 0), captured.out, captured.err
    except cli.ParseError as exc:
        return 2, "", f"error: {exc}\n"


@pytest.fixture
def parses(monkeypatch):
    "[prog, namespace or None] of each `parse_args` call, in order."
    calls = []
    real = argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        calls.append([self.prog, None])
        calls[-1][1] = real(self, *args, **kwargs)
        return calls[-1][1]

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    return calls


@pytest.mark.parametrize("argv", dispatch_cases())
def test_dispatch_matches_the_top_level_parser(capsys, parses, argv):
    expected = top_level(capsys, argv)
    parses.clear()
    got = run(capsys, *argv)
    # one parse, by the command's own parser
    assert [prog for prog, _ in parses] == [f"hilbchow {argv[0]}"]
    if isinstance(expected, argparse.Namespace):
        assert parses[0][1] == expected and expected.command == argv[0]
    else:
        assert got == expected


@pytest.mark.parametrize("argv", [
    (), ("--help",), ("-h",), ("no-such-command", "--expr", "x1"),
    ("--field", "Q", "gamma", "--expr", "x1", "--n", "2"), ("--", "gamma"),
], ids=["empty", "help", "h", "unknown-command", "option-first", "dashes-first"])
def test_argv_without_a_command_reaches_the_top_level_parser(capsys, parses, argv):
    expected = top_level(capsys, argv)
    parses.clear()
    assert run(capsys, *argv) == expected
    assert [prog for prog, _ in parses] == ["hilbchow"]


def test_law_coeffs_with_an_empty_argument_list_exit_code(capsys):
    # an explicit empty `--args` is read, not taken for "no --args given"
    code, out, err = run(capsys, *LAW, "--args", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_repeated_act_line_exit_code(capsys):
    # the second `act x1` line would replace the first and print a point
    ideal = ("ideal-presentation|field Q|m 1|n 2|basis 1, x1|cyclic-index 0|"
             "act x1 = 5 5; 5 5|act x1 = 0 0; 1 0")
    code, out, err = run(capsys, "ideal-to-triple", "--point", ideal)
    assert (code, out, err) == (2, "", "error: repeated act line for x1\n")


def test_ideal_to_triple_presentation_is_optional(capsys, commuting, ptfile):
    _, ideal, _ = run(capsys, "triple-to-ideal", "--presentation", commuting,
                      "--point", ptfile)
    code, bare, _ = run(capsys, "ideal-to-triple", "--point", ideal)
    assert code == 0 and bare.splitlines()[0] == "point"
    # with a presentation the action matrices are checked against it
    code, out, err = run(capsys, "ideal-to-triple", "--point", ideal,
                         "--presentation", "field Q|gens x1 x2|rel x1")
    assert (code, out) == (3, "")
    assert err == "error: action matrices do not satisfy the presentation relations\n"


# inputs whose root search, divided power, divided-power product, generic
# matrices, relations on them or a law table would run for minutes or exhaust
# memory are refused before the work starts
@pytest.mark.parametrize("argv,message", [
    (("cycle", "--presentation", "field F 1000000007|gens x1", "--point",
      "point|field F 1000000007|n 2|mat 1 0; 0 2"),
     "a root search would try 1000000007 field elements, more than the limit of 1048576"),
    (("cycle", "--presentation", "field Q|gens x1", "--point",
      "point|field Q|n 2|mat 1000000007 0; 0 1000000009"),
     "a root search would try 1000000007 trial divisions, more than the limit of 1048576"),
    (("gamma", "--expr", "x1+x2+x1*x2", "--n", "300"),
     "a divided power of degree 300 lists 13635300 words in 45451 terms of 300, "
     "more than the limit of 65536"),
    (("dp-normalize", "--expr", "(x1+x2+x3+x4)^[1000]"),
     "a divided power of degree 1000 lists 670674004 words in 167668501 terms of 4, "
     "more than the limit of 65536"),
    (("rep-ideal", "--presentation", "field Q|gens x1", "--n", "3000"),
     "1 generic 3000 x 3000 matrices have 9000000 entries, more than the limit of 65536"),
    (("dp-normalize", "--expr", "(x1+x2+x3)^[40]*(x1+x2+x4)^[40]"),
     "a divided-power product of 861 by 861 terms has 741321 term pairs, "
     "more than the limit of 65536"),
    (("rep-ideal", "--presentation", "field Q|gens x1|rel x1^4", "--n", "16"),
     "relations at generic 16 x 16 matrices would build 1048576 entry terms, "
     "more than the limit of 65536"),
    (("law-coeffs", "--presentation", "field Q|gens x1", "--point",
      "point|field Q|n 5|mat 1 2 0 0 0; 0 1 3 0 0; 0 0 2 1 0; 0 0 0 3 1; 1 0 0 0 1",
      "--args", "; ".join(["x1"] + [f"x1^{i} + {i}" for i in range(1, 16)])),
     "a law table of 16 arguments on 5 x 5 matrices takes 1938000 steps, "
     "more than the limit of 65536"),
], ids=["cycle-fp", "cycle-q", "gamma", "dp-normalize", "rep-ideal", "dp-product",
        "rep-ideal-relations", "law-coeffs"])
def test_oversized_work_exit_code(capsys, argv, message):
    started = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1
    assert (code, out, err) == (4, "", f"error: {message}\n")


# Python prints no int of more than sys.get_int_max_str_digits() digits
# (4300 by default); a rational past it is refused when it becomes text
@pytest.mark.parametrize("argv,digits", [
    (("dp-normalize", "--expr", "(2*x1)^[100000]"), 30103),
    (("dp-normalize", "--expr", "(x1)^[50000]*(x1)^[50000]"), 30101),
    (("gamma", "--expr", "4*x1", "--n", "10000"), 6021),
    (("gamma", "--expr", "10*x1", "--n", "4300"), 4301),
    (("gamma", "--expr=-1/3*x1", "--n", "9013"), 4301),
], ids=["dp-power", "dp-product", "gamma", "gamma-numerator", "gamma-denominator"])
def test_oversized_rational_exit_code(capsys, argv, digits):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == (f"error: a rational of {digits} digits, "
                   f"more than the limit of {limit}\n")


@pytest.mark.parametrize("argv,coeff", [
    (("gamma", "--expr", "10*x1", "--n", "4299"), "1" + "0" * 4299),
    (("gamma", "--expr=-1/3*x1", "--n", "9011"), f"-1/{3 ** 9011}"),
], ids=["numerator", "denominator"])
def test_rational_at_the_digit_limit_prints(capsys, argv, coeff):
    assert sys.get_int_max_str_digits() == 4300
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(f"= {coeff}")
