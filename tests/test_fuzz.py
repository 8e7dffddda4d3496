"""Property tests over every printed block type and the CLI inputs.

Round trip: from_text(to_text(x)) == x for drawn objects of each block
type over Q, F_3 and F_101.  Robustness: a single-line mutation of a
printed block either parses or raises ParseError / PreconditionError,
and every subcommand answers drawn input, with one line of its --point
or --presentation mutated, within a deadline and with exit code 0, 2, 3
or 4 instead of an exception.  Expressions: any string of grammar tokens
either parses or raises ParseError, in all three parsers.
"""

import contextlib
import io
import time

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hilbchow import (GF, QQ, AlgebraPresentation, CommPoly, Cycle,  # noqa: E402
                      DPElement, EnumerationReport, IdealPresentation,
                      InvariantTable, LawCoefficientTable, Matrix, NCPoly,
                      NormPoint, ParseError, PointedRep, PreconditionError,
                      RepIdeal, RepPoint, SplitFailure, SymTensor, det_point,
                      dp_power, gamma_n, invariant_table, is_cyclic,
                      law_coefficients, parse_comm_poly, parse_dp_expr,
                      parse_nc_poly, rep_ideal, triple_to_ideal)
from hilbchow.cli import COMMANDS, main  # noqa: E402

FUZZ_FIELDS = (QQ, GF(3), GF(101))


def fuzz_settings(max_examples):
    return settings(max_examples=max_examples, derandomize=True,
                    database=None, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.data_too_large])


def scalar(draw, field):
    if field is QQ:
        return draw(st.fractions(-4, 4, max_denominator=3))
    return field(draw(st.integers(0, field.p - 1)))


def matrix(draw, field, n):
    return Matrix(tuple(tuple(scalar(draw, field) for _ in range(n))
                        for _ in range(n)))


def rep_point(draw, field, max_n=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 2))
    return RepPoint(field, tuple(matrix(draw, field, n) for _ in range(m)))


def ncpoly(draw, field, m):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = tuple(draw(st.lists(st.integers(0, m - 1), max_size=2)))
        terms[word] = scalar(draw, field)
    return NCPoly(field, m, terms)


def pointed(draw, field, max_n=3):
    rep = rep_point(draw, field, max_n)
    return PointedRep(rep, tuple(scalar(draw, field) for _ in range(rep.n)))


def cyclic_point(draw, field):
    pt = pointed(draw, field)
    if is_cyclic(pt):
        return pt
    # a shift matrix makes e1 cyclic whatever the other generators are
    n = pt.n
    shift = Matrix(tuple(tuple(field.one if i == j + 1 else field.zero
                               for j in range(n)) for i in range(n)))
    e1 = tuple(field.one if i == 0 else field.zero for i in range(n))
    return PointedRep(RepPoint(field, (shift,) + pt.rep.mats[1:]), e1)


def law_table(draw, field):
    rep = rep_point(draw, field)
    # the last generator fixes the arity that from_text infers
    args = [ncpoly(draw, field, rep.m) for _ in range(draw(st.integers(0, 2)))]
    args.append(NCPoly.generator(field, rep.m, rep.m - 1))
    return law_coefficients(rep, args)


def cycle(draw, field):
    m = draw(st.integers(1, 2))
    points = {}
    for _ in range(draw(st.integers(1, 3))):
        tup = tuple(scalar(draw, field) for _ in range(m))
        points[tup] = draw(st.integers(1, 2))
    return Cycle(field, m, sum(points.values()), points)


def split_failure(draw, field):
    terms = {(("t", e),) if e else (): scalar(draw, field)
             for e in range(draw(st.integers(0, 3)) + 1)}
    return SplitFailure(field, CommPoly(field, terms))


def enumeration_report(draw, field):
    return EnumerationReport(*(draw(st.integers(0, 10 ** 6)) for _ in range(8)))


def dp_element(draw, field):
    a, b = ncpoly(draw, field, 2), ncpoly(draw, field, 2)
    return dp_power(a, draw(st.integers(0, 2))) * dp_power(b, draw(st.integers(0, 2)))


def rep_ideal_of(draw, field):
    pres = AlgebraPresentation(field, 2, (ncpoly(draw, field, 2),))
    return rep_ideal(pres, draw(st.integers(1, 2)))


BUILDERS = {
    RepPoint: rep_point,
    PointedRep: pointed,
    RepIdeal: rep_ideal_of,
    InvariantTable: lambda draw, f: invariant_table(rep_point(draw, f),
                                                    draw(st.integers(1, 3))),
    IdealPresentation: lambda draw, f: triple_to_ideal(cyclic_point(draw, f)),
    DPElement: dp_element,
    SymTensor: lambda draw, f: gamma_n(ncpoly(draw, f, 2), draw(st.integers(0, 3))),
    LawCoefficientTable: law_table,
    NormPoint: lambda draw, f: det_point(rep_point(draw, f), draw(st.integers(1, 2))),
    Cycle: cycle,
    SplitFailure: split_failure,
    EnumerationReport: enumeration_report,
}


@st.composite
def printed_objects(draw, cls):
    return BUILDERS[cls](draw, draw(st.sampled_from(FUZZ_FIELDS)))


every_block_type = pytest.mark.parametrize("cls", list(BUILDERS),
                                           ids=lambda cls: cls.__name__)


MUTATIONS = ("drop-char", "drop-eq", "letter", "dup-line", "drop-line")


def mutate(draw, text):
    "One single-line mutation of a printed block."
    lines = text.splitlines()
    # counted from the end, so that shrinking heads for a body line
    i = len(lines) - 1 - draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "drop-char":
        j = draw(st.integers(0, len(line) - 1))
        lines[i] = line[:j] + line[j + 1:]
    elif kind == "drop-eq":
        lines[i] = line.replace("=", "", 1)
    elif kind == "letter":
        digits = [j for j, ch in enumerate(line) if ch.isdigit()]
        if digits:
            j = draw(st.sampled_from(digits))
            lines[i] = line[:j] + "a" + line[j + 1:]
    elif kind == "dup-line":
        lines.insert(i, line)
    else:
        del lines[i]
    return "\n".join(lines) + "\n"


@every_block_type
@fuzz_settings(15)
@given(data=st.data())
def test_block_roundtrips(cls, data):
    obj = data.draw(printed_objects(cls))
    assert cls.from_text(obj.to_text()) == obj


@every_block_type
@fuzz_settings(20)
@given(data=st.data())
def test_mutated_block_parses_or_raises_typed_error(cls, data):
    text = mutate(data.draw, data.draw(printed_objects(cls)).to_text())
    try:
        cls.from_text(text)
    except (ParseError, PreconditionError):
        pass


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue(), time.monotonic() - started


POINTED = ("cyclic", "triple-to-ideal", "equiv", "stab", "hc")
LABELS = dict(zip(("Q", "F3", "F101"), FUZZ_FIELDS))
# above the small ranges, a value every input refuses: 2^16 words on one
# generator, or a degree past gamma's 10^4
MAX_LEN = st.one_of(st.integers(0, 3), st.integers(1 << 16, 10 ** 9))
DEGREE = st.one_of(st.integers(0, 5), st.integers(10 ** 4 + 1, 10 ** 7))


def cli_args(draw, command):
    """Options for one call of `command`: its presentation and point, one
    of which has a line mutated, or an expression that is drawn from the
    grammar tokens or printed from a free-algebra element."""
    if command in ("gamma", "dp-normalize"):
        label = draw(st.sampled_from(sorted(LABELS)))
        expr = draw(EXPRESSIONS)
        if draw(st.booleans()):
            expr = str(ncpoly(draw, LABELS[label], 2))
            if command == "dp-normalize":
                expr = f"({expr})^[{draw(st.integers(0, 5))}]"
        argv = ["--expr", expr, "--field", label]
        return argv + (["--n", str(draw(DEGREE))] if command == "gamma" else [])
    if command in ("rep-ideal", "enumerate"):
        field = draw(st.sampled_from((GF(2), GF(3)) if command == "enumerate"
                                     else FUZZ_FIELDS))
        m = draw(st.integers(1, 2))
        pres = AlgebraPresentation(field, m, tuple(
            ncpoly(draw, field, m) for _ in range(draw(st.integers(0, 2)))))
        argv = ["--presentation", mutate(draw, pres.to_text()),
                "--n", str(draw(st.integers(1, 3)))]
        if command == "enumerate":  # q^(m n^2) > 5000 tuples exit 4
            argv += ["--budget", str(draw(st.integers(1, 5000)))]
        return argv
    field = draw(st.sampled_from(FUZZ_FIELDS))
    pt = cyclic_point(draw, field)
    m = pt.m
    if command in ("check-rep", "cycle"):
        pres = "\n".join([field.header(), "gens " + " ".join(
            f"x{k + 1}" for k in range(m))] + (["rel x1*x2 - x2*x1"] if m > 1 else []))
    else:
        pres = AlgebraPresentation(field, m).to_text()
    point = (triple_to_ideal(pt) if command == "ideal-to-triple" else
             pt if command in POINTED else pt.rep).to_text()
    if draw(st.booleans()):
        point = mutate(draw, point)
    else:
        pres = mutate(draw, pres)
    argv = ["--presentation", pres, "--point", point]
    if command == "equiv":
        argv += ["--point", pt.to_text()]
    if command in ("invariants", "hc", "det-point"):
        argv += ["--max-len", str(draw(MAX_LEN))]
    if command == "law-coeffs" and draw(st.booleans()):
        argv += ["--args", "; ".join(str(ncpoly(draw, field, m))
                                     for _ in range(draw(st.integers(1, 16))))]
    return argv


@pytest.mark.parametrize("command", sorted(COMMANDS))
@fuzz_settings(15)
@given(data=st.data())
def test_cli_answers_mutated_input_with_an_exit_code(command, data):
    """Every subcommand answers drawn and mutated input within 2 s, with exit
    0 on success or one `error:` line and exit 2, 3 or 4.

    Words and degrees stay short where the input is accepted: relation and
    argument words have at most two letters (`ncpoly`), tables at most three
    (`MAX_LEN`) and divided powers degree at most five.  Exact entries and
    coefficients grow along a word or a power, and no count made before the
    work bounds that growth yet (see the `FOUND:` lines of CHANGES.md)."""
    code, err, seconds = run_cli(command, *cli_args(data.draw, command))
    assert code in (0, 2, 3, 4) and seconds < 2
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "unrecognized arguments" not in err


# Strings of grammar tokens, joined by spaces so that integers stay one
# digit, and strings the grammar derives, with `^k` on atoms only: both keep
# degrees small enough to evaluate.
EXPR_TOKENS = ("x1", "x2", "x3", "y", "0", "1", "2", "3",
               "+", "-", "*", "/", "^", "(", ")", "[", "]", ",")
EXPR_ATOMS = ("x1", "x2", "y", "0", "2", "1 / 3", "x1 ^ 2", "x2 ^ [ 1 ]", "3 ^ [ 2 ]")


def grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*"), children).map(" ".join),
        children.map("- {}".format),
        children.map("( {} )".format),
        st.tuples(children, st.integers(-1, 2)).map(
            lambda base_k: "( {} ) ^ [ {} ]".format(*base_k)))


EXPRESSIONS = st.one_of(
    st.lists(st.sampled_from(EXPR_TOKENS), max_size=12).map(" ".join),
    st.recursive(st.sampled_from(EXPR_ATOMS), grow, max_leaves=8))


@pytest.mark.parametrize("parse", [parse_comm_poly, parse_nc_poly, parse_dp_expr],
                         ids=["comm", "nc", "dp"])
@fuzz_settings(300)
@given(text=EXPRESSIONS, field=st.sampled_from((QQ, GF(3))))
def test_expression_parses_or_raises_parse_error(parse, text, field):
    try:
        parse(text, field)
    except ParseError:
        pass
