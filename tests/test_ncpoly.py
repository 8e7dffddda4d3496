from fractions import Fraction

import pytest

from hilbchow import (GF, QQ, NCPoly, ParseError, parse_comm_poly, parse_dp_expr,
                      parse_nc_poly)
from hilbchow._tokens import MAX_DEPTH
from hilbchow.ncpoly import MAX_WORD_LENGTH, parse_word, word_key, word_str, words_up_to

from oracles import FIELDS, rand_ncpoly, seeded


def gen(k, m=2, field=QQ):
    return NCPoly.generator(field, m, k)


def test_word_order_and_str():
    assert word_str(()) == "1"
    assert word_str((0, 0, 1)) == "x1^2*x2"
    assert word_str((1, 0, 0)) == "x2*x1^2"
    # every word parses back, and no two adjacent factors share a generator
    for word in (*words_up_to(3, 6), (11, 11, 11, 0), (9, 10, 10)):
        text = word_str(word)
        assert parse_word(text, QQ, 12) == word
        names = [piece.split("^")[0] for piece in text.split("*")]
        assert all(a != b for a, b in zip(names, names[1:]))
    words = list(words_up_to(2, 2))
    assert words == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert sorted(words, key=word_key) == words


def test_noncommutative_multiplication():
    x, y = gen(0), gen(1)
    assert x * y != y * x
    comm = x * y - y * x
    assert comm.terms.get((0, 1)) == 1 and comm.terms.get((1, 0)) == -1
    assert (x * y) * x == x * (y * x)


def test_unit_and_zero():
    x = gen(0)
    one = NCPoly.one(QQ, 2)
    assert one * x == x and x * one == x
    assert x - x == NCPoly(QQ, 2)
    assert (x * 0).is_zero()


def test_str_frozen():
    x, y = gen(0), gen(1)
    assert str(x * y - y * x) == "x1*x2 - x2*x1"
    assert str(x ** 2 - 1) == "x1^2 - 1"
    assert str(NCPoly(QQ, 2)) == "0"
    assert str(x * Fraction(1, 2)) == "1/2*x1"
    f = GF(3)
    fx = NCPoly.generator(f, 1, 0)
    assert str(fx * 2 + 2) == "2*x1 + 2"


def test_parse_inference_and_arity():
    p = parse_nc_poly("x1*x2 - x2*x1", QQ)
    assert p.m == 2
    q = parse_nc_poly("x1^2 - 1", QQ, m=3)
    assert q.m == 3
    with pytest.raises(ParseError):
        parse_nc_poly("x5", QQ, m=2)
    with pytest.raises(ParseError):
        parse_nc_poly("y1", QQ)


def test_parse_roundtrip_random():
    rng = seeded("ncpoly-roundtrip")
    for field in FIELDS:
        for _ in range(40):
            p = rand_ncpoly(field, 3, rng, max_terms=4, max_len=3)
            assert parse_nc_poly(str(p), field, 3) == p


def test_power_notation_parses():
    p = parse_nc_poly("x1^2*x2 + 2*x1", QQ, 2)
    assert p.terms.get((0, 0, 1)) == 1
    assert p.terms.get((0,)) == 2


def test_abelianize_examples():
    x, y = gen(0), gen(1)
    assert (x * y - y * x).abelianize().is_zero()
    assert (x * y * x).abelianize() == parse_comm_poly("x1^2*x2", QQ)
    assert NCPoly.one(QQ, 2).abelianize() == parse_comm_poly("1", QQ)


def test_abelianize_is_ring_map():
    rng = seeded("abelianize-ring")
    for field in FIELDS:
        for _ in range(30):
            p = rand_ncpoly(field, 2, rng)
            q = rand_ncpoly(field, 2, rng)
            assert (p * q).abelianize() == p.abelianize() * q.abelianize()
            assert (p + q).abelianize() == p.abelianize() + q.abelianize()


def test_mixing_arities_rejected():
    with pytest.raises(ValueError):
        gen(0, m=2) + NCPoly.generator(QQ, 3, 0)
    with pytest.raises(ValueError):
        gen(0, m=2) * NCPoly.generator(GF(2), 2, 0)


# The three parsers share one grammar; each entry reads an expression the
# way its algebra does (a word `w` is `w^[1]` for divided powers).
PARSERS = pytest.mark.parametrize(
    "parse,atom", [(parse_comm_poly, "x1"), (parse_nc_poly, "x1"),
                   (parse_dp_expr, "x1^[1]")], ids=["comm", "nc", "dp"])


@PARSERS
def test_flat_sums_and_products_of_1500_terms(parse, atom):
    total = parse("+".join([atom] * 1500), QQ)
    assert total == parse(f"1500*{atom}", QQ)
    product = parse("*".join([atom] * 1500), QQ)
    assert product == parse(f"{atom}*" * 1499 + atom, QQ)
    assert parse("-".join([atom] * 1500), QQ) == parse(f"-1498*{atom}", QQ)


@PARSERS
def test_nesting_depth(parse, atom):
    assert parse("(" * MAX_DEPTH + atom + ")" * MAX_DEPTH, QQ) == parse(atom, QQ)
    for depth in (MAX_DEPTH + 1, 600):
        with pytest.raises(ParseError, match="nested deeper"):
            parse("(" * depth + atom + ")" * depth, QQ)


@PARSERS
def test_denominator_zero_in_the_field(parse, atom):
    assert parse(f"1/3*{atom}", GF(5)) == parse(f"2*{atom}", GF(5))
    for text, field in ((f"1/3*{atom}", GF(3)), (f"2/6*{atom}", GF(2)),
                        (f"1/0*{atom}", QQ)):
        with pytest.raises(ParseError, match="denominator"):
            parse(text, field)


# 82 characters that square a word 20 times, and one huge exponent: both
# would ask for words of a million letters or more
SQUARED_20 = "(" * 20 + "x1" + ")^2" * 20
HUGE_POWER = "x1^1000000000"


@pytest.mark.parametrize("text", [SQUARED_20, HUGE_POWER])
def test_word_length_is_bounded(text):
    for parse, expr in ((parse_nc_poly, text), (parse_dp_expr, f"({text})^[1]")):
        with pytest.raises(ParseError, match="longer than"):
            parse(expr, QQ)


def test_word_length_bound_is_exact_at_the_limit():
    assert parse_nc_poly(f"x1^{MAX_WORD_LENGTH}", QQ) == \
        NCPoly(QQ, 1, {(0,) * MAX_WORD_LENGTH: 1})
    for text in (f"x1^{MAX_WORD_LENGTH + 1}", f"x2 + x1*x1^{MAX_WORD_LENGTH}",
                 f"(x1^{MAX_WORD_LENGTH // 2 + 1})^2"):
        with pytest.raises(ParseError, match="longer than"):
            parse_nc_poly(text, QQ)
    # a sum is as long as its longest term; a number has no letters
    assert parse_nc_poly(f"3*x1^{MAX_WORD_LENGTH} + x2", QQ).m == 2
    # commutative powers stay unbounded
    assert str(parse_comm_poly("x1^1000000000", QQ)) == "x1^1000000000"
