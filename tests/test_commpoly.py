from fractions import Fraction

import pytest

from hilbchow import GF, QQ, CommPoly, ParseError, parse_comm_poly
from hilbchow.commpoly import mono_key, var_key

from oracles import FIELDS, rand_scalar, seeded


def V(name, field=QQ):
    return CommPoly.variable(field, name)


def test_var_key_natural_order():
    names = ["xi_10_1_1", "xi_2_1_1", "xi_2_1_10", "t", "t2", "t10"]
    assert sorted(names, key=var_key) == \
        ["t", "t2", "t10", "xi_2_1_1", "xi_2_1_10", "xi_10_1_1"]


def test_var_key_keeps_leading_zeros_apart():
    # t01 and t1 share the value 1 of their digit run, not their name
    assert var_key("t01") != var_key("t1")
    assert parse_comm_poly("t01*t1 - t1*t01", QQ).is_zero()
    assert str(parse_comm_poly("t01*t1 - t1*t01", QQ)) == "0"
    assert V("x") * V("t01") * V("t1") == V("t1") * V("x") * V("t01")


def test_mono_key_graded_lex():
    x2 = (("x", 2),)
    xy = (("x", 1), ("y", 1))
    y2 = (("y", 2),)
    x = (("x", 1),)
    assert sorted([y2, x, xy, x2], key=mono_key) == [x2, xy, y2, x]


def test_zero_coefficients_never_stored():
    p = V("x") - V("x")
    assert p.is_zero() and p.terms == {}
    q = CommPoly(QQ, {(("x", 1),): Fraction(0)})
    assert q.is_zero()


def test_arithmetic_small():
    x, y = V("x"), V("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert p - p == CommPoly(QQ)


def test_scalar_interop():
    x = V("x")
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (1 - x) + (x - 1) == CommPoly(QQ)


def test_string_forms_frozen():
    x, y = V("x"), V("y")
    assert str(x * x - 3 * x + 2) == "x^2 - 3*x + 2"
    assert str(CommPoly(QQ)) == "0"
    assert str(x * y * 2 + y * y) == "2*x*y + y^2"
    assert str(-x + Fraction(1, 2)) == "-x + 1/2"
    F = GF(3)
    fx = CommPoly.variable(F, "x")
    assert str(fx * 2 + 1) == "2*x + 1"


def test_parse_roundtrip_random():
    rng = seeded("commpoly-roundtrip")
    for field in FIELDS:
        for _ in range(40):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                mono = []
                for name in rng.sample(["x", "y", "z", "t1", "t12"],
                                       rng.randint(0, 3)):
                    mono.append((name, rng.randint(1, 3)))
                mono = tuple(sorted(mono, key=lambda ve: var_key(ve[0])))
                terms[mono] = rand_scalar(field, rng)
            p = CommPoly(field, terms)
            assert parse_comm_poly(str(p), field) == p


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_comm_poly("x +", QQ)
    with pytest.raises(ParseError):
        parse_comm_poly("1/0", QQ)
    with pytest.raises(ParseError):
        parse_comm_poly("x ? y", QQ)


def test_evaluate():
    x, y = V("x"), V("y")
    p = x * x + 2 * x * y + 3
    assert p.evaluate({"x": 2, "y": Fraction(1, 2)}) == Fraction(9)
    with pytest.raises(ValueError):
        p.evaluate({"x": 1})


def test_univar_coeffs():
    t = V("t")
    p = t ** 3 - 2 * t + 5
    assert p.univar_coeffs("t") == [Fraction(5), Fraction(-2), Fraction(0),
                                    Fraction(1)]
    with pytest.raises(ValueError):
        (t + V("s")).univar_coeffs("t")


def test_hash_eq_consistency():
    a = V("x") * 2 + 1
    b = parse_comm_poly("2*x + 1", QQ)
    assert a == b and hash(a) == hash(b)
    assert a != CommPoly.variable(GF(5), "x") * 2 + 1


def test_pow_matches_repeated_mul():
    rng = seeded("commpoly-pow")
    for field in FIELDS:
        p = CommPoly.variable(field, "x") + rand_scalar(field, rng)
        q = CommPoly.const(field, 1)
        for e in range(5):
            assert p ** e == q
            q = q * p
