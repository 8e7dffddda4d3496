from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hilbchow import GF, QQ, ParseError, field_from_header
from hilbchow.fields import FpElem, is_prime
from hilbchow.repvariety import parse_point_body

from oracles import regex_scalar


def test_prime_check():
    assert [p for p in range(2, 40) if is_prime(p)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61)


def test_gf_rejects_composite():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)


def test_fp_canonical_representatives():
    F = GF(5)
    assert F(7).v == 2
    assert F(-1).v == 4
    assert (F(3) + F(4)).v == 2
    assert (F(3) - 4).v == 4
    assert (F(3) * F(4)).v == 2
    assert (F(3) / F(4)).v == 2  # 3 * 4^-1 = 3 * 4 = 12 = 2
    assert (-F(2)).v == 3


def test_fp_pow_and_inverse():
    F = GF(7)
    assert (F(3) ** 6).v == 1
    assert (F(3) ** -1).v == 5
    assert (F(0) ** 0).v == 1
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)
    with pytest.raises(ZeroDivisionError):
        F(0) ** -1


def test_fp_field_mismatch_and_foreign_types():
    with pytest.raises(ValueError):
        GF(2)(1) + GF(3)(1)
    with pytest.raises(TypeError):
        GF(2)(1) + Fraction(1, 2)


def test_fp_int_interop():
    F = GF(3)
    assert F(2) + 4 == F(0)
    assert 4 + F(2) == 0
    assert 1 / F(2) == F(2)
    assert F(2) == 2 and F(2) == -1
    assert bool(F(0)) is False and bool(F(1)) is True


def test_rationals_exact_and_no_floats():
    assert QQ(3) == Fraction(3)
    assert QQ("2/4") == Fraction(1, 2)
    with pytest.raises(TypeError):
        QQ(0.5)
    with pytest.raises(TypeError):
        GF(5)(0.5)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_scalars_read_the_number_atom_only(field):
    # [+|-]a[/b] with decimal digits; `Fraction(str)` alone also reads
    # exponents, decimal points, underscores, spaces and other digits
    assert [field.parse(t) for t in ("12", "+3", "-3/4", "007/2")] == \
        [field(12), field(3), field(Fraction(-3, 4)), field(Fraction(7, 2))]
    for tok in ("1.5e3", "1_0.5", "1e2", "0.5", " 3", "3/-4", "--3", "١", "1/2/3", ""):
        with pytest.raises(ParseError):
            field.parse(tok)


PARITY_FIELDS = [QQ, GF(2), GF(7), GF(101)]
LONG = "1" * 4301  # one digit past the limit of `int` on text
PARITY_TOKENS = [
    "/4", "-/4", "3/", "+", "-", "", "+-3", "--3", "3/-4", "1/2/3", "1_000",
    " 3", "3 ", "٣", "３", "²", "1e2", "0x10", "3/0", "-3/0", "7/14", "1/7",
    "-0", "007/2", "-3", "+3/4", "0/5", "2/4", "14/7", LONG, "-" + LONG,
    LONG + "/2", "2/" + LONG, LONG + "/-2", "1_0/" + LONG, LONG + "/" + LONG + "1",
]


def read(parse, *args):
    "(value, type) of a parsed scalar, or the text of its ParseError."
    try:
        x = parse(*args)
    except ParseError as exc:
        return str(exc)
    return x, type(x)


@pytest.mark.parametrize("field", PARITY_FIELDS, ids=repr)
@pytest.mark.parametrize("tok", PARITY_TOKENS, ids=lambda tok: repr(tok)[:12])
def test_scalar_reader_matches_the_regex_reader(field, tok):
    # the same value of the same type, or the same refusal byte for byte
    assert read(field.parse, tok) == read(regex_scalar, field, tok)


@settings(derandomize=True, database=None, deadline=None)
@given(st.sampled_from(PARITY_FIELDS), st.text("0123456789+-/ _.e٣", max_size=8))
def test_scalar_reader_matches_the_regex_reader_on_any_text(field, tok):
    assert read(field.parse, tok) == read(regex_scalar, field, tok)


POINT = "point\n{}\nn 3\nmat 1 -2 +3; 0 -0 007; 9 10 -11\nmat 0 0 0; 1 0 0; 0 1 0\nvec 1 0 -1\n"


@pytest.mark.parametrize("field,kind", [(QQ, Fraction), (GF(7), FpElem)], ids=["Q", "F7"])
def test_parsed_scalars_are_field_elements(field, kind):
    # a Fraction over Q, never a plain int: `_tokens.number` divides them
    assert type(field.parse("3")) is kind and type(field.parse("-3/4")) is kind
    _, mats, vec = parse_point_body(POINT.format(field.header()))
    entries = [a for M in mats for r in M.rows for a in r] + list(vec)
    assert len(entries) == 21 and {type(a) for a in entries} == {kind}
    assert mats[0].rows[2] == (field(9), field(10), field(-11))


def test_integral_points_never_read_a_fraction_from_text(monkeypatch):
    # an integral token becomes its element directly; counted through the
    # constructor `fields` calls, so the regex-and-Fraction(str) route
    # cannot come back unnoticed
    from hilbchow import fields
    args = []

    class Counted(Fraction):
        def __new__(cls, *a):
            args.extend(a)
            return Fraction(*a)

    monkeypatch.setattr(fields, "Fraction", Counted)
    for field in (QQ, GF(7)):
        parse_point_body(POINT.format(field.header()))
    assert len(args) == 21  # one int per entry over Q, none over F_7
    assert not [a for a in args if isinstance(a, str)]


def test_rational_reduction_into_fp():
    F = GF(5)
    assert F(Fraction(1, 2)) == F(3)
    with pytest.raises(ZeroDivisionError):
        F(Fraction(1, 5))


def test_headers_roundtrip():
    for field in (QQ, GF(2), GF(97)):
        assert field_from_header(field.header()) == field
    with pytest.raises(ParseError):
        field_from_header("field R")
    with pytest.raises(ParseError):
        field_from_header("field F 6")


def test_format_parse_roundtrip():
    F = GF(11)
    for x in F.elements():
        assert F.parse(F.format(x)) == x
    for q in (Fraction(-7, 3), Fraction(0), Fraction(5)):
        assert QQ.parse(QQ.format(q)) == q


def test_fp_ordering_is_by_representative():
    F = GF(5)
    assert sorted([F(3), F(0), F(4), F(1)]) == [F(0), F(1), F(3), F(4)]


def test_fpelem_repr_and_hash():
    assert repr(FpElem(3, 5)) == "FpElem(3, 2)"
    assert len({GF(7)(1), GF(7)(8)}) == 1
