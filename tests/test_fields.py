from fractions import Fraction

import pytest

from hilbchow import GF, QQ, ParseError, field_from_header
from hilbchow.fields import FpElem, is_prime


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
