import itertools
import time
from fractions import Fraction
from math import comb

import pytest

from hilbchow import divpow
from hilbchow import (GF, QQ, BudgetExceededError, DPElement, NCPoly, ParseError,
                      PreconditionError, SymTensor, det, dp_power, gamma_n,
                      nc_eval, parse_dp_expr, parse_nc_poly, tau, ts_mul, word_key,
                      word_str)

from oracles import (FIELDS, chi, rand_matrix, rand_ncpoly, rand_scalar,
                     rand_symtensor, seeded, shuffle_mul, tensor_power)


def x(field=QQ, m=2):
    return NCPoly.generator(field, m, 0)


def y(field=QQ, m=2):
    return NCPoly.generator(field, m, 1)


def dense(dp_elem, n):
    "Dense tensor expansion of a normalized divided-power element."
    return tau(dp_elem, n).arrangements()


def test_same_base_product_rule():
    # x^[1] * x^[1] = 2 x^[2]
    out = dp_power(x(), 1) * dp_power(x(), 1)
    expected = dp_power(x(), 2) * 2
    assert out == expected


def test_scalar_extraction_rule():
    # (2x)^[3] = 8 x^[3]
    assert dp_power(x() * 2, 3) == dp_power(x(), 3) * 8


def test_sum_expansion_rule():
    # (x+y)^[2] = x^[2] + x^[1] y^[1] + y^[2], the mixed term with coefficient 1
    out = dp_power(x() + y(), 2)
    mono = (((0,), 1), ((1,), 1))
    expected = (dp_power(x(), 2) + dp_power(y(), 2)
                + DPElement(QQ, 2, {mono: Fraction(1)}))
    assert out == expected


def test_negative_and_zero_exponents():
    assert dp_power(x(), -1).is_zero()
    assert dp_power(x(), 0) == DPElement.one(QQ, 2)
    assert dp_power(NCPoly(QQ, 2), 2).is_zero()


def test_large_exponents_cost_one_step_per_term():
    # a split of k over the support is built in O(|supp a|) steps, not O(k)
    k = 10 ** 9
    assert dp_power(x(), k).terms == {(((0,), k),): Fraction(1)}
    F = GF(7)
    assert dp_power(x(F) * 3, k) == dp_power(x(F), k) * pow(3, k, 7)
    k = 10 ** 5  # over Q a term of degree k is divided by d^k once
    assert dp_power(x() * Fraction(2, 3), k) == dp_power(x(), k) * Fraction(2, 3) ** k
    k = 10 ** 6
    assert dp_power(x() * 2, k) == dp_power(x(), k) * 2 ** k
    assert parse_dp_expr(f"(2*x1)^[{k}]", QQ, 2) == dp_power(x(), k) * 2 ** k
    s = dp_power(x() + y(), 2000)
    assert len(s.terms) == 2001 and set(s.terms.values()) == {1}


def test_dp_rules_exhaustive_small():
    # scalar rule, sum rule, same-base product rule on all expressions
    # over up to 3 words with exponents up to 3
    words = [(), (0,), (0, 1)]
    rng = seeded("dp-rules")
    for field in FIELDS:
        polys = [NCPoly(field, 2, {w: rand_scalar(field, rng) or 1})
                 for w in words]
        for a in polys:
            for k in range(4):
                for alpha_raw in (2, 3, -1):
                    alpha = field(alpha_raw)
                    assert dp_power(a * alpha, k) == \
                        dp_power(a, k) * alpha ** k
        for a, b in itertools.product(polys, repeat=2):
            for k in range(4):
                out = dp_power(a + b, k)
                expected = DPElement(field, 2)
                for i in range(k + 1):
                    expected = expected + dp_power(a, i) * dp_power(b, k - i)
                assert out == expected
        for w in words:
            for i in range(4):
                for j in range(4):
                    wp = NCPoly(field, 2, {w: 1})
                    assert dp_power(wp, i) * dp_power(wp, j) == \
                        dp_power(wp, i + j) * comb(i + j, i)


def test_binomial_vanishing_mod_p():
    # over F_2 the same-base product x^[1] * x^[1] = 2 x^[2] = 0
    F = GF(2)
    out = dp_power(x(F), 1) * dp_power(x(F), 1)
    assert out.is_zero()


def test_tau_frozen_examples():
    st = tau(dp_power(x(m=1), 2), 2)
    assert st.terms == {((0,), (0,)): Fraction(1)}
    st2 = tau(parse_dp_expr("x1^[1]*x2^[1]", QQ, 2), 2)
    assert st2.terms == {((0,), (1,)): Fraction(1)}
    assert st2.arrangements() == {((0,), (1,)): Fraction(1),
                                  ((1,), (0,)): Fraction(1)}
    st3 = tau(dp_power(x(), 1) * dp_power(x(), 1), 2)
    assert st3.terms == {((0,), (0,)): Fraction(2)}


def test_tau_degree_mismatch():
    with pytest.raises(PreconditionError):
        tau(dp_power(x(), 2), 3)


def test_tau_matches_tensor_oracle_exhaustive():
    # all products of up to two powers of up to 3 short words, degrees <= 3,
    # against the dense shuffle-product model
    words = [(), (0,), (1,), (0, 1)]
    for field in (QQ, GF(2), GF(3)):
        polys = [NCPoly(field, 2, {w: 1}) for w in words]
        combos = [(a, i) for a in polys for i in range(4)]
        for (a, i), (b, j) in itertools.product(combos, repeat=2):
            n = i + j
            if n > 3:
                continue
            elem = dp_power(a, i) * dp_power(b, j)
            oracle = shuffle_mul(tensor_power(a, i), tensor_power(b, j), field)
            assert dense(elem, n) == oracle


def test_tau_oracle_with_general_elements():
    rng = seeded("tau-general")
    for field in FIELDS:
        for _ in range(20):
            a = rand_ncpoly(field, 2, rng, max_terms=2, max_len=2)
            b = rand_ncpoly(field, 2, rng, max_terms=2, max_len=2)
            i = rng.randint(0, 2)
            j = rng.randint(0, 2)
            elem = dp_power(a, i) * dp_power(b, j)
            oracle = shuffle_mul(tensor_power(a, i), tensor_power(b, j), field)
            assert dense(elem, i + j) == oracle


def test_gamma_frozen_examples():
    g = gamma_n(x(m=1), 2)
    assert g.terms == {((0,), (0,)): Fraction(1)}
    g2 = gamma_n(x() + y(), 2)
    assert g2.terms == {((0,), (0,)): Fraction(1),
                        ((0,), (1,)): Fraction(1),
                        ((1,), (1,)): Fraction(1)}
    g3 = gamma_n(x() * 2, 2)
    assert g3.terms == {((0,), (0,)): Fraction(4)}


def test_gamma_matches_tensor_power():
    # n up to 5 reaches p <= n over F_2 and F_3; F_7 and the mixed
    # denominators 2, 3 and 6 over Q check the integer lift's read-back
    rng = seeded("gamma-dense")
    mixed = NCPoly(QQ, 2, {(0,): Fraction(1, 2), (1,): Fraction(-2, 3),
                           (0, 1): Fraction(5, 6)})
    cases = [mixed, -mixed * Fraction(6, 7)]
    for field in FIELDS + (GF(7),):
        cases += [rand_ncpoly(field, 2, rng, max_terms=3, max_len=2) for _ in range(15)]
    for a in cases:
        for n in range(6):
            assert gamma_n(a, n).arrangements() == tensor_power(a, n)
            assert dense(dp_power(a, n), n) == tensor_power(a, n)


def test_gamma_equals_tau_of_power():
    # gamma_n and tau(dp_power) read one enumeration, so their agreement
    # alone checks little; each is also held to gamma_n(l*a) = l^n gamma_n(a),
    # with l of multiplicative order > n, which a coefficient carrying the
    # wrong power of some word's scalar breaks
    rng = seeded("gamma-tau")
    for field, lam in ((QQ, 2), (GF(101), 2), (GF(7), 3)):
        lam = field(lam)
        for _ in range(10):
            a = rand_ncpoly(field, 2, rng, max_terms=3, max_len=2)
            for n in range(6):
                gamma = gamma_n(a, n)
                assert gamma == tau(dp_power(a, n), n)
                assert gamma_n(a * lam, n) == gamma * lam ** n
                assert tau(dp_power(a * lam, n), n) == gamma * lam ** n


def test_ts_mul_frozen_examples():
    gx = gamma_n(x(), 2)
    gy = gamma_n(y(), 2)
    assert ts_mul(gx, gy) == gamma_n(x() * y(), 2)
    # unit law
    s = gamma_n(x() + y() * 3, 2)
    assert ts_mul(gamma_n(NCPoly.one(QQ, 2), 2), s) == s
    # {x,y} * {x,y} frozen from the dense expansion
    mixed = SymTensor(QQ, 2, 2, {((0,), (1,)): 1})
    prod = ts_mul(mixed, mixed)
    assert prod.terms == {((0, 0), (1, 1)): Fraction(1),
                          ((0, 1), (1, 0)): Fraction(1)}
    # `*` on two tensors is ts_mul
    assert mixed * mixed == prod
    assert gx * gy == ts_mul(gx, gy)


def _dense_slotwise(s, t):
    "The product of two tensors in the full tensor power, slot by slot."
    field, out = s.field, {}
    for arr1, c1 in s.arrangements().items():
        for arr2, c2 in t.arrangements().items():
            key = tuple(w1 + w2 for w1, w2 in zip(arr1, arr2))
            prev = out.get(key, field.zero) + c1 * c2
            if prev:
                out[key] = prev
            else:
                out.pop(key, None)
    return out


def test_ts_mul_against_dense_slotwise_oracle():
    rng = seeded("tsmul-dense")
    for field in FIELDS:
        # x1 * x2x1 = x1x2 * x1: two pairs of words concatenate to one word,
        # next to the empty word and words of unequal length
        a = parse_nc_poly("1 + x1 + x1*x2", field, 2)
        b = parse_nc_poly("x2*x1 - x1 + 1 + x2^2", field, 2)
        cases = [(a, b, n) for n in range(5)] + [(b, a, 3)]
        for _ in range(20):
            # different supports and term counts on the two sides, words
            # of length <= 2, every degree up to 4 including 0
            cases.append((rand_ncpoly(field, 2, rng, max_terms=4, max_len=2),
                          rand_ncpoly(field, 2, rng, max_terms=2, max_len=2),
                          rng.randint(0, 4)))
        for u, v, n in cases:
            s, t = gamma_n(u, n), gamma_n(v, n)
            if rng.random() < 0.5:
                s, t = t, s
            dense = _dense_slotwise(s, t)
            out = ts_mul(s, t)
            assert out.arrangements() == dense
            # keys are word_key-sorted multisets, each orbit listed once
            orbits = {tuple(sorted(arr, key=word_key)): c for arr, c in dense.items()}
            assert out == SymTensor(field, 2, n, orbits)
            # the text ranks words per call; its term order is word_key order
            assert out.to_text().splitlines()[4:] == [
                f"term {{{', '.join(map(word_str, k))}}} = {field.format(c)}"
                for k, c in sorted(out.terms.items(),
                                   key=lambda kc: [word_key(w) for w in kc[0]])]
        for n in range(4):
            zero = SymTensor(field, 2, n)
            for other in (zero, gamma_n(a, n)):
                assert ts_mul(zero, other).is_zero() and ts_mul(other, zero).is_zero()
                assert ts_mul(zero, other).degree == n


def test_det_rho_is_a_character_of_gamma():
    # chi = det∘rho is multiplicative on ts_mul and sends gamma_n(a, n) to
    # det rho(a); n <= 3 over F_2 and F_3 covers p <= n.  One point can miss
    # a wrong coefficient, so every case is checked at several points.
    rng = seeded("tsmul-chi")
    for field in FIELDS:
        for n in (1, 2, 3):
            for _ in range(8):
                s = rand_symtensor(field, 2, n, rng, max_terms=2)
                t = rand_symtensor(field, 2, n, rng, max_terms=2)
                a = rand_ncpoly(field, 2, rng, max_terms=3, max_len=2)
                st, ga = ts_mul(s, t), gamma_n(a, n)
                for _ in range(3):
                    mats = tuple(rand_matrix(field, n, rng) for _ in range(2))
                    assert chi(mats, st) == chi(mats, s) * chi(mats, t)
                    assert chi(mats, ga) == det(nc_eval(a, mats))


def test_gamma_multiplicative():
    rng = seeded("gamma-mult")
    for field in FIELDS:
        for _ in range(25):
            a = rand_ncpoly(field, 2, rng, max_terms=2, max_len=2)
            b = rand_ncpoly(field, 2, rng, max_terms=2, max_len=2)
            n = rng.randint(0, 3)
            assert gamma_n(a * b, n) == ts_mul(gamma_n(a, n), gamma_n(b, n))


def test_ts_mul_degree_mismatch():
    with pytest.raises(PreconditionError):
        ts_mul(gamma_n(x(), 2), gamma_n(x(), 3))


def test_ts_mul_enumerates_distinct_arrangements_only(monkeypatch):
    # twelve equal words have one slot order, not 12!; each key of gamma_n of
    # x + y lists its C(12, k) orders once
    start = time.perf_counter()
    assert ts_mul(gamma_n(x(), 12), gamma_n(x(), 12)) == gamma_n(x() * x(), 12)
    assert len(gamma_n(x() + y(), 12).arrangements()) == 2 ** 12
    assert time.perf_counter() - start < 1
    # |supp s| * sum of |orb K2| over t is counted before any enumeration
    s = gamma_n(x(m=3) + y(m=3) + NCPoly.generator(QQ, 3, 2), 10)  # orbits sum to 3^10
    monkeypatch.setattr(divpow, "_arrangements", None)
    with pytest.raises(BudgetExceededError, match="a tensor product of 66 by 66 keys "
                       "has 3897234 arrangement pairs, more than the limit of 65536"):
        ts_mul(s, s)


def test_dp_expression_parser():
    e1 = parse_dp_expr("x1^[1]*x1^[1]", QQ)
    assert e1 == dp_power(x(m=1), 1) * dp_power(x(m=1), 1)
    e2 = parse_dp_expr("(2*x1)^[3]", QQ)
    assert e2 == dp_power(x(m=1), 3) * 8
    e3 = parse_dp_expr("(x1+x2)^[2]", QQ)
    assert e3 == dp_power(x() + y(), 2)
    e4 = parse_dp_expr("3*x1^[2] - x2^[1]*x2^[1]", QQ)
    assert e4 == dp_power(x(), 2) * 3 - dp_power(y(), 1) * dp_power(y(), 1)


@pytest.mark.parametrize("text,m", [
    ("x1", None),              # a bare word needs ^[k]
    ("x1^2", None),            # ^k is no divided power
    ("2^3", None),
    ("(x1^[2]", None),         # unbalanced
    ("x1^[", None),            # unfinished exponent
    ("x3^[1]", 2),             # generator beyond the arity
    ("(x1^[1])^[2]", None),    # a divided power of a divided power
    ("1/3*x1^[1]", "F3"),      # denominator zero in F_3
])
def test_dp_expression_syntax_errors(text, m):
    field = GF(3) if m == "F3" else QQ
    with pytest.raises(ParseError):
        parse_dp_expr(text, field, None if m == "F3" else m)


def test_dp_power_of_parsed_polynomial():
    rng = seeded("dp-parse")
    for field in FIELDS:
        for _ in range(20):
            p = rand_ncpoly(field, 2, rng, max_terms=3, max_len=2)
            k = rng.randint(-1, 3)
            assert parse_dp_expr(f"({p})^[{k}]", field, 2) == dp_power(p, k)


def test_dp_text_roundtrip():
    rng = seeded("dp-io")
    for field in FIELDS:
        for _ in range(15):
            a = rand_ncpoly(field, 2, rng, max_terms=2, max_len=2)
            b = rand_ncpoly(field, 2, rng, max_terms=2, max_len=1)
            elem = dp_power(a, rng.randint(0, 2)) * dp_power(b, rng.randint(0, 2))
            assert DPElement.from_text(elem.to_text()) == elem


def test_symtensor_text_roundtrip():
    rng = seeded("st-io")
    for field in FIELDS:
        for _ in range(15):
            a = rand_ncpoly(field, 2, rng, max_terms=3, max_len=2)
            st = gamma_n(a, rng.randint(0, 3))
            assert SymTensor.from_text(st.to_text()) == st


def test_printed_forms():
    # bare-constant words print as `1`, and the `-c` form appears only in
    # characteristic 0
    a = NCPoly(QQ, 2, {(1, 0): 1, (0,): -1, (): 4})
    assert str(dp_power(a, 2) * 2 - dp_power(x(), 1)) == (
        "-8*(1)^[1]*(x1)^[1] + 8*(1)^[1]*(x2*x1)^[1] + 32*(1)^[2] - (x1)^[1]"
        " - 2*(x1)^[1]*(x2*x1)^[1] + 2*(x1)^[2] + 2*(x2*x1)^[2]")
    assert str(gamma_n(a, 2)) == ("16*{1, 1} - 4*{1, x1} + 4*{1, x2*x1}"
                                  " + {x1, x1} - {x1, x2*x1} + {x2*x1, x2*x1}")
    assert str(dp_power(a, 0) * 3) == "3*(1)^[0]"
    assert str(gamma_n(a, 0)) == "{}"
    b = NCPoly(GF(3), 2, {(1, 0): 1, (0,): -1, (): 4})
    assert str(gamma_n(b, 2)) == ("{1, 1} + 2*{1, x1} + {1, x2*x1} + {x1, x1}"
                                  " + 2*{x1, x2*x1} + {x2*x1, x2*x1}")


def test_oversized_divided_powers_are_refused():
    # gamma_n lists n words per key, dp_power |supp a| words per term; at
    # most 65536 words in all: 256 keys of 255 words pass, 257 of 256 do not
    a = x() + y()
    assert len(gamma_n(a, 255).terms) == 256
    with pytest.raises(BudgetExceededError, match="degree 256 lists 65792 words in 257 "
                       "terms of 256, more than the limit of 65536"):
        gamma_n(a, 256)
    b = a + x() * y() + y() * x()
    assert len(dp_power(b, 44).terms) == comb(47, 3)  # 16215 terms of 4 words
    with pytest.raises(BudgetExceededError, match="degree 45 lists 69184 words in 17296 "
                       "terms of 4, more than the limit of 65536"):
        dp_power(b, 45)
    assert len(gamma_n(x(), 10000).terms) == 1


def test_oversized_products_are_refused(monkeypatch):
    # the term pairs |s|*|t| of a product are bounded like a power's words;
    # the bound is lowered here so the boundary product stays cheap
    import hilbchow.errors
    z = NCPoly.generator(QQ, 3, 2)
    s = dp_power(x(m=3) + y(m=3), 2)  # 3 terms
    t = dp_power(z + 1, 1)  # 2 terms
    monkeypatch.setattr(hilbchow.errors, "MAX_TABLE_WORDS", 6)
    assert len((s * t).terms) == 6
    with pytest.raises(BudgetExceededError,
                       match="3 by 3 terms has 9 term pairs, more than the limit of 6"):
        s * (t + dp_power(x(m=3), 1))
