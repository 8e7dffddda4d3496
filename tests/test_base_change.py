"""Base change: the norm map and the divided powers are defined over Z, so a
value computed over Q on p-integral data and reduced mod p must equal the
same value computed over F_p on the reduced data.  Q and F_p run separate
integer paths (the common denominator d with `back(c, k)` dividing by d^k
over Q, unreduced representatives over F_p), so the entries here are a/b
with p not dividing b: the lift over Q then has d != 1, and a result read
back at the wrong degree is off by a power of d, which shows mod p unless
d = 1 mod p (always so for p = 2).  p runs over 2, 3, 5, 7 and 101, p <= n
included."""

from fractions import Fraction
from itertools import product

import pytest

from hilbchow import (GF, QQ, CommPoly, Matrix, NCPoly, RepPoint, det_point, gamma_n,
                      invariant_table, law_coefficients, parse_dp_expr, ts_mul)

from oracles import seeded

PRIMES = (2, 3, 5, 7, 101)


def p_integral(p, rng):
    "a/b with 0 < |a| <= 4 and b > 1 prime to p."
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                    rng.choice([b for b in (2, 3, 5) if b % p]))


def point_pair(p, m, n, rng):
    "A point over Q with p-integral entries, none of them integers, and its reduction."
    mats = [[[p_integral(p, rng) for _ in range(n)] for _ in range(n)] for _ in range(m)]
    F = GF(p)
    return (RepPoint(QQ, tuple(map(Matrix, mats))),
            RepPoint(F, tuple(Matrix([[F(a) for a in r] for r in M]) for M in mats)))


def reduced(F, terms):
    "A Q-coefficient dict reduced mod p, zeros dropped."
    return {k: F(c) for k, c in terms.items() if F(c)}


def poly_pair(p, m, words, rng):
    "A free-algebra element on `words` with p-integral coefficients, over Q and F_p."
    terms = {w: p_integral(p, rng) for w in words}
    return NCPoly(QQ, m, terms), NCPoly(GF(p), m, {w: GF(p)(c) for w, c in terms.items()})


CASES = list(product(PRIMES, (1, 2), (1, 2, 3)))


@pytest.mark.parametrize("p,m,n", CASES)
def test_norm_point_commutes_with_reduction(p, m, n):
    rng, F = seeded("base-change-norm", p * 100 + m * 10 + n), GF(p)
    for _ in range(2):
        rep_q, rep_p = point_pair(p, m, n, rng)
        over_q, over_p = det_point(rep_q), det_point(rep_p)
        assert over_q.max_len == over_p.max_len == 2 * n - 1
        assert tuple(CommPoly(F, cp.terms) for cp in over_q.gen_charpolys) == \
            over_p.gen_charpolys
        assert reduced(F, over_q.mixed_table.coeffs) == over_p.mixed_table.coeffs
        assert {w: F(c) for w, c in over_q.word_dets.items()} == over_p.word_dets


@pytest.mark.parametrize("p,m,n", CASES)
def test_invariant_table_commutes_with_reduction(p, m, n):
    rng, F = seeded("base-change-invariants", p * 100 + m * 10 + n), GF(p)
    for _ in range(2):
        rep_q, rep_p = point_pair(p, m, n, rng)
        over_q, over_p = invariant_table(rep_q), invariant_table(rep_p)
        assert {w: F(c) for w, c in over_q.traces.items()} == over_p.traces
        assert tuple(map(F, over_q.gen_dets)) == over_p.gen_dets


@pytest.mark.parametrize("p,m,n", CASES)
def test_law_table_commutes_with_reduction(p, m, n):
    # arguments of word lengths 0 to 3, one of them with a constant term,
    # so the images are scaled to the longest word before the determinant
    rng, F = seeded("base-change-law", p * 100 + m * 10 + n), GF(p)
    shapes = ([(), (0,), (m - 1, 0)], [(0,)], [(m - 1, 0, m - 1), (m - 1,)])
    for _ in range(2):
        rep_q, rep_p = point_pair(p, m, n, rng)
        args = [poly_pair(p, m, words, rng) for words in shapes]
        over_q = law_coefficients(rep_q, [a for a, _ in args])
        over_p = law_coefficients(rep_p, [a for _, a in args])
        assert reduced(F, over_q.coeffs) == over_p.coeffs


@pytest.mark.parametrize("p", PRIMES)
def test_divided_powers_commute_with_reduction(p):
    # gamma_n, the divided-power normal form and the orbit-sum product on
    # p-integral coefficients, n from 1 to 3 (so p <= n for p = 2, 3); the
    # product of gamma_n(a) and gamma_n(b) is gamma_n(ab) on both sides
    rng, F = seeded("base-change-divpow", p), GF(p)
    words = [(), (0,), (1,), (0, 1), (1, 1, 0)]
    for n in (1, 2, 3):
        for _ in range(3):
            a_q, a_p = poly_pair(p, 2, rng.sample(words, rng.randint(1, 3)), rng)
            b_q, b_p = poly_pair(p, 2, rng.sample(words, rng.randint(1, 3)), rng)
            ga_q, ga_p = gamma_n(a_q, n), gamma_n(a_p, n)
            gb_q, gb_p = gamma_n(b_q, n), gamma_n(b_p, n)
            assert reduced(F, ga_q.terms) == ga_p.terms
            prod_q, prod_p = ts_mul(ga_q, gb_q), ts_mul(ga_p, gb_p)
            assert reduced(F, prod_q.terms) == prod_p.terms
            assert prod_q == gamma_n(a_q * b_q, n) and prod_p == gamma_n(a_p * b_p, n)
            c, e = p_integral(p, rng), rng.randint(1, 3)
            sign = "-" if c < 0 else "+"
            text = (f"({a_q})^[{n}] * x2^[{e}] {sign} {abs(c)}*({b_q})^[{n + e}]"
                    f" - x1^[1]*x1^[{e}]")
            assert reduced(F, parse_dp_expr(text, QQ, 2).terms) == \
                parse_dp_expr(text, F, 2).terms
