"""Acceptance suite: one test per exit criterion, exact arithmetic only.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output), and every comparison is exact equality; there are
no tolerances anywhere.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from hilbchow import (GF, QQ, AlgebraPresentation, Cycle, DPElement, Matrix,
                      NCPoly, PointedRep, RepPoint, conjugate, cycle_extract,
                      cycle_product_poly, det_linear_combination, det_point,
                      dp_power, enumerate_points, gamma_n, hc_point,
                      ideal_to_triple, invariant_table, is_cyclic,
                      is_representation, law_coefficients, parse_nc_poly,
                      rep_ideal, stabilizer_is_trivial, triple_to_ideal,
                      triples_equivalent, ts_mul)
from hilbchow.linalg import nullspace

from oracles import (generic_assignment, rand_commuting_split_mats,
                     rand_free_cyclic_point, rand_invertible, rand_matrix, rand_ncpoly,
                     seeded, shuffle_mul, stabilizer_rows, tensor_power)

FIELDS = (QQ, GF(2), GF(3))


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_curve_isomorphism_count():
    # A = F_q[x]: the Hilbert scheme of n points on the affine line has
    # exactly q^n field points; whole check stays under a minute
    with criterion("curve-isomorphism-count"):
        started = time.monotonic()
        for n, q in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
            pres = AlgebraPresentation(GF(q), 1)
            report = enumerate_points(pres, n)
            assert report.orbit_count == q ** n, (n, q, report)
        assert time.monotonic() - started < 60.0


def test_principal_bundle_freeness():
    # divisibility on every enumeration run plus 1000 trivial stabilizers
    with criterion("principal-bundle-freeness"):
        runs = [(AlgebraPresentation(GF(2), 1), 2),
                (AlgebraPresentation(GF(3), 1), 2),
                (AlgebraPresentation(GF(2), 2), 2),
                (AlgebraPresentation(GF(2), 1), 3)]
        for pres, n in runs:
            report = enumerate_points(pres, n)
            assert report.total_cyclic_pairs % report.gl_order == 0
            assert report.orbit_count * report.gl_order == \
                report.total_cyclic_pairs
        rng = seeded("accept-freeness")
        failures = 0
        for i in range(1000):
            field = FIELDS[i % 3]
            n = 1 + (i % 3)
            m = 1 + (i % 2)
            pt = rand_free_cyclic_point(field, m, n, rng)
            if not stabilizer_is_trivial(pt):
                failures += 1
            # the lemma `stabilizer_is_trivial` rests on, solved independently
            rows = stabilizer_rows(field, pt.rep.mats, pt.v)
            assert nullspace(rows, n * n) == []
        assert failures == 0


def test_ideal_triple_roundtrip():
    # 500 randomized cyclic points: the roundtrip returns an equivalent
    # triple, with a unique intertwiner
    with criterion("ideal-triple-roundtrip"):
        rng = seeded("accept-roundtrip")
        for i in range(500):
            field = FIELDS[i % 3]
            n = 1 + (i % 3)
            m = 1 + (i % 2)
            pt = rand_free_cyclic_point(field, m, n, rng)
            back = ideal_to_triple(triple_to_ideal(pt))
            g = triples_equivalent(pt, back)
            assert g is not None
            assert g.apply(pt.v) == back.v
            for M1, M2 in zip(pt.rep.mats, back.rep.mats):
                assert g * M1 == M2 * g
            # uniqueness: homogeneous intertwiner system has trivial kernel
            rows = stabilizer_rows(field, pt.rep.mats, pt.v)
            assert nullspace(rows, n * n) == []


def test_commuting_scheme():
    # the commuting 2x2 scheme: 4 ideal generators; pointwise agreement
    # of relation vanishing and generator vanishing on 1000 random pairs
    with criterion("commuting-scheme"):
        pres = AlgebraPresentation(
            QQ, 2, (parse_nc_poly("x1*x2 - x2*x1", QQ, 2),))
        ideal = rep_ideal(pres, 2)
        assert len(ideal.gens) == 4
        assert all(not g.is_zero() for g in ideal.gens)
        rng = seeded("accept-commuting")
        for i in range(1000):
            field = FIELDS[i % 3]
            pres_f = AlgebraPresentation(
                field, 2, (parse_nc_poly("x1*x2 - x2*x1", field, 2),))
            ideal_f = rep_ideal(pres_f, 2)
            mats = (rand_matrix(field, 2, rng), rand_matrix(field, 2, rng))
            values = generic_assignment(mats)
            vanish = all(not g.evaluate(values) for g in ideal_f.gens)
            assert vanish == is_representation(pres_f, mats)


def test_divided_power_laws():
    # scalar, sum and same-base product rules on all expressions over
    # up to 3 words with exponents up to 3; orbit-sum image against the
    # dense tensor oracle; 1000 multiplicativity pairs
    with criterion("divided-power-laws"):
        words = [(), (0,), (0, 1)]
        for field in FIELDS:
            word_polys = [NCPoly(field, 2, {w: 1}) for w in words]
            for a in word_polys:
                for k in range(4):
                    for alpha in (field(2), field(3), field(-1)):
                        assert dp_power(a * alpha, k) == \
                            dp_power(a, k) * alpha ** k
            for a, b in itertools.product(word_polys, repeat=2):
                for k in range(4):
                    expected = DPElement(field, 2)
                    for i in range(k + 1):
                        expected = expected + dp_power(a, i) * dp_power(b, k - i)
                    assert dp_power(a + b, k) == expected
            for w in words:
                wp = NCPoly(field, 2, {w: 1})
                for i in range(4):
                    for j in range(4):
                        assert dp_power(wp, i) * dp_power(wp, j) == \
                            dp_power(wp, i + j) * comb(i + j, i)
            # tau against the dense shuffle-product oracle, degrees <= 3
            from hilbchow import tau
            for a in word_polys:
                for b in word_polys:
                    for i in range(4):
                        for j in range(4 - i):
                            elem = dp_power(a, i) * dp_power(b, j)
                            oracle = shuffle_mul(tensor_power(a, i),
                                                 tensor_power(b, j), field)
                            assert tau(elem, i + j).arrangements() == oracle
        rng = seeded("accept-gamma")
        for i in range(1000):
            field = FIELDS[i % 3]
            a = rand_ncpoly(field, 2, rng, max_terms=2, max_len=2)
            b = rand_ncpoly(field, 2, rng, max_terms=2, max_len=2)
            n = (i % 3) + 1
            assert gamma_n(a * b, n) == ts_mul(gamma_n(a, n), gamma_n(b, n))


def test_hilbert_chow_factorization_and_invariance():
    # hc equals det on the underlying tuple, byte for byte, and det is
    # blind to conjugation: 100 random conjugations per point
    with criterion("hilbert-chow-factorization"):
        rng = seeded("accept-hc")
        for field in FIELDS:
            for n in (1, 2, 3):
                pt = rand_free_cyclic_point(field, 2, n, rng)
                image = hc_point(pt)
                assert image == det_point(pt.rep)
                assert image.to_text() == det_point(pt.rep).to_text()
                base_text = det_point(pt.rep).to_text()
                for _ in range(100):
                    g = rand_invertible(field, n, rng)
                    moved = conjugate(g, pt.rep)
                    assert det_point(moved).to_text() == base_text
                    vt = g.apply(pt.v)
                    moved_pt = PointedRep(moved, vt)
                    assert is_cyclic(moved_pt)
                    assert hc_point(moved_pt).to_text() == base_text


def test_cycle_compatibility():
    # 200 commuting split tuples from triangular/diagonal data: the
    # determinant of the generic combination is the product over the
    # cycle; the (x^2, y) point gives twice the origin
    with criterion("grothendieck-deligne-cycle"):
        rng = seeded("accept-cycle")
        for i in range(200):
            field = FIELDS[i % 3]
            n = (i % 3) + 1
            m = (i % 2) + 1
            mats, expected = rand_commuting_split_mats(field, m, n, rng)
            rep = RepPoint(field, mats)
            cyc = cycle_extract(rep)
            assert isinstance(cyc, Cycle)
            assert cyc.points == expected
            names = [f"t{k}" for k in range(m + 1)]
            ident = Matrix.identity(n, field.one)
            lhs = det_linear_combination([ident, *mats], names)
            assert lhs == cycle_product_poly(cyc, names)
        nilp = Matrix(((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))))
        zero2 = Matrix.zeros(2, Fraction(0))
        cyc = cycle_extract(RepPoint(QQ, (nilp, zero2)))
        assert cyc.points == {(Fraction(0), Fraction(0)): 2}


def _reduce_scalar(x, field):
    return field(x)


def _reduce_poly(p, field):
    from hilbchow import CommPoly
    return CommPoly(field, {mono: field(c) for mono, c in p.terms.items()})


def _reduce_matrix(M, field):
    return Matrix(tuple(tuple(field(a) for a in row) for row in M.rows))


def test_base_change_mod_5():
    # integer inputs: compute over Q, reduce mod 5, compare with the
    # same computation over F_5 on reduced inputs; 200 cases total
    with criterion("base-change-mod-5"):
        F5 = GF(5)
        rng = seeded("accept-basechange")
        for i in range(200):
            kind = i % 3
            if kind == 0:
                n = (i % 2) + 2
                rep = RepPoint(QQ, tuple(
                    rand_matrix(QQ, n, rng, integer=True) for _ in range(2)))
                rep5 = RepPoint(F5, tuple(_reduce_matrix(M, F5)
                                          for M in rep.mats))
                a, b = det_point(rep, 2), det_point(rep5, 2)
                assert tuple(_reduce_poly(cp, F5) for cp in a.gen_charpolys) \
                    == b.gen_charpolys
                reduced_law = {xi: F5(c)
                               for xi, c in a.mixed_table.coeffs.items()
                               if F5(c)}
                assert reduced_law == b.mixed_table.coeffs
                reduced_dets = {w: F5(d) for w, d in a.word_dets.items()}
                assert reduced_dets == b.word_dets
            elif kind == 1:
                a = NCPoly(QQ, 2, {
                    w: Fraction(rng.randint(-4, 4))
                    for w in [(), (0,), (1,), (0, 1)][:rng.randint(1, 4)]})
                n = (i % 3) + 1
                over_q = gamma_n(a, n)
                a5 = NCPoly(F5, 2, {w: F5(c) for w, c in a.terms.items()})
                over_5 = gamma_n(a5, n)
                reduced = {k: F5(c) for k, c in over_q.terms.items() if F5(c)}
                assert reduced == over_5.terms
            else:
                n = (i % 2) + 2
                rep = RepPoint(QQ, tuple(
                    rand_matrix(QQ, n, rng, integer=True) for _ in range(2)))
                rep5 = RepPoint(F5, tuple(_reduce_matrix(M, F5)
                                          for M in rep.mats))
                t_q = invariant_table(rep, 2)
                t_5 = invariant_table(rep5, 2)
                assert {w: F5(t) for w, t in t_q.traces.items()} == t_5.traces
                assert tuple(F5(d) for d in t_q.gen_dets) == t_5.gen_dets


def test_law_coefficient_homogeneity():
    # every exponent vector produced anywhere has weight exactly n; the
    # table constructor enforces this on each build, and this sweep
    # exercises it on randomized inputs across fields and dimensions
    with criterion("law-coefficient-homogeneity"):
        rng = seeded("accept-homogeneity")
        checked = 0
        for i in range(150):
            field = FIELDS[i % 3]
            n = (i % 3) + 1
            rep = RepPoint(field, tuple(
                rand_matrix(field, n, rng) for _ in range(2)))
            nargs = rng.randint(1, 3)
            args = [rand_ncpoly(field, 2, rng, max_terms=2, max_len=2)
                    for _ in range(nargs)]
            table = law_coefficients(rep, args)
            for xi in table.coeffs:
                assert len(xi) == nargs and sum(xi) == n
                checked += 1
        assert checked > 0
