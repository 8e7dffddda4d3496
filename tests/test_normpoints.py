from fractions import Fraction

import pytest

from hilbchow import (GF, QQ, CommPoly, Cycle, LawCoefficientTable, Matrix, NCPoly,
                      BudgetExceededError, NormPoint, PointedRep,
                      PreconditionError, RepPoint,
                      SplitFailure, conjugate, cycle_extract,
                      cycle_product_poly, det_linear_combination, det_point,
                      field_roots, hc_point, law_coefficients,
                      matrix_inverse, parse_comm_poly)
from hilbchow.cli import main
from hilbchow.fields import FpElem
from hilbchow.ncpoly import words_up_to

from oracles import (FIELDS, eval_by_letters, mat_add, mat_scale,
                     rand_commuting_split_mats, rand_free_cyclic_point, rand_invertible,
                     rand_matrix, seeded)


def M(*rows):
    return Matrix(tuple(tuple(Fraction(a) for a in r) for r in rows))


NILP = M((0, 1), (0, 0))
ZERO2 = M((0, 0), (0, 0))


def test_law_coefficients_unit_argument():
    rep = RepPoint(QQ, (M((1, 0), (0, 2)),))
    table = law_coefficients(rep, [NCPoly.one(QQ, 1)])
    assert table.coeffs == {(2,): Fraction(1)}


def test_law_coefficients_frozen_example():
    rep = RepPoint(QQ, (M((1, 0), (0, 2)),))
    args = [NCPoly.one(QQ, 1), NCPoly.generator(QQ, 1, 0)]
    table = law_coefficients(rep, args)
    assert table.coeffs == {(2, 0): Fraction(1), (1, 1): Fraction(3),
                            (0, 2): Fraction(2)}


def test_law_coefficients_homogeneous():
    rng = seeded("law-homog")
    from oracles import rand_ncpoly
    for field in FIELDS:
        for n in (1, 2, 3):
            rep = RepPoint(field, (rand_matrix(field, n, rng),
                                   rand_matrix(field, n, rng)))
            args = [rand_ncpoly(field, 2, rng) for _ in range(rng.randint(1, 3))]
            table = law_coefficients(rep, args)
            for xi in table.coeffs:
                assert sum(xi) == n and len(xi) == len(args)


def test_law_coefficients_against_letter_products():
    # the table reads every coefficient back from one integer lift of the
    # tuple and all argument coefficients; the oracle evaluates each argument
    # by letter products over the field and hands the images to
    # det_linear_combination, which lifts them on its own.  The arguments mix
    # word lengths (so terms are scaled by different powers of the common
    # denominator), carry constant terms and non-integral coefficients over
    # Q, include the zero element and repeat one argument
    rng = seeded("law-oracle")
    cases = [[{(0,): (1, 1)}, {(1,): (1, 1)}],
             [{(0, 1): (1, 1), (): (-1, 2)}, {(1, 1, 1): (1, 1), (0,): (2, 3)},
              {(): (3, 1)}],
             [{(0, 0, 1): (1, 1), (1, 0): (-1, 1), (): (5, 4)}, {(1,): (1, 1)},
              {(0, 0, 1): (1, 1), (1, 0): (-1, 1), (): (5, 4)}],
             [{(1, 0, 1, 0): (1, 3)}, {(0,): (1, 1), (1,): (-1, 1)}, {},
              {(1, 1): (1, 1), (0, 1, 0): (7, 2)}]]
    for field in FIELDS + (GF(101),):
        def coef(num, den):  # non-integral over Q only
            return Fraction(num, den) if field is QQ else field(num)
        for n in (1, 2, 3, 4):
            for case in cases:
                rep = RepPoint(field, tuple(rand_matrix(field, n, rng) for _ in range(2)))
                args = [NCPoly(field, 2, {w: coef(*c) for w, c in terms.items()})
                        for terms in case]
                names = [f"t{s + 1}" for s in range(len(args))]
                poly = det_linear_combination(
                    [eval_by_letters(a, rep.mats) for a in args], names)
                expected = {tuple(dict(mono).get(t, 0) for t in names): c
                            for mono, c in poly.terms.items()}
                table = law_coefficients(rep, args)
                assert table.coeffs == expected, (field, n, case)
                assert all(type(c) is type(field.one) for c in table.coeffs.values())


def test_law_table_constructor_rejects_inhomogeneous():
    with pytest.raises(PreconditionError):
        LawCoefficientTable(QQ, 2, (NCPoly.one(QQ, 1),), {(1,): Fraction(1)})


@pytest.mark.parametrize("m,point", [(1, (1, 2)), (2, (1,))])
def test_cycle_constructor_rejects_a_point_of_the_wrong_length(m, point):
    # every point of a cycle has m coordinates; a longer one would have its
    # extra coordinates dropped by `cycle_product_poly`
    with pytest.raises(PreconditionError, match=f"must have m = {m} coordinates"):
        Cycle(QQ, m, 1, {point: 1})


def test_det_point_identity_rep():
    rep = RepPoint(QQ, (Matrix.identity(2, Fraction(1)),))
    np_ = det_point(rep)
    assert all(d == 1 for d in np_.word_dets.values())
    assert np_.max_len == 3
    assert set(np_.word_dets) == set(words_up_to(1, 3))


def test_hc_point_frozen_example():
    pt = PointedRep(RepPoint(QQ, (NILP, ZERO2)), (Fraction(0), Fraction(1)))
    np_ = hc_point(pt)
    assert [str(cp) for cp in np_.gen_charpolys] == ["t^2", "t^2"]
    assert np_ == det_point(pt.rep)


def test_hc_rejects_non_cyclic():
    pt = PointedRep(RepPoint(QQ, (NILP, ZERO2)), (Fraction(1), Fraction(0)))
    with pytest.raises(PreconditionError):
        hc_point(pt)


def test_hc_factors_through_det_point():
    rng = seeded("hc-factor")
    for field in FIELDS:
        for n in (1, 2, 3):
            pt = rand_free_cyclic_point(field, 2, n, rng)
            assert hc_point(pt) == det_point(pt.rep)
            for v_try in range(3):
                from oracles import rand_vector
                from hilbchow import is_cyclic
                v = rand_vector(field, n, rng)
                pt2 = PointedRep(pt.rep, v)
                if is_cyclic(pt2):
                    assert hc_point(pt2) == det_point(pt.rep)


def test_det_point_n1_lists_entries():
    rep = RepPoint(QQ, (Matrix(((Fraction(5),),)), Matrix(((Fraction(-2),),))))
    np_ = det_point(rep, 2)
    assert np_.word_dets[(0,)] == 5
    assert np_.word_dets[(1,)] == -2
    assert np_.word_dets[(0, 1)] == -10


def test_word_dets_multiplicative_within_bound():
    rng = seeded("word-mult")
    for field in FIELDS:
        rep = RepPoint(field, (rand_matrix(field, 2, rng),
                               rand_matrix(field, 2, rng)))
        np_ = det_point(rep, 4)
        for w1 in words_up_to(2, 2):
            for w2 in words_up_to(2, 2):
                assert np_.word_dets[w1 + w2] == \
                    np_.word_dets[w1] * np_.word_dets[w2]


def test_det_point_conjugation_invariant():
    rng = seeded("detpt-conj")
    for field in FIELDS:
        for n in (2, 3):
            rep = RepPoint(field, (rand_matrix(field, n, rng),
                                   rand_matrix(field, n, rng)))
            base = det_point(rep)
            for _ in range(10):
                g = rand_invertible(field, n, rng)
                assert det_point(conjugate(g, rep)) == base


def test_norm_point_equal_on_equivalent_triples():
    rng = seeded("np-equiv")
    for field in FIELDS:
        pt = rand_free_cyclic_point(field, 2, 2, rng)
        g = rand_invertible(field, 2, rng)
        moved = PointedRep(conjugate(g, pt.rep), g.apply(pt.v))
        assert hc_point(moved) == hc_point(pt)


def test_norm_point_text_roundtrip():
    rng = seeded("np-io")
    for field in FIELDS:
        rep = RepPoint(field, (rand_matrix(field, 2, rng),
                               rand_matrix(field, 2, rng)))
        np_ = det_point(rep, 2)
        assert NormPoint.from_text(np_.to_text()) == np_


def test_norm_point_roundtrip_with_empty_law_table():
    # nilpotent images: det of every generator combination vanishes,
    # so the mixed table is empty but still round-trips
    rep = RepPoint(QQ, (NILP, ZERO2))
    np_ = det_point(rep)
    assert np_.mixed_table.coeffs == {}
    assert NormPoint.from_text(np_.to_text()) == np_


def test_field_roots_basic():
    cp = parse_comm_poly("t^2 - 3*t + 2", QQ)
    roots, split = field_roots(cp)
    assert split and roots == [(Fraction(1), 1), (Fraction(2), 1)]
    cp2 = parse_comm_poly("t^2 + 1", QQ)
    roots2, split2 = field_roots(cp2)
    assert not split2 and roots2 == []
    cp3 = parse_comm_poly("t^3", QQ)
    assert field_roots(cp3) == ([(Fraction(0), 3)], True)
    # rational roots with denominators
    cp4 = parse_comm_poly("2*t^2 - 3*t + 1", QQ)
    roots4, split4 = field_roots(cp4)
    assert split4 and roots4 == [(Fraction(1, 2), 1), (Fraction(1), 1)]


def test_field_roots_over_fp():
    F = GF(5)
    cp = parse_comm_poly("t^2 + 1", F)  # roots 2, 3 mod 5
    roots, split = field_roots(cp)
    assert split and roots == [(F(2), 1), (F(3), 1)]
    F2 = GF(2)
    cp2 = parse_comm_poly("t^2 + t + 1", F2)
    assert field_roots(cp2) == ([], False)


def test_field_roots_over_fp_find_planted_roots():
    # c * prod (t - r)^e * g with g free of roots (checked by evaluating it
    # at every element): the roots are the planted r with multiplicities e,
    # including p - 1, the last element the scan reaches
    rng = seeded("planted-roots")
    for p in (2, 3, 5, 101):
        F = GF(p)
        t = CommPoly.variable(F, "t")
        for _ in range(8):
            planted = {r: rng.randint(1, 3) for r in rng.sample(range(p), min(p, 3))}
            planted[p - 1] = rng.randint(1, 2)
            while True:
                a, b = rng.randrange(p), rng.randrange(p)
                if all((x * x + a * x + b) % p for x in range(p)):
                    break
            for g, splits in ((CommPoly.const(F, 1), True), (t * t + a * t + b, False)):
                poly = g * rng.randint(1, p - 1)
                for r, e in planted.items():
                    poly = poly * (t - r) ** e
                roots, split = field_roots(poly)
                assert roots == [(F(r), e) for r, e in sorted(planted.items())]
                assert all(type(r) is FpElem for r, _ in roots)
                assert split == splits


def test_cycle_extract_frozen_examples():
    rep = RepPoint(QQ, (NILP, ZERO2))
    cyc = cycle_extract(rep)
    assert isinstance(cyc, Cycle)
    assert cyc.points == {(Fraction(0), Fraction(0)): 2}

    rep2 = RepPoint(QQ, (M((1, 0), (0, 2)), M((3, 0), (0, 4))))
    cyc2 = cycle_extract(rep2)
    assert cyc2.points == {(Fraction(1), Fraction(3)): 1,
                           (Fraction(2), Fraction(4)): 1}

    companion = M((0, -1), (1, 0))  # t^2 + 1
    fail = cycle_extract(RepPoint(QQ, (companion,)))
    assert isinstance(fail, SplitFailure)
    assert str(fail.charpoly) == "t^2 + 1"

    # a later generator that does not split is named by its whole charpoly,
    # (t^2 + 1)(t - 5)(t - 6), not by the block of it that fails
    X1 = M((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    X2 = M((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 5, 0), (0, 0, 0, 6))
    fail2 = cycle_extract(RepPoint(QQ, (X1, X2)))
    assert isinstance(fail2, SplitFailure)
    assert str(fail2.charpoly) == "t^4 - 11*t^3 + 31*t^2 - 11*t + 30"


def test_cycle_extract_rejects_non_commuting():
    with pytest.raises(PreconditionError):
        cycle_extract(RepPoint(QQ, (NILP, M((0, 0), (1, 0)))))


def test_cycle_refusal_names_the_first_non_commuting_pair():
    F3 = GF(3)
    A = Matrix([[F3(0), F3(0)], [F3(1), F3(1)]])
    E = Matrix([[F3(0), F3(1)], [F3(0), F3(0)]])
    # companion(t^2 + 1) does not split over Q: the commutation test comes first
    for field, mats, pair in ((QQ, (NILP, M((0, 0), (1, 0))), "1 and 2"),
                              (QQ, (M((0, -1), (1, 0)), NILP), "1 and 2"),
                              (F3, (A, A, E), "1 and 3"),
                              (F3, (Matrix.zeros(2, F3.zero), A, E), "2 and 3")):
        with pytest.raises(PreconditionError, match=f"^matrices {pair} do not commute$"):
            cycle_extract(RepPoint(field, mats))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
def test_cycle_of_a_non_semisimple_tuple(field):
    # X1 = J_2(lam) + J_1(lam) + (mu) and X2 = diag(a, a, b, c) commute; lam
    # has multiplicity 3 in a space of dimension 4, so ker (X1 - lam)^3 is
    # the generalized eigenspace although (X1 - lam)^3 != (X1 - lam)^4
    lam, mu, a, b, c = (field(Fraction(v)) for v in ("1/2", "-3", "2", "4", "0"))
    z = field.zero
    X1 = Matrix([[lam, field.one, z, z], [z, lam, z, z], [z, z, lam, z], [z, z, z, mu]])
    X2 = Matrix([[a, z, z, z], [z, a, z, z], [z, z, b, z], [z, z, z, c]])
    shifted = mat_add(X1, mat_scale(Matrix.identity(4, field.one), -lam))
    cube = shifted * shifted * shifted
    assert cube != cube * shifted
    rng = seeded("jordan-2-1", field.characteristic)
    names = ["t0", "t1", "t2"]
    for _ in range(3):
        g = rand_invertible(field, 4, rng)
        ginv = matrix_inverse(g)
        mats = (g * X1 * ginv, g * X2 * ginv)
        cyc = cycle_extract(RepPoint(field, mats))
        assert cyc.points == {(lam, a): 2, (lam, b): 1, (mu, c): 1}
        ident = Matrix.identity(4, field.one)
        assert det_linear_combination([ident, *mats], names) == cycle_product_poly(cyc, names)
        assert cycle_extract(RepPoint(field, mats[:1])).points == {(lam,): 3, (mu,): 1}
        swapped = cycle_extract(RepPoint(field, mats[::-1])).points
        assert swapped == {(a, lam): 2, (b, lam): 1, (c, mu): 1}
        # m = 3: a scalar X0 keeps the whole space, X1 splits it into its
        # lam and mu parts, and X2 splits the lam part further
        s0 = field(7)
        triple = cycle_extract(RepPoint(field, (mat_scale(ident, s0), *mats)))
        assert triple.points == {(s0, lam, a): 2, (s0, lam, b): 1, (s0, mu, c): 1}


def test_cycle_accepts_a_pair_that_commutes_mod_p_only(capsys):
    # the representatives 0 0; 1 1 and 1 0; 2 0 give AB - BA = 3 E_21 over Z
    F3 = GF(3)
    A = Matrix([[F3(0), F3(0)], [F3(1), F3(1)]])
    B = Matrix([[F3(1), F3(0)], [F3(2), F3(0)]])
    cyc = cycle_extract(RepPoint(F3, (A, B)))
    assert cyc.points == {(F3(0), F3(1)): 1, (F3(1), F3(0)): 1}
    code = main(["cycle", "--presentation", "field F 3|gens x1 x2|rel x1*x2 - x2*x1",
                 "--point", "point|field F 3|n 2|mat 0 0; 1 1|mat 1 0; 2 0"])
    assert (code, capsys.readouterr().out) == (0, cyc.to_text())


def test_cycle_multiplicities_sum_to_n():
    rng = seeded("cycle-sum")
    for field in FIELDS:
        for m in (2, 2, 3) * 5:
            mats, expected = rand_commuting_split_mats(field, m, 3, rng)
            out = cycle_extract(RepPoint(field, mats))
            assert isinstance(out, Cycle)
            assert sum(out.points.values()) == 3
            assert out.points == expected


def test_cycle_product_formula():
    rng = seeded("cycle-product")
    for field in FIELDS:
        for n in (1, 2, 3):
            mats, _ = rand_commuting_split_mats(field, 2, n, rng)
            rep = RepPoint(field, mats)
            cyc = cycle_extract(rep)
            assert isinstance(cyc, Cycle)
            names = ["t0", "t1", "t2"]
            ident = Matrix.identity(n, field.one)
            lhs = det_linear_combination([ident, *mats], names)
            assert lhs == cycle_product_poly(cyc, names)


def test_cycle_generator_order_independent():
    rng = seeded("cycle-order")
    for field in FIELDS:
        mats, _ = rand_commuting_split_mats(field, 2, 3, rng)
        c1 = cycle_extract(RepPoint(field, mats))
        c2 = cycle_extract(RepPoint(field, (mats[1], mats[0])))
        flipped = {(b, a): mult for (a, b), mult in c2.points.items()}
        assert flipped == c1.points


def test_cycle_text_roundtrip():
    rep = RepPoint(GF(5), (Matrix(((GF(5)(1), GF(5)(0)),
                                   (GF(5)(0), GF(5)(2)))),))
    cyc = cycle_extract(rep)
    assert Cycle.from_text(cyc.to_text()) == cyc
    fail = cycle_extract(RepPoint(QQ, (M((0, -1), (1, 0)),)))
    assert SplitFailure.from_text(fail.to_text()) == fail


def test_law_table_text_roundtrip():
    rep = RepPoint(QQ, (M((1, 2), (0, 1)),))
    args = [NCPoly.one(QQ, 1), NCPoly.generator(QQ, 1, 0)]
    table = law_coefficients(rep, args)
    assert LawCoefficientTable.from_text(table.to_text()) == table


def test_law_coefficients_refuses_large_tables(monkeypatch):
    # n^3 C(n+k-1, n) steps: 2^3 * C(4, 2) = 48 for three arguments at n = 2;
    # the limit is lowered so the boundary table stays cheap
    import hilbchow.errors
    rep = RepPoint(QQ, (M((1, 2), (3, 4)),))
    args = [NCPoly.one(QQ, 1), NCPoly.generator(QQ, 1, 0),
            NCPoly(QQ, 1, {(0, 0): Fraction(1)})]
    monkeypatch.setattr(hilbchow.errors, "MAX_TABLE_WORDS", 48)
    assert len(law_coefficients(rep, args).coeffs) == 6
    monkeypatch.setattr(hilbchow.errors, "MAX_TABLE_WORDS", 47)
    with pytest.raises(BudgetExceededError, match="a law table of 3 arguments on 2 x 2 "
                       "matrices takes 48 steps, more than the limit of 47"):
        law_coefficients(rep, args)


def test_field_roots_refuses_long_scans():
    # 2^20 field elements, trial divisions or rational candidates at most
    F = GF(1048583)  # the least prime above 2^20
    with pytest.raises(BudgetExceededError, match="a root search would try 1048583 "
                       "field elements, more than the limit of 1048576"):
        field_roots(parse_comm_poly("t^2 - 3*t + 2", F))
    big = (1 << 20) + 1
    with pytest.raises(BudgetExceededError, match=f"a root search would try {big} "
                       "trial divisions, more than the limit of 1048576"):
        field_roots(parse_comm_poly(f"t^2 - {big * big}", QQ))
    assert field_roots(parse_comm_poly(f"t^2 - {(big - 1) ** 2}", QQ)) == (
        [(Fraction(-(big - 1)), 1), (Fraction(big - 1), 1)], True)
    # 735134400 has 1344 divisors, and 2 * 1344^2 > 2^20
    with pytest.raises(BudgetExceededError, match="a root search would try 3612672 "
                       "rational candidates, more than the limit of 1048576"):
        field_roots(parse_comm_poly("735134400*t^2 - 735134400", QQ))
