from fractions import Fraction

import pytest

from hilbchow import (GF, QQ, AlgebraPresentation, BudgetExceededError,
                      CommPoly, Matrix, NCPoly,
                      ParseError, PreconditionError, RepPoint, SingularMatrixError,
                      build_generic, charpoly, conjugate, det_point, invariant_table,
                      is_representation, nc_eval, parse_nc_poly, rep_ideal)
from hilbchow.fields import FpElem
from hilbchow.repvariety import generic_assignment, generic_var

from oracles import (FIELDS, leibniz_det, rand_invertible, rand_matrix, rand_ncpoly,
                     seeded, word_traces)


def free_pres(m=2, field=QQ):
    return AlgebraPresentation(field, m)


def commuting_pres(field=QQ):
    rel = parse_nc_poly("x1*x2 - x2*x1", field, 2)
    return AlgebraPresentation(field, 2, (rel,))


def poly_pres(text, m, field=QQ):
    return AlgebraPresentation(field, m, tuple(
        parse_nc_poly(t, field, m) for t in text))


def M(*rows):
    return Matrix(tuple(tuple(Fraction(a) for a in r) for r in rows))


def test_presentation_text_roundtrip():
    for pres in (free_pres(), commuting_pres(),
                 poly_pres(["x1^2"], 1, GF(3)),
                 poly_pres(["x1*x2 - x2*x1", "x1^2 - 1"], 2, GF(2))):
        assert AlgebraPresentation.from_text(pres.to_text()) == pres


def test_presentation_grammar_errors():
    with pytest.raises(ParseError):
        AlgebraPresentation.from_text("gens x1\nrel x1")
    with pytest.raises(ParseError):
        AlgebraPresentation.from_text("field Q\ngens x2 x1")
    with pytest.raises(ParseError):
        AlgebraPresentation.from_text("field Q\ngens x1\nrel x2")


def test_commutativity_flag():
    assert free_pres(1).is_commutative
    assert not free_pres(2).is_commutative
    assert commuting_pres().is_commutative
    # scaled commutator still spans the commutator
    scaled = poly_pres(["2*x1*x2 - 2*x2*x1"], 2)
    assert scaled.is_commutative
    # x1^2 relation alone does not make two generators commute
    assert not poly_pres(["x1^2"], 2).is_commutative
    three = poly_pres(["x1*x2 - x2*x1", "x1*x3 - x3*x1", "x2*x3 - x3*x2"], 3)
    assert three.is_commutative
    assert not poly_pres(["x1*x2 - x2*x1", "x1*x3 - x3*x1"], 3).is_commutative
    # [x1, x2] and [x1, x3] are half the sum and half the difference of two
    # relations, and no multiple of either one
    mixed = poly_pres(["x1*x2 - x2*x1 + x1*x3 - x3*x1",
                       "x1*x2 - x2*x1 - x1*x3 + x3*x1", "x2*x3 - x3*x2"], 3)
    assert mixed.is_commutative
    # [x1, x2] lies in the span, then [x1, x3] uses its words and does not
    late = poly_pres(["x1*x2 - x2*x1", "x1*x3 + x3*x1", "x2*x3 - x3*x2"], 3)
    assert not late.is_commutative


def test_build_generic_counts():
    assert build_generic(free_pres(1), 1)[0].rows[0][0] == \
        CommPoly.variable(QQ, generic_var(1, 1, 1))
    mats = build_generic(free_pres(2), 2)
    names = {v for Mk in mats for row in Mk.rows
             for entry in row for v in entry.variables()}
    assert len(names) == 8
    mats3 = build_generic(free_pres(3), 2)
    names3 = {v for Mk in mats3 for row in Mk.rows
              for entry in row for v in entry.variables()}
    assert len(names3) == 12


def test_rep_ideal_free_is_empty():
    assert rep_ideal(free_pres(2), 2).gens == ()


def test_rep_ideal_commuting_matches_hand_expansion():
    # oracle: multiply the generic 2x2 matrices explicitly
    field = QQ
    xi = {(k, i, j): CommPoly.variable(field, generic_var(k, i, j))
          for k in (1, 2) for i in (1, 2) for j in (1, 2)}

    def prod_entry(a, b, i, j):
        return sum((xi[(a, i, l)] * xi[(b, l, j)] for l in (1, 2)),
                   CommPoly(field))

    expected = set()
    for i in (1, 2):
        for j in (1, 2):
            expected.add(prod_entry(1, 2, i, j) - prod_entry(2, 1, i, j))
    ideal = rep_ideal(commuting_pres(), 2)
    assert len(ideal.gens) == 4
    assert set(ideal.gens) == expected


def test_rep_ideal_square_zero():
    ideal = rep_ideal(poly_pres(["x1^2"], 1), 1)
    assert len(ideal.gens) == 1
    assert str(ideal.gens[0]) == "xi_1_1_1^2"


def test_is_representation_examples():
    pres = commuting_pres()
    assert is_representation(pres, (M((1, 0), (0, 2)), M((3, 0), (0, 4))))
    assert not is_representation(pres, (M((0, 1), (0, 0)), M((0, 0), (1, 0))))
    assert is_representation(free_pres(2), (M((0, 1), (0, 0)), M((0, 0), (1, 0))))


def test_ideal_point_consistency():
    # generator vanishing under substitution == relation vanishing
    rng = seeded("ideal-consistency")
    pres_by_field = {f: commuting_pres(f) for f in FIELDS}
    for field in FIELDS:
        pres = pres_by_field[field]
        ideal = rep_ideal(pres, 2)
        for _ in range(25):
            mats = (rand_matrix(field, 2, rng), rand_matrix(field, 2, rng))
            values = generic_assignment(mats)
            vanish = all(not g.evaluate(values) for g in ideal.gens)
            assert vanish == is_representation(pres, mats)


def test_conjugate_examples():
    pt = RepPoint(QQ, (M((0, 1), (0, 0)),))
    g = M((1, 0), (0, 2))
    moved = conjugate(g, pt)
    assert moved.mats[0] == Matrix(((Fraction(0), Fraction(1, 2)),
                                    (Fraction(0), Fraction(0))))
    ident = Matrix.identity(2, Fraction(1))
    assert conjugate(ident, pt) == pt
    with pytest.raises(SingularMatrixError):
        conjugate(M((1, 1), (1, 1)), pt)


def test_conjugate_is_group_action():
    rng = seeded("conjugate-action")
    for field in FIELDS:
        for _ in range(10):
            pt = RepPoint(field, (rand_matrix(field, 2, rng),
                                  rand_matrix(field, 2, rng)))
            g = rand_invertible(field, 2, rng)
            h = rand_invertible(field, 2, rng)
            assert conjugate(g, conjugate(h, pt)) == conjugate(g * h, pt)


def test_conjugate_preserves_relations():
    rng = seeded("conjugate-relations")
    pres = commuting_pres()
    mats = (M((1, 1), (0, 1)), M((2, 3), (0, 2)))
    assert is_representation(pres, mats)
    pt = RepPoint(QQ, mats)
    for _ in range(10):
        g = rand_invertible(QQ, 2, rng)
        assert is_representation(pres, conjugate(g, pt).mats)


def test_invariant_table_examples():
    ident = RepPoint(QQ, (Matrix.identity(2, Fraction(1)),))
    table = invariant_table(ident, 2)
    assert table.traces[(0,)] == 2
    assert table.traces[(0, 0)] == 2
    assert table.gen_dets == (Fraction(1),)

    jordan = RepPoint(QQ, (M((1, 1), (0, 1)),))
    tj = invariant_table(jordan, 2)
    # same table as the identity though not conjugate to it
    assert tj == table


def test_invariant_table_default_bound():
    pt = RepPoint(QQ, (M((1, 0), (0, 2)),))
    table = invariant_table(pt)
    assert table.max_len == 3  # 2n - 1
    assert set(table.traces) == {(0,), (0, 0), (0, 0, 0)}
    assert table.traces[(0, 0, 0)] == 9


def test_invariant_table_conjugation_invariant():
    rng = seeded("invariant-conj")
    for field in FIELDS:
        for n in (2, 3):
            for _ in range(10):
                pt = RepPoint(field, (rand_matrix(field, n, rng),
                                      rand_matrix(field, n, rng)))
                g = rand_invertible(field, n, rng)
                assert invariant_table(conjugate(g, pt)) == invariant_table(pt)


def test_invariant_table_text_roundtrip():
    from hilbchow import InvariantTable
    pt = RepPoint(GF(3), (rand_matrix(GF(3), 2, seeded("it-io")),
                          rand_matrix(GF(3), 2, seeded("it-io", 1))))
    table = invariant_table(pt, 2)
    assert InvariantTable.from_text(table.to_text()) == table


def test_rep_ideal_text_roundtrip():
    from hilbchow import RepIdeal
    ideal = rep_ideal(commuting_pres(GF(5)), 2)
    assert RepIdeal.from_text(ideal.to_text()) == ideal


def test_build_generic_refuses_oversized_systems():
    # at most 65536 generic entries m * n^2 in all
    assert build_generic(free_pres(2), 40)[1].n == 40
    assert build_generic(free_pres(1), 256)[0].n == 256
    with pytest.raises(BudgetExceededError, match="1 generic 257 x 257 matrices have "
                       "66049 entries, more than the limit of 65536"):
        build_generic(free_pres(1), 257)
    with pytest.raises(BudgetExceededError):
        rep_ideal(free_pres(1), 3000)


# a word w gives each of the n^2 entries at most min(n^(|w|-1),
# C(|w| + N - 1, N - 1)) terms, N = m n^2: at n = 2, x1^2 gives 4 * 2 and
# x1^10 + 1 gives 4 * (C(13, 3) + 1); the bound is lowered so both stay cheap
@pytest.mark.parametrize("rel,terms", [("x1^2", 8), ("x1^10 + 1", 1148)])
def test_rep_ideal_refuses_oversized_relations(monkeypatch, rel, terms):
    import hilbchow.errors
    pres = poly_pres([rel], 1)
    monkeypatch.setattr(hilbchow.errors, "MAX_TABLE_WORDS", terms)
    assert len(rep_ideal(pres, 2).gens) == 4
    monkeypatch.setattr(hilbchow.errors, "MAX_TABLE_WORDS", terms - 1)
    with pytest.raises(BudgetExceededError, match=f"build {terms} entry terms, "
                       f"more than the limit of {terms - 1}"):
        rep_ideal(pres, 2)


def test_rep_ideal_accepts_long_words_on_small_matrices():
    # n^(|w|-1) alone would refuse x1^20 at n = 2 (4 * 2^19 terms)
    assert rep_ideal(poly_pres(["x1^20"], 1), 2).n == 2


def test_rep_point_coerces_plain_ints_into_its_field():
    F3 = GF(3)
    pt = RepPoint(F3, (Matrix([[1, 2], [0, 1]]), Matrix([[1, 0], [1, 1]])))
    assert all(type(a) is FpElem and a.p == 3 for M in pt.mats for r in M.rows for a in r)
    # over F_3, t^2 - 2t + 1 = t^2 + t + 1
    assert str(det_point(pt).gen_charpolys[0]) == "t^2 + t + 1"
    over_q = RepPoint(QQ, (Matrix([[1, Fraction(1, 2)], [0, 1]]),))
    assert [type(a) for r in over_q.mats[0].rows for a in r] == [Fraction] * 4
    for field, entry in ((F3, Fraction(1, 2)), (QQ, GF(5)(1)), (F3, GF(5)(1))):
        with pytest.raises(PreconditionError, match="field mismatch"):
            RepPoint(field, (Matrix([[entry, 1], [0, 1]]),))


# -- traces by halves -----------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)],
                         ids=["Q", "F2", "F3", "F101"])
def test_invariant_table_against_full_word_traces(field):
    # every bound 1..2n, odd and even, except where the oracle would multiply
    # out more than 3^6 words of the top length (m = 3, n = 4 stops at 6)
    rng = seeded("half-traces", field.characteristic)
    kind = type(field.one)
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4):
            pt = RepPoint(field, tuple(rand_matrix(field, n, rng) for _ in range(m)))
            top = max(L for L in range(1, 2 * n + 1) if m ** L <= 3 ** 6)
            full = word_traces(field, pt.mats, top)
            for max_len in range(1, top + 1):
                table = invariant_table(pt, max_len)
                assert table.traces == {w: t for w, t in full.items()
                                        if len(w) <= max_len}, (m, n, max_len)
                assert all(type(t) is kind for t in table.traces.values())
                assert table.gen_dets == tuple(leibniz_det(M) for M in pt.mats)
                assert all(type(d) is kind for d in table.gen_dets)


# -- relations on the integer lift ----------------------------------------------

def _rels(field, m, *texts):
    return AlgebraPresentation(field, m, tuple(parse_nc_poly(t, field, m) for t in texts))


def test_mixed_length_relations_hold_only_as_a_whole():
    # a Cayley-Hamilton relation has words of every length 0..n, and no
    # length vanishes on its own; moving its constant term breaks it
    rng = seeded("mixed-relations")
    for field in (QQ, GF(3)):
        for n in (1, 2, 3, 4):
            for _ in range(4):
                A, B = rand_matrix(field, n, rng), rand_matrix(field, n, rng)
                coeffs = charpoly(A).univar_coeffs("t")
                rel = NCPoly(field, 2, {(0,) * k: c for k, c in enumerate(coeffs) if c})
                moved = rel + NCPoly.one(field, 2)
                assert is_representation(AlgebraPresentation(field, 2, (rel,)), (A, B))
                assert not is_representation(AlgebraPresentation(field, 2, (moved,)),
                                             (A, B))
                rels = (rand_ncpoly(field, 2, rng, max_terms=4, max_len=3), rel)
                assert (is_representation(AlgebraPresentation(field, 2, rels), (A, B))
                        == all(not any(map(any, nc_eval(r, (A, B)).rows)) for r in rels))


def test_weyl_relation_holds_in_characteristic_3_only():
    # d/dx and multiplication by x on k[x]/(x^3): [d, x] = 1 - 3 E_33, which
    # is 1 over F_3 but not over Q (where no matrices satisfy it: trace)
    for field, holds in ((GF(3), True), (QQ, False)):
        d = Matrix([[field(a) for a in r] for r in ((0, 1, 0), (0, 0, 2), (0, 0, 0))])
        x = Matrix([[field(a) for a in r] for r in ((0, 0, 0), (1, 0, 0), (0, 1, 0))])
        pres = _rels(field, 2, "x1*x2 - x2*x1 - 1")
        assert is_representation(pres, (d, x)) is holds
        assert is_representation(_rels(field, 2, "x1*x2 - x2*x1 - 2"), (d, x)) is False
        assert is_representation(pres, (x, d)) is False


def test_relations_are_tested_mod_p_on_the_representatives():
    # 0 0; 1 1 and 1 0; 2 0 commute mod 3, but their products over Z differ by 3
    F3 = GF(3)
    A = Matrix([[F3(0), F3(0)], [F3(1), F3(1)]])
    B = Matrix([[F3(1), F3(0)], [F3(2), F3(0)]])
    reps = [Matrix([[a.v for a in r] for r in X.rows]) for X in (A, B)]
    assert reps[0] * reps[1] != reps[1] * reps[0]
    assert is_representation(commuting_pres(F3), (A, B))
    assert not is_representation(commuting_pres(F3), (A, Matrix([[F3(0), F3(1)], [F3(0), F3(0)]])))


def test_relations_refuse_entries_of_another_field():
    with pytest.raises(PreconditionError, match="field mismatch"):
        is_representation(commuting_pres(GF(3)), (M((1, 0), (0, 1)), M((1, 2), (0, 1))))
