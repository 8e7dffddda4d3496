from collections import Counter
from fractions import Fraction
from functools import reduce
from math import comb, gcd
from operator import add, mul

import pytest

import hilbchow.linalg
from hilbchow import (GF, QQ, AlgebraPresentation, BudgetExceededError, CommPoly,
                      Matrix, NCPoly, PreconditionError, RepPoint, SingularMatrixError,
                      berkowitz_coeffs, charpoly, det, det_linear_combination, det_point,
                      invariant_table, is_representation, law_coefficients,
                      matrix_inverse, nc_eval, parse_comm_poly)
from hilbchow.errors import MAX_TABLE_WORDS
from hilbchow.fields import FpElem, lift
from hilbchow.linalg import (IncrementalSpan, nullspace, rref, solve_columns,
                             word_matrices, word_product)
from hilbchow.linalg import lift as lift_matrices
from hilbchow.ncpoly import words_up_to

from oracles import (FIELDS, _mod_word, eval_by_letters, leibniz_det, letter_product,
                     mat_add, mat_scale, mat_trace, rand_int_scalar, rand_invertible,
                     rand_matrix, rand_ncpoly, rand_scalar, seeded, stabilizer_rows)


def M(*rows):
    return Matrix(tuple(tuple(Fraction(a) for a in r) for r in rows))


E12 = M((0, 1), (0, 0))
E21 = M((0, 0), (1, 0))


def test_matrix_basics():
    A = M((1, 2), (3, 4))
    B = M((0, 1), (1, 0))
    assert A * B == M((2, 1), (4, 3))
    assert B * A == M((3, 4), (1, 2))
    assert A.apply((1, 0)) == (1, 3)
    with pytest.raises(TypeError):  # a value type: no scalar multiples
        A * 2
    with pytest.raises(PreconditionError):
        Matrix(((1, 2),))


def test_charpoly_frozen_examples():
    assert str(charpoly(M((0, 0), (0, 0)))) == "t^2"
    assert str(charpoly(M((1, 0), (0, 2)))) == "t^2 - 3*t + 2"
    assert str(charpoly(E12)) == "t^2"


def test_charpoly_monic_and_degree():
    rng = seeded("charpoly-shape")
    for field in FIELDS:
        for n in (1, 2, 3, 4):
            A = rand_matrix(field, n, rng)
            cp = charpoly(A)
            coeffs = cp.univar_coeffs("t")
            assert len(coeffs) == n + 1 and coeffs[-1] == field.one


# Berkowitz and the word tables run on integer lifts; over Q, rand_matrix's
# entries have denominators 2 and 3, so the lift scales by some d > 1
LIFT_FIELDS = FIELDS + (GF(101),)


def test_charpoly_against_leibniz_oracle():
    # det(tI - A) expanded by permutations, fully independently
    rng = seeded("charpoly-oracle")
    for field in LIFT_FIELDS:
        for n in (1, 2, 3, 4):
            for _ in range(10):
                A = rand_matrix(field, n, rng)
                t = CommPoly.variable(field, "t")
                tIA = Matrix(tuple(
                    tuple((t if i == j else CommPoly(field)) - A.rows[i][j]
                          for j in range(n)) for i in range(n)))
                assert charpoly(A) == leibniz_det(tIA)


def test_charpoly_conjugation_invariant():
    rng = seeded("charpoly-conj")
    for field in FIELDS:
        for n in (2, 3):
            for _ in range(10):
                A = rand_matrix(field, n, rng)
                g = rand_invertible(field, n, rng)
                assert charpoly(g * A * matrix_inverse(g)) == charpoly(A)


def test_det_against_leibniz():
    rng = seeded("det-oracle")
    for field in FIELDS:
        for n in (1, 2, 3, 4):
            for _ in range(10):
                A = rand_matrix(field, n, rng)
                assert det(A) == leibniz_det(A)


def test_det_works_over_f2_f3():
    # division-free path: no characteristic-p division blowups
    F2 = GF(2)
    A = Matrix(((F2(1), F2(1)), (F2(1), F2(1))))
    assert det(A) == F2(0)
    assert str(charpoly(A)) == "t^2"  # t^2 - 2t over F_2


def special_int_matrices(n, rng):
    """Integer matrices that exercise every branch of the elimination: a
    zero leading entry, a pivot that only becomes 0 mid-elimination, a zero
    column, a repeated row, and two generic ones."""
    def generic():
        return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    out = [generic(), generic()]
    lead = generic()
    lead[0][0] = 0
    out.append(lead)
    if n >= 2:
        # rows 0 and 1 agree up to 2 in the first two columns, so the second
        # pivot is 0 once the first step is done
        mid = generic()
        mid[0][0], mid[0][1] = 1, 2
        mid[1][0], mid[1][1] = 2, 4
        out.append(mid)
        column = generic()
        for r in column:
            r[n - 1] = 0
        out.append(column)
        repeated = generic()
        repeated[n - 1] = list(repeated[0])
        out.append(repeated)
    return out


def test_det_matches_leibniz_on_the_lift():
    # int, Fraction and FpElem entries, each det against the permutation
    # expansion; over Q the denominators 3, 4 and 7 make the lift scale
    rng = seeded("det-lift")
    for n in range(1, 6):
        for ints in special_int_matrices(n, rng):
            plain = Matrix(ints)
            got = det(plain)
            assert type(got) is int and got == leibniz_det(plain)
            for field in (QQ, GF(2), GF(3), GF(101)):
                mat = Matrix([[Fraction(a, rng.choice((1, 3, 4, 7))) if field is QQ
                               else field(a) for a in r] for r in ints])
                got = det(mat)
                assert type(got) is type(field.one) and got == leibniz_det(mat)
    # products along x1*x2*x1*x2 have large entries; taken on the lift and
    # over the field, with det multiplicative as a second check
    for field in (QQ, GF(101)):
        for n in (2, 3, 4, 5):
            A, B = (rand_matrix(field, n, rng, span=9) for _ in range(2))
            (a, b), _, _ = lift_matrices((A, B), "a test")
            for mats, dets in (((a, b), (det(a), det(b))), ((A, B), (det(A), det(B)))):
                word = word_matrices(mats, 4)[(0, 1, 0, 1)]
                assert det(word) == leibniz_det(word) == dets[0] ** 2 * dets[1] ** 2
    # polynomial entries keep the Berkowitz path
    t = CommPoly.variable(QQ, "t")
    for n in (1, 2, 3, 4):
        A = rand_matrix(QQ, n, rng)
        tIA = Matrix([[(t if i == j else CommPoly(QQ)) - a for j, a in enumerate(r)]
                      for i, r in enumerate(A.rows)])
        assert det(tIA) == leibniz_det(tIA)


def test_plain_int_entries_take_the_field_of_the_others():
    # the field is named from every entry, not the first: a plain int beside
    # FpElems is an element of F_p wherever it sits, [0][0] included
    rng = seeded("int-entries")
    for p in (2, 3):
        F = GF(p)
        for _ in range(12):
            n = rng.randint(2, 4)
            plain = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            other = rand_matrix(F, n, rng)
            full = Matrix([[F(a) for a in r] for r in plain])
            # ints at [0][0] and elsewhere at random, an FpElem at [n-1][n-1]
            mixed = Matrix([[a if i + j == 0 or i + j < 2 * n - 2 and rng.random() < 0.4
                             else F(a) for j, a in enumerate(r)]
                            for i, r in enumerate(plain)])
            got = charpoly(mixed)
            assert got == charpoly(full) and got.field == F
            assert det(mixed) == det(full)
            assert (det_linear_combination([mixed, other], ["s", "t"])
                    == det_linear_combination([full, other], ["s", "t"]))
            assert rref(mixed.rows) == rref(full.rows)
            assert_field_elements(F, rref(mixed.rows)[0])
            kernel = nullspace(mixed.rows, n)
            assert kernel == nullspace(full.rows, n)
            assert_field_elements(F, kernel)
            if det(full):
                assert matrix_inverse(mixed) == matrix_inverse(full)
            else:
                with pytest.raises(SingularMatrixError):
                    matrix_inverse(mixed)
    F3, F5 = GF(3), GF(5)
    for bad in (Matrix(((Fraction(1, 2), F3(1)), (F3(2), 1))),
                Matrix(((F3(1), 0), (F5(2), F3(1))))):
        for call in (charpoly, det, matrix_inverse, lambda A: rref(A.rows),
                     lambda A: nullspace(A.rows, 2),
                     lambda A: det_linear_combination([A, A], ["s", "t"])):
            with pytest.raises(PreconditionError, match="field mismatch"):
                call(bad)


def test_berkowitz_path_is_named_by_every_entry():
    # a plain int at [0][0] beside FpElems still runs over F_p, and a
    # Fraction beside an FpElem is a field mismatch wherever it sits
    F3 = GF(3)
    got = berkowitz_coeffs(Matrix([[1, F3(1)], [F3(2), 0]]))
    assert got == [1, 2, 1]  # t^2 - t - 2 over F_3
    assert all(type(c) is FpElem for c in got)
    with pytest.raises(PreconditionError, match="field mismatch: F_3 vs Q"):
        det(Matrix([[1, Fraction(1, 2)], [F3(1), 1]]))
    got = berkowitz_coeffs(Matrix([[1, 2], [3, 4]]))
    assert got == [1, -5, -2] and all(type(c) is int for c in got)


def test_inverse_and_singular():
    A = M((1, 2), (3, 4))
    assert A * matrix_inverse(A) == Matrix.identity(2, Fraction(1))
    with pytest.raises(SingularMatrixError):
        matrix_inverse(M((1, 2), (2, 4)))


def test_nc_eval_frozen_examples():
    x1 = NCPoly.generator(QQ, 1, 0)
    assert nc_eval(x1, (E12,)) == E12
    comm = (NCPoly.generator(QQ, 2, 0) * NCPoly.generator(QQ, 2, 1)
            - NCPoly.generator(QQ, 2, 1) * NCPoly.generator(QQ, 2, 0))
    assert nc_eval(comm, (E12, E21)) == M((1, 0), (0, -1))
    one = NCPoly.one(QQ, 1)
    Msample = M((2, 3), (5, 7))
    assert nc_eval(one, (Msample,)) == Matrix.identity(2, Fraction(1))


def test_nc_eval_is_algebra_map():
    rng = seeded("nc-eval-hom")
    for field in FIELDS:
        for _ in range(20):
            mats = (rand_matrix(field, 2, rng), rand_matrix(field, 2, rng))
            p = rand_ncpoly(field, 2, rng)
            q = rand_ncpoly(field, 2, rng)
            assert nc_eval(p * q, mats) == nc_eval(p, mats) * nc_eval(q, mats)
            assert nc_eval(p + q, mats) == mat_add(nc_eval(p, mats), nc_eval(q, mats))


def test_nc_eval_arity_and_dimension_errors():
    x = NCPoly.generator(QQ, 2, 0)
    with pytest.raises(PreconditionError):
        nc_eval(x, (E12,))
    with pytest.raises(PreconditionError):
        nc_eval(x, (E12, M((1,),)))


def test_evaluation_commutes_with_reduction_mod_p():
    # Z -> F_p is a ring map, so on integer points and integer-coefficient
    # arguments (mixed word lengths, a constant term) nc_eval, the law table
    # and the relation test over Q, reduced mod p, give their values over
    # F_p; X2 = f(X1) makes x2 - f(x1) a relation over Q, hence over F_p
    rng = seeded("evaluation-base-change")
    for p in (2, 3, 5, 7):
        F = GF(p)
        for n in (1, 2, 3):
            for _ in range(3):
                X1 = rand_matrix(QQ, n, rng, integer=True)
                f = NCPoly(QQ, 1, {(): rng.choice((-2, -1, 1, 2)),
                                   (0,): rng.randint(-3, 3), (0, 0): rng.randint(-3, 3)})
                mats = (X1, eval_by_letters(f, (X1,)))
                rel = NCPoly.generator(QQ, 2, 1) - NCPoly(QQ, 2, dict(f.terms))
                args = [rel] + [NCPoly(QQ, 2, {
                    tuple(rng.randrange(2) for _ in range(length)): rng.randint(-3, 3)
                    for length in (0, 1, 2, 3)}) for _ in range(2)]
                mats_p = tuple(Matrix(tuple(tuple(F(a) for a in r) for r in X.rows))
                               for X in mats)
                args_p = [NCPoly(F, 2, {w: F(c) for w, c in a.terms.items()})
                          for a in args]
                assert nc_eval(rel, mats) == Matrix.zeros(n, Fraction(0))
                for a, a_p in zip(args, args_p):
                    reduced = tuple(tuple(F(x) for x in r) for r in nc_eval(a, mats).rows)
                    assert Matrix(reduced) == nc_eval(a_p, mats_p)
                law = law_coefficients(RepPoint(QQ, mats), args)
                law_p = law_coefficients(RepPoint(F, mats_p), args_p)
                assert {e: F(c) for e, c in law.coeffs.items() if F(c)} == law_p.coeffs
                assert is_representation(AlgebraPresentation(QQ, 2, (rel,)), mats)
                for rels in ((0,), (0, 1), (1, 2)):
                    pres_p = AlgebraPresentation(F, 2, tuple(args_p[i] for i in rels))
                    assert is_representation(pres_p, mats_p) == all(
                        not F(x) for i in rels for r in nc_eval(args[i], mats).rows
                        for x in r)


def test_det_linear_combination_frozen_examples():
    I2 = Matrix.identity(2, Fraction(1))
    assert str(det_linear_combination([I2], ["t"])) == "t^2"
    p = det_linear_combination([I2, M((1, 0), (0, 2))], ["s", "t"])
    assert p == parse_comm_poly("s^2 + 3*s*t + 2*t^2", QQ)
    assert det_linear_combination([E12], ["t"]).is_zero()


def test_det_linear_combination_homogeneous_and_specializes():
    rng = seeded("detlin")
    for field in FIELDS:
        for n in (1, 2, 3):
            mats = [rand_matrix(field, n, rng) for _ in range(2)]
            p = det_linear_combination(mats, ["t1", "t2"])
            for mono in p.terms:
                assert sum(e for _, e in mono) == n
            for _ in range(5):
                a = field(rng.randrange(5))
                b = field(rng.randrange(5))
                combo = mat_add(mat_scale(mats[0], a), mat_scale(mats[1], b))
                assert p.evaluate({"t1": a, "t2": b}) == det(combo)


def test_det_linear_combination_against_leibniz():
    # sum_s t_s M_s built over CommPoly and expanded by permutations; the
    # names are out of natural order, so `==` (which compares monomial
    # tuples) pins the var_key order of each decoded monomial
    rng = seeded("detlin-oracle")
    names = ["t10", "t2", "s", "t1", "u"]

    def scalar(field):
        if field is QQ:
            return Fraction(rng.randint(-6, 6), rng.choice((1, 3, 4, 7)))
        return field(rng.randint(-field.p, field.p))

    for field in LIFT_FIELDS:
        for n in (1, 2, 3, 4):
            for k in (1, 2, 3, 4, 5):
                mats = [Matrix(tuple(tuple(scalar(field) for _ in range(n))
                                     for _ in range(n))) for _ in range(k)]
                zero = Matrix.zeros(n, field.zero)
                for case in (mats, mats[:-1] + [zero], [zero] * k):
                    generic = Matrix(tuple(tuple(
                        sum((CommPoly.variable(field, t) * M.rows[i][j]
                             for t, M in zip(names, case)), CommPoly(field))
                        for j in range(n)) for i in range(n)))
                    got = det_linear_combination(case, names[:k])
                    assert got == leibniz_det(generic)
                    assert got.field == field
                    assert all(type(c) is type(field.one) for c in got.terms.values())


@pytest.mark.parametrize("field, n, k", [
    (QQ, 1, 4096), (QQ, 2, 127), (QQ, 3, 23), (QQ, 4, 11),
    (GF(2), 3, 23), (GF(2), 4, 11)],
    ids=["Q-1-4096", "Q-2-127", "Q-3-23", "Q-4-11", "F2-3-23", "F2-4-11"])
def test_det_linear_combination_at_edge_shapes(monkeypatch, field, n, k):
    # shapes the law-table bound n^3 C(n+k-1, n) admits, the largest k for
    # n >= 2, and F_2 where p <= n: one elimination per lattice point and no
    # Berkowitz run; the law agrees with the Leibniz expansion of
    # sum_s a_s M_s at random integer points a, at a point where that sum is
    # singular and at one where it is the zero matrix; a zero M_s drops t_s
    # from every monomial, and zero matrices alone give the zero polynomial
    assert n ** 3 * comb(n + k - 1, n) <= MAX_TABLE_WORDS
    calls = Counter()
    for name in ("_bareiss", "berkowitz_coeffs"):
        def counted(*args, _real=getattr(hilbchow.linalg, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(hilbchow.linalg, name, counted)
    rng = seeded(f"detlin-edge-{field}-{n}")
    names = [f"t{s + 1}" for s in range(k)]
    u = [rand_scalar(field, rng) for _ in range(n)]
    rank_one = Matrix(tuple(tuple(a * b for b in u) for a in u))
    mats = [rand_matrix(field, n, rng) for _ in range(k - 3)]
    mats[1:1] = [mats[0], rank_one, Matrix.zeros(n, field.zero)]
    got = det_linear_combination(mats, names)
    assert calls == {"_bareiss": comb(n + k - 1, n)}
    assert got.field == field and "t4" not in got.variables()

    def law_at(point):
        total = Matrix.zeros(n, field.zero)
        for a, M in zip(point, mats):
            if a:
                total = mat_add(total, mat_scale(M, field(a)))
        return leibniz_det(total)

    points = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(3)]
    singular = [0, 0, 1] + [0] * (k - 3)  # the rank-one M_3 alone
    zero = [1, -1] + [0] * (k - 2)  # M_1 - M_2 = 0
    for point in points + [singular, zero]:
        assert got.evaluate(dict(zip(names, point))) == law_at(point)
    assert law_at(zero) == field.zero and (n == 1 or law_at(singular) == field.zero)
    assert det_linear_combination([Matrix.zeros(n, field.zero)] * k, names).is_zero()


def test_sum_of_polynomials_is_the_fold_of_plus():
    # `sum` starts from the int 0, which hands back the first summand itself
    # rather than a copy: the sums must still equal the left fold of `+` and
    # leave every summand as it was, and `det` of polynomial entries, whose
    # Berkowitz dot products are such sums, must keep the Leibniz expansion
    # and the interpolated law of det_linear_combination
    rng = seeded("packed-sum")

    def mono(i, j):
        return tuple((v, e) for v, e in (("s", i), ("t", j)) if e)

    polys = [CommPoly(QQ, {mono(rng.randrange(4), rng.randrange(4)): rng.randint(-5, 5)
                           for _ in range(4)}) for _ in range(6)]
    before = [dict(p.terms) for p in polys]
    assert sum(polys[:1]) is polys[0] and 0 + polys[1] is polys[1]
    assert sum(polys) == reduce(add, polys) == sum(polys[1:], polys[0])
    assert [p.terms for p in polys] == before
    for n in (2, 3, 4):
        ints = [tuple(tuple(rng.randint(-4, 4) for _ in range(n))
                      for _ in range(n)) for _ in range(2)]
        entries = Matrix(tuple(tuple(CommPoly(QQ, {mono(1, 0): a, mono(0, 1): b})
                                     for a, b in zip(r1, r2))
                               for r1, r2 in zip(*ints)))
        got = det(entries)
        assert got == leibniz_det(entries)
        assert got == det_linear_combination([Matrix(m) for m in ints], ["s", "t"])


def test_det_linear_combination_refuses_polynomial_entries():
    x = CommPoly.variable(QQ, "x")
    poly = Matrix(((x, CommPoly.const(QQ, 1)), (CommPoly(QQ), x)))
    mixed = Matrix(((Fraction(1), x), (Fraction(0), Fraction(1))))
    for mats in ([poly, poly], [M((1, 0), (0, 1)), mixed]):
        with pytest.raises(PreconditionError,
                           match="determinant of a linear combination needs scalar entries"):
            det_linear_combination(mats, ["t1", "t2"])
    with pytest.raises(PreconditionError,
                       match="characteristic polynomial needs scalar entries"):
        charpoly(mixed)


def test_det_linear_combination_at_the_largest_law_tables():
    # for each n the largest k that law_coefficients accepts (it refuses
    # k + 1), evaluated at random points against a scalar determinant
    rng = seeded("detlin-large")
    for n, k in ((5, 7), (4, 11), (3, 23), (2, 127)):
        assert n ** 3 * comb(n + k - 1, n) <= MAX_TABLE_WORDS
        for field in (QQ, GF(3)):
            rep = RepPoint(field, (rand_matrix(field, n, rng),))
            x1 = NCPoly.generator(field, 1, 0)
            with pytest.raises(BudgetExceededError):
                law_coefficients(rep, [x1] * (k + 1))
            mats = [rand_matrix(field, n, rng) for _ in range(k)]
            names = [f"t{s + 1}" for s in range(k)]
            poly = det_linear_combination(mats, names)
            for _ in range(3):
                point = [rand_int_scalar(field, rng) for _ in range(k)]
                combo = reduce(mat_add, (mat_scale(M, a) for M, a in zip(mats, point)))
                assert poly.evaluate(dict(zip(names, point))) == det(combo)


def test_nullspace_and_rank():
    F = GF(2)
    rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    assert basis[0] == (F(1), F(1), F(0))
    assert len(rref(rows)[1]) == 2


def test_nullspace_refuses_an_empty_system():
    # with no equations the kernel is all of F^ncols, over an unknown field
    with pytest.raises(PreconditionError, match="at least one equation"):
        nullspace([], 3)


def test_solve_columns():
    cols = [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))]
    coords = solve_columns(cols, [(Fraction(3), Fraction(2))])
    assert coords == [(Fraction(1), Fraction(2))]
    with pytest.raises(PreconditionError):
        solve_columns([(Fraction(1), Fraction(0))], [(Fraction(0), Fraction(1))])
    # no columns: the zero targets have empty coordinates, any other is outside
    assert solve_columns([], [(Fraction(0), Fraction(0))] * 2) == [(), ()]
    with pytest.raises(PreconditionError):
        solve_columns([], [(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))])


def lifted(field, *entries):
    "The int vector a span takes for field elements: their `fields.lift`."
    return lift(field, [field(a) for a in entries])[0]


def test_incremental_span():
    span = IncrementalSpan(3)
    assert span.add(lifted(QQ, "1/2", "1/2", 0))
    assert not span.add(lifted(QQ, 2, 2, 0))
    assert span.add(lifted(QQ, 0, 0, "5/3"))
    assert span.rank == 2
    # a dependent vector leaves the rows as they are, an independent one joins
    assert not span.add(lifted(QQ, 3, 3, "7/4"))
    assert span.rows == [[1, 1, 0], [0, 0, 1]]
    assert span.add(lifted(QQ, 1, 0, 0))
    assert span.rows == [[1, 1, 0], [0, 0, 1], [0, -1, 0]]
    assert not span.add(lifted(QQ, 1, 2, 3))


def gauss_jordan(rows):
    "Textbook reduced row echelon form: (nonzero rows, pivot columns)."
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [a / lead for a in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def rand_rows(field, nrows, ncols, rank, rng, pick=rand_scalar):
    """nrows random combinations of `rank` random rows, plus a zero row and
    a duplicate of one row."""
    base = [[pick(field, rng) for _ in range(ncols)] for _ in range(rank)]
    out = []
    for _ in range(nrows):
        coeffs = [pick(field, rng) for _ in base]
        out.append([sum((c * b[j] for c, b in zip(coeffs, base)), field.zero)
                    for j in range(ncols)])
    out.insert(rng.randrange(len(out) + 1), [field.zero] * ncols)
    out.insert(rng.randrange(len(out) + 1), list(rng.choice(out)))
    return out


def pick_fraction(field, rng):
    "Rationals with denominators up to 7, which integer matrix entries never give."
    return Fraction(rng.randint(-9, 9), rng.choice((1, 3, 4, 7)))


ORACLE_FIELDS = ((QQ, rand_scalar), (QQ, pick_fraction), (GF(2), rand_scalar),
                 (GF(3), rand_scalar), (GF(101), rand_scalar))


# elimination runs on ints inside and converts back once at the end, so
# every entry it returns must be a field element: Fraction(3) and 3 compare
# equal but need not print alike
def assert_field_elements(field, vectors):
    assert all(type(a) is type(field.one) for v in vectors for a in v)


def test_rref_against_gauss_jordan():
    rng = seeded("rref-oracle")
    for field, pick in ORACLE_FIELDS:
        for nrows, ncols in ((1, 1), (2, 2), (3, 3), (3, 5), (2, 6), (5, 3), (4, 4)):
            for rank_ in range(min(nrows, ncols) + 1):
                for _ in range(4):
                    rows = rand_rows(field, nrows, ncols, rank_, rng, pick)
                    red, pivots = rref(rows)
                    assert (red, pivots) == gauss_jordan(rows)
                    assert len(pivots) <= rank_
                    assert_field_elements(field, red)
                    kernel = nullspace(rows, ncols)
                    assert len(kernel) == ncols - len(pivots)
                    assert_field_elements(field, kernel)
                    assert all(not sum(map(mul, r, k)) for r in rows for k in kernel)
                    assert len(gauss_jordan(kernel)[1]) == len(kernel)
                    if pivots:
                        check_inverse_and_solve(field, red, rng, pick)
    assert rref([]) == ([], [])


def check_inverse_and_solve(field, basis, rng, pick):
    # basis: independent rows, read as columns by solve_columns
    coords = [tuple(pick(field, rng) for _ in basis) for _ in range(2)]
    targets = [tuple(sum((c * b[i] for c, b in zip(cs, basis)), field.zero)
                     for i in range(len(basis[0]))) for cs in coords]
    solved = solve_columns(basis, targets)
    assert solved == coords
    assert_field_elements(field, solved)
    n = len(basis)
    square = Matrix([r[:n] for r in basis] if len(basis[0]) >= n else
                    [r + [field.one] * (n - len(r)) for r in basis])
    if det(square):
        inverse = matrix_inverse(square)
        assert square * inverse == Matrix.identity(n, field.one)
        assert_field_elements(field, inverse.rows)
    else:
        with pytest.raises(SingularMatrixError):
            matrix_inverse(square)


def test_span_mod_p_matches_field_elements():
    # a span mod p stores integer rows: representatives, 1 at the pivot and
    # 0 at the pivots stored before, spanning what was added; unreduced ints
    # and the representatives `fields.lift` makes of FpElems give the same rows
    rng = seeded("span-mod-p")
    for p in (2, 3, 5):
        F = GF(p)
        for dim in (1, 2, 3, 4):
            for _ in range(20):
                # unreduced ints, as the sweep's products over Z give them
                vecs = [[rng.randint(-3 * p, 3 * p) for _ in range(dim)]
                        for _ in range(rng.randint(1, dim + 2))]
                ints, elems = IncrementalSpan(dim, p), IncrementalSpan(dim, p)
                for v in vecs:
                    before = ints.rank
                    grew = ints.add(v)
                    assert grew == elems.add(lifted(F, *v)) == (ints.rank > before)
                assert ints.pivots == elems.pivots
                assert ints.rows == elems.rows
                for i, (row, c) in enumerate(zip(ints.rows, ints.pivots)):
                    assert all(type(a) is int and 0 <= a < p for a in row)
                    assert row[c] == 1 and all(not row[d] for d in ints.pivots[:i])
                assert (gauss_jordan([[F(a) for a in r] for r in ints.rows])
                        == gauss_jordan([[F(a) for a in v] for v in vecs]))


def test_span_over_q_stores_primitive_rows():
    rng = seeded("span-q")
    for dim in (1, 2, 3, 4):
        for _ in range(20):
            vecs = rand_rows(QQ, rng.randint(1, dim + 2), dim, rng.randint(0, dim), rng,
                             pick_fraction)
            span = IncrementalSpan(dim)
            for k, v in enumerate(vecs):
                before = span.rank
                assert span.add(lift(QQ, v)[0]) == (span.rank > before)
                assert span.rank == len(gauss_jordan(vecs[:k + 1])[1])
            for i, (row, c) in enumerate(zip(span.rows, span.pivots)):
                assert all(type(a) is int for a in row) and gcd(*row) == 1
                assert row[c] and all(not row[d] for d in span.pivots[:i])
            assert (gauss_jordan([[Fraction(a) for a in r] for r in span.rows])
                    == gauss_jordan(vecs))


def test_nullspace_of_stabilizer_systems_at_non_cyclic_points():
    # `stabilizer_is_trivial` only ever sees cyclic points, where the kernel
    # is zero, so a nullspace returning [] would pass it; here v = 0 (the
    # identity is in the kernel) or v lies in the proper invariant subspace
    # spanned by e_1..e_k of block upper-triangular matrices
    rng = seeded("stab-kernel")
    sizes = []
    for field in (QQ, GF(3)):
        for n in (2, 3):
            for _ in range(8):
                k = rng.randrange(n)
                mats = [Matrix(tuple(tuple(field.zero if i >= k > j
                                           else rand_scalar(field, rng)
                                           for j in range(n)) for i in range(n)))
                        for _ in range(2)]
                v = tuple(rand_scalar(field, rng) if i < k else field.zero
                          for i in range(n))
                rows = stabilizer_rows(field, mats, v)
                kernel = nullspace(rows, n * n)
                assert len(kernel) == n * n - len(gauss_jordan(rows)[1])
                assert all(not sum(map(mul, r, g)) for r in rows for g in kernel)
                if k == 0:
                    assert len(kernel) >= 1
                sizes.append(len(kernel))
    assert max(sizes) > 1


def test_word_matrices_graded_lex_keys():
    A = M((1, 2), (3, 4))
    B = M((0, 1), (1, 0))
    table = word_matrices((A, B), 3)
    keys = list(table)
    assert keys == sorted(keys, key=lambda w: (len(w), w))
    assert len(keys) == 1 + 2 + 4 + 8
    assert table[()] == Matrix.identity(2, Fraction(1))
    assert table[(0, 1, 1)] == A * B * B


def test_word_matrices_against_letter_products():
    # one block product per generator and level gives every word's product,
    # keyed in words_up_to order, over the integers and over fields, and
    # reduced mod p when given p
    rng = seeded("word-table-oracle")
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for field in (None, QQ, GF(2), GF(101)):
                mats = tuple(Matrix([[rng.randint(-3, 3) for _ in range(n)]
                                     for _ in range(n)]) if field is None
                             else rand_matrix(field, n, rng) for _ in range(m))
                for max_len in range(6):
                    table = word_matrices(mats, max_len)
                    assert list(table) == list(words_up_to(m, max_len))
                    for w, got in table.items():
                        assert got == letter_product(mats, w), (m, n, field, w)
                    if field is None:  # tables of F_p representatives stay reduced
                        ints = [M.rows for M in mats]
                        for p in (2, 101):
                            for w, got in word_matrices(mats, max_len, p).items():
                                want = _mod_word(ints, w, n, p)
                                assert list(map(list, got.rows)) == want
                        assert got.n == n


def test_long_words_are_built_letter_by_letter():
    # far past the recursion limit; the empty word gives the identity
    A = M((1, 1), (0, 1))
    word = (0,) * 2000
    assert nc_eval(NCPoly(QQ, 1, {word: 1}), (A,)) == M((1, 2000), (0, 1))
    assert Matrix(word_product(word, (A.rows,))) == M((1, 2000), (0, 1))
    assert Matrix(word_product((), (A.rows,))) == Matrix.identity(2, Fraction(1))


def test_word_products_mod_p_against_letter_by_letter():
    # runs of a letter taken as powers give the product mod p, and the
    # empty word the identity
    rng = seeded("word-products-mod-p")
    for p in (2, 3, 7):
        for n in (1, 2, 3):
            mats = tuple(tuple(tuple(rng.randrange(p) for _ in range(n))
                               for _ in range(n)) for _ in range(2))
            for _ in range(20):
                word = tuple(rng.choice((0, 0, 0, 1)) for _ in range(rng.randrange(40)))
                got = word_product(word, mats, p)
                assert [list(r) for r in got] == _mod_word(mats, word, n, p)
            assert [list(r) for r in word_product((), mats, p)] == _mod_word(mats, (), n, p)


def test_word_matrices_refuses_oversized_tables():
    # refused before any product is formed, however long the words
    A, B = M((1, 2), (3, 4)), M((0, 1), (1, 0))
    assert len(word_matrices((A, B), 8)) == 2 ** 9 - 1
    for mats, max_len in (((A, B), 16), ((A, B), 40), ((A,), MAX_TABLE_WORDS),
                          ((A,), 10 ** 9)):
        with pytest.raises(BudgetExceededError):
            word_matrices(mats, max_len)


def test_lifted_word_tables_against_direct_products():
    # each word's product taken over the field with Matrix.__mul__, its
    # determinant by permutations: independent of the integer lift that
    # det_point and invariant_table run on
    rng = seeded("lifted-word-tables")
    for field in LIFT_FIELDS:
        for m in (2, 3):
            for n in (1, 2, 3, 4):
                mats = tuple(rand_matrix(field, n, rng) for _ in range(m))
                rep = RepPoint(field, mats)
                max_len = min(2 * n - 1, 3)
                dets = det_point(rep, max_len).word_dets
                table = invariant_table(rep, max_len)
                assert len(dets) == sum(m ** k for k in range(max_len + 1))
                for w, d in dets.items():
                    prod = reduce(mul, (mats[k] for k in w),
                                  Matrix.identity(n, field.one))
                    assert type(d) is type(field.one)
                    assert d == leibniz_det(prod)
                    if w:
                        assert table.traces[w] == mat_trace(prod)
                assert table.gen_dets == tuple(map(leibniz_det, mats))
