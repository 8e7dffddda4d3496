from fractions import Fraction

import pytest

from hilbchow import (GF, QQ, IdealPresentation, Matrix, NCPoly, PointedRep,
                      PreconditionError, RepPoint, conjugate, cyclic_word_basis,
                      ideal_membership, ideal_to_triple, is_cyclic,
                      span_dimension, stabilizer_is_trivial, triple_to_ideal,
                      triples_equivalent)
from hilbchow.fields import FpElem
from hilbchow.linalg import nullspace

from oracles import (FIELDS, rand_free_cyclic_point, rand_invertible,
                     rand_matrix, rand_vector, seeded, stabilizer_rows)


def M(*rows):
    return Matrix(tuple(tuple(Fraction(a) for a in r) for r in rows))


def pointed(mats, v, field=QQ):
    return PointedRep(RepPoint(field, tuple(mats)), tuple(field(a) for a in v))


NILP = M((0, 1), (0, 0))
SWAP = M((0, 1), (1, 0))
ZERO2 = M((0, 0), (0, 0))


def test_is_cyclic_frozen_examples():
    assert is_cyclic(pointed([M((5,))], (1,)))
    assert not is_cyclic(pointed([NILP], (1, 0)))
    assert is_cyclic(pointed([NILP], (0, 1)))


def test_zero_vector_never_cyclic():
    assert span_dimension(pointed([NILP], (0, 0))) == 0


def test_cyclic_equivariance_under_action():
    rng = seeded("cyclic-equivariant")
    for field in FIELDS:
        for _ in range(15):
            mats = (rand_matrix(field, 2, rng), rand_matrix(field, 2, rng))
            v = rand_vector(field, 2, rng)
            pt = pointed(mats, v, field)
            g = rand_invertible(field, 2, rng)
            moved = PointedRep(conjugate(g, pt.rep), g.apply(pt.v))
            assert is_cyclic(moved) == is_cyclic(pt)


def test_word_basis_is_graded_lex_first():
    # x2 image hits v first among length-1 words when x1 kills v
    pt = pointed([ZERO2, SWAP], (1, 0))
    words, images = cyclic_word_basis(pt)
    assert words == [(), (1,)]
    assert images == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]


def test_triple_to_ideal_swap_example():
    pt = pointed([SWAP], (1, 0))
    ip = triple_to_ideal(pt)
    assert ip.basis_words == ((), (0,))
    assert ip.action_mats[0] == SWAP
    assert ip.cyclic_index == 0
    x = NCPoly.generator(QQ, 1, 0)
    assert ideal_membership(ip, x * x - 1, pt)
    assert not ideal_membership(ip, x, pt)


def test_triple_to_ideal_one_dimensional():
    pt = pointed([M((0,))], (1,))
    ip = triple_to_ideal(pt)
    assert ip.basis_words == ((),)
    x = NCPoly.generator(QQ, 1, 0)
    assert ideal_membership(ip, x, pt)


def test_triple_to_ideal_two_generator_example():
    pt = pointed([NILP, ZERO2], (0, 1))
    ip = triple_to_ideal(pt)
    assert ip.basis_words == ((), (0,))
    x = NCPoly.generator(QQ, 2, 0)
    y = NCPoly.generator(QQ, 2, 1)
    assert ideal_membership(ip, x * x, pt)
    assert ideal_membership(ip, y, pt)
    assert not ideal_membership(ip, x, pt)
    assert ideal_membership(ip, NCPoly(QQ, 2), pt)


def test_triple_to_ideal_rejects_non_cyclic():
    with pytest.raises(PreconditionError):
        triple_to_ideal(pointed([NILP], (1, 0)))


def test_relations_always_members():
    # relations evaluate to zero on any representation point, so they
    # land in every presented ideal
    from hilbchow import AlgebraPresentation, parse_nc_poly
    rel = parse_nc_poly("x1*x2 - x2*x1", QQ, 2)
    pres = AlgebraPresentation(QQ, 2, (rel,))
    pt = pointed([NILP, ZERO2], (0, 1))  # commuting pair, cyclic vector
    from hilbchow import is_representation
    assert is_representation(pres, pt.rep.mats)
    ip = triple_to_ideal(pt)
    assert ideal_membership(ip, rel, pt)
    assert ideal_membership(ip, rel)


def test_ideal_membership_without_point():
    pt = pointed([NILP, ZERO2], (0, 1))
    ip = triple_to_ideal(pt)
    x = NCPoly.generator(QQ, 2, 0)
    y = NCPoly.generator(QQ, 2, 1)
    assert ideal_membership(ip, x * x) and ideal_membership(ip, y)
    assert not ideal_membership(ip, x)
    with pytest.raises(PreconditionError):
        ideal_membership(ip, NCPoly.generator(QQ, 3, 0))


def test_ideal_to_triple_jordan_block():
    ip = IdealPresentation(QQ, 1, 2, ((), (0,)),
                           (M((0, 0), (1, 0)),), 0)
    pt = ideal_to_triple(ip)
    assert pt.rep.mats[0] == M((0, 0), (1, 0))
    assert pt.v == (Fraction(1), Fraction(0))
    assert is_cyclic(pt)


def test_ideal_to_triple_evaluation_point():
    c = Fraction(7)
    ip = IdealPresentation(QQ, 1, 1, ((),), (Matrix(((c,),)),), 0)
    pt = ideal_to_triple(ip)
    assert pt.rep.mats[0] == Matrix(((c,),))
    assert pt.v == (Fraction(1),)


def test_ideal_to_triple_rejects_inconsistent():
    # action matrix does not send the class of 1 to the second basis vector
    bad = IdealPresentation(QQ, 1, 2, ((), (0,)), (M((0, 1), (0, 0)),), 0)
    with pytest.raises(PreconditionError):
        ideal_to_triple(bad)
    # the class of 1 must be a basis word
    with pytest.raises(PreconditionError):
        ideal_to_triple(IdealPresentation(QQ, 1, 2, ((0,), (0, 0)),
                                          (M((0, 0), (1, 0)),), 0))


def test_roundtrip_on_swap_example():
    pt = pointed([SWAP], (1, 0))
    back = ideal_to_triple(triple_to_ideal(pt))
    g = triples_equivalent(pt, back)
    assert g is not None
    assert g.apply(pt.v) == back.v


def test_triples_equivalent_orbit_and_reflexive():
    rng = seeded("equiv-orbit")
    for field in FIELDS:
        for _ in range(10):
            p1 = rand_free_cyclic_point(field, 2, 2, rng)
            h = rand_invertible(field, 2, rng)
            p2 = PointedRep(conjugate(h, p1.rep), h.apply(p1.v))
            assert triples_equivalent(p1, p2) == h
            ident = Matrix.identity(2, field.one)
            assert triples_equivalent(p1, p1) == ident


def test_triples_equivalent_distinguishes():
    # equal word bases, so B2 B1^-1 sends v1 to v2, but it intertwines
    # neither diag(1, 2) with diag(1, 3) nor, in the second pair, x2
    p1 = pointed([M((1, 0), (0, 2))], (1, 1))
    p2 = pointed([M((1, 0), (0, 3))], (1, 1))
    q1 = pointed([M((1, 0), (0, 2)), NILP], (1, 1))
    q2 = pointed([M((1, 0), (0, 2)), SWAP], (1, 1))
    for a, b in ((p1, p2), (q1, q2)):
        assert cyclic_word_basis(a)[0] == cyclic_word_basis(b)[0] == [(), (0,)]
        assert triples_equivalent(a, b) is None


def test_triples_equivalent_dependent_image_branch():
    # both cyclic, but p2 is blind along p1's word basis: x1 spans for
    # p1 while killing p2's vector, so no intertwiner can exist
    p1 = pointed([SWAP, ZERO2], (1, 0))
    p2 = pointed([ZERO2, SWAP], (1, 0))
    assert is_cyclic(p1) and is_cyclic(p2)
    assert triples_equivalent(p1, p2) is None


def test_triples_equivalent_requires_matching_vector():
    # same representation, marked vectors in distinct orbits of its stabilizer
    p1 = pointed([M((1, 0), (0, 2))], (1, 1))
    p2 = pointed([M((1, 0), (0, 2))], (1, 2))
    g = triples_equivalent(p1, p2)
    # any intertwiner must be diagonal here: g = diag(1, 2) works
    assert g is not None
    assert g.apply(p1.v) == p2.v
    assert g * p1.rep.mats[0] == p2.rep.mats[0] * g


def test_intertwiner_uniqueness_via_kernel():
    # difference of two intertwiners kills v and commutes, so the
    # homogeneous system must have a trivial kernel on cyclic points
    rng = seeded("equiv-unique")
    for field in FIELDS:
        for _ in range(10):
            pt = rand_free_cyclic_point(field, 2, 3, rng)
            rows = stabilizer_rows(field, pt.rep.mats, pt.v)
            assert nullspace(rows, pt.n * pt.n) == []


def test_stabilizer_trivial_examples():
    assert stabilizer_is_trivial(pointed([M((3,))], (1,)))
    assert stabilizer_is_trivial(pointed([NILP, ZERO2], (0, 1)))
    # off cyclic points the stabilizer system has a kernel (I + NILP fixes
    # e_1 and commutes with NILP; every g fixes the zero vector), and
    # `stabilizer_is_trivial`, which answers from cyclicity alone, raises
    for mats, v in (([NILP], (1, 0)), ([NILP, ZERO2], (1, 0)),
                    ([SWAP, NILP], (0, 0))):
        pt = pointed(mats, v)
        assert nullspace(stabilizer_rows(QQ, pt.rep.mats, pt.v), 4)
        with pytest.raises(PreconditionError):
            stabilizer_is_trivial(pt)


def test_stabilizer_trivial_randomized():
    rng = seeded("stab-random")
    for field in FIELDS:
        for n in (1, 2, 3):
            for _ in range(10):
                pt = rand_free_cyclic_point(field, 2, n, rng)
                assert stabilizer_is_trivial(pt)
                assert nullspace(stabilizer_rows(field, pt.rep.mats, pt.v), n * n) == []


def test_ideal_presentation_text_roundtrip():
    pt = pointed([NILP, ZERO2], (0, 1))
    ip = triple_to_ideal(pt)
    assert IdealPresentation.from_text(ip.to_text()) == ip


def test_membership_agrees_across_equivalent_triples():
    # membership is linear, so agreement on every word of length <= n
    # settles it for every element of degree <= n; random elements are
    # thrown in on top
    rng = seeded("membership-equiv")
    from hilbchow import NCPoly as NC
    from hilbchow.ncpoly import words_up_to
    from oracles import rand_ncpoly
    for field in FIELDS:
        for _ in range(10):
            p1 = rand_free_cyclic_point(field, 2, 2, rng)
            h = rand_invertible(field, 2, rng)
            p2 = PointedRep(conjugate(h, p1.rep), h.apply(p1.v))
            ip1 = triple_to_ideal(p1)
            ip2 = triple_to_ideal(p2)
            for w in words_up_to(2, p1.n):
                a = NC(field, 2, {w: 1})
                assert ideal_membership(ip1, a, p1) == ideal_membership(ip2, a, p2)
            for _ in range(10):
                a = rand_ncpoly(field, 2, rng, max_terms=3, max_len=2)
                assert ideal_membership(ip1, a, p1) == ideal_membership(ip2, a, p2)


def test_cyclicity_codimension_equivalence():
    # is_cyclic <=> span dimension n <=> the ideal presentation exists
    rng = seeded("cyclic-codim")
    for field in FIELDS:
        for _ in range(20):
            mats = (rand_matrix(field, 2, rng), rand_matrix(field, 2, rng))
            v = rand_vector(field, 2, rng)
            pt = pointed(mats, v, field)
            cyc = is_cyclic(pt)
            assert cyc == (span_dimension(pt) == 2)
            if cyc:
                assert triple_to_ideal(pt).n == 2
            else:
                with pytest.raises(PreconditionError):
                    triple_to_ideal(pt)


def test_freeness_exhaustive_f2_n2():
    # every cyclic pair over F_2 at n = 2, m <= 2 has a trivial stabilizer
    import itertools
    F = GF(2)
    elems = list(F.elements())
    for m in (1, 2):
        for entries in itertools.product(elems, repeat=m * 4):
            mats = tuple(
                Matrix(((entries[4 * k], entries[4 * k + 1]),
                        (entries[4 * k + 2], entries[4 * k + 3])))
                for k in range(m))
            rep = RepPoint(F, mats)
            for v in itertools.product(elems, repeat=2):
                pt = PointedRep(rep, v)
                if is_cyclic(pt):
                    assert stabilizer_is_trivial(pt)
                    assert nullspace(stabilizer_rows(F, mats, v), 4) == []


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_equal_points_hash_equal(field):
    # the frozen point records hash their matrices, so equal points
    # built from separate rows are one element of a set
    rng = seeded("point-hash", field.characteristic)
    mats = (rand_matrix(field, 2, rng), rand_matrix(field, 2, rng))
    reps = [RepPoint(field, tuple(Matrix([list(r) for r in A.rows]) for A in mats))
            for _ in range(2)]
    other = RepPoint(field, (Matrix.identity(2, field.one), Matrix.zeros(2, field.zero)))
    assert reps[0] == reps[1] != other
    assert hash(reps[0]) == hash(reps[1])
    assert len({*reps, other}) == 2
    v = (field.one, field.zero)
    pointed_reps = [PointedRep(rep, v) for rep in reps]
    assert hash(pointed_reps[0]) == hash(pointed_reps[1])
    assert len({*pointed_reps, PointedRep(other, v)}) == 2


@pytest.mark.parametrize("field,v", [
    (GF(7), (FpElem(5, 1), FpElem(5, 0))),
    (QQ, (FpElem(5, 1), FpElem(5, 0))),
    (GF(5), (Fraction(1, 2), 1)),
    (QQ, (1.0, 0)),
    (QQ, ("1", 0)),
], ids=["F7-point-F5-vector", "Q-point-F5-vector", "F5-point-Q-vector",
        "float-vector", "str-vector"])
def test_pointed_rep_refuses_a_vector_of_another_field(field, v):
    rep = RepPoint(field, (Matrix.identity(2, field.one),))
    with pytest.raises(PreconditionError):
        PointedRep(rep, v)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "F7"])
def test_pointed_rep_coerces_int_entries(field):
    rep = RepPoint(field, (NILP if field == QQ else Matrix(((0, 1), (0, 0))),))
    pt = PointedRep(rep, (0, 8))
    assert pt.v == (field.zero, field(8))
    assert {type(a) for a in pt.v} == {type(field.one)}
    assert is_cyclic(pt) and pt == PointedRep(rep, (field.zero, field(8)))
