"""The Hilbert-scheme point requests run on the integer lift.  A change
that silently puts them back on whole word tables or on `Fraction`/`FpElem`
matrix products keeps every output byte and only loses the speed, so the
shape of the work is pinned here: the invariant table tables words to half
its bound, the norm point runs Berkowitz only for the generator charpolys
and the law table (its word determinants are eliminations on ints), the
law table lifts once and never reads its argument images back into the
field, and the norm point, the 0-cycle, the relation test and the
equivalence test form no matrix product on field entries.  The tensor
powers behind `gamma_n` and `dp_power` multiply the lifted coefficients
as ints: they make no `Fraction` or `FpElem` product or power."""

from collections import Counter
from fractions import Fraction

import pytest

import hilbchow.fields
import hilbchow.linalg
import hilbchow.normpoints
import hilbchow.repvariety
from hilbchow import (GF, QQ, AlgebraPresentation, Matrix, NCPoly, PointedRep, RepPoint,
                      conjugate, cycle_extract, det_point, dp_power, gamma_n,
                      invariant_table, is_representation, law_coefficients,
                      parse_nc_poly, triples_equivalent)
from hilbchow.fields import FpElem

from oracles import (FIELDS, rand_commuting_split_mats, rand_free_cyclic_point,
                     rand_invertible, rand_matrix, seeded)


def test_invariant_table_tables_words_to_half_the_bound(monkeypatch):
    seen = []
    real = hilbchow.repvariety.word_matrices

    def recorded(mats, max_len, p=0):
        seen.append(max_len)
        return real(mats, max_len, p)

    monkeypatch.setattr(hilbchow.repvariety, "word_matrices", recorded)
    rng = seeded("half-bound")
    pt = RepPoint(QQ, (rand_matrix(QQ, 3, rng), rand_matrix(QQ, 3, rng)))
    for max_len in range(1, 9):
        invariant_table(pt, max_len)
    invariant_table(pt)  # the default bound 2n - 1 = 5
    assert seen == [1, 1, 2, 2, 3, 3, 4, 4, 3]


@pytest.fixture
def field_products(monkeypatch):
    "Counts Matrix products with a Fraction or FpElem entry."
    counts = Counter()
    real = Matrix.__mul__

    def counted(self, other):
        if any(isinstance(a, (Fraction, FpElem)) for r in self.rows for a in r):
            counts["__mul__"] += 1
        return real(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    return counts


def test_the_counter_sees_field_products(field_products):
    ints = Matrix([[1, 2], [3, 4]])
    assert ints * ints == Matrix([[7, 10], [15, 22]])
    assert not field_products
    A = Matrix([[Fraction(1, 2), 0], [0, 1]])
    B = Matrix([[GF(3)(1), 0], [0, 1]])
    assert A * A != B * B
    assert field_products["__mul__"] == 2


def test_cycle_and_relation_tests_form_no_field_products(field_products):
    rng = seeded("lift-paths")
    cases = []
    for field in FIELDS + (GF(5),):
        for m in (1, 2, 3):
            for n in (1, 2, 3, 4):
                mats, _ = rand_commuting_split_mats(field, m, n, rng)
                rels = [f"x{i + 1}*x{j + 1} - x{j + 1}*x{i + 1}"
                        for i in range(m) for j in range(i + 1, m)]
                rels.append("x1^3 - 2*x1 + 1/2" if field is QQ else "x1^3 - 2*x1 + 1")
                pres = AlgebraPresentation(field, m, tuple(parse_nc_poly(r, field, m)
                                                           for r in rels))
                cases.append((pres, RepPoint(field, mats)))
    field_products.clear()
    for pres, rep in cases:
        cycle_extract(rep)
        is_representation(pres, rep.mats)
        is_representation(AlgebraPresentation(pres.field, pres.m, pres.relations[:-1]),
                          rep.mats)
    assert field_products == {}


def test_det_point_runs_berkowitz_m_times(monkeypatch, field_products):
    # the m generator charpolys only: the law table interpolates fraction-free
    # eliminations on the lift, and so does every word determinant
    entered = []
    real = hilbchow.linalg.berkowitz_coeffs

    def recorded(mat):
        entered.append(mat.n)
        return real(mat)

    monkeypatch.setattr(hilbchow.linalg, "berkowitz_coeffs", recorded)
    rng = seeded("det-point-shape")
    for field in FIELDS + (GF(101),):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                pt = RepPoint(field, tuple(rand_matrix(field, n, rng) for _ in range(m)))
                for max_len in (*range(1, 2 * n + 1), None):
                    entered.clear()
                    det_point(pt, max_len)
                    assert len(entered) == m, (field, m, n, max_len)
    assert field_products == {}


def test_law_coefficients_lift_once_and_skip_nc_eval(monkeypatch, field_products):
    # the argument images stay on the one integer lift of the evaluation
    # core, which det_linear_combination takes as it is: one `fields.lift`
    # per table, no `nc_eval`, no product of field-entry matrices
    lifts = []
    real = hilbchow.fields.lift

    def counted(field, values):
        lifts.append(field)
        return real(field, values)

    def refused(*args):
        raise AssertionError("law_coefficients entered nc_eval")

    rng = seeded("law-lift-once")
    cases = []
    for field in FIELDS + (GF(101),):
        for m in (1, 2, 3):
            for n in (1, 2, 3, 4):
                rep = RepPoint(field, tuple(rand_matrix(field, n, rng) for _ in range(m)))
                gens = [NCPoly.generator(field, m, k) for k in range(m)]
                mixed = gens[0] * gens[-1] * gens[0] - gens[-1] + NCPoly.one(field, m)
                cases += [(rep, gens), (rep, [mixed, gens[0], mixed])]
    monkeypatch.setattr(hilbchow.fields, "lift", counted)
    monkeypatch.setattr(hilbchow.linalg, "nc_eval", refused)
    monkeypatch.setattr(hilbchow.normpoints, "nc_eval", refused)
    field_products.clear()
    for rep, args in cases:
        lifts.clear()
        law_coefficients(rep, args)
        assert lifts == [rep.field]
    assert field_products == {}


def test_equivalence_test_forms_no_field_products(field_products):
    rng = seeded("equiv-lift")
    cases = []
    for field in FIELDS + (GF(101),):
        for m in (1, 2):
            for n in (1, 2, 3):
                pt = rand_free_cyclic_point(field, m, n, rng)
                g = rand_invertible(field, n, rng)
                moved = PointedRep(conjugate(g, pt.rep), g.apply(pt.v))
                cases.append((pt, moved, g))
    field_products.clear()
    for pt, moved, g in cases:
        assert triples_equivalent(pt, moved) == g
        assert triples_equivalent(moved, pt) is not None
    assert field_products == {}


def test_tensor_powers_form_no_field_products(monkeypatch):
    # the splits' coefficient products run on the integer lift, read back
    # once per term: no Fraction or FpElem product or power on the way
    cases = [NCPoly(QQ, 2, {(0,): Fraction(1, 2), (0, 1): Fraction(-2, 3), (): 5}),
             NCPoly(GF(7), 2, {(0,): 3, (0, 1): 6, (1, 1, 0): 2})]
    counts = Counter()
    for cls in (Fraction, FpElem):
        for name in ("__mul__", "__pow__"):
            real = getattr(cls, name)

            def counted(self, other, *rest, _key=f"{cls.__name__}.{name}", _real=real):
                counts[_key] += 1
                return _real(self, other, *rest)

            monkeypatch.setattr(cls, name, counted)
    assert Fraction(1, 2) * 2 and GF(7)(3) ** 2  # the counters see products
    assert counts == {"Fraction.__mul__": 1, "FpElem.__pow__": 1}
    counts.clear()
    for a in cases:  # the C(4 + 2, 2) splits of 4 over three words
        assert len(gamma_n(a, 4).terms) == len(dp_power(a, 4).terms) == 15
    assert counts == {}
