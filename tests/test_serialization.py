"""Round-trip checks: parse(print(x)) == x for every public type."""

import re
from fractions import Fraction

import pytest

from hilbchow import (GF, QQ, AlgebraPresentation, Cycle, DPElement,
                      EnumerationReport, IdealPresentation, InvariantTable,
                      LawCoefficientTable, Matrix, NCPoly, NormPoint,
                      ParseError, PointedRep, PreconditionError, RepIdeal,
                      RepPoint, SplitFailure, SymTensor, cycle_extract,
                      det_point, dp_power, enumerate_points, gamma_n,
                      invariant_table, law_coefficients, parse_comm_poly,
                      parse_nc_poly, rep_ideal, triple_to_ideal)

from oracles import (FIELDS, rand_free_cyclic_point, rand_matrix, rand_ncpoly,
                     rand_vector, seeded)


def sample_points(field, rng):
    reps = [RepPoint(field, (rand_matrix(field, 2, rng),
                             rand_matrix(field, 2, rng))),
            RepPoint(field, (rand_matrix(field, 3, rng),))]
    return reps


def test_polynomials_roundtrip():
    rng = seeded("ser-poly")
    for field in FIELDS:
        for _ in range(25):
            p = rand_ncpoly(field, 3, rng, max_terms=4, max_len=3)
            assert parse_nc_poly(str(p), field, 3) == p
            c = p.abelianize()
            assert parse_comm_poly(str(c), field) == c


def test_presentations_roundtrip():
    for field in FIELDS:
        rels = (parse_nc_poly("x1*x2 - x2*x1", field, 2),
                parse_nc_poly("x1^3 - 1", field, 2))
        for pres in (AlgebraPresentation(field, 2),
                     AlgebraPresentation(field, 2, rels)):
            assert AlgebraPresentation.from_text(pres.to_text()) == pres


def test_points_roundtrip():
    rng = seeded("ser-points")
    for field in FIELDS:
        for rep in sample_points(field, rng):
            assert RepPoint.from_text(rep.to_text()) == rep
            v = rand_vector(field, rep.n, rng)
            pt = PointedRep(rep, v)
            assert PointedRep.from_text(pt.to_text()) == pt


def test_rep_ideal_roundtrip():
    for field in FIELDS:
        pres = AlgebraPresentation(field, 2,
                                   (parse_nc_poly("x1*x2 - x2*x1", field, 2),))
        ideal = rep_ideal(pres, 2)
        assert RepIdeal.from_text(ideal.to_text()) == ideal


def test_invariant_table_roundtrip():
    rng = seeded("ser-invariants")
    for field in FIELDS:
        for rep in sample_points(field, rng):
            table = invariant_table(rep)
            assert InvariantTable.from_text(table.to_text()) == table


def test_ideal_presentation_roundtrip():
    rng = seeded("ser-ideal")
    for field in FIELDS:
        pt = rand_free_cyclic_point(field, 2, 3, rng)
        ip = triple_to_ideal(pt)
        assert IdealPresentation.from_text(ip.to_text()) == ip


def test_divided_power_and_tensor_roundtrip():
    rng = seeded("ser-dp")
    for field in FIELDS:
        a = rand_ncpoly(field, 2, rng, max_terms=3, max_len=2)
        elem = dp_power(a, 2) * dp_power(a, 1)
        assert DPElement.from_text(elem.to_text()) == elem
        st = gamma_n(a, 3)
        assert SymTensor.from_text(st.to_text()) == st


def test_law_table_and_norm_point_roundtrip():
    rng = seeded("ser-norm")
    for field in FIELDS:
        for rep in sample_points(field, rng):
            table = law_coefficients(
                rep, [NCPoly.one(field, rep.m)]
                + [NCPoly.generator(field, rep.m, k) for k in range(rep.m)])
            assert LawCoefficientTable.from_text(table.to_text()) == table
            np_ = det_point(rep, 2)
            assert NormPoint.from_text(np_.to_text()) == np_


def test_cycle_and_split_failure_roundtrip():
    diag = RepPoint(QQ, (Matrix(((Fraction(1), Fraction(0)),
                                 (Fraction(0), Fraction(2)))),
                         Matrix(((Fraction(3), Fraction(0)),
                                 (Fraction(0), Fraction(3)))),))
    cyc = cycle_extract(diag)
    assert Cycle.from_text(cyc.to_text()) == cyc
    comp = RepPoint(QQ, (Matrix(((Fraction(0), Fraction(-1)),
                                 (Fraction(1), Fraction(0)))),))
    fail = cycle_extract(comp)
    assert SplitFailure.from_text(fail.to_text()) == fail


def test_enumeration_report_roundtrip():
    report = enumerate_points(AlgebraPresentation(GF(2), 1), 1)
    assert EnumerationReport.from_text(report.to_text()) == report


def test_canonical_output_is_stable():
    # key-sorted, whitespace-normalized: regenerating gives identical bytes
    rng = seeded("ser-stable")
    for field in FIELDS:
        rep = sample_points(field, rng)[0]
        np_ = det_point(rep, 2)
        again = det_point(RepPoint(field, rep.mats), 2)
        assert np_.to_text() == again.to_text()
        table = invariant_table(rep)
        assert table.to_text() == invariant_table(rep).to_text()


# one block per malformed body or integer line: no `=` or `*`, or a
# letter where an integer or a generator goes
MALFORMED_LINES = [
    (DPElement, "divided-power\nfield Q\nm 1\nterm (x1)^[2]"),
    (DPElement, "divided-power\nfield Q\nm x"),
    (SymTensor, "symtensor\nfield Q\nm 1\ndegree x"),
    (SymTensor, "symtensor\nfield Q\nm 1\ndegree 1\nterm {x1}"),
    (NormPoint, "norm-point\nfield Q\nm 1\nn 1\nmax-len 1\ncharpoly xa = t"),
    (NormPoint, "norm-point\nfield Q\nm 1\nn 1\nmax-len 1\nlaw (a) = 1"),
    (NormPoint, "norm-point\nfield Q\nm 1\nn 1\nmax-len 1\ncharpoly x1"),
    (Cycle, "cycle\nfield Q\nm 1\nn 1\npoint (1) * a"),
    (Cycle, "cycle\nfield Q\nm 1\nn 1\npoint (1)"),
    (LawCoefficientTable, "law-table\nfield Q\nn 1\nargs x1\ncoeff (1)"),
    (LawCoefficientTable, "law-table\nfield Q\nn 1\nargs x1\ncoeff (a) = 1"),
    (LawCoefficientTable, "law-table\nfield Q\nn 1\nargs x1; x1\ncoeff (1,,0) = 1"),
    (Cycle, "cycle\nfield Q\nm 1\nn 1\npoint (1,) * 1"),
    (SymTensor, "symtensor\nfield Q\nm 1\ndegree 1\nterm {x1,} = 1"),
]


def test_truncated_blocks_raise_typed_errors():
    # every prefix of a printed block parses or raises one of the errors
    # the CLI maps to an exit code, never IndexError or KeyError, and
    # every malformed line is a ParseError
    rng = seeded("ser-truncated")
    rep = sample_points(QQ, rng)[0]
    a = rand_ncpoly(QQ, 2, rng, max_terms=3, max_len=2)
    diag = RepPoint(QQ, (Matrix(((Fraction(1), Fraction(0)),
                                 (Fraction(0), Fraction(2)))),))
    comp = RepPoint(QQ, (Matrix(((Fraction(0), Fraction(-1)),
                                 (Fraction(1), Fraction(0)))),))
    samples = [
        (RepPoint, rep),
        (PointedRep, PointedRep(rep, rand_vector(QQ, rep.n, rng))),
        (RepIdeal, rep_ideal(AlgebraPresentation(QQ, 2), 2)),
        (InvariantTable, invariant_table(rep)),
        (IdealPresentation,
         triple_to_ideal(rand_free_cyclic_point(QQ, 2, 3, rng))),
        (DPElement, dp_power(a, 2)),
        (SymTensor, gamma_n(a, 2)),
        (LawCoefficientTable, law_coefficients(rep, [a])),
        (NormPoint, det_point(rep, 2)),
        (Cycle, cycle_extract(diag)),
        (SplitFailure, cycle_extract(comp)),
        (EnumerationReport,
         enumerate_points(AlgebraPresentation(GF(2), 1), 1)),
    ]
    for cls, obj in samples:
        lines = obj.to_text().splitlines()
        for k in range(len(lines)):
            try:
                cls.from_text("\n".join(lines[:k]))
            except (ParseError, PreconditionError):
                pass
    for cls, text in MALFORMED_LINES:
        with pytest.raises(ParseError):
            cls.from_text(text)



@pytest.mark.parametrize("cls,text", [
    (NormPoint, "norm-point\nfield Q\nm 1000000\nn 1\nmax-len 1\ncharpoly x1 = t"),
    (InvariantTable, "invariant-table\nfield Q\nm 1000000\nn 1\nmax-len 1\ndet x1 = 1"),
    (IdealPresentation, "ideal-presentation\nfield Q\nm 1000000\nn 1\nbasis 1\n"
                        "cyclic-index 0\nact x1 = 0"),
], ids=lambda v: getattr(v, "__name__", ""))
def test_missing_generator_line_for_a_large_arity(cls, text):
    # the error names the first missing generator, whatever m the block declares
    with pytest.raises(ParseError, match=r"line for x2$"):
        cls.from_text(text)


NORM = "norm-point\nfield Q\nm 1\nn 1\nmax-len 1\ncharpoly x1 = t\n"


@pytest.mark.parametrize("cls,text,message", [
    (NormPoint, "norm-point\nfield Q\nm 2\nn 1\nmax-len 1\ncharpoly x1 = t - 1\n"
                "charpoly x2 = t\ncharpoly x1 = t - 2", "repeated charpoly line for x1"),
    (InvariantTable, "invariant-table\nfield Q\nm 2\nn 1\nmax-len 1\ndet x1 = 1\n"
                     "det x2 = 0\ndet x1 = 2", "repeated det line for x1"),
    (IdealPresentation, "ideal-presentation\nfield Q\nm 1\nn 2\nbasis 1, x1\n"
                        "cyclic-index 0\nact x1 = 5 5; 5 5\nact x1 = 0 0; 1 0",
     "repeated act line for x1"),
    (InvariantTable, "invariant-table\nfield Q\nm 1\nn 1\nmax-len 1\ntr x1 = 1\n"
                     "tr x1 = 2\ndet x1 = 1", "repeated tr line for x1"),
    (LawCoefficientTable, "law-table\nfield Q\nn 1\nargs x1\ncoeff (1) = 1\n"
                          "coeff (1) = 2", "repeated coeff line for (1)"),
    (NormPoint, NORM + "law (1) = 1\nlaw (1) = 2", "repeated law line for (1)"),
    (NormPoint, NORM + "det x1 = 0\ndet x1^1 = 1", "repeated det line for x1^1"),
    (Cycle, "cycle\nfield Q\nm 1\nn 1\npoint (1) * 1\npoint (1) * 1",
     "repeated point line for (1)"),
    (SymTensor, "symtensor\nfield Q\nm 2\ndegree 2\nterm {x1, x2} = 1\n"
                "term {x2, x1} = 1", "repeated term line for {x2, x1}"),
], ids=["charpoly", "invariant-det", "act", "tr", "coeff", "law", "word-det", "point",
        "term"])
def test_repeated_keyed_line_is_refused(cls, text, message):
    # a second line for a key read under the same prefix would silently
    # replace or add to the first, so it is malformed input naming the line;
    # keys are compared after parsing (x1^1 is x1, {x2, x1} is {x1, x2})
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        cls.from_text(text)


def test_per_generator_line_naming_no_generator_quotes_it():
    # the error line quotes the lhs as written, not a key parsed from it
    with pytest.raises(ParseError, match=r"'x1\^1'"):
        NormPoint.from_text(NORM.replace("x1 = t", "x1^1 = t"))


def test_divided_power_term_lines_are_summed():
    # a divided-power block is a sum of expressions, so a repeated term adds
    text = "divided-power\nfield Q\nm 1\nterm (x1)^[2] = 1\n"
    assert DPElement.from_text(text + "term (x1)^[2] = 1") == DPElement.from_text(
        text.replace("= 1", "= 2"))


def test_norm_point_with_t01_and_t1_roundtrips():
    # `t01` and `t1` are distinct charpoly variables that `var_key` must not
    # merge or reorder between printing and reading back
    text = NORM.replace("= t", "= t01*t1 + t1") + "law (1) = 0\ndet 1 = 1\ndet x1 = 0\n"
    assert NormPoint.from_text(text).to_text() == text


def test_law_table_on_ten_arguments_roundtrips():
    # the names t1..t10 sort by value, so t10 is the last argument, not the second
    rep = RepPoint(QQ, (Matrix(((Fraction(1), Fraction(2)),
                                (Fraction(0), Fraction(3)))),))
    args = [NCPoly.one(QQ, 1)] + [parse_nc_poly(f"x1^{k} + {k}", QQ, 1)
                                  for k in range(1, 10)]
    table = law_coefficients(rep, args)
    assert len(table.args) == 10 and any(xi[9] for xi in table.coeffs)
    assert LawCoefficientTable.from_text(table.to_text()) == table
    assert LawCoefficientTable.from_text(table.to_text()).to_text() == table.to_text()
