"""Exact computations on representation schemes of finitely presented
algebras, the cyclic-vector locus behind the non-commutative Hilbert
scheme, divided powers / symmetric tensors, and the determinant norm
map on points, over Q and prime fields F_p.

All arithmetic is exact; no floating point appears anywhere.
"""

from .counting import (EnumerationReport, configured_budget, enumerate_points,
                       gl_order)
from .cyclic import (IdealPresentation, PointedRep, cyclic_word_basis,
                     ideal_membership, ideal_to_triple, is_cyclic,
                     span_dimension, stabilizer_is_trivial, triple_to_ideal,
                     triples_equivalent)
from .commpoly import CommPoly, parse_comm_poly
from .divpow import (DPElement, SymTensor, dp_power, gamma_n, parse_dp_expr, tau,
                     ts_mul)
from .errors import (BudgetExceededError, ParseError, PreconditionError,
                     SingularMatrixError)
from .fields import GF, QQ, FpElem, PrimeField, RationalField, field_from_header
from .linalg import (Matrix, berkowitz_coeffs, charpoly, det,
                     det_linear_combination, matrix_inverse, nc_eval,
                     nullspace, word_matrices)
from .ncpoly import NCPoly, parse_nc_poly, word_key, word_str, words_up_to
from .normpoints import (Cycle, LawCoefficientTable, NormPoint, SplitFailure,
                         cycle_extract, cycle_product_poly, det_point,
                         field_roots, hc_point, law_coefficients)
from .repvariety import (AlgebraPresentation, InvariantTable, RepIdeal, RepPoint,
                         build_generic, conjugate, generic_var, invariant_table,
                         is_representation, rep_ideal)

__all__ = [
    "AlgebraPresentation", "BudgetExceededError", "CommPoly", "Cycle",
    "DPElement", "EnumerationReport", "FpElem", "GF",
    "IdealPresentation", "InvariantTable",
    "LawCoefficientTable", "Matrix", "NCPoly", "NormPoint", "ParseError",
    "PointedRep", "PreconditionError", "PrimeField", "QQ", "RationalField",
    "RepIdeal", "RepPoint", "SingularMatrixError", "SplitFailure", "SymTensor",
    "berkowitz_coeffs", "build_generic", "charpoly", "configured_budget",
    "conjugate", "cycle_extract", "cycle_product_poly", "cyclic_word_basis",
    "det", "det_linear_combination", "det_point", "dp_power",
    "enumerate_points", "field_from_header", "field_roots", "gamma_n",
    "generic_var", "gl_order", "hc_point", "ideal_membership",
    "ideal_to_triple", "invariant_table", "is_cyclic", "is_representation",
    "law_coefficients", "matrix_inverse", "nc_eval", "nullspace",
    "parse_comm_poly", "parse_dp_expr", "parse_nc_poly", "rep_ideal",
    "span_dimension", "stabilizer_is_trivial", "tau", "triple_to_ideal",
    "triples_equivalent", "ts_mul", "word_key", "word_matrices", "word_str",
    "words_up_to",
]
