"""Exact computations on representation schemes of finitely presented
algebras, the cyclic-vector locus behind the non-commutative Hilbert
scheme, divided powers / symmetric tensors, and the determinant norm
map on points, over Q and prime fields F_p.

All arithmetic is exact; no floating point appears anywhere.  `import
hilbchow` loads no submodule: each loads on the first use of its name.
"""

from importlib import import_module

# every submodule, with the names it exports here
_EXPORTS = {
    "_tokens": "", "cli": "", "commpoly": "CommPoly parse_comm_poly",
    "counting": "EnumerationReport configured_budget enumerate_points gl_order",
    "cyclic": "IdealPresentation PointedRep cyclic_word_basis ideal_membership "
              "ideal_to_triple is_cyclic span_dimension stabilizer_is_trivial "
              "triple_to_ideal triples_equivalent",
    "divpow": "DPElement SymTensor dp_power gamma_n parse_dp_expr tau ts_mul",
    "errors": "BudgetExceededError ParseError PreconditionError SingularMatrixError",
    "fields": "GF QQ FpElem PrimeField RationalField field_from_header",
    "linalg": "Matrix berkowitz_coeffs charpoly det det_linear_combination "
              "matrix_inverse nc_eval nullspace word_matrices",
    "ncpoly": "NCPoly parse_nc_poly word_key word_str words_up_to",
    "normpoints": "Cycle LawCoefficientTable NormPoint SplitFailure cycle_extract "
                  "cycle_product_poly det_point field_roots hc_point law_coefficients",
    "repvariety": "AlgebraPresentation InvariantTable RepIdeal RepPoint build_generic "
                  "conjugate generic_var invariant_table is_representation rep_ideal",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_OWNER)


def __getattr__(name):
    "The submodule `name`, or the name from its submodule, imported on first use."
    module = _OWNER.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)  # which binds a submodule here
    if name in _OWNER:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
