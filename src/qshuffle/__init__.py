"""Exact-arithmetic kernel for stuffle products and their split operations.

The package works over the tensor module on a pool of letters whose product
is supplied by a small pluggable coefficient algebra. Coefficients are
exact: ``int`` where integral, ``fractions.Fraction`` otherwise, never
``float``; there are no tolerances anywhere.
"""

from .coeff import (
    CoeffAlgebraSpec,
    CoeffCombination,
    DomainError,
    Letter,
    LetterDomainError,
    MissingInvolutionError,
    algebra_by_name,
    atom_letter,
    builtin_algebras,
    involute_letter,
    mono_letter,
    multiply_letters,
    stuffle_y_algebra,
    sym_algebra,
    weight_letter,
    word_algebra,
    word_letter,
    zero_algebra,
)
from .lincomb import LinearCombination, as_scalar
from .tensorq import (
    EMPTY_WORD,
    OPERATIONS,
    TensorElement,
    TensorSquareElement,
    UnitPairingError,
    Word,
    coradical_degree,
    deconcatenate,
    involute_element,
    is_primitive,
    op_dot,
    op_left,
    op_right,
    quasi_shuffle,
    quasi_shuffle_paths,
    reduced_coproduct,
)
from .freectd import (
    FreeTerm,
    NormalForm,
    SignatureError,
    comb_term,
    dot,
    eval_ctd,
    eval_itd,
    fubini,
    fubini_egf_series,
    gen,
    generating_series_check,
    involute_term,
    itd_dimension,
    multilinear_terms,
    normal_form,
    ordered_ordered_partitions,
    ordered_unordered_partitions,
    prec,
    succ,
)
from .bialg import (
    free_ctd_coproduct,
    generator_inclusion,
    generator_projection,
    graded_basis_words,
    reduced_coproduct_kernel,
    square_dot,
    square_left,
)
from .rota import (
    DerivedStructure,
    FiniteAlgebra,
    LinearOperator,
    RotaBaxterError,
    check_star_morphism,
    derived_structure,
    example_by_name,
    pointwise_function_algebra,
    star_product,
    summation_operator,
    verify_rota_baxter,
)
from .grammar import (
    ParseError,
    element_from_json,
    element_to_json,
    normal_form_to_json,
    parse_element,
    parse_free_term,
    parse_letter,
    parse_word,
    render_element,
    render_normal_form,
    render_square_element,
    render_word,
    square_to_json,
)
from .laws import LawReport, LawViolation, check_compatibility, run_suite
from .sampling import (
    random_ctd_term,
    random_element,
    random_letter,
    random_td_term,
    random_word,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
