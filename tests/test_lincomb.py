"""Semantics of the shared linear-combination container."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qshuffle import (
    OPERATIONS,
    CoeffCombination,
    TensorElement,
    TensorSquareElement,
    algebra_by_name,
    as_scalar,
    deconcatenate,
    eval_ctd,
    normal_form,
    reduced_coproduct_kernel,
    weight_letter,
)
from qshuffle.lincomb import LinearCombination, add_into, bilinear
from qshuffle.sampling import random_ctd_term, random_element


def test_as_scalar_accepts_ints_and_fractions():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar(Fraction(2, 7)) == Fraction(2, 7)


def test_as_scalar_keeps_integers_as_int():
    assert type(as_scalar(3)) is int
    reduced = as_scalar(Fraction(6, 3))
    assert reduced == 2 and type(reduced) is int
    assert type(as_scalar(Fraction(1, 2))) is Fraction
    assert type(TensorElement([((), Fraction(4, 2))]).coefficient(())) is int


def _coefficients(*combinations):
    return [c for combination in combinations for _, c in combination.items()]


def test_no_coefficient_is_ever_a_float():
    """Integer inputs give int coefficients; divisions give Fractions."""
    rng = random.Random(2024)
    integral = []
    for name in ("zero", "stuffle-y", "sym2", "word2"):
        alg = algebra_by_name(name)
        for _ in range(6):
            x = random_element(alg, rng)
            y = random_element(alg, rng)
            for op in OPERATIONS.values():
                integral += _coefficients(op(alg, x, y))
            integral += _coefficients(deconcatenate(x))
    for _ in range(6):
        term = random_ctd_term(rng, rng.randint(2, 4))
        integral += _coefficients(normal_form(term).to_element(), eval_ctd(term, 3))
    assert integral and all(type(c) is int for c in integral)
    kernel = [
        c
        for degree in (2, 3)
        for element in reduced_coproduct_kernel(algebra_by_name("sym2"), degree)
        for c in _coefficients(element)
    ]
    assert kernel and all(type(c) in (int, Fraction) for c in kernel)
    halves = OPERATIONS["star"](
        algebra_by_name("sym2"),
        TensorElement([((), Fraction(1, 2))]),
        TensorElement([((), 3)]),
    )
    assert all(type(c) in (int, Fraction) for c in _coefficients(halves))


def test_as_scalar_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    with pytest.raises(TypeError):
        as_scalar("1")
    # True == 1, but a bool is refused, as Letter and the algebra builders refuse it
    with pytest.raises(TypeError, match="exact rational scalar required, got bool"):
        as_scalar(True)


def test_zero_coefficients_are_dropped():
    el = TensorElement([((), 1), ((), -1)])
    assert not el
    assert len(el) == 0


def test_accumulation_merges_duplicates():
    w = (weight_letter(1),)
    el = TensorElement([(w, 2), (w, 3)])
    assert el.coefficient(w) == 5


def test_add_into_scales_and_drops_cancelled_keys():
    acc = {"a": 2, "b": 1}
    out = add_into(acc, [("a", 1), ("c", 1), ("b", Fraction(1, 2))], scale=-2)
    assert out is acc
    assert acc == {"c": -2}
    add_into(acc, [("d", 0), ("c", 0)])
    assert acc == {"c": -2}
    add_into(acc, [("c", 1), ("c", 1)])
    assert acc == {}
    assert all(acc.values())


def test_equality_is_type_strict():
    a = CoeffCombination.basis(weight_letter(1))
    b = TensorElement.from_word((weight_letter(1),))
    assert a != b


def test_not_hashable():
    with pytest.raises(TypeError):
        hash(TensorElement.unit())


def test_arithmetic():
    w1 = (weight_letter(1),)
    w2 = (weight_letter(2),)
    a = TensorElement.basis(w1, 2)
    b = TensorElement.basis(w2)
    combined = a + b - 3 * a
    assert combined.coefficient(w1) == -4
    assert combined.coefficient(w2) == 1
    assert (-combined).coefficient(w1) == 4
    assert not (combined - combined)


def test_scalar_multiplication_requires_scalars():
    a = TensorElement.unit()
    with pytest.raises(TypeError):
        a * a  # elements cannot multiply without an algebra
    with pytest.raises(TypeError):
        0.5 * a


def test_terms_are_sorted_and_items_unordered():
    w1 = (weight_letter(1),)
    w3 = (weight_letter(3),)
    pair = (weight_letter(1), weight_letter(1))
    el = TensorElement([(pair, 1), (w3, 1), (w1, 1)])
    assert [w for w, _ in el.terms()] == [w1, w3, pair]
    assert dict(el.items()) == {w1: 1, w3: 1, pair: 1}


@given(
    coeffs=st.lists(
        st.tuples(st.integers(1, 3), st.integers(-4, 4)), min_size=0, max_size=8
    )
)
def test_addition_matches_dict_accumulation(coeffs):
    terms = [((weight_letter(k),), c) for k, c in coeffs]
    el = TensorElement(terms)
    expected: dict = {}
    for k, c in coeffs:
        key = (weight_letter(k),)
        expected[key] = expected.get(key, 0) + c
    expected = {k: v for k, v in expected.items() if v}
    assert dict(el.items()) == {k: Fraction(v) for k, v in expected.items()}


@given(scale=st.integers(-5, 5), k=st.integers(1, 5))
def test_scaling_distributes(scale, k):
    el = TensorElement.basis((weight_letter(k),), 3)
    assert (scale * el).coefficient((weight_letter(k),)) == 3 * scale
    if scale == 0:
        assert not (scale * el)


A, B = weight_letter(1), weight_letter(2)


def _sorted_concat(u, v):
    return {tuple(sorted(u + v)): 1}


def _sorted_concat_left(p, q):
    return {(tuple(sorted(p[0] + q[0])), p[1]): 1}


# (combination type, word -> basis key, commutative rule on basis keys)
BILINEAR_CASES = [
    (TensorElement, lambda word: word, _sorted_concat),
    (TensorSquareElement, lambda word: (word, (A,)), _sorted_concat_left),
]


@pytest.mark.parametrize("kind, key, rule", BILINEAR_CASES)
def test_bilinear_distributes_over_sums_in_each_argument(kind, key, rule):
    x1 = kind([(key((A,)), 2), (key((B,)), -1)])
    x2 = kind([(key((A, B)), Fraction(1, 2))])
    y = kind([(key((B,)), 3), (key(()), 1)])
    assert bilinear(rule, x1 + x2, y) == bilinear(rule, x1, y) + bilinear(rule, x2, y)
    assert bilinear(rule, y, x1 + x2) == bilinear(rule, y, x1) + bilinear(rule, y, x2)


@pytest.mark.parametrize("kind, key, rule", BILINEAR_CASES)
def test_bilinear_returns_a_zero_free_result_of_the_first_type(kind, key, rule):
    # (a + b)(b - a): the two mixed terms cancel under a commutative rule
    x = kind([(key((A,)), 1), (key((B,)), 1)])
    y = kind([(key((A,)), -1), (key((B,)), 1)])
    out = bilinear(rule, x, y)
    assert type(out) is kind
    assert out == kind([(key((B, B)), 1), (key((A, A)), -1)])
    assert key((A, B)) not in out and all(c for _, c in out.items())
