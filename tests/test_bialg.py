"""Tensor-square structure, the free coproduct, and the splitting maps."""

import ast
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from qshuffle import laws
from qshuffle import (
    EMPTY_WORD,
    DomainError,
    LetterDomainError,
    SignatureError,
    TensorElement,
    TensorSquareElement,
    UnitPairingError,
    check_compatibility,
    deconcatenate,
    dot,
    eval_ctd,
    free_ctd_coproduct,
    gen,
    generator_inclusion,
    generator_projection,
    graded_basis_words,
    mono_letter,
    multilinear_terms,
    op_dot,
    op_left,
    prec,
    quasi_shuffle,
    reduced_coproduct,
    reduced_coproduct_kernel,
    square_dot,
    square_left,
    stuffle_y_algebra,
    succ,
    sym_algebra,
    weight_letter,
)
from qshuffle import bialg
from qshuffle.coeff import algebra_by_name
from qshuffle.lincomb import kernel
from qshuffle.laws import PRIMITIVE_DOT, PROJECTION, first_failure, splitting_failure, tensor_ops
from qshuffle.sampling import random_ctd_term, random_element
from qshuffle.tensorq import _shuffle_words, _word_op_dot, _word_op_left

import conftest
from conftest import rational_rank

G1, G2, G3 = gen(1), gen(2), gen(3)
X1 = mono_letter((1,))
X2 = mono_letter((2,))


def w(*letters):
    return tuple(letters)


def sq(*pairs_with_coeffs):
    return TensorSquareElement(pairs_with_coeffs)


def _square_pairs(alg, word_op, p1, p2):
    """Per-pair reference for the tensor-square operations: ``word_op`` on
    the left words and the quasi-shuffle on the right words of one pair of
    basis pairs, with the operation moved to the right words when both left
    words are units."""
    (u1, v1), (u2, v2) = p1, p2
    if not u1 and not u2:
        inner = word_op(alg, v1, v2)
        return {(EMPTY_WORD, w): c for w, c in inner.items()}
    heads = word_op(alg, u1, u2)
    if not heads:
        return {}
    tails = _shuffle_words(alg, v1, v2)
    return {(hw, tw): hc * tc for hw, hc in heads.items() for tw, tc in tails.items()}


def _reference_square(alg, word_op, a, b):
    """The sum of ``c1 * c2 * _square_pairs(p1, p2)`` over all pairs of
    basis pairs, zeros dropped."""
    acc = {}
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            for key, c in _square_pairs(alg, word_op, p1, p2).items():
                acc[key] = acc.get(key, 0) + c1 * c2 * c
    return {key: c for key, c in acc.items() if c}


SQUARE_OPS = [(square_left, _word_op_left), (square_dot, _word_op_dot)]


class TestSquareOperations:
    def test_left_with_unit_right_components(self, sym2):
        a = sq(((w(X1), EMPTY_WORD), 1))
        b = sq(((w(X2), EMPTY_WORD), 1))
        assert square_left(sym2, a, b) == sq(((w(X1, X2), EMPTY_WORD), 1))

    def test_left_convention_on_unit_heads(self, sym2):
        a = sq(((EMPTY_WORD, w(X1)), 1))
        b = sq(((EMPTY_WORD, w(X2)), 1))
        # both heads are units: the operation is transferred to the tails
        assert square_left(sym2, a, b) == sq(((EMPTY_WORD, w(X1, X2)), 1))

    def test_dot_convention_on_unit_heads(self, sym2):
        a = sq(((EMPTY_WORD, w(X1)), 1))
        b = sq(((EMPTY_WORD, w(X2)), 1))
        expected = sq(((EMPTY_WORD, w(mono_letter((1, 2)))), 1))
        assert square_dot(sym2, a, b) == expected

    def test_general_clause_mixes_star_on_tails(self, sym2):
        a = sq(((w(X1), w(X2)), 1))
        b = sq(((w(X2), w(X1)), 1))
        got = square_left(sym2, a, b)
        head = op_left(
            sym2, TensorElement.from_word(w(X1)), TensorElement.from_word(w(X2))
        )
        tail = quasi_shuffle(
            sym2, TensorElement.from_word(w(X2)), TensorElement.from_word(w(X1))
        )
        expected = TensorSquareElement(
            ((hw, tw), hc * tc) for hw, hc in head.items() for tw, tc in tail.items()
        )
        assert got == expected

    def test_all_units_pairing_is_undefined(self, sym2):
        unit = sq(((EMPTY_WORD, EMPTY_WORD), 1))
        with pytest.raises(UnitPairingError):
            square_left(sym2, unit, unit)
        with pytest.raises(UnitPairingError):
            square_dot(sym2, unit, unit)

    @pytest.mark.parametrize("op", [op for op, _ in SQUARE_OPS], ids=lambda op: op.__name__)
    def test_refuses_an_argument_that_is_not_a_square(self, sym2, op):
        a = sq(((w(X1), w(X2)), 1))
        for x in (TensorElement.from_word(w(X1, X2)), TensorElement.from_word(w(X1)), {}):
            message = f"^TensorSquareElement expected, got {type(x).__name__}$"
            with pytest.raises(TypeError, match=message):
                op(sym2, x, a)
            with pytest.raises(TypeError, match=message):
                op(sym2, a, x)

    def test_refuses_letters_of_another_algebra(self, sym2):
        y1, y2 = w(weight_letter(1)), w(weight_letter(2))
        a = sq(((y1, y2), 1))
        message = "^letter y1 is not in the basis family of sym2$"
        for op in (square_left, square_dot):
            with pytest.raises(LetterDomainError, match=message):
                op(sym2, a, a)
        # would be y1.y1 (x) 1, a word of stuffle-y letters
        b = sq(((y1, EMPTY_WORD), 1))
        with pytest.raises(LetterDomainError, match=message):
            square_left(sym2, b, b)
        # a foreign letter in a right word of the second argument only
        c = sq(((w(X1), y2), 1))
        for op in (square_left, square_dot):
            with pytest.raises(LetterDomainError, match="^letter y2 is not"):
                op(sym2, sq(((w(X2), EMPTY_WORD), 1)), c)

    def test_three_unit_components_follow_the_outer_unit_law(self, sym2):
        unit = sq(((EMPTY_WORD, EMPTY_WORD), 1))
        b = sq(((EMPTY_WORD, w(X1)), 1))
        # the convention plus the inner unit table reproduces 1<x=0, x<1=x
        assert square_left(sym2, unit, b).is_zero
        assert square_left(sym2, b, unit) == b
        assert square_dot(sym2, unit, b).is_zero
        assert square_dot(sym2, b, unit).is_zero

    def test_bilinearity(self, sym2):
        a1 = sq(((w(X1), w(X1)), 1))
        a2 = sq(((w(X2), EMPTY_WORD), 1))
        b = sq(((w(X2), w(X1)), 1))
        combined = square_left(sym2, 2 * a1 - a2, b)
        split = 2 * square_left(sym2, a1, b) - square_left(sym2, a2, b)
        assert combined == split

    # the star on two-fold tensors is test_tensorq's coproduct law, checked
    # through the per-pair reference; these pin the reference's star

    def test_star_on_unit_heads_shuffles_the_tails(self, sym2):
        a = sq(((EMPTY_WORD, w(X1)), 1))
        b = sq(((EMPTY_WORD, w(X2)), 2))
        expected = sq(
            ((EMPTY_WORD, w(X1, X2)), 2),
            ((EMPTY_WORD, w(X2, X1)), 2),
            ((EMPTY_WORD, w(mono_letter((1, 2)))), 2),
        )
        assert _reference_square(sym2, _shuffle_words, a, b) == dict(expected.items())

    def test_star_is_total_with_the_all_units_pair_as_unit(self, sym2):
        unit = sq(((EMPTY_WORD, EMPTY_WORD), 1))
        b = sq(((w(X1), w(X2)), 3), ((EMPTY_WORD, w(X1)), -1))

        def star(x, y):
            return TensorSquareElement(_reference_square(sym2, _shuffle_words, x, y).items())

        assert star(unit, unit) == unit
        assert star(unit, b) == b == star(b, unit)

    def test_pair_level_helpers_agree_with_element_level(self, sym2):
        p1 = (w(X1), w(X2))
        p2 = (w(X2), EMPTY_WORD)
        assert TensorSquareElement(
            _square_pairs(sym2, _word_op_left, p1, p2).items()
        ) == square_left(sym2, sq((p1, 1)), sq((p2, 1)))
        assert TensorSquareElement(
            _square_pairs(sym2, _word_op_dot, p1, p2).items()
        ) == square_dot(sym2, sq((p1, 1)), sq((p2, 1)))


class TestGroupedSquares:
    """The grouped pass of the square operations against the per-pair sum."""

    COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))

    def _random_square(self, alg, rng, unit_left, all_units):
        letters = alg.letters_up_to_degree(2)

        def word():
            return tuple(rng.choice(letters) for _ in range(rng.randint(1, 2)))

        lefts = [word(), word()] + [EMPTY_WORD] * unit_left
        rights = [EMPTY_WORD, word(), word(), word()]
        terms = {}
        # each left word comes with up to three right words
        for left in lefts:
            for right in rng.sample(rights, rng.randint(1, 3)):
                if left or right or all_units:
                    terms[left, right] = rng.choice(self.COEFFS)
        return TensorSquareElement(terms)

    @pytest.mark.parametrize("name", ["sym2", "word2"])
    def test_grouped_pass_matches_the_per_pair_sum(self, name):
        alg = algebra_by_name(name)
        rng = random.Random(109)
        for i in range(40):
            # unit left words on neither side, on either one, or on both
            a = self._random_square(alg, rng, i % 2, all_units=i % 3 == 0)
            b = self._random_square(alg, rng, i // 2 % 2, all_units=False)
            for op, word_op in SQUARE_OPS:
                got = op(alg, a, b)
                assert dict(got.items()) == _reference_square(alg, word_op, a, b), (i, op)
                assert dict(op(alg, b, a).items()) == _reference_square(alg, word_op, b, a)

    def test_rows_of_one_left_word_cancel_to_zero(self, sym2):
        # the right words multiply to (x1 + x2) * (x1 - x2) = x1*x1 - x2*x2
        # in commutative sym2, so every tail with both letters cancels
        half = Fraction(1, 2)
        a = sq(((w(X1), w(X1)), half), ((w(X1), w(X2)), half))
        b = sq(((w(X2), w(X1)), 2), ((w(X2), w(X2)), -2))
        mixed = {w(X1, X2), w(X2, X1), w(mono_letter((1, 2)))}
        for op, word_op in SQUARE_OPS:
            got = op(sym2, a, b)
            assert dict(got.items()) == _reference_square(sym2, word_op, a, b)
            assert got and not {tail for _, tail in got.support()} & mixed

    def test_all_units_pairing_raises_inside_larger_squares(self, sym2):
        a = sq(((EMPTY_WORD, EMPTY_WORD), 1), ((w(X1), w(X2)), 2), ((EMPTY_WORD, w(X1)), -1))
        b = sq(((w(X2), EMPTY_WORD), 1), ((EMPTY_WORD, EMPTY_WORD), Fraction(1, 2)))
        for op in (square_left, square_dot):
            with pytest.raises(UnitPairingError):
                op(sym2, a, b)

    def test_callers_look_the_square_operations_up_when_called(self, sym2, monkeypatch):
        # a tracer rebinds square_left and square_dot in bialg and laws, so the
        # free coproduct and the compatibility suite must find them there
        calls = {"square_left": 0, "square_dot": 0}
        originals = {name: getattr(bialg, name) for name in calls}

        def counting(name):
            def op(*args):
                calls[name] += 1
                return originals[name](*args)

            return op

        for module in (bialg, laws):
            for name in calls:
                monkeypatch.setattr(module, name, counting(name))
        free_ctd_coproduct(prec(G1, dot(G2, G3)), 3)
        assert calls == {"square_left": 1, "square_dot": 1}
        calls.update(square_left=0, square_dot=0)
        report = laws.run_suite("bialgebra-compat", sym2, 1, 1)
        assert report.violations == []
        assert calls["square_left"] > 0 and calls["square_dot"] > 0


# ---------------------------------------------------------------------------
# three tensor factors: both ways of iterating the construction must agree

Triple = dict[tuple, Fraction]


def _word_star(alg, u1, u2):
    out = quasi_shuffle(
        alg, TensorElement.from_word(u1), TensorElement.from_word(u2)
    )
    return dict(out.items())


def _word_left(alg, u1, u2):
    out = op_left(alg, TensorElement.from_word(u1), TensorElement.from_word(u2))
    return dict(out.items())


def _word_dot(alg, u1, u2):
    out = op_dot(alg, TensorElement.from_word(u1), TensorElement.from_word(u2))
    return dict(out.items())


def _pair_star(alg, p1, p2):
    """Star on the tensor square: < both ways plus dot."""
    acc: dict[tuple, Fraction] = {}
    for part in (
        _square_pairs(alg, _word_op_left, p1, p2),
        _square_pairs(alg, _word_op_left, p2, p1),
        _square_pairs(alg, _word_op_dot, p1, p2),
    ):
        for key, c in part.items():
            val = acc.get(key, 0) + c
            if val:
                acc[key] = val
            else:
                del acc[key]
    return acc


def _triple_grouped_left(alg, op, t1, t2):
    """Operation on (A (x) B) (x) C: pair op on the first two slots."""
    square_word_op = _word_op_left if op == "left" else _word_op_dot
    word_op = _word_left if op == "left" else _word_dot
    acc: dict[tuple, Fraction] = {}
    for (u1, v1, w1), c1 in t1.items():
        for (u2, v2, w2), c2 in t2.items():
            if not u1 and not v1 and not u2 and not v2:
                heads = {(EMPTY_WORD, EMPTY_WORD): Fraction(1)}
                tails = word_op(alg, w1, w2)
            else:
                heads = _square_pairs(alg, square_word_op, (u1, v1), (u2, v2))
                tails = _word_star(alg, w1, w2)
            for (hu, hv), hc in heads.items():
                for tw, tc in tails.items():
                    key = (hu, hv, tw)
                    val = acc.get(key, 0) + c1 * c2 * hc * tc
                    if val:
                        acc[key] = val
                    else:
                        del acc[key]
    return acc


def _triple_grouped_right(alg, op, t1, t2):
    """Operation on A (x) (B (x) C): pair structure on the last two slots."""
    square_word_op = _word_op_left if op == "left" else _word_op_dot
    word_op = _word_left if op == "left" else _word_dot
    acc: dict[tuple, Fraction] = {}
    for (u1, v1, w1), c1 in t1.items():
        for (u2, v2, w2), c2 in t2.items():
            if not u1 and not u2:
                heads = {EMPTY_WORD: Fraction(1)}
                tails = _square_pairs(alg, square_word_op, (v1, w1), (v2, w2))
            else:
                heads = word_op(alg, u1, u2)
                tails = _pair_star(alg, (v1, w1), (v2, w2))
            for hw, hc in heads.items():
                for (tv, tw), tc in tails.items():
                    key = (hw, tv, tw)
                    val = acc.get(key, 0) + c1 * c2 * hc * tc
                    if val:
                        acc[key] = val
                    else:
                        del acc[key]
    return acc


class TestThreeFactorConsistency:
    def test_basis_triples(self, sym2):
        t1 = {(w(X1), w(X2), w(X1)): Fraction(1)}
        t2 = {(w(X2), w(X1), w(X2)): Fraction(1)}
        for op in ("left", "dot"):
            assert _triple_grouped_left(sym2, op, t1, t2) == _triple_grouped_right(
                sym2, op, t1, t2
            )

    def test_unit_first_slot_exercises_the_convention(self, sym2):
        t1 = {(EMPTY_WORD, w(X1), w(X1, X2)): Fraction(1)}
        t2 = {(EMPTY_WORD, w(X2), w(X2)): Fraction(1)}
        for op in ("left", "dot"):
            assert _triple_grouped_left(sym2, op, t1, t2) == _triple_grouped_right(
                sym2, op, t1, t2
            )

    def test_sampled_triples(self, sym2):
        rng = random.Random(83)
        for _ in range(12):
            triples = []
            for _ in range(2):
                slots = []
                for slot in range(3):
                    if slot == 0 and rng.random() < 0.3:
                        slots.append({EMPTY_WORD: Fraction(1)})
                    else:
                        el = random_element(sym2, rng, max_total_degree=2)
                        if el.is_zero:
                            el = TensorElement.from_word(w(X1))
                        slots.append(dict(el.items()))
                triple: Triple = {}
                for u, cu in slots[0].items():
                    for v, cv in slots[1].items():
                        for ww, cw in slots[2].items():
                            triple[(u, v, ww)] = cu * cv * cw
                triples.append(triple)
            t1, t2 = triples
            for op in ("left", "dot"):
                left = _triple_grouped_left(sym2, op, t1, t2)
                right = _triple_grouped_right(sym2, op, t1, t2)
                assert left == right, op


class TestFreeCoproduct:
    def test_generator_is_primitive(self):
        word_a = w(X1)
        expected = sq(((word_a, EMPTY_WORD), 1), ((EMPTY_WORD, word_a), 1))
        assert free_ctd_coproduct(G1, 2) == expected

    def test_prec_matches_deconcatenation_of_the_image(self):
        got = free_ctd_coproduct(prec(G1, G2), 2)
        ab = w(X1, X2)
        expected = sq(
            ((ab, EMPTY_WORD), 1),
            ((w(X1), w(X2)), 1),
            ((EMPTY_WORD, ab), 1),
        )
        assert got == expected

    def test_dot_output_is_primitive(self):
        got = free_ctd_coproduct(dot(G1, G2), 2)
        merged = w(mono_letter((1, 2)))
        expected = sq(((merged, EMPTY_WORD), 1), ((EMPTY_WORD, merged), 1))
        assert got == expected

    def test_rejects_td_signature(self):
        with pytest.raises(SignatureError):
            free_ctd_coproduct(succ(G1, G2), 2)

    def test_rejects_out_of_range_generators(self):
        with pytest.raises(DomainError) as refused:
            free_ctd_coproduct(G3, 2)
        assert str(refused.value) == "generator index 3 exceeds the generator count of sym2"

    def test_naturality_on_random_terms(self):
        rng = random.Random(89)
        for _ in range(40):
            term = random_ctd_term(rng, rng.randint(1, 5))
            assert free_ctd_coproduct(term, 3) == deconcatenate(eval_ctd(term, 3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_coassociative_and_counital_on_multilinear_terms(self, n):
        for term in multilinear_terms(n):
            image = eval_ctd(term, n)
            delta = free_ctd_coproduct(term, n)
            left_iter: dict[tuple, Fraction] = {}
            right_iter: dict[tuple, Fraction] = {}
            left_end = TensorElement.zero()
            right_end = TensorElement.zero()
            for (u, v), c in delta.items():
                for (p, q), d in deconcatenate(TensorElement.from_word(u)).items():
                    key = (p, q, v)
                    left_iter[key] = left_iter.get(key, 0) + c * d
                for (p, q), d in deconcatenate(TensorElement.from_word(v)).items():
                    key = (u, p, q)
                    right_iter[key] = right_iter.get(key, 0) + c * d
                if not u:
                    right_end = right_end + TensorElement.basis(v, c)
                if not v:
                    left_end = left_end + TensorElement.basis(u, c)
            left_iter = {k: c for k, c in left_iter.items() if c}
            right_iter = {k: c for k, c in right_iter.items() if c}
            assert left_iter == right_iter
            assert left_end == image
            assert right_end == image


class TestCompatibility:
    def test_generator_pair(self, sym2):
        a = TensorElement.from_word(w(X1))
        b = TensorElement.from_word(w(X2))
        assert check_compatibility(sym2, a, b) == []
        lhs = deconcatenate(op_left(sym2, a, b))
        expected = sq(
            ((w(X1, X2), EMPTY_WORD), 1),
            ((w(X1), w(X2)), 1),
            ((EMPTY_WORD, w(X1, X2)), 1),
        )
        assert lhs == expected

    def test_unit_cases(self, sym2):
        unit = TensorElement.unit()
        word_el = TensorElement.from_word(w(X1, X2))
        assert check_compatibility(sym2, unit, word_el) == []
        assert check_compatibility(sym2, word_el, unit) == []

    def test_sampled_pairs_over_stuffle(self, stuffle_alg):
        rng = random.Random(97)
        violations = []
        for _ in range(60):
            x = random_element(stuffle_alg, rng, max_total_degree=3)
            y = random_element(stuffle_alg, rng, max_total_degree=3)
            violations += check_compatibility(stuffle_alg, x, y)
        assert violations == []

    def test_sampled_pairs_over_sym(self, sym2):
        rng = random.Random(101)
        for _ in range(40):
            x = random_element(sym2, rng, max_total_degree=3)
            y = random_element(sym2, rng, max_total_degree=3)
            assert check_compatibility(sym2, x, y) == []


class TestPrimitives:
    def test_letter_pairs_stay_primitive(self, sym2):
        a = TensorElement.from_word(w(X1))
        b = TensorElement.from_word(w(X2))
        ops = tensor_ops(sym2, reduced_coproduct)
        assert first_failure(PRIMITIVE_DOT, ops, [a, b], 2) is None

    def test_stuffle_weights_merge(self, stuffle_alg):
        y1 = TensorElement.from_letter(weight_letter(1))
        product = op_dot(stuffle_alg, y1, y1)
        assert product == TensorElement.from_letter(weight_letter(2))
        ops = tensor_ops(stuffle_alg, reduced_coproduct)
        assert first_failure(PRIMITIVE_DOT, ops, [y1], 2) is None

    def test_dot_with_unit_is_zero_hence_primitive(self, sym2):
        from qshuffle import is_primitive

        x = TensorElement.from_word(w(X1))
        result = op_dot(sym2, x, TensorElement.unit())
        assert result.is_zero
        assert is_primitive(result)

    def test_dot_row_names_the_first_pair_off_the_primitives(self, sym2):
        good = TensorElement.from_word(w(X1))
        bad = TensorElement.from_word(w(X1, X2))
        ops = tensor_ops(sym2, reduced_coproduct)
        # x1 . x1 = [x1 x1] is primitive; x1 . x1x2 = [x1 x1]x2 is not
        indices, name, lhs, rhs = first_failure(PRIMITIVE_DOT, ops, [good, bad], 2)
        assert (indices, name) == ((0, 1), "Cbar(x.y) = 0")
        x11 = mono_letter((1, 1))
        assert lhs == TensorSquareElement([(((x11,), (X2,)), 1)])
        assert rhs.is_zero


class TestGradedKernel:
    def test_basis_word_counts(self, sym2):
        # letters: 2 of degree 1, 3 of degree 2, 4 of degree 3
        assert len(graded_basis_words(sym2, 0)) == 1
        assert len(graded_basis_words(sym2, 1)) == 2
        assert len(graded_basis_words(sym2, 2)) == 3 + 4
        assert len(graded_basis_words(sym2, 3)) == 4 + 2 * 6 + 8

    def test_degree_one_kernel_is_everything(self, sym2):
        kernel = reduced_coproduct_kernel(sym2, 1)
        assert len(kernel) == 2

    # ids of the sym2 cases are their degrees; word2 at degree 5 (512 words)
    # and sym3 at degree 4 (354 words) are the largest pieces, and each case
    # has half of a 1 s budget for the two
    @pytest.mark.parametrize(
        "name, degree",
        [pytest.param("sym2", d, id=str(d)) for d in (2, 3, 4)] + [("word2", 5), ("sym3", 4)],
    )
    def test_kernel_is_the_letter_span(self, name, degree):
        from qshuffle import is_primitive

        alg = algebra_by_name(name)
        start = perf_counter()
        primitives = reduced_coproduct_kernel(alg, degree)
        assert perf_counter() - start < 0.5
        n_letters = len(alg.letters_of_degree(degree))
        assert len(primitives) == n_letters
        for element in primitives:
            assert is_primitive(element)
            assert all(len(word) == 1 for word in element.support())

    def test_rejects_degree_zero(self, sym2):
        with pytest.raises(ValueError):
            reduced_coproduct_kernel(sym2, 0)

    def test_nullspace_divides_int_entries_exactly(self):
        # the columns of [[1, 2, 3], [2, 1, 1]]
        relations = kernel([{0: 1, 1: 2}, {0: 2, 1: 1}, {0: 3, 1: 1}])
        assert relations == [{0: Fraction(1, 3), 1: Fraction(-5, 3), 2: 1}]
        assert not any(isinstance(c, float) for rel in relations for c in rel.values())
        with pytest.raises(TypeError):
            kernel([{0: 1.0}, {0: 2.0}])

    def test_kernel_of_random_sparse_integer_matrices(self):
        rng = random.Random(13)
        for _ in range(200):
            width = rng.randint(1, 6)
            vectors = []
            for _ in range(rng.randint(1, 10)):
                keys = rng.sample(range(width), rng.randint(0, width))
                vectors.append({k: rng.choice([-3, -2, -1, 1, 2, 3]) for k in keys})
            relations = kernel(vectors)
            assert len(vectors) - len(relations) == rational_rank(vectors)
            own = {max(rel) for rel in relations}
            for rel in relations:
                index = max(rel)
                assert rel[index] == 1
                # the other indices are independent vectors
                assert not (set(rel) - {index}) & own
                total = {}
                for i, c in rel.items():
                    for k, v in vectors[i].items():
                        total[k] = total.get(k, 0) + c * v
                assert not any(total.values())

    def test_the_rank_oracle_shares_no_code_with_the_kernel(self):
        tree = ast.parse(Path(conftest.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qshuffle"):
                assert node.module != "qshuffle.lincomb"
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("qshuffle") for alias in node.names)
        oracle = next(
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "rational_rank"
        )
        assert any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(oracle))
        names = {node.id for node in ast.walk(oracle) if isinstance(node, ast.Name)}
        assert not names & (imported | {"kernel", "add_into"})


def _merge_x2_into_x1(x):
    """The letter map x2 -> x1 on generator words, 0 on the others."""
    return TensorElement(
        (tuple(X1 for _ in word), c) for word, c in generator_projection(x).items()
    )


# wrong projections -> the first word of sym2 they fail on, and the index of
# the first PROJECTION row failing there
WRONG_PROJECTIONS = {
    # keeps the words with a letter of degree 2, the first being [x1 x1]
    "keeps-every-word": (lambda x: x, w(mono_letter((1, 1))), 0),
    # not a section of the inclusion, already on the empty word
    "twice-the-projection": (lambda x: 2 * generator_projection(x), EMPTY_WORD, 0),
    # kills the generator words too, the empty word first
    "kills-every-word": (lambda x: TensorElement.zero(), EMPTY_WORD, 0),
    # puts a word outside the domain of the inclusion into every image: a
    # failed row, not a DomainError
    "adds-a-fat-word": (
        lambda x: generator_projection(x) + TensorElement.from_word(w(mono_letter((1, 1)))),
        EMPTY_WORD,
        0,
    ),
    # idempotent, nonzero exactly on the generator words and a coalgebra map,
    # so only pinning p on each word sees it, first on x2
    "merges-x2-into-x1": (_merge_x2_into_x1, w(X2), 0),
}


class TestSplitting:
    def test_projection_keeps_pure_generator_words(self, sym2):
        el = TensorElement.from_word(w(X1, X2))
        assert generator_projection(el) == el

    def test_projection_kills_merged_letters(self, sym2):
        el = TensorElement.from_word(w(mono_letter((1, 2))))
        assert generator_projection(el).is_zero
        mixed = el + TensorElement.from_word(w(X1))
        assert generator_projection(mixed) == TensorElement.from_word(w(X1))

    def test_inclusion_then_projection_is_identity(self, sym2):
        el = TensorElement.from_word(w(X1, X2, X1))
        assert generator_projection(generator_inclusion(el)) == el

    def test_inclusion_rejects_fat_letters(self, sym2):
        with pytest.raises(DomainError):
            generator_inclusion(TensorElement.from_word(w(mono_letter((1, 2)))))

    def test_splitting_identity_scan(self, sym2, stuffle_alg):
        assert splitting_failure(sym2, 4) is None
        assert splitting_failure(stuffle_alg, 4) is None

    @pytest.mark.parametrize("projection", [p for p, _, _ in WRONG_PROJECTIONS.values()])
    def test_splitting_scan_catches_a_wrong_projection(self, sym2, monkeypatch, projection):
        monkeypatch.setattr(laws, "generator_projection", projection)
        assert splitting_failure(sym2, 2) is not None

    @pytest.mark.parametrize("case", WRONG_PROJECTIONS)
    def test_a_wrong_projection_fails_at_a_named_first_word_and_row(
        self, sym2, monkeypatch, case
    ):
        projection, word, row = WRONG_PROJECTIONS[case]
        monkeypatch.setattr(laws, "generator_projection", projection)
        assert splitting_failure(sym2, 2) == (word, PROJECTION[row][0])

    def test_a_coproduct_splitting_a_fat_letter_fails_the_coproduct_row(
        self, sym2, monkeypatch
    ):
        # p kills [x1 x1] but not x1 (x) x1, so p is no coalgebra map for a
        # coproduct that also splits the letter x1 x1 as x1 (x) x1
        x11 = w(mono_letter((1, 1)))

        def splits_x11(x):
            extra = TensorSquareElement([((w(X1), w(X1)), c) for u, c in x.items() if u == x11])
            return deconcatenate(x) + extra

        monkeypatch.setattr(laws, "deconcatenate", splits_x11)
        assert splitting_failure(sym2, 2) == (x11, PROJECTION[1][0])

    def test_splitting_failure_is_none_when_every_row_holds(self, sym2, stuffle_alg):
        assert splitting_failure(sym2, 3) is None
        assert splitting_failure(stuffle_alg, 0) is None

    def test_splitting_refuses_negative_length(self, sym2):
        with pytest.raises(ValueError):
            splitting_failure(sym2, -1)

    def test_splitting_refuses_too_many_words_before_building_any(self, monkeypatch):
        def unreachable(x):
            raise AssertionError("a word was checked")

        monkeypatch.setattr(laws, "generator_projection", unreachable)
        zero = algebra_by_name("zero")
        # 26 letters of degree <= 2: 1 + 26 + 26**2 + 26**3 + 26**4 = 475,255 words
        with pytest.raises(ValueError, match="word length 4 over 26 letters exceeds 50000"):
            splitting_failure(zero, 4)
        with pytest.raises(ValueError, match="exceeds"):
            splitting_failure(zero, 10**9)

    def test_splitting_bound_counts_every_length(self, sym2, monkeypatch):
        # sym2 has 5 letters of degree <= 2: 31 words up to length 2, 156 up to 3
        monkeypatch.setattr(laws, "MAX_SPLITTING_WORDS", 31)
        assert splitting_failure(sym2, 2) is None
        with pytest.raises(ValueError, match="exceeds 31 words"):
            splitting_failure(sym2, 3)

    def test_projection_is_a_coalgebra_morphism(self, sym2):
        rng = random.Random(103)
        for _ in range(25):
            x = random_element(sym2, rng, max_total_degree=3)
            lhs = deconcatenate(generator_projection(x))
            rhs = TensorSquareElement(
                ((u, v), c)
                for (u, v), c in deconcatenate(x).items()
                if all(l.degree == 1 for l in u) and all(l.degree == 1 for l in v)
            )
            assert lhs == rhs

    def test_inclusion_is_a_coalgebra_morphism(self, sym2):
        rng = random.Random(107)
        letters = [X1, X2]
        for _ in range(25):
            words = [
                tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                for _ in range(3)
            ]
            x = TensorElement((word, rng.randint(1, 3)) for word in words)
            assert deconcatenate(generator_inclusion(x)) == deconcatenate(x)

