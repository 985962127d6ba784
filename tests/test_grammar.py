"""Text and JSON forms: parsing, rendering, and their round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import (
    EMPTY_WORD,
    NormalForm,
    ParseError,
    TensorElement,
    atom_letter,
    builtin_algebras,
    deconcatenate,
    dot,
    element_from_json,
    element_to_json,
    gen,
    mono_letter,
    normal_form,
    normal_form_to_json,
    parse_element,
    parse_free_term,
    parse_letter,
    parse_word,
    prec,
    quasi_shuffle,
    render_element,
    render_normal_form,
    render_partition,
    render_square_element,
    render_word,
    square_to_json,
    succ,
    weight_letter,
    word_letter,
)
from qshuffle.grammar import MAX_TERM_DEPTH
from qshuffle.sampling import random_element, random_td_term

ALGEBRAS = {alg.name: alg for alg in builtin_algebras()}


class TestParseLetter:
    def test_styles(self, stuffle_alg, sym2, word2, zero_alg):
        assert parse_letter(stuffle_alg, "y3") == weight_letter(3)
        assert parse_letter(sym2, "x2") == mono_letter((2,))
        assert parse_letter(sym2, "[x1 x2]") == mono_letter((1, 2))
        assert parse_letter(sym2, "[x2 x1]") == mono_letter((1, 2))
        assert parse_letter(word2, "(x2 x1)") == word_letter((2, 1))
        assert parse_letter(word2, "x1") == word_letter((1,))
        assert parse_letter(zero_alg, "q") == atom_letter("q")

    def test_membership_enforced(self, sym2, word2, zero_alg):
        with pytest.raises(ParseError):
            parse_letter(sym2, "x3")
        with pytest.raises(ParseError):
            parse_letter(word2, "(x1 x3)")
        with pytest.raises(ParseError):
            parse_letter(zero_alg, "qq")

    def test_malformed_letters(self, stuffle_alg, sym2):
        for bad in ("y0", "y", "z1", ""):
            with pytest.raises(ParseError):
                parse_letter(stuffle_alg, bad)
        for bad in ("[x1", "[ ]", "[y1]", "x01"):
            with pytest.raises(ParseError):
                parse_letter(sym2, bad)


class TestParseWord:
    def test_dot_joined(self, stuffle_alg):
        assert parse_word(stuffle_alg, "y1.y2") == (weight_letter(1), weight_letter(2))
        assert parse_word(stuffle_alg, " y1 . y2 ") == (
            weight_letter(1),
            weight_letter(2),
        )

    def test_unit_spelling(self, stuffle_alg):
        assert parse_word(stuffle_alg, "1") == EMPTY_WORD

    def test_bracketed_letters_absorb_dots(self, sym2):
        # brackets shield their contents from the word-level split
        word = parse_word(sym2, "[x1 x2].x1")
        assert word == (mono_letter((1, 2)), mono_letter((1,)))

    def test_error_positions(self, stuffle_alg):
        with pytest.raises(ParseError) as exc:
            parse_word(stuffle_alg, "y1..y2")
        assert exc.value.position == 3
        with pytest.raises(ParseError):
            parse_word(stuffle_alg, "")


class TestParseElement:
    def test_signed_sum(self, stuffle_alg):
        got = parse_element(stuffle_alg, "y1.y2 - 2*y3 + 1/2*y1")
        expected = TensorElement(
            [
                ((weight_letter(1), weight_letter(2)), 1),
                ((weight_letter(3),), -2),
                ((weight_letter(1),), Fraction(1, 2)),
            ]
        )
        assert got == expected

    def test_bare_rational_is_a_unit_multiple(self, stuffle_alg):
        assert parse_element(stuffle_alg, "3") == 3 * TensorElement.unit()
        assert parse_element(stuffle_alg, "-1") == -TensorElement.unit()
        assert parse_element(stuffle_alg, "0").is_zero

    def test_unary_signs(self, stuffle_alg):
        y1 = TensorElement.from_letter(weight_letter(1))
        assert parse_element(stuffle_alg, "-y1") == -y1
        assert parse_element(stuffle_alg, "- y1 + y1").is_zero
        assert parse_element(stuffle_alg, "--y1") == y1

    def test_coefficient_must_precede_star(self, stuffle_alg):
        with pytest.raises(ParseError):
            parse_element(stuffle_alg, "y1*2")
        with pytest.raises(ParseError):
            parse_element(stuffle_alg, "2*3*y1")

    def test_error_positions(self, sym2):
        with pytest.raises(ParseError) as exc:
            parse_element(sym2, "x1 + [x1")
        assert exc.value.position == 8
        with pytest.raises(ParseError) as exc:
            parse_element(sym2, "x1 +")
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse_element(sym2, "")

    def test_duplicate_words_accumulate(self, stuffle_alg):
        got = parse_element(stuffle_alg, "y1 + 2*y1")
        assert got == TensorElement([((weight_letter(1),), 3)])


class TestParseFreeTerm:
    def test_letters_and_indexed_generators(self):
        assert parse_free_term("a") == gen(1)
        assert parse_free_term("g12") == gen(12)
        assert parse_free_term("(a < b)") == prec(gen(1), gen(2))
        assert parse_free_term("(a > b)") == succ(gen(1), gen(2))
        assert parse_free_term("(a . b)") == dot(gen(1), gen(2))

    def test_nesting_without_spaces(self):
        term = parse_free_term("((a<b)<c)")
        assert term == prec(prec(gen(1), gen(2)), gen(3))

    def test_round_trip_through_str(self):
        rng = random.Random(109)
        for _ in range(40):
            term = random_td_term(rng, rng.randint(1, 5))
            assert parse_free_term(str(term)) == term

    def test_nesting_is_capped(self):
        right_comb = "(a < " * MAX_TERM_DEPTH + "b" + ")" * MAX_TERM_DEPTH
        assert parse_free_term(right_comb).degree == MAX_TERM_DEPTH + 1
        deeper = "(" + right_comb + " < c)"
        with pytest.raises(ParseError, match="nest deeper") as exc:
            parse_free_term(deeper)
        assert exc.value.position == deeper.rindex("(")

    def test_errors_with_positions(self):
        with pytest.raises(ParseError) as exc:
            parse_free_term("(a < b")
        assert exc.value.position == 6
        with pytest.raises(ParseError) as exc:
            parse_free_term("(a < b) c")
        assert exc.value.position == 8
        with pytest.raises(ParseError):
            parse_free_term("(ab < c)")
        with pytest.raises(ParseError):
            parse_free_term("(a ? b)")
        with pytest.raises(ParseError):
            parse_free_term("")


class TestRendering:
    def test_words(self, stuffle_alg):
        assert render_word(EMPTY_WORD) == "1"
        assert render_word((weight_letter(1), weight_letter(2))) == "y1.y2"

    def test_elements(self, sym2):
        x1 = TensorElement.from_letter(mono_letter((1,)))
        x2 = TensorElement.from_letter(mono_letter((2,)))
        assert render_element(TensorElement.zero()) == "0"
        assert render_element(TensorElement.unit()) == "1"
        assert render_element(3 * TensorElement.unit()) == "3"
        assert render_element(-x1) == "-x1"
        assert render_element(x1 - x2) == "x1 - x2"
        assert render_element(Fraction(1, 2) * x1) == "1/2*x1"

    def test_square_elements(self, sym2):
        x1 = mono_letter((1,))
        x2 = mono_letter((2,))
        square = deconcatenate(TensorElement.from_word((x1, x2)))
        assert render_square_element(square) == "1 (x) x1.x2 + x1 (x) x2 + x1.x2 (x) 1"

    def test_partitions(self):
        assert render_partition(((1, 2), (3,))) == "(v1 v2)(v3)"
        assert render_partition(((2,),)) == "(v2)"

    def test_normal_forms(self):
        nf = normal_form(prec(prec(gen(1), gen(2)), gen(3)))
        assert render_normal_form(nf) == "(v1)(v2)(v3) + (v1)(v2 v3) + (v1)(v3)(v2)"
        assert render_normal_form(NormalForm.zero()) == "0"


    def test_text_and_json_share_one_sort(self, stuffle_alg, monkeypatch):
        y = [TensorElement.from_letter(weight_letter(k)) for k in (1, 2, 3)]
        element = quasi_shuffle(stuffle_alg, y[0] + y[2], quasi_shuffle(stuffle_alg, y[1], y[0]))
        text, data = render_element(element), element_to_json(element)
        calls = []
        ordered = TensorElement._ordered

        def counted(cls, terms):
            calls.append(terms)
            return ordered(terms)

        fresh = element + TensorElement.zero()
        monkeypatch.setattr(TensorElement, "_ordered", classmethod(counted))
        assert (render_element(fresh), element_to_json(fresh)) == (text, data)
        assert len(calls) == 1

    def test_ordered_terms_are_a_copy(self, stuffle_alg):
        element = 2 * TensorElement.from_word((weight_letter(2), weight_letter(1)))
        element = element - TensorElement.unit()
        first = element.terms()
        first.reverse()
        first.append((EMPTY_WORD, 5))
        assert element.terms() == [(EMPTY_WORD, -1), ((weight_letter(2), weight_letter(1)), 2)]
        assert element.coefficient(EMPTY_WORD) == -1 and len(element) == 2


class TestRoundTrips:
    @pytest.mark.parametrize("alg_name", sorted(ALGEBRAS))
    def test_parse_render_identity_sampled(self, alg_name):
        alg = ALGEBRAS[alg_name]
        rng = random.Random(f"roundtrip:{alg_name}")
        for _ in range(25):
            x = random_element(alg, rng)
            assert parse_element(alg, render_element(x)) == x

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_parse_render_identity_property(self, seed):
        rng = random.Random(seed)
        alg = rng.choice(builtin_algebras())
        x = random_element(alg, rng)
        if rng.random() < 0.3:
            x = x + rng.randint(-2, 2) * TensorElement.unit()
        assert parse_element(alg, render_element(x)) == x

    def test_fractional_coefficients_round_trip(self, sym2):
        x = TensorElement(
            [
                ((mono_letter((1,)),), Fraction(-3, 7)),
                ((mono_letter((1, 2)), mono_letter((2,))), Fraction(22, 5)),
            ]
        )
        assert parse_element(sym2, render_element(x)) == x

    def test_json_round_trip(self, word2):
        rng = random.Random(113)
        for _ in range(20):
            x = random_element(word2, rng)
            data = element_to_json(x)
            assert element_from_json(word2, data) == x

    def test_json_coefficients_are_exact_strings(self, sym2):
        x = TensorElement([((mono_letter((1,)),), Fraction(1, 3))])
        data = element_to_json(x)
        assert data == {"terms": [{"coeff": "1/3", "word": ["x1"]}]}

    def test_square_json_shape(self, sym2):
        square = deconcatenate(TensorElement.from_word((mono_letter((1,)),)))
        data = square_to_json(square)
        assert data == {
            "terms": [
                {"coeff": "1/1", "left": [], "right": ["x1"]},
                {"coeff": "1/1", "left": ["x1"], "right": []},
            ]
        }

    def test_normal_form_json_shape(self):
        nf = normal_form(prec(dot(gen(1), gen(2)), gen(3)))
        assert normal_form_to_json(nf) == {
            "terms": [{"coeff": "1/1", "blocks": [[1, 2], [3]]}]
        }
