"""Text and JSON forms: parsing, rendering, and their round trips."""

import json
import random
import re
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qshuffle import (
    EMPTY_WORD,
    NormalForm,
    ParseError,
    TensorElement,
    algebra_by_name,
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
    pointwise_function_algebra,
    prec,
    quasi_shuffle,
    render_element,
    render_normal_form,
    render_square_element,
    render_word,
    square_to_json,
    succ,
    weight_letter,
    word_letter,
)
from qshuffle import coeff, grammar
from qshuffle.cli import main
from qshuffle.grammar import MAX_TERM_DEPTH
from qshuffle.sampling import random_ctd_term, random_element, random_td_term

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

    @pytest.mark.parametrize(
        ("alg_name", "text", "position", "error_at"),
        [
            ("sym2", "  [x1 x0]", 0, 6),
            ("sym2", "[x1 x0]", 0, 4),
            ("stuffle-y", "  y0", 0, 2),
            ("stuffle-y", " y0", 10, 11),
        ],
    )
    def test_errors_point_past_leading_blanks(self, alg_name, text, position, error_at):
        with pytest.raises(ParseError) as exc:
            parse_letter(algebra_by_name(alg_name), text, position)
        assert exc.value.position == error_at

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
        assert not parse_element(stuffle_alg, "0")

    def test_unary_signs(self, stuffle_alg):
        y1 = TensorElement.from_letter(weight_letter(1))
        assert parse_element(stuffle_alg, "-y1") == -y1
        assert not parse_element(stuffle_alg, "- y1 + y1")
        assert parse_element(stuffle_alg, "--y1") == y1

    def test_coefficient_must_precede_star(self, stuffle_alg):
        with pytest.raises(ParseError):
            parse_element(stuffle_alg, "y1*2")
        with pytest.raises(ParseError):
            parse_element(stuffle_alg, "2*3*y1")

    @pytest.mark.parametrize(
        ("alg_name", "text", "position", "token"),
        [
            ("sym2", "[x1 x0] . x1", 4, "x0"),
            ("sym2", "x2 + 3*[ x1   x2  y1 ]", 18, "y1"),
            ("word2", "(x1 x2).(x2  x1x2)", 13, "x1x2"),
        ],
    )
    def test_a_bad_generator_is_reported_at_itself(self, alg_name, text, position, token):
        with pytest.raises(ParseError, match=f"got '{token}'$") as exc:
            parse_element(algebra_by_name(alg_name), text)
        assert exc.value.position == position
        assert text[position:].startswith(token)

    def test_error_positions(self, sym2):
        with pytest.raises(ParseError) as exc:
            parse_element(sym2, "x1 + [x1")
        assert exc.value.position == 8
        with pytest.raises(ParseError) as exc:
            parse_element(sym2, "x1 +")
        assert exc.value.position == 4
        with pytest.raises(ParseError):
            parse_element(sym2, "")

    @pytest.mark.parametrize(("text", "position"), [("y1)", 2), ("y1 + (y2", 8)])
    def test_an_unbalanced_bracket_is_reported_where_it_shows(self, stuffle_alg, text, position):
        """A stray closing bracket at itself; an unclosed one at the end."""
        with pytest.raises(ParseError, match="^unbalanced bracket$") as exc:
            parse_element(stuffle_alg, text)
        assert exc.value.position == position

    def test_dangling_sign_is_refused_before_any_term_is_read(self, stuffle_alg):
        """x1 is no stuffle-y letter, but the sign is refused before it is read."""
        with pytest.raises(ParseError, match="dangling sign") as exc:
            parse_element(stuffle_alg, "x1+")
        assert exc.value.position == 3

    @pytest.mark.parametrize("alg_name", ["stuffle-y", "sym2", "word2", "zero"])
    def test_spacing_and_error_positions_sampled(self, alg_name):
        """Whitespace around separators changes nothing. A bad letter is
        reported at its first character; a deleted one, if the rest does
        not parse, at an end of its blank chunk."""
        alg = ALGEBRAS[alg_name]
        rng = random.Random(f"spacing:{alg_name}")
        for _ in range(40):
            x = random_element(alg, rng)
            pieces = re.split(r"\s*([-+*.])\s*", render_element(x))
            chunks, seps = pieces[::2], [*pieces[1::2], ""]
            text, starts, after_sep, sep_at = "", [], [], []
            for chunk, sep in zip(chunks, seps):
                after_sep.append(len(text))
                text += " " * rng.randint(0, 2)
                starts.append(len(text))
                text += chunk + " " * rng.randint(0, 2)
                sep_at.append(len(text))
                text += sep
            assert parse_element(alg, text) == x
            k = rng.choice([i for i, c in enumerate(chunks) if c and not c[0].isdigit()])
            end = starts[k] + len(chunks[k])
            with pytest.raises(ParseError, match="cannot read 'Q'") as exc:
                parse_element(alg, text[: starts[k]] + "Q" + text[end:])
            assert exc.value.position == starts[k]
            try:
                parse_element(alg, text[: starts[k]] + text[end:])
            except ParseError as exc:
                assert exc.position in (after_sep[k], sep_at[k] - len(chunks[k]))

    def test_duplicate_words_accumulate(self, stuffle_alg):
        got = parse_element(stuffle_alg, "y1 + 2*y1")
        assert got == TensorElement([((weight_letter(1),), 3)])


# Every kind of refusal of the term parser, with its message and position
# pinned: blanks before, between and after, Unicode spaces and digits, bad
# generators, missing and stray brackets and operations, trailing input.
MALFORMED_TERMS = [
    ('', 'expected a generator or (', 0),
    ('   ', 'expected a generator or (', 3),
    ('\t\n', 'expected a generator or (', 2),
    ('(', 'expected a generator or (', 1),
    ('( ', 'expected a generator or (', 2),
    ('(a', 'expected an operation: < > or .', 2),
    ('(a <', 'expected a generator or (', 4),
    ('(a < ', 'expected a generator or (', 5),
    ('(a < b', 'expected )', 6),
    ('(a < b]', 'expected )', 6),
    ('a b', 'unexpected trailing input', 2),
    ('(a < b) c', 'unexpected trailing input', 8),
    ('(a ? b)', 'expected an operation: < > or .', 3),
    ('(a<b)x', 'unexpected trailing input', 5),
    ('ab', 'generators are single letters a..z or g<i>', 0),
    ('a1', 'generators are single letters a..z or g<i>', 0),
    ('g0', 'malformed generator', 0),
    ('g01', 'malformed generator', 0),
    ('g٣', 'malformed generator', 0),
    ('gx', 'generators are single letters a..z or g<i>', 0),
    ('gé', 'generators are single letters a..z or g<i>', 0),
    ('g10x', 'unexpected trailing input', 3),
    ('g1g2', 'unexpected trailing input', 2),
    ('A', 'expected a generator or (', 0),
    ('é', 'expected a generator or (', 0),
    ('\u3000a', 'expected a generator or (', 0),
    ('(a\u3000< b)', 'expected an operation: < > or .', 2),
    ('((a < b) . (c > d)', 'expected )', 18),
    ('(a < b))', 'unexpected trailing input', 7),
    ('()', 'expected a generator or (', 1),
    ('(a . )', 'expected a generator or (', 5),
    ('(a<(b', 'expected an operation: < > or .', 5),
    ('1', 'expected a generator or (', 0),
    ('(1 < a)', 'expected a generator or (', 1),
    ('(a << b)', 'expected a generator or (', 4),
    ('(a < b c)', 'expected )', 7),
    ('(a . b . c)', 'expected )', 7),
    ('((a < b)', 'expected an operation: < > or .', 8),
    ('zz', 'generators are single letters a..z or g<i>', 0),
    ('(z < gé)', 'generators are single letters a..z or g<i>', 5),
    ('(a > )', 'expected a generator or (', 5),
    ('(a\x1c< b)', 'expected an operation: < > or .', 2),
    ('(ab < c)', 'generators are single letters a..z or g<i>', 1),
    ('(g1٣ < a)', 'expected an operation: < > or .', 3),
    (')', 'expected a generator or (', 0),
    ('a)', 'unexpected trailing input', 1),
    ('(a < b) (c < d)', 'unexpected trailing input', 8),
    ('(a - b)', 'expected an operation: < > or .', 3),
    ('(g < h1)', 'generators are single letters a..z or g<i>', 5),
    ('(a <b>c)', 'expected )', 5),
]


class TestParseFreeTerm:
    @pytest.mark.parametrize("text, message, position", MALFORMED_TERMS)
    def test_malformed_terms_keep_their_messages_and_positions(self, text, message, position):
        with pytest.raises(ParseError) as refused:
            parse_free_term(text)
        assert (str(refused.value), refused.value.position) == (message, position)

    def test_ctd_and_td_terms_round_trip_with_and_without_blanks(self):
        rng = random.Random(26)
        for sample in (random_ctd_term, random_td_term):
            for _ in range(200):
                term = sample(rng, rng.randint(1, 9), rng.randint(1, 30))
                assert parse_free_term(str(term)) == term
                assert parse_free_term(str(term).replace(" ", "")) == term

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
        assert render_element(TensorElement()) == "0"
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
        assert render_normal_form(NormalForm.basis(((1, 2), (3,)))) == "(v1 v2)(v3)"
        assert render_normal_form(NormalForm.basis(((2,),))) == "(v2)"
        assert render_normal_form(NormalForm.basis(((27, 10), (5,)))) == "(v10 v27)(v5)"

    def test_normal_forms(self):
        nf = normal_form(prec(prec(gen(1), gen(2)), gen(3)))
        assert render_normal_form(nf) == "(v1)(v2)(v3) + (v1)(v2 v3) + (v1)(v3)(v2)"
        assert render_normal_form(NormalForm()) == "0"

    @staticmethod
    def _sampled_normal_forms():
        """Left chains of 5 and 6 of 8 generators, random terms over 27
        generators (indices 10 and up, and g27), and signed rational mixes."""
        rng = random.Random(2024)
        forms = []
        for n in (5, 5, 6, 6):
            chain = [gen(i) for i in rng.sample(range(1, 9), n)]
            term = chain[0]
            for right in chain[1:]:
                term = prec(term, right)
            forms.append(normal_form(term))
        forms += [normal_form(random_ctd_term(rng, rng.randint(1, 6), 27)) for _ in range(40)]
        forms.append(normal_form(prec(dot(gen(27), gen(10)), prec(gen(12), gen(3)))))
        forms.append(forms[0] * Fraction(-3, 2) + forms[-1] * 2 - forms[5])
        assert any(27 in block for nf in forms for seq in nf._terms for block in seq)
        return forms

    def test_sampled_normal_forms_text_json_and_order(self):
        def signed_join(parts):
            out = ""
            for body, c in parts:
                sign, c = ("-", -c) if c < 0 else ("+", c)
                text = body if c == 1 else f"{c}*{body}"
                if out:
                    out += f" {sign} {text}"
                else:
                    out = text if sign == "+" else "-" + text
            return out or "0"

        def block_join(seq):
            return "".join("(" + " ".join(f"v{i}" for i in block) + ")" for block in seq)

        for nf in self._sampled_normal_forms():
            terms = nf.terms()
            assert render_normal_form(nf) == signed_join((block_join(seq), c) for seq, c in terms)
            data = normal_form_to_json(nf)["terms"]
            assert [entry["blocks"] for entry in data] == [
                [list(block) for block in seq] for seq, _ in terms
            ]
            lists = [entry["blocks"] for entry in data]
            lists += [block for entry in data for block in entry["blocks"]]
            assert len({id(obj) for obj in lists}) == len(lists)
            keys = [(sum(len(block) for block in seq), seq) for seq, _ in terms]
            assert keys == sorted(keys)


    def test_text_and_json_share_one_sort(self, stuffle_alg, monkeypatch):
        y = [TensorElement.from_letter(weight_letter(k)) for k in (1, 2, 3)]
        element = quasi_shuffle(stuffle_alg, y[0] + y[2], quasi_shuffle(stuffle_alg, y[1], y[0]))
        text, data = render_element(element), element_to_json(element)
        calls = []
        ordered = TensorElement._ordered

        def counted(cls, terms):
            calls.append(terms)
            return ordered(terms)

        fresh = element + TensorElement()
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


class TestAsciiOnly:
    @pytest.mark.parametrize("module", [grammar, coeff])
    def test_every_pattern_is_ascii(self, module):
        patterns = {n: v for n, v in vars(module).items() if isinstance(v, re.Pattern)}
        assert patterns
        for name, pattern in patterns.items():
            assert pattern.flags & re.ASCII, f"{module.__name__}.{name}"

    def test_unicode_space_in_a_bracketed_letter_is_refused(self, sym2):
        with pytest.raises(ParseError, match="expected a generator like x1") as refused:
            parse_letter(sym2, "[x1\u00a0x2]")
        assert refused.value.position == 1

    @pytest.mark.parametrize(
        ("alg_name", "text", "position"),
        [("stuffle-y", "y1 +\u3000y2", 4), ("sym2", "\u3000x1.[x1 x2]", 0)],
    )
    def test_unicode_space_in_an_element_is_refused_where_it_stands(
        self, alg_name, text, position
    ):
        with pytest.raises(ParseError, match="^cannot read") as refused:
            parse_element(algebra_by_name(alg_name), text)
        assert refused.value.position == position

    def test_unicode_space_in_a_word_is_refused_where_it_stands(self, stuffle_alg):
        with pytest.raises(ParseError, match="^cannot read") as refused:
            parse_word(stuffle_alg, "y1.\u00a0y2")
        assert refused.value.position == 3

    def test_unicode_space_around_a_letter_is_refused(self, stuffle_alg):
        with pytest.raises(ParseError, match="^cannot read") as refused:
            parse_letter(stuffle_alg, "\u00a0y1", 5)
        assert refused.value.position == 5

    def test_unicode_space_in_a_free_term_is_refused(self):
        with pytest.raises(ParseError, match="^expected a generator or \\(") as refused:
            parse_free_term("(a <\u3000b)")
        assert refused.value.position == 4

    def test_the_blanks_are_the_ascii_whitespace(self):
        assert sorted(grammar._BLANK) == sorted(string.whitespace)

    @pytest.mark.parametrize("blank", list(string.whitespace), ids=repr)
    def test_every_ascii_blank_still_separates(self, stuffle_alg, blank):
        y1, y2 = weight_letter(1), weight_letter(2)
        element = parse_element(stuffle_alg, f"{blank}y1{blank}+{blank}y2{blank}")
        assert element == TensorElement([((y1,), 1), ((y2,), 1)])
        assert parse_word(stuffle_alg, f"y1{blank}.{blank}y2") == (y1, y2)
        assert parse_free_term(f"({blank}a{blank}<{blank}b{blank})") == prec(gen(1), gen(2))

    def test_a_generator_index_needs_ascii_digits(self):
        with pytest.raises(ParseError, match="^expected an operation") as refused:
            parse_free_term("(g1\u0663 < a)")
        assert refused.value.position == 3


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

    def test_json_refuses_a_float_coefficient(self, stuffle_alg):
        data = {"terms": [{"coeff": 0.1, "word": ["y1"]}]}
        with pytest.raises(TypeError, match="exact rational scalar required, got float"):
            element_from_json(stuffle_alg, data)

    def test_json_refuses_a_zero_denominator(self, stuffle_alg):
        data = {"terms": [{"coeff": "1/0", "word": ["y1"]}]}
        with pytest.raises(ValueError, match="zero denominator"):
            element_from_json(stuffle_alg, data)

    def test_json_refuses_a_bool_coefficient(self, stuffle_alg):
        data = {"terms": [{"coeff": True, "word": ["y1"]}]}
        with pytest.raises(TypeError, match="exact rational scalar required, got bool"):
            element_from_json(stuffle_alg, data)

    @pytest.mark.parametrize("coeff", ["1e-3", "1_000", " 3 ", "+3", "--1", "-", "٣"])
    def test_json_reads_strings_as_the_text_grammar_does(self, stuffle_alg, coeff):
        data = {"terms": [{"coeff": coeff, "word": ["y1"]}]}
        with pytest.raises(ValueError, match=f"^coefficient {re.escape(repr(coeff))} is not"):
            element_from_json(stuffle_alg, data)

    @pytest.mark.parametrize("entry", [{"word": ["y1"]}, {"coeff": 1}])
    def test_json_names_an_entry_without_a_key(self, stuffle_alg, entry):
        message = f"^term {re.escape(repr(entry))} needs a \"coeff\" and a \"word\" list$"
        with pytest.raises(ValueError, match=message):
            element_from_json(stuffle_alg, {"terms": [entry]})

    def test_json_refuses_a_word_that_is_not_a_list(self, stuffle_alg):
        data = {"terms": [{"coeff": 1, "word": "y1"}]}
        with pytest.raises(ValueError, match="^term .* needs a \"coeff\" and a \"word\" list$"):
            element_from_json(stuffle_alg, data)

    @pytest.mark.parametrize("entry", [1, "y1", ["y1"], None], ids=repr)
    def test_json_names_an_entry_that_is_not_an_object(self, stuffle_alg, entry):
        message = f"^term {re.escape(repr(entry))} needs a \"coeff\" and a \"word\" list$"
        with pytest.raises(ValueError, match=message):
            element_from_json(stuffle_alg, {"terms": [entry]})

    def test_json_refuses_terms_that_are_an_object(self, stuffle_alg):
        with pytest.raises(ValueError, match='^element data needs a "terms" list$'):
            element_from_json(stuffle_alg, {"terms": {"a": 1}})

    @pytest.mark.parametrize("data", [{}, {"term": []}, [], None], ids=repr)
    def test_json_refuses_data_without_terms(self, stuffle_alg, data):
        with pytest.raises(ValueError, match='^element data needs a "terms" list$'):
            element_from_json(stuffle_alg, data)

    def test_json_refuses_a_word_of_non_strings(self, stuffle_alg):
        entry = {"coeff": 1, "word": [1]}
        message = f"^term {re.escape(repr(entry))} needs a \"coeff\" and a \"word\" list$"
        with pytest.raises(ValueError, match=message):
            element_from_json(stuffle_alg, {"terms": [entry]})

    def test_json_reads_ints_and_rational_strings(self, stuffle_alg):
        y1 = (weight_letter(1),)
        data = {"terms": [{"coeff": 2, "word": ["y1"]}, {"coeff": "-3/6", "word": []}]}
        assert element_from_json(stuffle_alg, data) == TensorElement(
            [(y1, 2), ((), Fraction(-1, 2))]
        )

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


class TestGoldenForms:
    """Byte-for-byte text of the one signed-sum joiner, and JSON whose
    ``"p/q"`` strings are made once per distinct coefficient."""

    def test_element(self):
        y1, y2, y3 = (weight_letter(k) for k in (1, 2, 3))
        half = Fraction(1, 2)
        word = TensorElement.basis
        element = (
            word((), Fraction(-3, 7))
            + word((y1,), half) + word((y1,), half)  # an integral Fraction, 1
            - word((y2,))
            + word((y3,), half)
            + word((y1, y2), Fraction(3, 2)) + word((y1, y2), half)
            + word((y2, y1), Fraction(-3, 7))
            + word((y1, y1, y1))  # the int 1
        )
        assert type(element.coefficient((y1,))) is Fraction
        assert render_element(element) == (
            "-3/7 + y1 - y2 + 1/2*y3 + 2*y1.y2 - 3/7*y2.y1 + y1.y1.y1"
        )
        assert json.dumps(element_to_json(element)) == (
            '{"terms": [{"coeff": "-3/7", "word": []}, {"coeff": "1/1", "word": ["y1"]}, '
            '{"coeff": "-1/1", "word": ["y2"]}, {"coeff": "1/2", "word": ["y3"]}, '
            '{"coeff": "2/1", "word": ["y1", "y2"]}, {"coeff": "-3/7", "word": ["y2", "y1"]}, '
            '{"coeff": "1/1", "word": ["y1", "y1", "y1"]}]}'
        )
        assert render_element(-TensorElement.unit()) == "-1"
        assert render_element(TensorElement.unit() - word((y1,))) == "1 - y1"

    def test_square(self):
        y1, y2, y3 = (weight_letter(k) for k in (1, 2, 3))
        half = Fraction(1, 2)
        word = TensorElement.basis
        element = word((), -1) + word((y1, y2), -half) + word((y3,), half) + word((y3,), half)
        square = deconcatenate(element)
        assert render_square_element(square) == (
            "-1 (x) 1 + 1 (x) y3 - 1/2*1 (x) y1.y2 - 1/2*y1 (x) y2 + y3 (x) 1 - 1/2*y1.y2 (x) 1"
        )
        assert json.dumps(square_to_json(square)) == (
            '{"terms": [{"coeff": "-1/1", "left": [], "right": []}, '
            '{"coeff": "1/1", "left": [], "right": ["y3"]}, '
            '{"coeff": "-1/2", "left": [], "right": ["y1", "y2"]}, '
            '{"coeff": "-1/2", "left": ["y1"], "right": ["y2"]}, '
            '{"coeff": "1/1", "left": ["y3"], "right": []}, '
            '{"coeff": "-1/2", "left": ["y1", "y2"], "right": []}]}'
        )

    def test_normal_form(self):
        nf = (
            normal_form(parse_free_term("((a < b) < c)")) * Fraction(-1, 2)
            + normal_form(parse_free_term("(a . (b < c))")) * Fraction(3, 7)
            + normal_form(parse_free_term("((a < b) . c)"))
        )
        assert render_normal_form(nf) == (
            "-1/2*(v1)(v2)(v3) - 1/2*(v1)(v2 v3) - 1/2*(v1)(v3)(v2)"
            " + 3/7*(v1 v2)(v3) + (v1 v3)(v2)"
        )
        assert json.dumps(normal_form_to_json(nf)) == (
            '{"terms": [{"coeff": "-1/2", "blocks": [[1], [2], [3]]}, '
            '{"coeff": "-1/2", "blocks": [[1], [2, 3]]}, '
            '{"coeff": "-1/2", "blocks": [[1], [3], [2]]}, '
            '{"coeff": "3/7", "blocks": [[1, 2], [3]]}, '
            '{"coeff": "1/1", "blocks": [[1, 3], [2]]}]}'
        )

    def test_rota_table_line(self, capsys):
        assert main(["rota", "table"]) == 0
        assert "\ne3 < e2 = e3\n" in capsys.readouterr().out
        assert main(["rota", "table", "--json"]) == 0
        assert '{"i": "e3", "j": "e2", "value": "e3"}' in capsys.readouterr().out
        fun3 = pointwise_function_algebra(3)
        e1, e2, e3 = fun3.basis()
        vector = e1 * Fraction(-1, 2) + e3 - e2 * Fraction(3, 7) + e1 * 0
        assert fun3.render(vector) == "-1/2*e1 - 3/7*e2 + e3"
