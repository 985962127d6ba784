"""Free-term calculus: rewriting, evaluation, and partition combinatorics."""

import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from qshuffle import (
    OPERATIONS,
    DomainError,
    FreeTerm,
    NormalForm,
    SignatureError,
    TensorElement,
    comb_term,
    dot,
    enumerate_ou_partitions,
    eval_ctd,
    eval_itd,
    fubini,
    fubini_egf_series,
    gen,
    generating_series_check,
    involute_element,
    involute_term,
    itd_dimension,
    mono_letter,
    multilinear_terms,
    normal_form,
    ordered_ordered_partitions,
    ordered_unordered_partitions,
    prec,
    succ,
    sym_algebra,
    uctd_identifies_letter_products,
    weight_letter,
    word_algebra,
    word_letter,
)
from qshuffle.freectd import (
    MAX_CTD_ENUMERATION,
    MAX_ITD_ENUMERATION,
    MAX_SERIES_ORDER,
    MAX_TERM_DEPTH,
)
from qshuffle import freectd
from qshuffle.sampling import random_ctd_term, random_td_term

from conftest import rational_rank

G1, G2, G3 = gen(1), gen(2), gen(3)


class TestFreeTerm:
    def test_structure_validation(self):
        with pytest.raises(ValueError):
            FreeTerm("gen")  # no index
        with pytest.raises(ValueError):
            FreeTerm("prec", left=G1)  # missing right child
        with pytest.raises(ValueError):
            FreeTerm("weird", left=G1, right=G2)
        with pytest.raises(ValueError):
            gen(0)

    def test_degree_counts_leaves(self):
        assert G1.degree == 1
        assert prec(G1, dot(G2, G3)).degree == 3
        assert succ(prec(G1, G1), G2).degree == 3

    def test_signature_flag(self):
        assert prec(G1, dot(G2, G3)).is_ctd
        assert not succ(G1, G2).is_ctd
        assert not prec(G1, succ(G2, G3)).is_ctd

    def test_generators_collected_in_leaf_order(self):
        term = prec(dot(G2, G1), G3)
        assert term.generators() == (2, 1, 3)

    def test_depth_is_capped_when_built(self):
        assert G1.depth == 0 and prec(G1, dot(G2, G3)).depth == 2
        comb = G1
        for _ in range(MAX_TERM_DEPTH):
            comb = prec(G2, comb)
        assert comb.depth == MAX_TERM_DEPTH
        assert normal_form(comb) == NormalForm({((2,),) * MAX_TERM_DEPTH + ((1,),): 1})
        with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH} levels"):
            prec(G1, comb)
        with pytest.raises(ValueError, match=f"deeper than {MAX_TERM_DEPTH} levels"):
            dot(comb, G1)

    def test_text_equality_and_hash_at_the_depth_cap(self):
        # built twice, so equality must compare structure, not identity
        def comb(top):
            term = G1
            for _ in range(MAX_TERM_DEPTH - 1):
                term = prec(G2, term)
            return prec(top, term)

        first, second, other = comb(G2), comb(G2), comb(G3)
        assert first.depth == MAX_TERM_DEPTH
        text = str(first)
        assert text == "(b < " * MAX_TERM_DEPTH + "a" + ")" * MAX_TERM_DEPTH
        assert repr(first) == f"FreeTerm({text!r})"
        assert first == second and hash(first) == hash(second)
        assert first != other
        assert len({first, second, other}) == 2

    def test_str_is_parenthesized(self):
        assert str(prec(G1, G2)) == "(a < b)"
        assert str(succ(dot(G1, G2), G3)) == "((a . b) > c)"
        assert str(gen(27)) == "g27"


class TestEvalCtd:
    def test_generator_is_length_one_word(self):
        assert eval_ctd(G1, 2) == TensorElement.from_word((mono_letter((1,)),))

    def test_prec_of_generators_concatenates(self):
        expected = TensorElement.from_word((mono_letter((1,)), mono_letter((2,))))
        assert eval_ctd(prec(G1, G2), 2) == expected

    def test_dot_of_generators_merges_letters(self):
        expected = TensorElement.from_word((mono_letter((1, 2)),))
        assert eval_ctd(dot(G1, G2), 2) == expected

    def test_rejects_succ_nodes(self):
        with pytest.raises(SignatureError):
            eval_ctd(succ(G1, G2), 2)

    def test_rejects_out_of_range_generator(self):
        with pytest.raises(DomainError) as refused:
            eval_ctd(G3, 2)
        assert str(refused.value) == "generator index 3 exceeds the generator count of sym2"

    def test_relations_hold_under_evaluation(self):
        # In the image, each defining relation becomes an identity of elements.
        rng = random.Random(41)
        for _ in range(30):
            x = random_ctd_term(rng, rng.randint(1, 2))
            y = random_ctd_term(rng, rng.randint(1, 2))
            z = random_ctd_term(rng, rng.randint(1, 2))
            n = 3  # generator indices sampled below stay within 1..3
            left_assoc = eval_ctd(prec(prec(x, y), z), n)
            star_expansion = (
                eval_ctd(prec(x, prec(y, z)), n)
                + eval_ctd(prec(x, prec(z, y)), n)
                + eval_ctd(prec(x, dot(y, z)), n)
            )
            assert left_assoc == star_expansion
            assert eval_ctd(prec(dot(x, y), z), n) == eval_ctd(
                dot(x, prec(y, z)), n
            )
            assert eval_ctd(dot(dot(x, y), z), n) == eval_ctd(dot(x, dot(y, z)), n)
            assert eval_ctd(dot(x, y), n) == eval_ctd(dot(y, x), n)


class TestEvalItd:
    def test_succ_puts_right_first(self):
        expected = TensorElement.from_word((word_letter((2,)), word_letter((1,))))
        assert eval_itd(succ(G1, G2), 2) == expected

    def test_dot_concatenates_letter_payloads(self):
        expected = TensorElement.from_word((word_letter((1, 2)),))
        assert eval_itd(dot(G1, G2), 2) == expected

    def test_prec_on_equal_generators(self):
        expected = TensorElement.from_word((word_letter((1,)), word_letter((1,))))
        assert eval_itd(prec(G1, G1), 1) == expected

    def test_rejects_out_of_range_generator(self):
        with pytest.raises(DomainError) as refused:
            eval_itd(succ(G1, G3), 2)
        assert str(refused.value) == "generator index 3 exceeds the generator count of word2"

    # star(x, y) as a list of terms summing to x * y in the image
    @staticmethod
    def _star_parts(x, y):
        return [prec(x, y), succ(x, y), dot(x, y)]

    def test_tridendriform_relations_sampled(self):
        rng = random.Random(47)
        n = 3
        ev = lambda t: eval_itd(t, n)  # noqa: E731

        def ev_sum(terms):
            total = TensorElement.zero()
            for t in terms:
                total = total + ev(t)
            return total

        for _ in range(25):
            x = random_td_term(rng, rng.randint(1, 2))
            y = random_td_term(rng, rng.randint(1, 2))
            z = random_td_term(rng, rng.randint(1, 2))
            star_yz = self._star_parts(y, z)
            star_xy = self._star_parts(x, y)
            checks = [
                (ev(prec(prec(x, y), z)), ev_sum(prec(x, s) for s in star_yz)),
                (ev(prec(succ(x, y), z)), ev(succ(x, prec(y, z)))),
                (ev_sum(succ(s, z) for s in star_xy), ev(succ(x, succ(y, z)))),
                (ev(prec(dot(x, y), z)), ev(dot(x, prec(y, z)))),
                (ev(dot(prec(x, y), z)), ev(dot(x, succ(y, z)))),
                (ev(dot(succ(x, y), z)), ev(succ(x, dot(y, z)))),
                (ev(dot(dot(x, y), z)), ev(dot(x, dot(y, z)))),
            ]
            for lhs, rhs in checks:
                assert lhs == rhs

    def test_involution_laws_sampled(self):
        alg = word_algebra(3)
        rng = random.Random(53)
        ev = lambda t: eval_itd(t, 3)  # noqa: E731
        s = lambda e: involute_element(alg, e)  # noqa: E731
        for _ in range(25):
            x = random_td_term(rng, rng.randint(1, 2))
            y = random_td_term(rng, rng.randint(1, 2))
            assert s(ev(prec(x, y))) == ev(succ(involute_term(y), involute_term(x)))
            assert s(ev(succ(x, y))) == ev(prec(involute_term(y), involute_term(x)))
            assert s(ev(dot(x, y))) == ev(dot(involute_term(y), involute_term(x)))

    def test_involution_commutes_with_evaluation(self):
        alg = word_algebra(3)
        rng = random.Random(59)
        for _ in range(30):
            t = random_td_term(rng, rng.randint(1, 3))
            assert eval_itd(involute_term(t), 3) == involute_element(
                alg, eval_itd(t, 3)
            )

    def test_involute_term_is_involutive(self):
        rng = random.Random(61)
        for _ in range(30):
            t = random_td_term(rng, rng.randint(1, 3))
            assert involute_term(involute_term(t)) == t


class TestNormalForm:
    def test_left_nested_prec_expands_to_three_combs(self):
        nf = normal_form(prec(prec(G1, G2), G3))
        expected = NormalForm(
            [
                (((1,), (2,), (3,)), 1),
                (((1,), (3,), (2,)), 1),
                (((1,), (2, 3)), 1),
            ]
        )
        assert nf == expected

    def test_dot_then_prec_is_already_normal(self):
        nf = normal_form(prec(dot(G1, G2), G3))
        assert nf == NormalForm([(((1, 2), (3,)), 1)])

    def test_dot_commutativity_sorts_blocks(self):
        nf = normal_form(dot(G2, G1))
        assert nf == NormalForm([(((1, 2),), 1)])

    def test_rejects_td_terms(self):
        with pytest.raises(SignatureError):
            normal_form(succ(G1, G2))

    def test_soundness_on_random_terms(self):
        rng = random.Random(67)
        for _ in range(150):
            term = random_ctd_term(rng, rng.randint(1, 6))
            n = max(term.generators())
            assert normal_form(term).to_element() == eval_ctd(term, n)

    def test_to_element_builds_each_block_letter_once(self, monkeypatch):
        term = G1
        for i in range(2, 6):
            term = prec(term, gen(i))
        nf = normal_form(term)
        expected = nf.to_element()
        calls = Counter()
        build = freectd.mono_letter

        def counted(block):
            calls[block] += 1
            return build(block)

        monkeypatch.setattr(freectd, "mono_letter", counted)
        assert nf.to_element() == expected
        blocks = {block for seq, _ in nf.items() for block in seq}
        assert len(nf) > len(blocks) and set(calls) == blocks
        assert set(calls.values()) == {1}

    def test_idempotence_via_resummation(self):
        rng = random.Random(71)
        for _ in range(60):
            term = random_ctd_term(rng, rng.randint(1, 5))
            nf = normal_form(term)
            again = NormalForm.zero()
            for comb, coeff in nf.to_free_terms():
                again = again + coeff * normal_form(comb)
            assert again == nf

    def test_single_comb_normalizes_to_itself(self):
        blocks = ((1, 3), (2,), (2, 4))
        assert normal_form(comb_term(blocks)) == NormalForm([(blocks, 1)])

    def test_terminates_at_degree_eight(self):
        # Worst case for the expansion: fully left-nested prec chains.
        term = G1
        for i in range(2, 9):
            term = prec(term, gen(i))
        assert term.degree == 8
        nf = normal_form(term)
        assert not nf.is_zero
        assert nf.to_element() == eval_ctd(term, 8)

    def test_comb_term_round_trip(self):
        blocks = ((2,), (1, 3))
        term = comb_term(blocks)
        assert str(term) == "(b < (a . c))"
        assert normal_form(term) == NormalForm([(blocks, 1)])

    def test_comb_term_rejects_empty(self):
        with pytest.raises(ValueError):
            comb_term(())


class TestMultilinearSpan:
    """Normal forms of multilinear terms hit every partition, injectively."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_partition_images_are_distinct(self, n):
        partitions = ordered_unordered_partitions(n)
        images = {
            tuple(mono_letter(block) for block in seq) for seq in partitions
        }
        assert len(images) == len(partitions)

    @pytest.mark.parametrize("n,terms_expected", [(2, 4), (3, 48), (4, 960)])
    def test_term_census(self, n, terms_expected):
        assert sum(1 for _ in multilinear_terms(n)) == terms_expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_normal_forms_span_the_partition_space(self, n):
        partitions = set(ordered_unordered_partitions(n))
        rows = []
        seen_blocks = set()
        for term in multilinear_terms(n):
            nf = normal_form(term)
            support = set(nf.support())
            assert support <= partitions
            seen_blocks |= support
            rows.append(dict(nf.items()))
        assert seen_blocks == partitions
        assert rational_rank(rows) == fubini(n)


class TestEnumeration:
    def test_ctd_counts_match_fubini(self):
        for n in range(1, 8):
            assert len(ordered_unordered_partitions(n)) == fubini(n)

    def test_itd_counts_match_dimension(self):
        for n in range(1, 6):
            assert len(ordered_ordered_partitions(n)) == itd_dimension(n)

    def test_ctd_two_element_census(self):
        got = set(enumerate_ou_partitions(2, "ctd"))
        assert got == {((1, 2),), ((1,), (2,)), ((2,), (1,))}

    def test_itd_two_element_census(self):
        got = set(enumerate_ou_partitions(2, "itd"))
        assert got == {((1, 2),), ((2, 1),), ((1,), (2,)), ((2,), (1,))}

    def test_no_duplicates(self):
        for n in range(1, 6):
            ctd = ordered_unordered_partitions(n)
            assert len(ctd) == len(set(ctd))
        itd = ordered_ordered_partitions(4)
        assert len(itd) == len(set(itd))

    def test_blocks_partition_the_index_set(self):
        for seq in ordered_unordered_partitions(4):
            flat = [i for block in seq for i in block]
            assert sorted(flat) == [1, 2, 3, 4]
            for block in seq:
                assert list(block) == sorted(block)

    def test_flavor_dispatch(self):
        assert enumerate_ou_partitions(3, "CTD") == ordered_unordered_partitions(3)
        assert enumerate_ou_partitions(3, "ITD") == ordered_ordered_partitions(3)
        with pytest.raises(ValueError):
            enumerate_ou_partitions(3, "dendriform")

    def test_bounds_are_enforced(self):
        with pytest.raises(ValueError):
            ordered_unordered_partitions(0)
        with pytest.raises(ValueError):
            ordered_unordered_partitions(MAX_CTD_ENUMERATION + 1)
        with pytest.raises(ValueError):
            ordered_ordered_partitions(MAX_ITD_ENUMERATION + 1)


class TestCounting:
    def test_fubini_values(self):
        assert [fubini(n) for n in range(0, 8)] == [
            1, 1, 3, 13, 75, 541, 4683, 47293,
        ]

    def test_fubini_rejects_negative(self):
        with pytest.raises(ValueError):
            fubini(-1)

    def test_itd_dimension_values(self):
        assert [itd_dimension(n) for n in range(1, 6)] == [1, 4, 24, 192, 1920]
        assert itd_dimension(6) == 32 * factorial(6)
        with pytest.raises(ValueError):
            itd_dimension(0)

    def test_series_coefficients_order_six(self):
        series = fubini_egf_series(6)
        assert series[0] == 0
        expected = [
            Fraction(1),
            Fraction(3, 2),
            Fraction(13, 6),
            Fraction(75, 24),
            Fraction(541, 120),
            Fraction(4683, 720),
        ]
        assert series[1:] == expected

    def test_series_check_small_orders(self):
        assert generating_series_check(1)
        assert generating_series_check(6)
        assert generating_series_check(10)

    def test_series_order_bound(self):
        with pytest.raises(ValueError):
            fubini_egf_series(MAX_SERIES_ORDER + 1)
        with pytest.raises(ValueError):
            fubini_egf_series(0)


class TestUnifiedProduct:
    def test_dot_identifies_letter_products(self):
        assert uctd_identifies_letter_products(sym_algebra(2))
        assert uctd_identifies_letter_products(word_algebra(2))

    def test_sym2_dot_example(self):
        alg = sym_algebra(2)
        x1 = TensorElement.from_letter(mono_letter((1,)))
        x2 = TensorElement.from_letter(mono_letter((2,)))
        assert OPERATIONS["dot"](alg, x1, x2) == TensorElement.from_letter(
            mono_letter((1, 2))
        )

    def test_stuffle_dot_example(self):
        from qshuffle import stuffle_y_algebra

        alg = stuffle_y_algebra()
        y1 = TensorElement.from_letter(weight_letter(1))
        y2 = TensorElement.from_letter(weight_letter(2))
        assert OPERATIONS["dot"](alg, y1, y2) == TensorElement.from_letter(
            weight_letter(3)
        )

    def test_zero_algebra_dot_vanishes(self):
        from qshuffle import atom_letter, zero_algebra

        alg = zero_algebra()
        a = TensorElement.from_letter(atom_letter("a"))
        b = TensorElement.from_letter(atom_letter("b"))
        assert OPERATIONS["dot"](alg, a, b).is_zero

    def test_operation_dispatch(self):
        alg = sym_algebra(2)
        x1 = TensorElement.from_letter(mono_letter((1,)))
        x2 = TensorElement.from_letter(mono_letter((2,)))
        star = OPERATIONS["star"](alg, x1, x2)
        assert star == (
            OPERATIONS["left"](alg, x1, x2)
            + OPERATIONS["right"](alg, x1, x2)
            + OPERATIONS["dot"](alg, x1, x2)
        )
        assert sorted(OPERATIONS) == ["dot", "left", "right", "star"]

