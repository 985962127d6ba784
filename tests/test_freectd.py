"""Free-term calculus: rewriting, evaluation, and partition combinatorics."""

import ast
import copy
import dataclasses
import hashlib
import json
import pickle
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest

from qshuffle import (
    OPERATIONS,
    DomainError,
    FreeTerm,
    LetterDomainError,
    NormalForm,
    SignatureError,
    TensorElement,
    comb_term,
    dot,
    eval_ctd,
    eval_itd,
    free_ctd_coproduct,
    fubini,
    fubini_egf_series,
    gen,
    generating_series_check,
    involute_element,
    involute_term,
    itd_dimension,
    mono_letter,
    multilinear_terms,
    multiply_letters,
    normal_form,
    normal_form_to_json,
    op_dot,
    op_left,
    ordered_ordered_partitions,
    ordered_unordered_partitions,
    prec,
    quasi_shuffle,
    render_normal_form,
    succ,
    sym_algebra,
    weight_letter,
    word_algebra,
    word_letter,
)
from qshuffle.freectd import (
    DIMENSION_FLAVORS,
    MAX_CTD_ENUMERATION,
    MAX_ITD_ENUMERATION,
    MAX_OUTPUT_TERMS,
    MAX_SERIES_ORDER,
    MAX_TERM_DEPTH,
)
from qshuffle.laws import LETTER_PRODUCT, first_failure, tensor_ops
from qshuffle import coeff, freectd, tensorq
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

    def test_generator_leaves_are_shared_from_a_bounded_cache(self):
        assert gen(3) is gen(3)
        assert gen.cache_info().maxsize is not None

    @pytest.mark.parametrize("index", [True, 0, 2.0], ids=repr)
    def test_a_cached_leaf_does_not_admit_an_equal_index(self, index):
        gen(1), gen(2)
        with pytest.raises(ValueError, match="positive index"):
            gen(index)

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

    def test_facts_are_fields_built_once(self):
        for name in ("depth", "degree", "is_ctd", "text"):
            with pytest.raises(TypeError):
                FreeTerm("gen", 1, **{name: 0})
        assert not [name for name, value in vars(FreeTerm).items() if isinstance(value, property)]
        term = succ(prec(G1, G1), G2)
        for twin in (copy.copy(term), pickle.loads(pickle.dumps(term))):
            assert twin == term and (twin.degree, twin.is_ctd, twin.depth) == (3, False, 2)

    def test_depth_is_capped_when_built(self):
        assert G1.depth == 0 and prec(G1, dot(G2, G3)).depth == 2
        comb = G1
        for _ in range(MAX_TERM_DEPTH):
            comb = prec(G2, comb)
        assert comb.depth == MAX_TERM_DEPTH and comb.degree == MAX_TERM_DEPTH + 1
        assert comb.generators() == (2,) * MAX_TERM_DEPTH + (1,)
        assert involute_term(involute_term(comb)) == comb
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

    def test_a_refused_generator_interns_no_letter(self):
        before = len(coeff._LETTERS)
        for i in range(3, 1003):
            for evaluate in (eval_ctd, eval_itd, free_ctd_coproduct):
                with pytest.raises(DomainError, match=f"generator index {i} exceeds"):
                    evaluate(gen(i), 2)
        assert len(coeff._LETTERS) == before

    def test_warm_maps_build_and_validate_no_letter(self, monkeypatch):
        term = prec(dot(G1, G2), prec(G3, dot(G1, G3)))

        def run():
            return eval_ctd(term, 3), free_ctd_coproduct(term, 3), normal_form(term).to_element()

        cold = run()
        before = len(coeff._LETTERS)
        calls = Counter()
        validate = coeff._validate

        def counted(kind, payload):
            calls[kind] += 1
            return validate(kind, payload)

        monkeypatch.setattr(coeff, "_validate", counted)
        assert run() == cold
        assert len(coeff._LETTERS) == before and not calls

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


class TestFoldMarks:
    """``eval_ctd`` marks each image it builds in sym(n) as checked there, so
    the partial operations do not walk its letters again. Everything else,
    and a marked image in another algebra, is walked as before."""

    @staticmethod
    def _fold_arguments(monkeypatch):
        """The images that ``eval_ctd`` of (g1 < g3) < g2 gives to <: the
        leaves x1 and x3, then x1 x3 and the leaf x2."""
        seen = []

        def recording(alg, x, y):
            seen.extend((x, y))
            return op_left(alg, x, y)

        monkeypatch.setitem(freectd._CTD_OPS, "prec", recording)
        eval_ctd(prec(prec(G1, G3), G2), 3)
        return seen

    def test_evaluation_walks_no_letter(self, letter_walks):
        rng = random.Random(29)
        # the degree-6 left chain and a seeded degree-6 term over 18 generators
        for term, n in ((_chain([1, 2, 3, 4, 5, 6]), 6), (_multilinear_ctd_term(rng, 6), 18)):
            assert eval_ctd(term, n) == normal_form(term).to_element()
        assert not letter_walks

    def test_a_marked_image_is_walked_in_another_algebra(self, monkeypatch, sym2, sym3):
        image = self._fold_arguments(monkeypatch)[2]
        x1, x3 = mono_letter((1,)), mono_letter((3,))
        assert image._checked_in is sym3 and image == TensorElement.from_word((x1, x3))
        plain, other = TensorElement(image.items()), TensorElement.from_letter(x1)
        orders = (((image, other), (plain, other)), ((other, image), (other, plain)))
        for op in (op_left, op_dot, quasi_shuffle):
            for marked, unmarked in orders:
                with pytest.raises(LetterDomainError) as refused:
                    op(sym2, *marked)
                with pytest.raises(LetterDomainError) as refused_unmarked:
                    op(sym2, *unmarked)
                message = "letter x3 is not in the basis family of sym2"
                assert str(refused.value) == str(refused_unmarked.value) == message

    def test_arithmetic_on_a_marked_image_is_walked_again(self, monkeypatch, sym3, letter_walks):
        _, _, image, leaf = self._fold_arguments(monkeypatch)
        expected = op_left(sym3, image, leaf)
        assert not letter_walks
        rebuilt = ((image + image, 2), (-image, -1), (2 * image, 2))
        for walks, (x, scale) in enumerate(rebuilt, 1):
            assert op_left(sym3, x, leaf) == scale * expected
            assert letter_walks == {"qshuffle.tensorq": walks}

    def test_results_pickle_and_copy_without_the_mark(self, sym3):
        term = prec(prec(G1, G3), dot(G2, G1))
        for result in (eval_ctd(term, 3), free_ctd_coproduct(term, 3)):
            memo = {}
            clones = (
                pickle.loads(pickle.dumps(result)),
                copy.copy(result),
                copy.deepcopy(result, memo),
            )
            for clone in clones:
                assert type(clone) is type(result) and clone == result
                assert "_checked_in" not in vars(clone)
            assert id(sym3) not in memo  # deepcopy copied no algebra


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
            total = TensorElement()
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
        build = freectd._interned_letter

        def counted(kind, block):
            calls[block] += 1
            return build(kind, block)

        monkeypatch.setattr(freectd, "_interned_letter", counted)
        assert nf.to_element() == expected
        blocks = {block for seq, _ in nf.items() for block in seq}
        assert len(nf) > len(blocks) and set(calls) == blocks
        assert set(calls.values()) == {1}

    def test_a_normal_form_never_owns_a_cached_dict(self):
        term = prec(prec(dot(G1, G2), G3), gen(4))
        nf = normal_form(term)
        stored = {key: dict(terms) for key, terms in freectd._NF_CACHE.items()}
        assert all(nf._terms is not terms for terms in freectd._NF_CACHE.values())
        nf + nf, nf - nf, -nf, 3 * nf, nf.to_element()
        assert stored == freectd._NF_CACHE
        assert normal_form(term) == nf

    def test_constructor_sorts_each_block(self):
        unsorted = NormalForm({((2, 1), (3,)): 1})
        assert unsorted == NormalForm({((1, 2), (3,)): 1})
        assert render_normal_form(unsorted) == "(v1 v2)(v3)"
        assert NormalForm.basis(((2, 1), (3,))) == unsorted
        both = NormalForm([(((2, 1), (3,)), 1), (((1, 2), (3,)), -1)])
        assert not both

    @pytest.mark.parametrize(
        "seq",
        [(), ((),), ((1,), ()), ((0,),), ((2, -1),), ((1.0,),), (("1",),), ((True,),)],
        ids=repr,
    )
    def test_constructor_refuses_combs_no_rewriting_produces(self, seq):
        with pytest.raises(ValueError, match="nonempty blocks of positive ints"):
            NormalForm({seq: 1})
        with pytest.raises(ValueError, match="nonempty blocks of positive ints"):
            NormalForm.basis(seq)

    def test_to_element_sums_two_orders_of_one_block(self):
        # the constructor sorts both orders into one block sequence
        nf = NormalForm([(((2, 1), (3,)), 1), (((1, 2), (3,)), Fraction(1, 2)), (((3,),), 4)])
        x12, x3 = mono_letter((1, 2)), mono_letter((3,))
        assert nf.to_element() == TensorElement(
            [((x12, x3), Fraction(3, 2)), ((x3,), 4)]
        )

    def test_idempotence_via_resummation(self):
        rng = random.Random(71)
        for _ in range(60):
            term = random_ctd_term(rng, rng.randint(1, 5))
            nf = normal_form(term)
            again = NormalForm()
            for comb, coeff in [(comb_term(seq), c) for seq, c in nf.terms()]:
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
        assert nf
        assert nf.to_element() == eval_ctd(term, 8)

    def test_comb_term_round_trip(self):
        blocks = ((2,), (1, 3))
        term = comb_term(blocks)
        assert str(term) == "(b < (a . c))"
        assert normal_form(term) == NormalForm([(blocks, 1)])

    def test_comb_term_rejects_empty(self):
        with pytest.raises(ValueError):
            comb_term(())


def _chain(labels):
    term = gen(labels[0])
    for i in labels[1:]:
        term = prec(term, gen(i))
    return term


class TestShapeCache:
    """Normal forms are cached per shape, with generators relabelled by first
    occurrence; CTD is an operad, so an injective relabelling sigma of the
    generators gives normal_form(sigma . t) = sigma . normal_form(t)."""

    # render and JSON text of every form of _pinned_terms, computed before
    # the cache was keyed by shape
    PINNED_SHA256 = "80203afa4dfee5a67b7f3705929e844b6de98949933e8b535a49a374024eb464"

    @staticmethod
    def _relabel(term, sigma):
        if term.op == "gen":
            return gen(sigma[term.index])
        relabel = TestShapeCache._relabel
        return FreeTerm(term.op, left=relabel(term.left, sigma), right=relabel(term.right, sigma))

    def test_relabelling_commutes_with_normal_form(self):
        rng = random.Random(2007)
        for _ in range(120):
            n = rng.randint(1, 4)
            term = random_ctd_term(rng, rng.randint(2, 6), n)  # repeats generators
            sigma = dict(zip(range(1, n + 1), rng.sample(range(1, 45), n)))
            nf = normal_form(term)
            # the constructor re-sorts each relabelled block
            expected = NormalForm(
                (tuple(tuple(sigma[i] for i in block) for block in seq), c)
                for seq, c in nf.items()
            )
            assert normal_form(self._relabel(term, sigma)) == expected

    def test_relabellings_of_a_chain_share_one_entry_per_shape(self):
        orders = list(permutations(range(1, 6)))
        normal_form(_chain(orders[0]))
        size = len(freectd._NF_CACHE)
        forms = {render_normal_form(normal_form(_chain(labels))) for labels in orders}
        assert len(freectd._NF_CACHE) == size
        # the form of ((a < b) < ...) < e is a < (quasi-shuffle of the rest): one per head
        assert len(forms) == 5

    @staticmethod
    def _pinned_terms():
        rng = random.Random(2007)
        terms = [random_ctd_term(rng, rng.randint(1, 6), rng.randint(1, 9)) for _ in range(300)]
        return terms + [_chain((27, 3, 40, 1, 12)), _chain((9, 30, 2, 27, 5, 41))]

    def test_rendered_forms_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        for term in self._pinned_terms():
            nf = normal_form(term)
            digest.update(render_normal_form(nf).encode() + b"\n")
            digest.update(json.dumps(normal_form_to_json(nf)).encode() + b"\n")
        assert digest.hexdigest() == self.PINNED_SHA256


class TestRewritingIndependence:
    """Rewriting is the independent check on evaluation, so it must not
    share the walk that maps a term into an algebra, nor anything after it."""

    EVALUATION = {
        "fold_term", "_fold_in", "_generator_letter", "eval_ctd", "eval_itd",
        "op_left", "op_right", "op_dot",
    }

    @pytest.fixture(scope="class")
    def tree(self):
        return ast.parse(Path(freectd.__file__).read_text())

    def _reached(self, tree, start):
        """Every name read from ``start`` on, through the module's functions."""
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert self.EVALUATION - {"op_left", "op_right", "op_dot"} <= set(functions)
        seen, todo = set(), [start]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                if name in functions:
                    todo.extend(
                        node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)
                    )
        return seen

    def test_normal_form_reaches_nothing_of_evaluation(self, tree):
        seen = self._reached(tree, "normal_form")
        assert {"_encode", "_rdot", "_norm", "_pull_prec", "_comb_lengths"} <= seen
        assert not seen & self.EVALUATION

    def test_the_comb_count_reaches_no_rewriting_and_no_evaluation(self, tree):
        # it counts the encoded shape; the encoder is not its to call
        seen = self._reached(tree, "_comb_lengths")
        assert {"_combine_lengths", "_check_budget"} <= seen
        assert not seen & (self.EVALUATION | {"_encode", "_rdot", "_norm", "_pull_prec"})

    @staticmethod
    def _child_reads(node, where="<module>"):
        """(enclosing function, object) for every ``.left`` or ``.right`` read."""
        if isinstance(node, ast.FunctionDef):
            where = node.name
        if isinstance(node, ast.Attribute) and node.attr in ("left", "right"):
            yield where, node.value
        for child in ast.iter_child_nodes(node):
            yield from TestRewritingIndependence._child_reads(child, where)

    def test_only_the_fold_and_the_encoder_walk_children(self, tree):
        reads = list(self._child_reads(tree))
        walkers = {where for where, _ in reads}
        builders = {"__init__", "__reduce__"}
        assert {"fold_term", "_encode"} <= walkers <= builders | {"fold_term", "_encode"}
        # building or pickling a node reads its own children, one level down
        assert all(
            isinstance(obj, ast.Name) and obj.id == "self"
            for where, obj in reads
            if where in builders
        )


class TestRewritingDepth:
    """``normal_form`` refuses a term whose rewriting could outgrow the
    stack, judged by ``_norm_depth`` before any rewriting."""

    def test_each_level_of_rewriting_lowers_the_bound(self, monkeypatch):
        # so the bound on a term bounds the levels below it
        norm, bounds = freectd._norm, []

        def checked(rt):
            bound = freectd._norm_depth(rt)
            assert not bounds or bound < bounds[-1], rt
            bounds.append(bound)
            try:
                return norm(rt)
            finally:
                bounds.pop()

        monkeypatch.setattr(freectd, "_norm", checked)
        rng = random.Random(21)
        terms = [random_ctd_term(rng, rng.randint(1, 7), rng.randint(1, 7)) for _ in range(400)]
        terms += [_chain((1,) + (2,) * n) for n in range(1, 9)]
        for term in terms:
            monkeypatch.setattr(freectd, "_NF_CACHE", {})  # every step taken: a cold cache
            checked(freectd._encode(term, {}))

    def test_a_right_comb_is_bounded_by_its_depth_and_a_left_chain_is_refused(self):
        comb, chain = gen(2), gen(1)
        for _ in range(MAX_TERM_DEPTH):
            comb, chain = prec(G1, comb), prec(chain, G2)
        assert comb.depth == chain.depth == MAX_TERM_DEPTH
        assert freectd._norm_depth(freectd._encode(comb, {})) == MAX_TERM_DEPTH + 1
        message = f"^rewriting could recurse .* levels deep, over {MAX_TERM_DEPTH + 1}$"
        with pytest.raises(ValueError, match=message):
            normal_form(chain)

    def test_a_chain_heading_a_long_comb_is_charged_per_generator(self):
        # ((g1 < g2) < (g3 < (g4 < ... < g26))): 49 combs, once refused
        comb = gen(26)
        for index in range(25, 2, -1):
            comb = prec(gen(index), comb)
        term = prec(prec(G1, G2), comb)
        assert freectd._norm_depth(freectd._encode(term, {})) == 50
        assert len(normal_form(term)) == 49

    def test_every_term_of_at_most_32_generators_passes(self):
        rng = random.Random(32)
        terms = [random_ctd_term(rng, 32, rng.randint(1, 32)) for _ in range(200)]
        depths = [freectd._norm_depth(freectd._encode(term, {})) for term in terms]
        assert max(depths) <= 1 + 32 * 31 // 2 < MAX_TERM_DEPTH
        # the left chain has the most pairs and the fewest blocks to the right
        chain = freectd._encode(_chain(tuple(range(1, 33))), {})
        assert freectd._norm_depth(chain) == 1 + 32 * 31 // 2


def _multilinear_ctd_term(rng, degree):
    """A random CTD term with ``degree`` distinct generators, drawn from 1..3*degree."""

    def build(leaves):
        if len(leaves) == 1:
            return gen(leaves[0])
        split = rng.randint(1, len(leaves) - 1)
        return rng.choice((prec, dot))(build(leaves[:split]), build(leaves[split:]))

    return build(rng.sample(range(1, 3 * degree + 1), degree))


class TestOutputBudget:
    """A normal form or free coproduct of more than ``MAX_OUTPUT_TERMS`` terms
    is refused: up front by the comb count on distinct generators, while
    rewriting with a repeated one."""

    def test_the_count_is_the_normal_form_and_coproduct_size(self):
        rng = random.Random(26)
        for degree in range(2, 8):
            for _ in range(25):
                term = _multilinear_ctd_term(rng, degree)
                lengths = freectd._comb_lengths(freectd._encode(term, {}))
                assert lengths == Counter(map(len, normal_form(term)._terms)), term
                if degree <= 5:
                    pairs = len(free_ctd_coproduct(term, max(term.generators())))
                    assert sum(c * (n + 1) for n, c in lengths.items()) == pairs, term

    def test_the_count_of_a_left_chain_is_fubini(self):
        for n in range(2, 11):
            shape = freectd._encode(_chain(tuple(range(1, n + 1))), {})
            if fubini(n - 1) <= MAX_OUTPUT_TERMS:
                assert sum(freectd._comb_lengths(shape).values()) == fubini(n - 1)
            else:
                with pytest.raises(DomainError):
                    freectd._comb_lengths(shape)

    def test_the_coproduct_counts_only_a_term_that_could_pass_the_budget(self, monkeypatch):
        # d distinct generators give at most Fubini(d) * (d + 1) pairs
        assert fubini(7) * 8 <= MAX_OUTPUT_TERMS < fubini(8) * 9
        assert freectd._UNCOUNTED_DEGREE == 7
        counted = []
        comb_lengths = freectd._comb_lengths

        def count(rt):
            counted.append(rt)
            return comb_lengths(rt)

        # the count recurses through the patched name, so the first shape it
        # counts is the whole term's
        monkeypatch.setattr(freectd, "_comb_lengths", count)
        for degree in (7, 8):
            comb = comb_term(tuple((i,) for i in range(1, degree + 1)))
            assert len(free_ctd_coproduct(comb, degree)) == degree + 1
        assert counted[0] == freectd._encode(comb, {})

    def test_the_ten_generator_chain_is_refused_before_rewriting(self, monkeypatch):
        def unreached(rt):
            raise AssertionError("rewrote a term over the budget")

        monkeypatch.setattr(freectd, "_norm", unreached)
        monkeypatch.setattr(freectd, "_fold_in", unreached)
        chain = _chain(tuple(range(1, 11)))
        message = f"^the output would have more than {MAX_OUTPUT_TERMS} terms$"
        with pytest.raises(DomainError, match=message):
            normal_form(chain)
        with pytest.raises(DomainError, match=message):
            free_ctd_coproduct(chain, 10)

    def test_a_repeated_generator_stops_rewriting_at_the_budget(self, monkeypatch):
        # 176 combs, where the count of distinct generators would give 541
        term = _chain((1, 2, 2, 3, 3, 4))
        size = len(normal_form(term))
        assert size == 176 < sum(freectd._comb_lengths(freectd._encode(term, {})).values())
        monkeypatch.setattr(freectd, "_NF_CACHE", {})
        monkeypatch.setattr(tensorq, "MAX_OUTPUT_TERMS", size - 1)
        with pytest.raises(DomainError, match=f"more than {size - 1} terms"):
            normal_form(term)
        monkeypatch.setattr(tensorq, "MAX_OUTPUT_TERMS", size)
        assert normal_form(term).to_element() == eval_ctd(term, 4)

    def test_a_repeated_generator_stops_the_coproduct_at_the_budget(self, monkeypatch):
        # no term is counted up front, so each tensor square checks its pairs
        term = _chain((1, 2, 2, 3, 3, 4))
        expected = free_ctd_coproduct(term, 4)
        assert len(expected) == 994
        monkeypatch.setattr(tensorq, "MAX_OUTPUT_TERMS", 993)
        with pytest.raises(DomainError, match="more than 993 terms"):
            free_ctd_coproduct(term, 4)
        monkeypatch.setattr(tensorq, "MAX_OUTPUT_TERMS", 994)
        assert free_ctd_coproduct(term, 4) == expected


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
            support = {seq for seq, _ in nf.terms()}
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
        got = set(DIMENSION_FLAVORS["ctd"][1](2))
        assert got == {((1, 2),), ((1,), (2,)), ((2,), (1,))}

    def test_itd_two_element_census(self):
        got = set(DIMENSION_FLAVORS["itd"][1](2))
        assert got == {((1, 2),), ((2, 1),), ((1,), (2,)), ((2,), (1,))}

    def test_no_duplicates(self):
        for n in range(1, 6):
            ctd = ordered_unordered_partitions(n)
            assert len(ctd) == len(set(ctd))
        for n in range(1, MAX_ITD_ENUMERATION + 1):
            itd = ordered_ordered_partitions(n)
            assert len(itd) == len(set(itd))

    def test_blocks_partition_the_index_set(self):
        for seq in ordered_unordered_partitions(4):
            flat = [i for block in seq for i in block]
            assert sorted(flat) == [1, 2, 3, 4]
            for block in seq:
                assert list(block) == sorted(block)
        for seq in ordered_ordered_partitions(4):
            assert all(seq) and sorted(i for block in seq for i in block) == [1, 2, 3, 4]

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

    def test_fubini_of_a_large_n_on_a_cold_cache(self):
        # past the interpreter's recursion limit were it one call per n
        fubini.cache_clear()
        top = fubini(600)
        assert top == sum(comb(600, k) * fubini(600 - k) for k in range(1, 601))

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
        for alg in (sym_algebra(2), word_algebra(2)):
            ops = tensor_ops(alg, partial(multiply_letters, alg))
            assert first_failure(LETTER_PRODUCT, ops, alg.letters_up_to_degree(2), 2) is None

    def test_letter_row_checks_the_memo_against_the_rule(self):
        alg = dataclasses.replace(sym_algebra(2), cache={})
        x1, x2 = mono_letter((1,)), mono_letter((2,))
        # a wrong memo entry for x2 . x1, which the dot reads
        alg.cache["letter"] = {(x2, x1): ((mono_letter((1, 1)), 1),)}
        letters = alg.letters_up_to_degree(2)
        ops = tensor_ops(alg, partial(multiply_letters, alg))
        indices, name, lhs, rhs = first_failure(LETTER_PRODUCT, ops, letters, 2)
        assert ([letters[i] for i in indices], name) == ([x2, x1], "a.b = ab")
        assert lhs == TensorElement.from_letter(mono_letter((1, 1)))
        assert rhs == TensorElement.from_letter(mono_letter((1, 2)))

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
        assert not OPERATIONS["dot"](alg, a, b)

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

