"""Products, operations, coproduct, and filtration on the tensor module."""

import ast
import dataclasses
import itertools
import math
import random
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest

from qshuffle import (
    EMPTY_WORD,
    CoeffCombination,
    DomainError,
    LetterDomainError,
    TensorElement,
    TensorSquareElement,
    UnitPairingError,
    algebra_by_name,
    atom_letter,
    builtin_algebras,
    coradical_degree,
    deconcatenate,
    involute_element,
    is_primitive,
    mono_letter,
    op_dot,
    op_left,
    op_right,
    quasi_shuffle,
    quasi_shuffle_paths,
    reduced_coproduct,
    weight_letter,
    word_letter,
)
from qshuffle import tensorq
from qshuffle.sampling import random_element, random_word

from conftest import coradical_degree_oracle, delannoy_oracle, shuffle_oracle
from test_bialg import _reference_square
from test_laws import _sum_product_algebra


def enumerate_lattice_paths(p: int, q: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """All step sequences from (0,0) to (p,q) over right, up and diagonal.

    A (1,0) step consumes a letter of the first word, (0,1) one of the
    second, (1,1) one of each. Path counts are the Delannoy numbers.
    Paths come in the oracle's order: right before up before diagonal.
    """
    if p == q == 0:
        yield ()
        return
    for step in ((1, 0), (0, 1), (1, 1)):
        if step[0] <= p and step[1] <= q:
            for rest in enumerate_lattice_paths(p - step[0], q - step[1]):
                yield (step,) + rest


def word_of(*letters):
    return tuple(letters)


def element_of(*letters):
    return TensorElement.from_word(tuple(letters))


A = atom_letter("a")
B = atom_letter("b")
C = atom_letter("c")
D, E = atom_letter("d"), atom_letter("e")
Y1, Y2, Y3 = weight_letter(1), weight_letter(2), weight_letter(3)
X1, X2 = mono_letter((1,)), mono_letter((2,))


class TestQuasiShuffleBaseCases:
    def test_unit_is_neutral(self, stuffle_alg):
        w = element_of(Y1, Y2)
        unit = TensorElement.unit()
        assert quasi_shuffle(stuffle_alg, unit, w) == w
        assert quasi_shuffle(stuffle_alg, w, unit) == w
        assert quasi_shuffle(stuffle_alg, unit, unit) == unit

    def test_single_letters_sym(self, sym2):
        result = quasi_shuffle(sym2, element_of(X1), element_of(X2))
        expected = TensorElement(
            [
                (word_of(X1, X2), 1),
                (word_of(X2, X1), 1),
                (word_of(mono_letter((1, 2))), 1),
            ]
        )
        assert result == expected

    def test_stuffle_square(self, stuffle_alg):
        result = quasi_shuffle(stuffle_alg, element_of(Y1), element_of(Y1))
        expected = TensorElement([(word_of(Y2), 1), (word_of(Y1, Y1), 2)])
        assert result == expected

    def test_zero_algebra_is_plain_shuffle(self, zero_alg):
        result = quasi_shuffle(zero_alg, element_of(A, B), element_of(C))
        expected = TensorElement(
            [(word_of(A, B, C), 1), (word_of(A, C, B), 1), (word_of(C, A, B), 1)]
        )
        assert result == expected

    def test_bilinearity(self, stuffle_alg):
        x = TensorElement([(word_of(Y1), 2), (word_of(Y2), -1)])
        y = element_of(Y1)
        by_hand = 2 * quasi_shuffle(stuffle_alg, element_of(Y1), y) - quasi_shuffle(
            stuffle_alg, element_of(Y2), y
        )
        assert quasi_shuffle(stuffle_alg, x, y) == by_hand

    def test_letter_domain_checked(self, sym2):
        foreign = TensorElement.from_word(word_of(mono_letter((5,))))
        with pytest.raises(LetterDomainError):
            quasi_shuffle(sym2, foreign, element_of(X1))


class TestShuffleOracle:
    """Over the zero algebra the product must be the itertools shuffle."""

    def test_exhaustive_small_words(self, zero_alg):
        letters = [A, B, C]
        words = [()]
        words += [(l,) for l in letters]
        words += [(l, m) for l in letters for m in letters]
        for u in words:
            for v in words:
                expected = TensorElement(
                    (w, c) for w, c in shuffle_oracle(u, v).items()
                )
                got = quasi_shuffle(
                    zero_alg,
                    TensorElement.from_word(u),
                    TensorElement.from_word(v),
                )
                assert got == expected, (u, v)

    def test_repeated_letters_multiplicity(self, zero_alg):
        got = quasi_shuffle(zero_alg, element_of(A), element_of(A))
        assert got == TensorElement([(word_of(A, A), 2)])


class TestLatticePaths:
    def test_counts_match_delannoy(self):
        for p in range(0, 4):
            for q in range(0, 4):
                count = sum(1 for _ in enumerate_lattice_paths(p, q))
                assert count == delannoy_oracle(p, q), (p, q)

    def test_delannoy_2_2_is_13(self):
        assert sum(1 for _ in enumerate_lattice_paths(2, 2)) == 13

    def test_paths_reach_the_corner(self):
        for path in enumerate_lattice_paths(2, 3):
            assert sum(s[0] for s in path) == 2
            assert sum(s[1] for s in path) == 3
            assert max(2, 3) <= len(path) <= 5

    def test_single_letter_paths(self, sym2):
        result = quasi_shuffle_paths(sym2, word_of(X1), word_of(X2))
        assert result == quasi_shuffle(sym2, element_of(X1), element_of(X2))

    def test_empty_side(self, stuffle_alg):
        result = quasi_shuffle_paths(stuffle_alg, word_of(Y1), EMPTY_WORD)
        assert result == element_of(Y1)
        assert quasi_shuffle_paths(stuffle_alg, EMPTY_WORD, word_of(Y1)) == element_of(Y1)
        assert quasi_shuffle_paths(stuffle_alg, EMPTY_WORD, EMPTY_WORD).terms() == [((), 1)]

    def test_full_diagonal_gives_length_one_word(self, stuffle_alg):
        result = quasi_shuffle_paths(stuffle_alg, word_of(Y1, Y1), word_of(Y1, Y2))
        lengths = {len(w) for w in result.support()}
        assert 2 in lengths  # the all-diagonal path merges both positions
        assert result.coefficient(word_of(Y2, Y3)) == 1

    def test_oracle_equivalence_sampled(self, word2):
        rng = random.Random(11)
        for _ in range(60):
            u = tuple(
                word_letter((rng.randint(1, 2),)) for _ in range(rng.randint(0, 3))
            )
            v = tuple(
                word_letter((rng.randint(1, 2),)) for _ in range(rng.randint(0, 3))
            )
            assert quasi_shuffle_paths(word2, u, v) == quasi_shuffle(
                word2, TensorElement.from_word(u), TensorElement.from_word(v)
            )


class TestOperationTriple:
    def test_defining_clauses_on_letters(self, sym2):
        a, b = element_of(X1), element_of(X2)
        assert op_left(sym2, a, b) == element_of(X1, X2)
        assert op_right(sym2, a, b) == element_of(X2, X1)
        assert op_dot(sym2, a, b) == element_of(mono_letter((1, 2)))

    def test_unit_conventions(self, stuffle_alg):
        w = element_of(Y1, Y2)
        unit = TensorElement.unit()
        assert op_left(stuffle_alg, unit, w).is_zero
        assert op_left(stuffle_alg, w, unit) == w
        assert op_right(stuffle_alg, unit, w) == w
        assert op_right(stuffle_alg, w, unit).is_zero
        assert op_dot(stuffle_alg, unit, w).is_zero
        assert op_dot(stuffle_alg, w, unit).is_zero

    def test_double_unit_is_undefined(self, stuffle_alg):
        unit = TensorElement.unit()
        mixed = TensorElement([((), 1), ((Y1,), 1)])
        for op in (op_left, op_right, op_dot):
            with pytest.raises(UnitPairingError):
                op(stuffle_alg, unit, unit)
            with pytest.raises(UnitPairingError):
                op(stuffle_alg, mixed, mixed)

    def test_one_sided_unit_mixture_is_fine(self, stuffle_alg):
        mixed = TensorElement([((), 1), ((Y1,), 1)])
        w = element_of(Y2)
        assert op_left(stuffle_alg, mixed, w) == op_left(
            stuffle_alg, element_of(Y1), w
        )
        assert op_left(stuffle_alg, w, mixed) == w + op_left(
            stuffle_alg, w, element_of(Y1)
        )

    def test_splitting_identity_sampled(self):
        from qshuffle import builtin_algebras

        for alg in builtin_algebras():
            rng = random.Random(f"split:{alg.name}")
            for _ in range(25):
                x = random_element(alg, rng)
                y = random_element(alg, rng)
                total = (
                    op_left(alg, x, y) + op_right(alg, x, y) + op_dot(alg, x, y)
                )
                assert total == quasi_shuffle(alg, x, y)

    def test_star_associative_sampled(self):
        from qshuffle import builtin_algebras

        for alg in builtin_algebras():
            rng = random.Random(f"assoc:{alg.name}")
            for _ in range(15):
                x = random_element(alg, rng, max_total_degree=2)
                y = random_element(alg, rng, max_total_degree=2)
                z = random_element(alg, rng, max_total_degree=2)
                left = quasi_shuffle(alg, quasi_shuffle(alg, x, y), z)
                right = quasi_shuffle(alg, x, quasi_shuffle(alg, y, z))
                assert left == right, alg.name

    def test_commutativity_where_flagged(self):
        from qshuffle import builtin_algebras

        for alg in builtin_algebras():
            if not alg.is_commutative:
                continue
            rng = random.Random(f"comm:{alg.name}")
            for _ in range(20):
                x = random_element(alg, rng)
                y = random_element(alg, rng)
                assert quasi_shuffle(alg, x, y) == quasi_shuffle(alg, y, x)
                assert op_dot(alg, x, y) == op_dot(alg, y, x)
                assert op_right(alg, x, y) == op_left(alg, y, x)

    def test_projection_is_multiplicative(self, stuffle_alg):
        rng = random.Random(5)
        for _ in range(20):
            x = random_element(stuffle_alg, rng)
            y = random_element(stuffle_alg, rng)
            projected = _letter_part(quasi_shuffle(stuffle_alg, x, y))
            per_factor = _letter_product(stuffle_alg, _letter_part(x), _letter_part(y))
            assert projected == per_factor


def _letter_part(x):
    """The length-one words of ``x`` as a combination of their letters."""
    return CoeffCombination((w[0], c) for w, c in x.items() if len(w) == 1)


def _letter_product(alg, u, v):
    from qshuffle import CoeffCombination, multiply_letters

    acc = CoeffCombination.zero()
    for a, ca in u.items():
        for b, cb in v.items():
            acc = acc + (ca * cb) * multiply_letters(alg, a, b)
    return acc


class TestCoproduct:
    def test_deconcatenation_of_pair(self, zero_alg):
        result = deconcatenate(element_of(A, B))
        expected = TensorSquareElement(
            [
                ((EMPTY_WORD, word_of(A, B)), 1),
                ((word_of(A), word_of(B)), 1),
                ((word_of(A, B), EMPTY_WORD), 1),
            ]
        )
        assert result == expected

    def test_unit_coproduct(self):
        assert deconcatenate(TensorElement.unit()) == TensorSquareElement.from_pair(
            EMPTY_WORD, EMPTY_WORD
        )

    def test_counit(self, stuffle_alg):
        rng = random.Random(7)
        for _ in range(15):
            x = random_element(stuffle_alg, rng)
            left = TensorElement.zero()
            right = TensorElement.zero()
            for (u, v), c in deconcatenate(x).items():
                if not u:
                    right = right + TensorElement.basis(v, c)
                if not v:
                    left = left + TensorElement.basis(u, c)
            assert left == x
            assert right == x

    def test_coassociativity_sampled(self, sym2):
        from conftest import coproduct_then_left, coproduct_then_right

        rng = random.Random(13)
        for _ in range(15):
            x = random_element(sym2, rng)
            assert coproduct_then_left(x) == coproduct_then_right(x)

    def test_reduced_coproduct(self, zero_alg):
        red = reduced_coproduct(element_of(A, B))
        assert red == TensorSquareElement.from_pair(word_of(A), word_of(B))

    def test_reduced_requires_no_constant_term(self, zero_alg):
        with pytest.raises(DomainError):
            reduced_coproduct(TensorElement.unit())

    def test_primitive_iff_length_one(self, sym2):
        assert is_primitive(element_of(X1))
        assert is_primitive(element_of(mono_letter((1, 2))))
        assert not is_primitive(element_of(X1, X2))
        combo = TensorElement([(word_of(X1), 2), (word_of(X2), -3)])
        assert is_primitive(combo)

    def test_star_is_coalgebra_morphism(self, stuffle_alg):
        rng = random.Random(23)
        for _ in range(10):
            x = random_element(stuffle_alg, rng, max_total_degree=2)
            y = random_element(stuffle_alg, rng, max_total_degree=2)
            lhs = deconcatenate(quasi_shuffle(stuffle_alg, x, y))
            rhs = _reference_square(
                stuffle_alg, tensorq._shuffle_words, deconcatenate(x), deconcatenate(y)
            )
            assert dict(lhs.items()) == rhs


class TestCoradicalDegree:
    def test_stated_values(self, zero_alg):
        assert coradical_degree(TensorElement.zero()) == 0
        assert coradical_degree(TensorElement.unit()) == 0
        assert coradical_degree(3 * TensorElement.unit()) == 0
        assert coradical_degree(element_of(A)) == 1
        assert coradical_degree(element_of(A, B) + element_of(C)) == 2

    def test_matches_filtration_oracle(self, stuffle_alg):
        rng = random.Random(3)
        for _ in range(12):
            x = random_element(stuffle_alg, rng)
            assert coradical_degree(x) == coradical_degree_oracle(x)

    def test_product_is_filtered(self, sym2):
        rng = random.Random(9)
        for _ in range(15):
            x = random_element(sym2, rng, max_total_degree=2)
            y = random_element(sym2, rng, max_total_degree=2)
            product = quasi_shuffle(sym2, x, y)
            assert coradical_degree(product) <= coradical_degree(
                x
            ) + coradical_degree(y)


class TestInvolution:
    def test_letterwise_without_reorder(self, word2):
        w = element_of(word_letter((1, 2)), word_letter((2,)))
        result = involute_element(word2, w)
        assert result == element_of(word_letter((2, 1)), word_letter((2,)))

    def test_antiautomorphism_for_star(self, word2):
        rng = random.Random(17)
        for _ in range(15):
            x = random_element(word2, rng, max_total_degree=2)
            y = random_element(word2, rng, max_total_degree=2)
            lhs = involute_element(word2, quasi_shuffle(word2, x, y))
            rhs = quasi_shuffle(
                word2, involute_element(word2, y), involute_element(word2, x)
            )
            assert lhs == rhs


def test_operations_reject_foreign_types(stuffle_alg):
    with pytest.raises(TypeError):
        quasi_shuffle(stuffle_alg, element_of(Y1), "y1")


def _rational_product_algebra():
    """Letter product p.q = 2p - 1/2*c: its first letter repeats the left head."""
    return dataclasses.replace(
        _sum_product_algebra(),
        name="rational-product",
        cache={},
        product_rule=lambda p, q: CoeffCombination([(p, 2), (C, Fraction(-1, 2))]),
    )


REPEATED_HEADS = {
    "sum-product": _sum_product_algebra,
    "rational-product": _rational_product_algebra,
}


class TestRepeatedHeads:
    """No builtin letter product has the letter a or b in a.b, so only these
    algebras reach the branches of the recursion that are summed."""

    @pytest.mark.parametrize("name", sorted(REPEATED_HEADS))
    def test_recursion_matches_paths_and_the_three_operations(self, name):
        alg = REPEATED_HEADS[name]()
        words = [w for n in range(6) for w in itertools.product((A, B, C), repeat=n)]
        pairs = 0
        for u, v in itertools.product(words, repeat=2):
            if len(u) + len(v) > 5:
                continue
            x, y = TensorElement.from_word(u), TensorElement.from_word(v)
            product = quasi_shuffle(alg, x, y)
            assert product == quasi_shuffle_paths(alg, u, v), (u, v)
            if u or v:
                split = op_left(alg, x, y) + op_right(alg, x, y) + op_dot(alg, x, y)
                assert split == product, (u, v)
            pairs += 1
        assert pairs == sum((n + 1) * 3**n for n in range(6))


class TestMemoOwnership:
    @pytest.mark.parametrize(
        "alg",
        [*builtin_algebras(), *(make() for make in REPEATED_HEADS.values())],
        ids=lambda alg: alg.name,
    )
    def test_a_product_never_owns_a_memo_dict(self, alg):
        fresh = dataclasses.replace(alg, cache={})
        letters = fresh.letters_up_to_degree(2)[:3]
        words = [letters[:1], letters[:2], letters[1:3] + letters[:1], letters[-1:] * 2]
        for u, v in itertools.product(words, repeat=2):
            x, y = TensorElement.from_word(u), TensorElement.from_word(v)
            results = [op(fresh, x, y) for op in (quasi_shuffle, op_left, op_right, op_dot)]
            memo = fresh.cache["shuffle"]
            stored = {key: dict(image) for key, image in memo.items()}
            for result in results:
                assert all(result._terms is not image for image in memo.values())
                # arithmetic on a result must leave every memo entry as it was
                result + result, result - x, -result, 2 * result, Fraction(1, 3) * result
                result + TensorElement.zero()
            assert stored == memo


class TestRankOrder:
    """Elements and squares sort by letter ranks into ``word_sort_key`` order."""

    COEFFICIENTS = (-3, -1, 1, 2, Fraction(-1, 2), Fraction(5, 3))

    @pytest.mark.parametrize("alg", builtin_algebras(), ids=lambda alg: alg.name)
    def test_rank_order_is_word_sort_key_order(self, alg):
        rng = random.Random(f"rank-order:{alg.name}")
        for _ in range(12):
            words = [()] + [random_word(alg, rng, max_total_degree=4) for _ in range(6)]
            x = TensorElement([(w, rng.choice(self.COEFFICIENTS)) for w in words])
            y = random_element(alg, rng, max_total_degree=3)
            for element in (x, quasi_shuffle(alg, x, y)):
                fresh = element + TensorElement.zero()
                by_key = sorted(element.items(), key=lambda kv: tensorq.word_sort_key(kv[0]))
                assert fresh.terms() == by_key
            square = deconcatenate(x)
            by_key = sorted(square.items(), key=lambda kv: TensorSquareElement.sort_key(kv[0]))
            assert square.terms() == by_key
            assert x.coefficient(EMPTY_WORD) != 0

    def test_more_letters_than_one_byte_ranks(self):
        # 1,056 letters: ranks above 255 need code points wider than a byte
        letters = list(algebra_by_name("word32").letters_up_to_degree(2))
        assert len(letters) == 1056
        rng = random.Random("rank-order:word32")
        rng.shuffle(letters)
        words, start = [()], 0
        while start < len(letters):
            length = rng.randint(1, 4)
            words.append(tuple(letters[start : start + length]))
            words.append(tuple(rng.choice(letters) for _ in range(length)))
            start += length
        x = TensorElement({w: rng.choice(self.COEFFICIENTS) for w in words})
        assert set().union(*(w for w, _ in x.items())) == set(letters)
        by_key = sorted(x.items(), key=lambda kv: tensorq.word_sort_key(kv[0]))
        assert x.terms() == by_key
        square = deconcatenate(x)
        by_key = sorted(square.items(), key=lambda kv: TensorSquareElement.sort_key(kv[0]))
        assert square.terms() == by_key

    def test_a_length_beyond_the_code_points_sorts_by_sort_key(self):
        # chr codes lengths and ranks up to 1,114,111 only
        long = (Y1,) * 1_114_112
        x = TensorElement([(long, 1), ((Y2,), 2), ((), 3), ((Y1, Y1), -1)])
        assert x.terms() == [((), 3), ((Y2,), 2), ((Y1, Y1), -1), (long, 1)]
        square = TensorSquareElement([((long, ()), 1), (((), (Y2,)), 2), (((Y1,), ()), 3)])
        assert square.support() == [((), (Y2,)), ((Y1,), ()), (long, ())]


class TestOracleIndependence:
    """The recursion and the lattice-path oracle check each other, so they
    may share only the letter product, which is input data to both."""

    PATH_CACHE = ("_stored_gathers", "_compile_gathers", "_gather")
    PATH_ROUTE = ("quasi_shuffle_paths", *PATH_CACHE)
    RECURSION = ("_shuffle_words", "_word_op_left", "_word_op_right", "_word_op_dot")

    @staticmethod
    def _reach(functions, roots):
        """Every name the ``roots`` reference, following functions of the module."""
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in functions:
                todo.extend(
                    node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)
                )
        return seen

    @pytest.fixture(scope="class")
    def functions(self):
        tree = ast.parse(Path(tensorq.__file__).read_text())
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def test_every_named_function_exists(self, functions):
        for name in self.PATH_ROUTE + self.RECURSION + ("_letter_product",):
            assert name in functions

    def test_paths_use_nothing_of_the_recursion(self, functions):
        reached = self._reach(functions, self.PATH_ROUTE)
        assert not reached & {"_shuffle_words", "add_into", "bilinear", "_prefixed"}

    def test_recursion_uses_nothing_of_the_paths(self, functions):
        reached = self._reach(functions, self.RECURSION)
        assert not reached & set(self.PATH_ROUTE)

    def test_the_letter_product_is_the_one_shared_helper(self, functions):
        shared = self._reach(functions, self.PATH_ROUTE) & self._reach(
            functions, self.RECURSION
        )
        assert shared & set(functions) == {"_letter_product"}


def _decode(p, q, terms, gathers):
    """The steps of a compiled (word, coefficients) pair of gathers of a
    (p, q) pair whose letter products have ``terms`` entries each, and the
    entry each diagonal step takes of its product.

    Both gathers are applied to the table of their own positions, so they
    return the indices they read. An index that does not name the next
    letter of u, of v, or an entry of their product, a coefficient gather
    that reads other than the diagonal entries, or a path that does not end
    at (p, q), is refused.
    """
    positions = tuple(range(p + q + p * q * terms))
    word_of, coefficients_of = gathers
    steps, entries, merged, i, j = [], [], [], 0, 0
    for index in word_of(positions):
        if i < p and index == i:
            step = (1, 0)
        elif j < q and index == p + j:
            step = (0, 1)
        else:
            start = p + q + (i * q + j) * terms
            assert i < p and j < q and start <= index < start + terms
            step = (1, 1)
            entries.append(index - start)
            merged.append(index)
        steps.append(step)
        i, j = i + step[0], j + step[1]
    assert (i, j) == (p, q)
    assert coefficients_of(positions) == tuple(merged)
    return tuple(steps), tuple(entries)


def _path_expansion(u, v, product):
    """The sum over the reference's paths and over the entries of the letter
    products they cross, one word and coefficient per choice."""
    terms = Counter()
    for path in enumerate_lattice_paths(len(u), len(v)):
        words, i, j = [((), 1)], 0, 0
        for step in path:
            if step == (1, 1):
                entries = product(u[i], v[j])
            else:
                entries = [(u[i], 1)] if step == (1, 0) else [(v[j], 1)]
            words = [(w + (letter,), c * k) for w, c in words for letter, k in entries]
            i, j = i + step[0], j + step[1]
        for word, c in words:
            terms[word] += c
    return TensorElement([(word, c) for word, c in terms.items() if c])


class TestMemos:
    def test_cached_paths_match_the_generator(self):
        limit = tensorq._PATH_CACHE_LETTERS
        for p, q in itertools.product(range(limit + 1), repeat=2):
            if p + q > limit:
                continue
            gathers = tensorq._stored_gathers(p, q, 1)
            decoded = tuple(_decode(p, q, 1, pair) for pair in gathers)
            assert decoded == tuple(
                (path, (0,) * path.count((1, 1))) for path in enumerate_lattice_paths(p, q)
            ), (p, q)
            # distinct valid paths, as many as D(p, q): every path, once
            assert len(set(decoded)) == len(gathers) == delannoy_oracle(p, q), (p, q)
            assert tensorq._stored_gathers(p, q, 1) is gathers

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 3), (3, 3), (4, 2)])
    def test_empty_products_drop_every_diagonal_path_when_compiled(self, p, q):
        decoded = [_decode(p, q, 0, pair) for pair in tensorq._stored_gathers(p, q, 0)]
        kept = [path for path in enumerate_lattice_paths(p, q) if (1, 1) not in path]
        assert decoded == [(path, ()) for path in kept]
        assert len(kept) == math.comb(p + q, p) < delannoy_oracle(p, q)

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 3), (3, 3), (4, 2)])
    def test_two_entry_products_double_the_paths_at_each_diagonal(self, p, q):
        decoded = [_decode(p, q, 2, pair) for pair in tensorq._stored_gathers(p, q, 2)]
        expected = [
            (path, chosen)
            for path in enumerate_lattice_paths(p, q)
            for chosen in itertools.product((0, 1), repeat=path.count((1, 1)))
        ]
        # a choice is made where the path crosses a product, so the copies
        # of a path need not be adjacent
        assert sorted(decoded) == sorted(expected)
        assert len(set(decoded)) == len(decoded) > delannoy_oracle(p, q)

    @pytest.mark.parametrize("special", [(), ((A, 1), (B, 2))], ids=["empty", "two-entry"])
    def test_one_odd_product_drops_or_doubles_exactly_the_paths_through_it(self, special):
        # a.b = a for all letters but one pair, whose product is empty or two
        # terms: the other products get a zero entry, whose paths add nothing
        u, v = (A, B, C), (D, E)
        for odd in itertools.product(u, v):
            alg = dataclasses.replace(
                _sum_product_algebra(),
                name="one-odd-product",
                cache={},
                product_rule=lambda a, b: CoeffCombination(special if (a, b) == odd else [(a, 1)]),
            )
            got = quasi_shuffle_paths(alg, u, v)
            assert got == _path_expansion(u, v, lambda a, b: alg.product_rule(a, b).items())
            assert got == quasi_shuffle(alg, TensorElement.from_word(u), TensorElement.from_word(v))

    def test_one_key_per_shape_and_term_count(self):
        # a.b = a + b has one term when a is b, two otherwise
        alg, letters = _sum_product_algebra(), (A, B, C)
        tensorq._stored_gathers.cache_clear()
        for u, v in itertools.product(itertools.product(letters, repeat=2), repeat=2):
            expected = quasi_shuffle(alg, TensorElement.from_word(u), TensorElement.from_word(v))
            assert quasi_shuffle_paths(alg, u, v) == expected
        assert tensorq._stored_gathers.cache_info().currsize == 2  # terms 1 and 2

    def test_the_cache_stays_within_its_maxsize(self):
        maxsize = tensorq._stored_gathers.cache_info().maxsize
        assert maxsize == 3 * 91  # the shapes of at most 12 letters, 0 to 2 terms
        for terms in range(maxsize + 20):  # one path each
            tensorq._stored_gathers(3, 0, terms)
            assert tensorq._stored_gathers.cache_info().currsize <= maxsize
        assert tensorq._stored_gathers.cache_info().currsize == maxsize
        tensorq._stored_gathers.cache_clear()

    def test_long_pairs_stream_instead_of_being_stored(self):
        p = tensorq._PATH_CACHE_LETTERS // 2 + 1
        stored = tensorq._stored_gathers.cache_info()
        gathers = tensorq._compile_gathers(p, p - 1, 1)
        assert isinstance(gathers, types.GeneratorType)
        first = ((1, 0),) * p + ((0, 1),) * (p - 1)
        assert _decode(p, p - 1, 1, next(gathers)) == (first, ())
        assert tensorq._stored_gathers.cache_info() == stored

    def test_a_streamed_pair_equals_the_recursion(self, zero_alg):
        letters = zero_alg.letters_up_to_degree(2)[:3]
        u = tuple(itertools.islice(itertools.cycle(letters), 7))
        v = tuple(itertools.islice(itertools.cycle(letters[1:]), 6))
        assert len(u) + len(v) > tensorq._PATH_CACHE_LETTERS
        stored = tensorq._stored_gathers.cache_info()
        expected = quasi_shuffle(
            zero_alg, TensorElement.from_word(u), TensorElement.from_word(v)
        )
        assert quasi_shuffle_paths(zero_alg, u, v) == expected
        assert tensorq._stored_gathers.cache_info() == stored

    def test_products_of_three_terms_stream(self):
        alg = dataclasses.replace(
            _sum_product_algebra(),
            name="three-terms",
            cache={},
            product_rule=lambda a, b: CoeffCombination([(a, 1), (D, 2), (E, -1)]),
        )
        stored = tensorq._stored_gathers.cache_info()
        for u, v in [((A, B), (B,)), ((A,), (A, C)), ((B, A), (C, A))]:
            expected = quasi_shuffle(alg, TensorElement.from_word(u), TensorElement.from_word(v))
            assert quasi_shuffle_paths(alg, u, v) == expected
        assert tensorq._stored_gathers.cache_info() == stored

    def test_paths_that_cancel_drop_their_word(self):
        # a.b = -b and a.c = c: the paths (a.b, c) and (b, a.c) give -(b c) and +(b c)
        products = {(A, B): [(B, -1)], (A, C): [(C, 1)]}
        alg = dataclasses.replace(
            _sum_product_algebra(),
            name="cancelling",
            cache={},
            product_rule=lambda a, b: CoeffCombination(products.get((a, b), [])),
        )
        got = quasi_shuffle_paths(alg, (A,), (B, C))
        assert (B, C) not in got.support()
        assert got == TensorElement(
            [((A, B, C), 1), ((B, A, C), 1), ((B, C, A), 1)]
        )
        assert got == quasi_shuffle(alg, element_of(A), element_of(B, C))

    @pytest.mark.parametrize("name", ["sym2", "stuffle-y", "word2", "zero", "sum-product"])
    def test_each_letter_pair_is_multiplied_once(self, name):
        spec = _sum_product_algebra() if name == "sum-product" else algebra_by_name(name)
        calls = Counter()

        def counted(a, b):
            calls[a, b] += 1
            return spec.product_rule(a, b)

        fresh = dataclasses.replace(spec, cache={}, product_rule=counted)
        letters = fresh.letters_up_to_degree(2)[:3]
        words = [(), letters[:1], letters[:2], letters[1:3] + letters[:1], letters[2:] * 2]
        for u in words:
            for v in words:
                x, y = TensorElement.from_word(u), TensorElement.from_word(v)
                expected = quasi_shuffle(spec, x, y)
                assert quasi_shuffle(fresh, x, y) == expected
                assert quasi_shuffle_paths(fresh, u, v) == expected
                if u or v:
                    assert op_dot(fresh, x, y) == op_dot(spec, x, y)
        assert calls and set(calls.values()) == {1}
        assert set(fresh.cache["letter"]) == set(calls)

    @pytest.mark.parametrize("name", ["sym2", "stuffle-y", "word2", "zero", "sum-product"])
    def test_each_letter_is_checked_once(self, name):
        spec = _sum_product_algebra() if name == "sum-product" else algebra_by_name(name)
        calls = Counter()

        def counted(letter):
            calls[letter] += 1
            return spec.member_rule(letter)

        fresh = dataclasses.replace(spec, cache={}, member_rule=counted)
        letters = fresh.letters_up_to_degree(2)[:3]
        words = [(), letters[:1], letters[:2], letters[1:3] + letters[:1], letters[2:] * 2]
        for u in words:
            for v in words:
                x, y = TensorElement.from_word(u), TensorElement.from_word(v)
                assert quasi_shuffle(fresh, x, y) == quasi_shuffle(spec, x, y)
                assert quasi_shuffle_paths(fresh, u, v) == quasi_shuffle_paths(spec, u, v)
                if u or v:
                    assert op_left(fresh, x, y) == op_left(spec, x, y)
                if fresh.has_involution:
                    assert involute_element(fresh, x + y) == involute_element(spec, x + y)
        assert set(calls) == set(letters) and set(calls.values()) == {1}
        assert fresh.cache["member"] == set(letters)

    def test_known_letters_are_not_checked_one_by_one(self, sym2, monkeypatch):
        x = TensorElement([((X1, X2, X1), 2), ((X2,), -1), ((), 1)])
        expected = quasi_shuffle(sym2, x, x)

        def refuse(alg, letter):
            raise AssertionError(f"{letter} checked again")

        monkeypatch.setattr(tensorq, "_require_member", refuse)
        assert quasi_shuffle(sym2, x, x) == expected
        assert quasi_shuffle_paths(sym2, (X1, X2), (X2, X1, X1)) == quasi_shuffle(
            sym2, element_of(X1, X2), element_of(X2, X1, X1)
        )

    def test_each_letter_is_involuted_once(self, word2):
        calls = Counter()

        def counted(letter):
            calls[letter] += 1
            return word2.involution_rule(letter)

        fresh = dataclasses.replace(word2, cache={}, involution_rule=counted)
        a, b, c = word_letter((1, 2)), word_letter((2,)), word_letter((2, 2, 1))
        x = TensorElement([((a, b, a), 2), ((b, b), -1), ((c, a), Fraction(1, 3)), ((), 5)])
        assert involute_element(fresh, x) == involute_element(word2, x)
        assert calls == {a: 1, b: 1, c: 1}

    def test_first_foreign_letter_is_named(self, sym2):
        x3, x4 = mono_letter((3,)), mono_letter((4,))
        fresh = dataclasses.replace(sym2, cache={})
        for warm in (False, True):
            if warm:
                quasi_shuffle(fresh, element_of(X1, X2), element_of(X2))
            for first, second in ((x3, x4), (x4, x3)):
                x = TensorElement([((X1, X2), 1), ((X1, first, X2, second), 3), ((second,), 1)])
                message = f"letter {first} is not in the basis family of sym2"
                with pytest.raises(LetterDomainError, match=f"^{message}$"):
                    op_dot(fresh, x, element_of(X1))
                with pytest.raises(LetterDomainError, match=f"^{message}$"):
                    quasi_shuffle_paths(fresh, (X2, first), (second,))
        assert fresh.cache["member"] == {X1, X2}

    def test_an_iterator_of_words_is_checked_in_full(self, sym2):
        quasi_shuffle(sym2, element_of(X1), element_of(X2))  # accepted letters known
        x3 = mono_letter((3,))
        words = [(X1,), (x3,)]
        for once in (iter(words), (word for word in words)):
            with pytest.raises(LetterDomainError, match=f"^letter {x3} is not"):
                tensorq._check_words(sym2, once)
        assert tensorq._check_words(sym2, iter([(X1, X2), (X2,)])) is None

    @pytest.mark.parametrize("item", ["x1", 1, [X1], None])
    def test_non_letters_in_path_words_are_refused(self, sym2, item):
        quasi_shuffle(sym2, element_of(X1), element_of(X2))
        with pytest.raises(LetterDomainError, match="is not in the basis family of sym2"):
            quasi_shuffle_paths(sym2, (X1,), (X2, item))
