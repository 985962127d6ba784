"""Products, operations, coproduct, and filtration on the tensor module."""

import ast
import dataclasses
import random
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from qshuffle import (
    EMPTY_WORD,
    DomainError,
    LetterDomainError,
    TensorElement,
    TensorSquareElement,
    UnitPairingError,
    algebra_by_name,
    atom_letter,
    coradical_degree,
    deconcatenate,
    enumerate_lattice_paths,
    involute_element,
    is_primitive,
    mono_letter,
    op_dot,
    op_left,
    op_right,
    project_to_letters,
    quasi_shuffle,
    quasi_shuffle_paths,
    reduced_coproduct,
    square_star,
    weight_letter,
    word_degree,
    word_letter,
)
from qshuffle import tensorq
from qshuffle.sampling import random_element

from conftest import coradical_degree_oracle, delannoy_oracle, shuffle_oracle
from test_laws import _sum_product_algebra


def word_of(*letters):
    return tuple(letters)


def element_of(*letters):
    return TensorElement.from_word(tuple(letters))


A = atom_letter("a")
B = atom_letter("b")
C = atom_letter("c")
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
            projected = project_to_letters(quasi_shuffle(stuffle_alg, x, y))
            per_factor = _letter_product(
                stuffle_alg, project_to_letters(x), project_to_letters(y)
            )
            assert projected == per_factor


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
            rhs = square_star(stuffle_alg, deconcatenate(x), deconcatenate(y))
            assert lhs == rhs


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


def test_word_degree():
    assert word_degree(EMPTY_WORD) == 0
    assert word_degree(word_of(Y2, Y3)) == 5
    assert word_degree(word_of(mono_letter((1, 2)), X1)) == 3


def test_operations_reject_foreign_types(stuffle_alg):
    with pytest.raises(TypeError):
        quasi_shuffle(stuffle_alg, element_of(Y1), "y1")


class TestOracleIndependence:
    """The recursion and the lattice-path oracle check each other, so they
    may share only the letter product, which is input data to both."""

    PATH_ROUTE = ("quasi_shuffle_paths", "_path_word_terms", "_lattice_paths", "_cached_paths")
    PATH_CACHE = ("_lattice_paths", "_cached_paths")
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
        assert not reached & {"enumerate_lattice_paths", *self.PATH_CACHE}

    def test_the_letter_product_is_the_one_shared_helper(self, functions):
        shared = self._reach(functions, self.PATH_ROUTE) & self._reach(
            functions, self.RECURSION
        )
        assert shared & set(functions) == {"_letter_product"}


class TestMemos:
    def test_cached_paths_match_the_generator(self):
        for p, q in ((0, 0), (1, 0), (0, 3), (2, 2), (3, 4), (6, 6)):
            paths = tensorq._lattice_paths(p, q)
            assert paths == tuple(enumerate_lattice_paths(p, q))
            assert len(paths) == delannoy_oracle(p, q)
            assert tensorq._lattice_paths(p, q) is paths

    def test_long_pairs_stream_instead_of_being_stored(self):
        p = tensorq._PATH_CACHE_LETTERS // 2 + 1
        stored = tensorq._cached_paths.cache_info().currsize
        paths = tensorq._lattice_paths(p, p - 1)
        assert isinstance(paths, types.GeneratorType)
        assert next(paths) == ((1, 0),) * p + ((0, 1),) * (p - 1)
        assert tensorq._cached_paths.cache_info().currsize == stored
        assert isinstance(enumerate_lattice_paths(1, 1), types.GeneratorType)

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
